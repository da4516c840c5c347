"""Dominant maximal weights via the sieving equivalence class.

For a level-k dominant weight Lambda, the class members Lambda' are exactly
the level-k dominant weights with ev(Lambda') = ev(Lambda) mod e, and each one
determines a unique nonnegative solution X (with min X = 0) of A X^t = Y^t,
where Y_i = <h_i, Lambda - Lambda'>.  The dominant maximal weights are then
Lambda - sum_i x_i alpha_i.

The class and every X come from one walk of the weight quiver
(`class_walk`): the base has X = 0, and the arrow (i, j) leaves a member
exactly when X vanishes somewhere on the cyclic interval [j+1, i-1]; it adds
the indicator of [i, j] to X.  Every arrow keeps a zero of X in its gap, so
min X = 0 all along, and A X = Lambda - Lambda' holds arrow by arrow.  The
gap holds a zero exactly when it holds the first zero of X going down
cyclically from i - 1, which the bitmask of X's zeros gives once per member
and i, so each arrow test is one comparison.  The walk gives each arrow by
the positions of its ends in the class it returns.  `follow` takes one
checked step along a chosen label, for the walks that pick their arrows (the
tagged subquiver), and works out only that label.  Everything is integer
arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import comb, gcd
from operator import add

from .cartan import (
    LimitError, NoSolutionError, Record, RootVector, WeightCoeffs, elide, interval_delta,
    solve_pinned,
)


# e one weight may have: `maxweights` of 2 Lambda_0 took 0.07 s and 21 MB at
# e = 512 (CLI process, 2-vCPU VM, Python 3.11).
MAX_E = 512


class LevelKDominant(Record):
    """A level-k dominant weight with implicit delta coefficient zero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        Record.__init__(self, coeffs)
        if len(coeffs) < 2:
            raise ValueError("need at least 2 coefficients (ell >= 1)")
        if len(coeffs) > MAX_E:
            raise LimitError(f"e = {len(coeffs)}", "MAX_E", MAX_E)
        if min(coeffs) < 0:
            raise ValueError(f"coefficients must be nonnegative, got {coeffs}")
        if sum(coeffs) < 1:
            raise ValueError("level must be >= 1")

    @property
    def level(self) -> int:
        return sum(self.coeffs)

    def support(self) -> list[int]:
        return [i for i, c in enumerate(self.coeffs) if c > 0]


class MaxWeightEntry(Record):
    """One dominant maximal weight, indexed by its class member.

    `x` solves A x = <h, Lambda - weight> with min x = 0.  The member and x
    fix the rest, which is read off them: `beta` is x as a root vector, and
    `max_weight` = Lambda - beta on the Lambda/delta basis has Lambda part
    `weight.coeffs` and delta coefficient -x_0.
    """

    __slots__ = ("weight", "x")

    @property
    def beta(self) -> RootVector:
        return RootVector._trusted(self.x)  # x >= 0

    @property
    def max_weight(self) -> WeightCoeffs:
        return WeightCoeffs._trusted(self.weight.coeffs, -self.x[0])


MAX_CLASS_MEMBERS = 20_000  # members one class walk may reach


def _mobius(n: int) -> int:
    """The Moebius function of n >= 1, by trial division."""
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def class_size(coeffs: tuple[int, ...]) -> int:
    """The number of members of the sieving class of `coeffs`, in closed form.

    The class of a level-k weight Lambda is the level-k dominant weights mu
    with Lambda - mu in the root lattice (Kac, Infinite-Dimensional Lie
    Algebras, Prop. 12.6): the compositions of k into e parts with
    sum_i i mu_i = s = sum_i i Lambda_i mod e.  A roots-of-unity filter
    counts them,

        N = (1/e) sum_{d | gcd(e, k)} C(e/d + k/d - 1, e/d - 1) c_d(s),

    where c_d(s) = sum_{m | gcd(d, s)} mobius(d/m) m is Ramanujan's sum.
    """
    e, k = len(coeffs), sum(coeffs)
    s = sum([i * c for i, c in enumerate(coeffs)]) % e
    g = gcd(e, k)
    total = 0
    for d in range(1, g + 1):
        if g % d == 0:
            h = gcd(d, s)
            c_d = sum([_mobius(d // m) * m for m in range(1, h + 1) if h % m == 0])
            total += comb(e // d + k // d - 1, e // d - 1) * c_d
    return total // e


def class_limit_error(coeffs: tuple[int, ...]) -> LimitError:
    """The refusal of the class of `coeffs` past MAX_CLASS_MEMBERS, which it
    reads when called, so that a patched limit shows in the message."""
    return LimitError(f"the class of {elide(coeffs)}", "MAX_CLASS_MEMBERS", MAX_CLASS_MEMBERS)


def class_walk(
    coeffs: tuple[int, ...], arrows: list | None = None
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Breadth-first walk of the weight quiver from `coeffs`: member -> X.

    The members are exactly the sieving class of `coeffs`, in the order the
    walk reaches them, and each X is the unique solution of
    A X = <h, base - member> with min X = 0.  When `arrows` is a list, every
    arrow (source index, target index, (i, j)) is appended to it once, where
    a member's index is its position in the returned dict (the base is 0).
    Raises LimitError when the class has more than MAX_CLASS_MEMBERS
    members: before the walk when `class_size` says so, which it is asked
    only when C(e + k - 1, k), the count of all level-k weights, is over the
    limit; and in the walk once it reaches member MAX_CLASS_MEMBERS + 1.
    """
    e, k = len(coeffs), sum(coeffs)
    if comb(e + k - 1, k) > MAX_CLASS_MEMBERS and class_size(coeffs) > MAX_CLASS_MEMBERS:
        raise class_limit_error(coeffs)
    full, zero, indices = (1 << e) - 1, (0,) * e, range(e)
    windows = {}  # n -> the doubled indicator of [0, n]
    ids = {coeffs: 0}  # member -> index, in the order reached
    xs = [zero]  # X by index
    frontier = [(coeffs, 0, zero, full)]
    while frontier:
        nxt = []
        for src, s, x, zeros in frontier:
            support = list(compress(indices, src))
            for i in support:
                # z is the first zero of X going down cyclically from i - 1;
                # the gap [j+1, i-1] holds a zero iff it holds z, that is iff
                # n = (j - i) mod e is less than (z - i) mod e (never if z = i)
                z = ((zeros & ((1 << i) - 1)) or zeros).bit_length() - 1
                reach = (z - i) % e
                for j in support:
                    n = (j - i) % e
                    if n >= reach or (i == j and src[i] < 2):
                        continue
                    dst = list(src)
                    dst[i] -= 1
                    dst[j] -= 1
                    dst[i - 1] += 1
                    dst[(j + 1) % e] += 1
                    dst = tuple(dst)
                    d = ids.get(dst)
                    if d is None:
                        d = ids[dst] = len(xs)
                        if d >= MAX_CLASS_MEMBERS:
                            raise class_limit_error(coeffs)
                        window = windows.get(n)
                        if window is None:
                            window = windows[n] = interval_delta(0, n, e) * 2
                        start = -i % e
                        x_dst = tuple(map(add, x, window[start : start + e]))
                        xs.append(x_dst)
                        # the zeros that survive lie on the gap [j+1, i-1]
                        gap = (1 << i) - (2 << j) + (full if i <= j else 0)
                        nxt.append((dst, d, x_dst, zeros & gap))
                    if arrows is not None:
                        arrows.append((s, d, (i, j)))
        frontier = nxt
    return dict(zip(ids, xs))


def follow(
    src: tuple[int, ...], x: tuple[int, ...], i: int, j: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The arrow (i, j) out of the member `src` with solution vector `x`:
    its target and the target's X.  Indices are read mod e.

    The target's X is x plus the indicator of [i, j], and for x >= 0 it has a
    zero exactly when x vanishes somewhere on the gap [j+1, i-1], which the
    loop label (j = i - 1 mod e, [i, j] = I) leaves empty.  Raises
    ValueError when no such arrow leaves `src`: the target's X has no zero,
    or `src` lacks the summands Lambda_i + Lambda_j.
    """
    e = len(src)
    i, j = i % e, j % e
    x_dst = tuple(map(add, x, interval_delta(i, j, e)))
    if 0 not in x_dst:
        if (i - j) % e == 1:
            raise ValueError(f"({i},{j}) is a loop label (j = i - 1 mod e)")
        raise ValueError(f"X = {x} has no zero on [{(j + 1) % e},{(i - 1) % e}]")
    if src[i] < 1 + (i == j) or src[j] < 1:
        raise ValueError(f"weight {src} has no move ({i},{j})")
    dst = list(src)
    dst[i] -= 1
    dst[j] -= 1
    dst[i - 1] += 1
    dst[(j + 1) % e] += 1
    return tuple(dst), x_dst


def equiv_class(w: LevelKDominant) -> list[LevelKDominant]:
    """All level-k dominant weights equivalent to w, sorted lexicographically."""
    return [LevelKDominant(c) for c in sorted(class_walk(w.coeffs))]


def solve_x(base: LevelKDominant, target: LevelKDominant) -> tuple[int, ...]:
    """The unique nonnegative X with min X = 0 and A X^t = <h, base - target>^t.

    Raises NoSolutionError when target is not equivalent to base.
    """
    if len(base.coeffs) != len(target.coeffs):
        raise ValueError("base and target must have the same length")
    if base.level != target.level:
        raise NoSolutionError("base and target have different levels")
    y = tuple(b - t for b, t in zip(base.coeffs, target.coeffs))
    x = solve_pinned(y, 0)
    m = min(x)
    return tuple(v - m for v in x)


def max_plus(base: LevelKDominant) -> list[MaxWeightEntry]:
    """One entry per class member, in the class's lexicographic order.

    The walk out of a checked base keeps each member's length, level and
    nonnegativity, and X >= 0, so the records skip their checks.
    """
    xs = class_walk(base.coeffs)
    return [MaxWeightEntry._trusted(LevelKDominant._trusted(c), xs[c]) for c in sorted(xs)]


P_LAMBDA_CACHE = 256  # X-vector sets kept, one per base weight


@lru_cache(maxsize=P_LAMBDA_CACHE)
def p_lambda_set(base: LevelKDominant) -> frozenset[tuple[int, ...]]:
    """The set of X-vectors of the class of `base` (membership test for beta)."""
    return frozenset(class_walk(base.coeffs).values())
