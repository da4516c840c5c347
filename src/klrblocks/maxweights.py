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
min X = 0 all along, and A X = Lambda - Lambda' holds arrow by arrow.  With
bitmasks of the intervals (one table per e), an arrow test is one AND on the
bitmask of X's zeros.  `follow` takes one checked step along a chosen label,
for the walks that pick their arrows (the tagged subquiver).  Everything is
integer arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from .cartan import NoSolutionError, Record, RootVector, WeightCoeffs, solve_pinned


# e one weight may have.  The class walk's label table holds e^2 labels of e
# bits each: `maxweights` of Lambda_0 took 0.44 s and 65 MB at e = 512, and
# 1.6 s and 276 MB at e = 1000 (CLI process, 2-vCPU VM, Python 3.11).
MAX_E = 512


class LevelKDominant(Record):
    """A level-k dominant weight with implicit delta coefficient zero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) < 2:
            raise ValueError("need at least 2 coefficients (ell >= 1)")
        if len(coeffs) > MAX_E:
            raise ValueError(f"e = {len(coeffs)} exceeds the limit MAX_E = {MAX_E}")
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

    `x` solves A x = <h, Lambda - weight> with min x = 0, `beta` is the
    corresponding root vector, and `max_weight` = Lambda - beta on the
    Lambda/delta basis (its delta coefficient is -x_0).
    """

    __slots__ = ("weight", "x", "beta", "max_weight")

    def __init__(
        self,
        weight: LevelKDominant,
        x: tuple[int, ...],
        beta: RootVector,
        max_weight: WeightCoeffs,
    ) -> None:
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "max_weight", max_weight)


LABEL_TABLE_CACHE = 32  # label tables kept, one per e
MAX_CLASS_MEMBERS = 20_000  # members one class walk may reach


class ClassTooLargeError(ValueError):
    """The sieving class has more than MAX_CLASS_MEMBERS members."""


@lru_cache(maxsize=LABEL_TABLE_CACHE)
def _label_table(e: int) -> tuple[tuple[tuple | None, ...], ...]:
    """Per label (i, j) at e = ell + 1: (gap, window, start), where gap is the
    bitmask of [j+1, i-1] and window[start:start + e] is the indicator of
    [i, j]; None for the loop labels j = i - 1 mod e.

    The window is a doubled 0/1 pattern shared by every label whose interval
    has the same length, so a table holds O(e^2) integers.  The gap is the
    complement of [i, j], so it is also the bitmask of the zeros of X that
    survive the arrow.
    """
    full = (1 << e) - 1
    windows = [((1,) * n + (0,) * (e - n)) * 2 for n in range(e)]
    table = []
    for i in range(e):
        row = []
        for j in range(e):
            n = (j - i) % e + 1  # the length of [i, j]
            if n == e:
                row.append(None)
                continue
            inside = ((1 << n) - 1) << i
            row.append((full & ~(inside | inside >> e), windows[n], -i % e))
        table.append(tuple(row))
    return tuple(table)


def class_walk(
    coeffs: tuple[int, ...], arrows: list | None = None
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Breadth-first walk of the weight quiver from `coeffs`: member -> X.

    The members are exactly the sieving class of `coeffs`, in the order the
    walk reaches them, and each X is the unique solution of
    A X = <h, base - member> with min X = 0.  When `arrows` is a list, every
    arrow (source coeffs, target coeffs, (i, j)) is appended to it once.
    Raises ClassTooLargeError once the walk reaches more than
    MAX_CLASS_MEMBERS members.
    """
    e = len(coeffs)
    table = _label_table(e)
    zero = (0,) * e
    xs = {coeffs: zero}
    frontier = [(coeffs, zero, (1 << e) - 1)]
    while frontier:
        nxt = []
        for src, x, zeros in frontier:
            support = [i for i in range(e) if src[i]]
            for i in support:
                row = table[i]
                for j in support:
                    label = row[j]
                    if label is None or not zeros & label[0] or (i == j and src[i] < 2):
                        continue
                    dst = list(src)
                    dst[i] -= 1
                    dst[j] -= 1
                    dst[i - 1] += 1
                    dst[(j + 1) % e] += 1
                    dst = tuple(dst)
                    if dst not in xs:
                        _, window, start = label
                        x_dst = tuple(map(add, x, window[start : start + e]))
                        xs[dst] = x_dst
                        if len(xs) > MAX_CLASS_MEMBERS:
                            raise ClassTooLargeError(
                                f"the class of {coeffs} has more than "
                                f"{MAX_CLASS_MEMBERS} members"
                            )
                        nxt.append((dst, x_dst, zeros & label[0]))
                    if arrows is not None:
                        arrows.append((src, dst, (i, j)))
        frontier = nxt
    return xs


def follow(
    src: tuple[int, ...], x: tuple[int, ...], i: int, j: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The arrow (i, j) out of the member `src` with solution vector `x`:
    its target and the target's X.  Indices are read mod e.

    Raises ValueError when no such arrow leaves `src`: (i, j) is a loop label
    (j = i - 1 mod e), `x` has no zero on [j+1, i-1], or `src` lacks the
    summands Lambda_i + Lambda_j.
    """
    e = len(src)
    i, j = i % e, j % e
    label = _label_table(e)[i][j]
    if label is None:
        raise ValueError(f"({i},{j}) is a loop label (j = i - 1 mod e)")
    gap, window, start = label
    if not any(v == 0 and gap >> h & 1 for h, v in enumerate(x)):
        raise ValueError(f"X = {x} has no zero on [{(j + 1) % e},{(i - 1) % e}]")
    if src[i] < 1 + (i == j) or src[j] < 1:
        raise ValueError(f"weight {src} has no move ({i},{j})")
    dst = list(src)
    dst[i] -= 1
    dst[j] -= 1
    dst[i - 1] += 1
    dst[(j + 1) % e] += 1
    return tuple(dst), tuple(map(add, x, window[start : start + e]))


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


def max_weight_entry(coeffs: tuple[int, ...], x: tuple[int, ...]) -> MaxWeightEntry:
    """The entry of the class member `coeffs`, whose solution vector against
    the base is `x`.

    A x = <h, base - member>, so base - sum_i x_i alpha_i has Lambda part
    `coeffs` and delta coefficient -x_0.  The members and their X come from a
    walk out of a checked base: each move keeps the length, the level and
    nonnegativity, and X >= 0 by construction.  So the four records are built
    without their constructors' checks (a pickle or deep copy rebuilds them
    through the checks).
    """
    new, put = object.__new__, object.__setattr__
    weight = new(LevelKDominant)
    put(weight, "coeffs", coeffs)
    beta = new(RootVector)
    put(beta, "coeffs", x)
    max_weight = new(WeightCoeffs)
    put(max_weight, "lam", coeffs)
    put(max_weight, "delta", -x[0])
    entry = new(MaxWeightEntry)
    put(entry, "weight", weight)
    put(entry, "x", x)
    put(entry, "beta", beta)
    put(entry, "max_weight", max_weight)
    return entry


def max_plus(base: LevelKDominant) -> list[MaxWeightEntry]:
    """One entry per class member, in the class's lexicographic order."""
    xs = class_walk(base.coeffs)
    return [max_weight_entry(c, xs[c]) for c in sorted(xs)]


P_LAMBDA_CACHE = 256  # X-vector sets kept, one per base weight


@lru_cache(maxsize=P_LAMBDA_CACHE)
def p_lambda_set(base: LevelKDominant) -> frozenset[tuple[int, ...]]:
    """The set of X-vectors of the class of `base` (membership test for beta)."""
    return frozenset(class_walk(base.coeffs).values())
