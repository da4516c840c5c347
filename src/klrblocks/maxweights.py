"""Dominant maximal weights via the sieving equivalence class.

For a level-k dominant weight Lambda, the class members Lambda' are exactly
the level-k dominant weights with ev(Lambda') = ev(Lambda) mod e, and each one
determines a unique nonnegative solution X (with min X = 0) of A X^t = Y^t,
where Y_i = <h_i, Lambda - Lambda'>.  The dominant maximal weights are then
Lambda - sum_i x_i alpha_i.

The class is generated with the ev constraint built in, and X comes from the
closed form of the cyclic second difference (`cartan.solve_pinned`): with
d_i = x_{i+1} - x_i and x_0 pinned, e d_0 = sum_{i>=1} (e - i) y_i, and X is
integral iff that sum is 0 mod e.  Everything is integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cartan import (
    AffineRank,
    NoSolutionError,
    RootVector,
    WeightCoeffs,
    root_to_weight,
    rotate_tuple,
    solve_pinned,
)


@dataclass(frozen=True)
class LevelKDominant:
    """A level-k dominant weight with implicit delta coefficient zero."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) < 2:
            raise ValueError("need at least 2 coefficients (ell >= 1)")
        if any(c < 0 for c in self.coeffs):
            raise ValueError(f"coefficients must be nonnegative, got {self.coeffs}")
        if sum(self.coeffs) < 1:
            raise ValueError("level must be >= 1")

    @property
    def level(self) -> int:
        return sum(self.coeffs)

    @property
    def rank(self) -> AffineRank:
        return AffineRank(len(self.coeffs) - 1)

    def sigma(self, shift: int) -> "LevelKDominant":
        return LevelKDominant(rotate_tuple(self.coeffs, shift))

    def to_weight(self) -> WeightCoeffs:
        return WeightCoeffs(self.coeffs, 0)

    def support(self) -> list[int]:
        return [i for i, c in enumerate(self.coeffs) if c > 0]


@dataclass(frozen=True)
class MaxWeightEntry:
    """One dominant maximal weight, indexed by its class member.

    `x` solves A x = <h, Lambda - weight> with min x = 0, `beta` is the
    corresponding root vector, and `max_weight` = Lambda - beta on the
    Lambda/delta basis (its delta coefficient is -x_0).
    """

    weight: LevelKDominant
    x: tuple[int, ...]
    beta: RootVector
    max_weight: WeightCoeffs


def ev(w: LevelKDominant) -> int:
    """The sieving statistic: sum over i >= 1 of coeffs[i] * i, mod e."""
    e = len(w.coeffs)
    return sum(i * c for i, c in enumerate(w.coeffs)) % e


def equiv_class(w: LevelKDominant) -> list[LevelKDominant]:
    """All level-k dominant weights equivalent to w, sorted lexicographically.

    The ev constraint is built into the generation: c_2..c_{e-1} are chosen
    freely, c_1 runs over the residue class that restores ev(w) mod e, and
    c_0 takes the rest of the level.
    """
    e = len(w.coeffs)
    members = []

    def fill(i: int, tail: tuple[int, ...], left: int, need: int) -> None:
        # tail = (c_{i+1}, ..., c_{e-1}); need = ev(w) - sum_{j>i} j c_j mod e
        if i == 1:
            for c1 in range(need % e, left + 1, e):
                members.append(LevelKDominant((left - c1, c1) + tail))
            return
        for c in range(left + 1):
            fill(i - 1, (c,) + tail, left - c, need - i * c)

    fill(e - 1, (), w.level, ev(w))
    members.sort(key=lambda m: m.coeffs)
    return members


def solve_x(base: LevelKDominant, target: LevelKDominant) -> tuple[int, ...]:
    """The unique nonnegative X with min X = 0 and A X^t = <h, base - target>^t.

    Raises NoSolutionError when target is not equivalent to base.
    """
    if len(base.coeffs) != len(target.coeffs):
        raise ValueError("base and target must have the same rank")
    if base.level != target.level:
        raise NoSolutionError("base and target have different levels")
    rank = base.rank
    y = tuple(b - t for b, t in zip(base.coeffs, target.coeffs))
    x = solve_pinned(rank, y, 0)
    m = min(x)
    return tuple(v - m for v in x)


def max_weight_entry(
    base: LevelKDominant, member: LevelKDominant, x: tuple[int, ...]
) -> MaxWeightEntry:
    """The entry of `member`, whose solution vector against `base` is `x`."""
    max_weight = base.to_weight() - root_to_weight(x, base.rank)
    return MaxWeightEntry(member, x, RootVector(x), max_weight)


def max_plus(base: LevelKDominant) -> list[MaxWeightEntry]:
    """One entry per class member, in the class's lexicographic order."""
    return [max_weight_entry(base, m, solve_x(base, m)) for m in equiv_class(base)]


P_LAMBDA_CACHE = 256  # X-vector sets kept, one per base weight


@lru_cache(maxsize=P_LAMBDA_CACHE)
def p_lambda_set(base: LevelKDominant) -> frozenset[tuple[int, ...]]:
    """The set of X-vectors of the class of `base` (membership test for beta)."""
    return frozenset(entry.x for entry in max_plus(base))
