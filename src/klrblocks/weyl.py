"""Reduction of an arbitrary positive root to its orbit representative.

A block labelled by beta is nonvanishing exactly when Lambda - beta is a
weight of the integrable module V(Lambda).  The reduction reflects
Lambda - beta into the dominant chamber the plain way: repeatedly reflect at
the smallest index with a negative pairing, in integers on the Lambda/delta
coefficients.  The dominant result mu+ satisfies Lambda - mu+ = sum_i x_i
alpha_i for one integer X, and the block is nonvanishing iff X >= 0: the
weights of V(Lambda) are W . {mu in P+ : mu <= Lambda} (Kac, Infinite-
Dimensional Lie Algebras, Prop. 12.5).  X - min(X) is then the solution
vector of the class member on mu+'s Lambda part, so no sieving class is built.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .cartan import (
    AffineRank,
    RootVector,
    WeightCoeffs,
    delta_decompose,
    root_to_weight,
    solve_pinned,
)
from .maxweights import LevelKDominant


class IterationCapExceededError(RuntimeError):
    """The dominance loop hit its cap; the input is outside every integrable
    weight system or the cap was too small."""


class OrbitStatus(enum.Enum):
    ZERO = "Zero"
    NONZERO = "Nonzero"


@dataclass(frozen=True)
class OrbitResult:
    status: OrbitStatus
    beta0: RootVector | None
    m: int
    reflection_count: int


def _reflect(lam: list[int], i: int, e: int) -> int:
    """Apply r_i to the Lambda coefficients `lam` in place; return the delta change.

    r_i(mu) = mu - c alpha_i with c = lam[i] and alpha_i = 2 Lambda_i -
    Lambda_{i-1} - Lambda_{i+1} (+ delta if i = 0); at e = 2 both neighbours
    are the other index.
    """
    c = lam[i]
    lam[i] = -c
    lam[(i - 1) % e] += c
    lam[(i + 1) % e] += c
    return -c if i == 0 else 0


def simple_reflect(mu: WeightCoeffs, i: int, rank: AffineRank) -> WeightCoeffs:
    """r_i(mu) = mu - <h_i, mu> alpha_i."""
    lam = list(mu.lam)
    delta = mu.delta + _reflect(lam, rank.reduce(i), rank.e)
    return WeightCoeffs(tuple(lam), delta)


def default_cap(beta_height: int, rank: AffineRank) -> int:
    return 10 * (beta_height + 1) * rank.e


def dominate(
    mu: WeightCoeffs, rank: AffineRank, cap: int = 10_000
) -> tuple[WeightCoeffs, int]:
    """Reflect mu into the dominant chamber; pivot at the smallest negative index.

    Returns the dominant representative and the number of reflections applied.
    """
    e = rank.e
    lam = list(mu.lam)
    delta = mu.delta
    count = 0
    while True:
        neg = next((i for i in range(e) if lam[i] < 0), None)
        if neg is None:
            return WeightCoeffs(tuple(lam), delta), count
        if count >= cap:
            raise IterationCapExceededError(
                f"dominance did not terminate within {cap} reflections"
            )
        delta += _reflect(lam, neg, e)
        count += 1


def orbit_representative(
    base: LevelKDominant, beta: RootVector, cap: int | None = None
) -> OrbitResult:
    """Reduce beta to (beta0, m) with beta0 in the class's beta set, or Zero.

    Zero means Lambda - beta is not a weight of the module, i.e. the block
    vanishes.
    """
    if base.level < 1:
        raise ValueError("base must have level >= 1")
    rank = base.rank
    if cap is None:
        cap = default_cap(beta.height, rank)
    mu = base.to_weight() - root_to_weight(beta.coeffs, rank)
    mu_plus, count = dominate(mu, rank, cap)
    diff = base.to_weight() - mu_plus
    # Expand diff on the alpha basis: the delta coefficient pins x_0.
    x = solve_pinned(rank, diff.lam, diff.delta)
    if any(v < 0 for v in x):
        return OrbitResult(OrbitStatus.ZERO, None, 0, count)
    beta0, m = delta_decompose(RootVector(x))
    return OrbitResult(OrbitStatus.NONZERO, beta0, m, count)
