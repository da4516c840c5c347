"""Reduction of an arbitrary positive root to its orbit representative.

A block labelled by beta is nonvanishing exactly when the Weyl orbit of
Lambda - beta meets the dominant maximal weights shifted by nonnegative
multiples of delta.  The reduction reflects Lambda - beta into the dominant
chamber the plain way: repeatedly reflect at the smallest index with a
negative pairing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .cartan import (
    AffineRank,
    RootVector,
    WeightCoeffs,
    alpha_to_weight,
    delta_decompose,
    pairing,
    root_to_weight,
    solve_pinned,
)
from .maxweights import LevelKDominant, p_lambda_set


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


def simple_reflect(mu: WeightCoeffs, i: int, rank: AffineRank) -> WeightCoeffs:
    """r_i(mu) = mu - <h_i, mu> alpha_i."""
    c = pairing(i, mu)
    if c == 0:
        return mu
    return mu - alpha_to_weight(i, rank).scale(c)


def default_cap(beta_height: int, rank: AffineRank) -> int:
    return 10 * (beta_height + 1) * rank.e


def dominate(
    mu: WeightCoeffs, rank: AffineRank, cap: int = 10_000
) -> tuple[WeightCoeffs, int]:
    """Reflect mu into the dominant chamber; pivot at the smallest negative index.

    Returns the dominant representative and the number of reflections applied.
    """
    count = 0
    while True:
        neg = next((i for i in rank.indices if mu.lam[i] < 0), None)
        if neg is None:
            return mu, count
        if count >= cap:
            raise IterationCapExceededError(
                f"dominance did not terminate within {cap} reflections"
            )
        mu = simple_reflect(mu, neg, rank)
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
    if beta0.coeffs in p_lambda_set(base):
        return OrbitResult(OrbitStatus.NONZERO, beta0, m, count)
    return OrbitResult(OrbitStatus.ZERO, None, 0, count)
