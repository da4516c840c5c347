"""Reduction of an arbitrary positive root to its orbit representative.

A block labelled by beta is nonvanishing exactly when mu = Lambda - beta is
a weight of V(Lambda).  At level k >= 1 the affine Weyl group acts on the
partial sums p_a = sum_{i>a} <h_i, mu> as S_e x| kQ^v (Kac, Infinite-
Dimensional Lie Algebras, Ch. 6): it permutes them and adds multiples of k
that sum to 0.  So mu is made dominant in closed form: reduce the p_a mod k,
sort the residues and spread the quotients evenly, the extra k going to the
smallest residues; the invariant form gives the delta change.  The number
of reflections is the length of that affine permutation (Shi, LNM 1179), a
sum over the pairs a < b: O(e^2) integer work, whatever the size of beta.

The dominant mu+ satisfies Lambda - mu+ = sum_i x_i alpha_i for one integer
X, and the block is nonvanishing iff X >= 0: the weights of V(Lambda) are
W . {mu in P+ : mu <= Lambda} (Kac, Prop. 12.5).  X - min(X) is then the
solution vector of the class member on mu+'s Lambda part, so no sieving
class is built.
"""

from __future__ import annotations

import enum

from .cartan import (
    Record,
    RootVector,
    WeightCoeffs,
    delta_decompose,
    root_to_weight,
    solve_pinned,
)
from .maxweights import LevelKDominant


class OrbitStatus(enum.Enum):
    ZERO = "Zero"
    NONZERO = "Nonzero"


class OrbitResult(Record):
    __slots__ = ("status", "beta0", "m", "reflection_count")

    def __init__(
        self, status: OrbitStatus, beta0: RootVector | None, m: int, reflection_count: int
    ) -> None:
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "beta0", beta0)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "reflection_count", reflection_count)


def dominate(mu: WeightCoeffs) -> tuple[WeightCoeffs, int]:
    """The dominant weight in the orbit of mu and the length of the shortest
    w with w(mu) dominant, which is the count of any loop that reflects at a
    negative pairing until none is left.  Raises ValueError below level 1.
    """
    k = mu.level
    if k < 1:
        raise ValueError(f"dominance needs level >= 1, got {k}")
    e = len(mu.lam)
    p = [0] * e
    for a in range(e - 2, -1, -1):
        p[a] = p[a + 1] + mu.lam[a + 1]
    quotients, residues = zip(*(divmod(v, k) for v in p))
    share, extra = divmod(sum(quotients), e)
    spread = [r + k * (share + (n < extra)) for n, r in enumerate(sorted(residues))]
    u = sorted(spread, reverse=True)
    lam = (k - u[0] + u[-1],) + tuple(u[a] - u[a + 1] for a in range(e - 1))
    delta = mu.delta + (sum(v * v for v in p) - sum(v * v for v in u)) // (2 * k)
    diffs = [pa - pb for a, pa in enumerate(p) for pb in p[a + 1:]]
    length = sum([(x - 1) // k if x > 0 else -(x // k) for x in diffs])
    return WeightCoeffs(lam, delta), length


def orbit_representative(base: LevelKDominant, beta: RootVector) -> OrbitResult:
    """Reduce beta to (beta0, m) with beta0 in the class's beta set, or Zero.

    Zero means Lambda - beta is not a weight of the module, i.e. the block
    vanishes.  Raises ValueError when beta and base differ in length.
    """
    if len(beta.coeffs) != len(base.coeffs):
        raise ValueError(
            f"beta has length {len(beta.coeffs)}, the weight {len(base.coeffs)}"
        )
    mu = base.to_weight() - root_to_weight(beta.coeffs)
    mu_plus, count = dominate(mu)
    diff = base.to_weight() - mu_plus
    # Expand diff on the alpha basis: the delta coefficient pins x_0.
    x = solve_pinned(diff.lam, diff.delta)
    if any(v < 0 for v in x):
        return OrbitResult(OrbitStatus.ZERO, None, 0, count)
    beta0, m = delta_decompose(RootVector(x))
    return OrbitResult(OrbitStatus.NONZERO, beta0, m, count)
