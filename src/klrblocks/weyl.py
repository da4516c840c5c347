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

All of this is one pass over the integers of Lambda and beta.  The A beta
part of the partial sums telescopes,

    p_a = sum_{i>a} Lambda_i - (beta_{e-1} - beta_0) + beta_a - beta_{a+1},

so no weight or root record is built on the way: only beta0 at the end.
"""

from __future__ import annotations

import enum

from .cartan import Record, RootVector, solve_pinned
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


def orbit_representative(base: LevelKDominant, beta: RootVector) -> OrbitResult:
    """Reduce beta to (beta0, m) with beta0 in the class's beta set, or Zero.

    Zero means Lambda - beta is not a weight of the module, i.e. the block
    vanishes.  `reflection_count` is the length of the shortest w with
    w(Lambda - beta) dominant.  Raises ValueError when beta and base differ
    in length.
    """
    lam, b = base.coeffs, beta.coeffs
    e = len(lam)
    if len(b) != e:
        raise ValueError(f"beta has length {len(b)}, the weight {e}")
    k = sum(lam)  # >= 1: LevelKDominant checks it
    p = [0] * e
    tail, shift = 0, b[0] - b[-1]
    for a in range(e - 2, -1, -1):
        tail += lam[a + 1]
        p[a] = tail + shift + b[a] - b[a + 1]
    quotients, residues = zip(*[divmod(v, k) for v in p])
    share, extra = divmod(sum(quotients), e)
    spread = [r + k * (share + (n < extra)) for n, r in enumerate(sorted(residues))]
    u = sorted(spread, reverse=True)
    diffs = [pa - pb for a, pa in enumerate(p) for pb in p[a + 1:]]
    count = sum([(x - 1) // k if x > 0 else -(x // k) for x in diffs])
    # mu+ has Lambda part (k - u_0 + u_{e-1}, u_0 - u_1, ..., u_{e-2} - u_{e-1})
    # and delta part -beta_0 + (sum p^2 - sum u^2) / 2k.  X expands Lambda - mu+
    # on the alpha basis, and the delta part pins x_0.
    rhs = [lam[0] - k + u[0] - u[-1]] + [lam[a + 1] - u[a] + u[a + 1] for a in range(e - 1)]
    x0 = b[0] - (sum([v * v for v in p]) - sum([v * v for v in u])) // (2 * k)
    x = solve_pinned(rhs, x0)
    m = min(x)
    if m < 0:
        return OrbitResult(OrbitStatus.ZERO, None, 0, count)
    # min(X) = m, so X - m is nonnegative and needs no check
    beta0 = object.__new__(RootVector)
    object.__setattr__(beta0, "coeffs", tuple(v - m for v in x))
    return OrbitResult(OrbitStatus.NONZERO, beta0, m, count)
