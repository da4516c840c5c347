"""Affine type A Cartan datum: closed-form solve, root/weight conversions.

All index arithmetic is cyclic modulo the quantum characteristic e = ell + 1,
and e is the length of every coefficient tuple: a function that gets a weight,
a root or a solution vector reads e off it.  Only the functions that get no
vector (`cyclic_interval`, `interval_delta`, `alpha_sum`) take e as a plain
integer.  Every coefficient is an exact integer; there is no floating point
anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WeightCoeffs:
    """A weight written on the Lambda_0..Lambda_ell basis plus a delta part.

    Coefficients may be negative (reflections of non-dominant weights need
    that), so dominance is not an invariant.
    """

    lam: tuple[int, ...]
    delta: int = 0

    @property
    def level(self) -> int:
        return sum(self.lam)

    def __add__(self, other: "WeightCoeffs") -> "WeightCoeffs":
        return WeightCoeffs(
            tuple(a + b for a, b in zip(self.lam, other.lam, strict=True)),
            self.delta + other.delta,
        )

    def __sub__(self, other: "WeightCoeffs") -> "WeightCoeffs":
        return WeightCoeffs(
            tuple(a - b for a, b in zip(self.lam, other.lam, strict=True)),
            self.delta - other.delta,
        )


@dataclass(frozen=True)
class RootVector:
    """An element of the positive root cone, as coefficients on alpha_0..alpha_ell."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if min(self.coeffs, default=0) < 0:
            raise ValueError(f"root vector must be nonnegative, got {self.coeffs}")

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def apply_cartan(x: tuple[int, ...]) -> tuple[int, ...]:
    """Compute A @ x for the affine Cartan matrix, without materializing A."""
    e = len(x)
    return tuple(2 * x[i] - x[(i - 1) % e] - x[(i + 1) % e] for i in range(e))


class NoSolutionError(ValueError):
    """Raised when the linear system has no nonnegative integer solution."""


def solve_pinned(rhs: tuple[int, ...], x0: int) -> tuple[int, ...]:
    """Solve A x = rhs in integers with x_0 pinned, in closed form.

    Row i reads 2 x_i - x_{i-1} - x_{i+1} = y_i, a cyclic second difference
    (for ell = 1 the neighbours coincide, giving the -2 entries).  With
    d_i = x_{i+1} - x_i, rows 1..ell give d_i = d_{i-1} - y_i, and the
    differences around the cycle sum to zero, so

        e d_0 = sum_{i=1}^{e-1} (e - i) y_i.

    An integral solution exists iff that sum is 0 mod e; x then follows from
    x_0 by one prefix pass.  Row 0 holds iff sum(y) = 0, which the final
    check enforces.  Raises NoSolutionError in either failing case.
    """
    e = len(rhs)
    num = sum((e - i) * rhs[i] for i in range(1, e))
    if num % e:
        raise NoSolutionError(f"no integral solution for rhs {rhs}")
    d = num // e
    x = [x0]
    for i in range(1, e):
        x.append(x[-1] + d)
        d -= rhs[i]
    x = tuple(x)
    if apply_cartan(x) != tuple(rhs):
        raise NoSolutionError(f"inconsistent system for rhs {rhs}")
    return x


def root_to_weight(beta: tuple[int, ...]) -> WeightCoeffs:
    """Expand sum_i beta_i alpha_i on the Lambda/delta basis.

    The Lambda part is A @ beta and the delta coefficient is beta_0.
    """
    return WeightCoeffs(apply_cartan(beta), beta[0])


def delta_decompose(beta: RootVector) -> tuple[RootVector, int]:
    """Split beta = beta0 + m * delta with min(beta0) = 0 and m = min(beta)."""
    m = min(beta.coeffs)
    return RootVector(tuple(c - m for c in beta.coeffs)), m


def cyclic_interval(i: int, j: int, e: int) -> list[int]:
    """The cyclic interval [i, j] = {i, i+1, ..., j} of indices mod e."""
    i, j = i % e, j % e
    if i <= j:
        return list(range(i, j + 1))
    return list(range(0, j + 1)) + list(range(i, e))


def interval_delta(i: int, j: int, e: int) -> tuple[int, ...]:
    """Indicator vector of the cyclic interval [i, j]; all-ones iff j = i - 1 mod e."""
    bits = [0] * e
    for h in cyclic_interval(i, j, e):
        bits[h] = 1
    return tuple(bits)


def alpha_sum(e: int, *indices: int) -> RootVector:
    """The root sum_h alpha_{i_h} over the given indices (mod e, with repeats)."""
    c = [0] * e
    for i in indices:
        c[i % e] += 1
    return RootVector(tuple(c))
