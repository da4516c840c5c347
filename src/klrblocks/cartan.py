"""Affine type A Cartan datum: weight and root records, closed-form solve, intervals.

All index arithmetic is cyclic modulo the quantum characteristic e = ell + 1,
and e is the length of every coefficient tuple: a function that gets a weight,
a root or a solution vector reads e off it.  Only the functions that get no
vector (`cyclic_interval`, `interval_delta`, `alpha_sum`) take e as a plain
integer.  Every coefficient is an exact integer; there is no floating point
anywhere in this package.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Base of the package's immutable records.

    A subclass names its fields in `__slots__` (after those of the record it
    extends) and sets each once in `__init__` with `object.__setattr__`.  A
    record equals another of exactly its class with equal compared fields,
    hashes like the tuple of those fields, and refuses assignment and
    deletion.  The class keyword `uncompared` leaves fields out of `==` and
    `hash`; the repr still shows them.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, uncompared: tuple[str, ...] = ()) -> None:
        cls._fields = cls.__match_args__ = cls._fields + cls.__dict__.get("__slots__", ())
        compared = [name for name in cls._fields if name not in uncompared]
        key = attrgetter(*compared)
        # attrgetter of one name gives the bare value, so wrap it to hash
        # like the one-element tuple
        if len(compared) == 1:
            def __hash__(self) -> int:
                return hash((key(self),))
        else:
            def __hash__(self) -> int:
                return hash(key(self))

        def __eq__(self, other: object) -> bool:
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        cls.__hash__, cls.__eq__ = __hash__, __eq__

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __init__, which takes every field
        return type(self), tuple(getattr(self, name) for name in self._fields)


class WeightCoeffs(Record):
    """A weight written on the Lambda_0..Lambda_ell basis plus a delta part.

    Coefficients may be negative (reflections of non-dominant weights need
    that), so dominance is not an invariant.
    """

    __slots__ = ("lam", "delta")

    def __init__(self, lam: tuple[int, ...], delta: int = 0) -> None:
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "delta", delta)

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


class RootVector(Record):
    """An element of the positive root cone, as coefficients on alpha_0..alpha_ell."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        object.__setattr__(self, "coeffs", coeffs)
        if min(coeffs, default=0) < 0:
            raise ValueError(f"root vector must be nonnegative, got {coeffs}")

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
