"""Affine type A Cartan datum: weight and root records, closed-form solve, intervals.

All index arithmetic is cyclic modulo the quantum characteristic e = ell + 1,
and e is the length of every coefficient tuple: a function that gets a weight,
a root or a solution vector reads e off it.  Only the functions that get no
vector (`interval_delta`, the one cyclic interval, and `alpha_sum`) take e
as a plain integer.  Every coefficient is an exact integer; there is no
floating point anywhere in this package.
"""

from __future__ import annotations

from operator import attrgetter

_ABSENT = object()  # the default of Record._trusted's second value


class Record:
    """Base of the package's immutable records.

    A subclass names its fields in `__slots__` (after those of the record it
    extends).  `Record.__init__` binds the values, given by position, to
    those fields; a subclass with checks defines its own `__init__`, which
    calls it first as `Record.__init__(self, ...)`.  No record extends
    another with an `__init__`, so naming the class finds what `super()`
    would, without the lookup: 0.2-0.4 us less per record, and a `classify`
    query builds three from its arguments.  `_trusted` builds a
    record from values already known to pass its checks, skipping the
    subclass `__init__`.  A record equals another of exactly its class with
    equal compared fields, hashes like the tuple of those fields, and refuses
    assignment and deletion.  The class keyword `uncompared` leaves fields
    out of `==` and `hash`; the repr still shows them.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, uncompared: tuple[str, ...] = ()) -> None:
        cls._fields = cls.__match_args__ = cls._fields + cls.__dict__.get("__slots__", ())
        # the __set__ of each field's slot stores it past the refusing
        # __setattr__, and costs less than object.__setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)
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

    def __init__(self, *values: object) -> None:
        if len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__qualname__} takes {len(self._fields)} fields, got {len(values)}"
            )
        for put, value in zip(self._setters, values):
            put(self, value)

    @classmethod
    def _trusted(cls, a: object, b: object = _ABSENT) -> Record:
        """A record of one or two fields set to `a` (and `b`), values known
        to pass the checks of its class's `__init__`, which is not run.
        Setting the fields without a loop built a quiver vertex's two
        records in 0.63 us, not 1.1 us (2-vCPU VM, Python 3.11)."""
        record = object.__new__(cls)
        put = cls._setters
        put[0](record, a)
        if b is not _ABSENT:
            put[1](record, b)
        return record

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


class RootVector(Record):
    """An element of the positive root cone, as coefficients on alpha_0..alpha_ell."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        Record.__init__(self, coeffs)
        if min(coeffs, default=0) < 0:
            raise ValueError(f"root vector must be nonnegative, got {coeffs}")

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def apply_cartan(x: tuple[int, ...]) -> tuple[int, ...]:
    """Compute A @ x for the affine Cartan matrix, without materializing A."""
    e = len(x)
    return tuple([2 * x[i] - x[i - 1] - x[(i + 1) % e] for i in range(e)])


ELIDE_WIDTH = 48  # the most characters `elide` quotes a vector in whole


def elide(v: tuple[int, ...]) -> str:
    """`v` as Python prints it or, past ELIDE_WIDTH characters, the entries
    that fit in half that width, an ellipsis and its length, so that a
    refusal stays one short line however long or large the entries are."""
    text = str(v)
    if len(text) <= ELIDE_WIDTH:
        return text
    half = ELIDE_WIDTH // 2
    cut = text.rfind(",", 0, half + 1)
    if cut < 0:  # the first entry alone is longer: cut inside it
        return f"{text[:half]}… {len(v)} entries)"
    return f"{text[:cut]}, … {len(v)} entries)"


class LimitError(ValueError):
    """An input past one of the package's MAX_* limits.  `args` is (what,
    name, limit), the limit as read at the raise, so a patched one shows."""

    def __init__(self, what: str, name: str, limit: int) -> None:
        ValueError.__init__(self, what, name, limit)

    def __str__(self) -> str:
        return "{} exceeds the limit {} = {}".format(*self.args)


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
    num = sum([(e - i) * rhs[i] for i in range(1, e)])
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


def interval_delta(i: int, j: int, e: int) -> tuple[int, ...]:
    """Indicator vector of the cyclic interval [i, j] = {i, ..., j} mod e,
    all-ones iff j = i - 1 mod e: the doubled indicator of [0, n - 1], for
    n = (j - i) mod e + 1 entries, read from -i mod e on."""
    n = (j - i) % e + 1
    start = -i % e
    return (((1,) * n + (0,) * (e - n)) * 2)[start : start + e]


def alpha_sum(e: int, *indices: int) -> RootVector:
    """The root sum_h alpha_{i_h} over the given indices (mod e, with repeats)."""
    c = [0] * e
    for i in indices:
        c[i % e] += 1
    return RootVector(tuple(c))
