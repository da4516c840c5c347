"""Representation type of a block, for level at least 3.

After reducing beta to an orbit representative beta0 + m*delta, the type is
read off finite lists attached to the base weight: interval sums between
cyclically consecutive occupied indices, and small corrections at doubled,
tripled and quadrupled summands.  Three of the tame families disappear in a
specific field characteristic; the parameter t enters only for beta = delta.

`script_sets` pairs each occupied index i with the next one j, cyclically, and
skips the interval [i, j] when i = j or when j = i - 1 (it would be all of I).
A neighbour i +- 1 of a summand is free exactly when it is unoccupied.
"""

from __future__ import annotations

import enum
from math import isqrt

from .cartan import LimitError, Record, RootVector, alpha_sum, interval_delta
from .maxweights import LevelKDominant
from .quiver import LevelTooSmallError
from .weyl import OrbitStatus, orbit_representative

# only 2 and 3 enter the script sets, so every prime >= 5 classifies like 0
# and a larger char_p is refused; below it, primality is checked by trial
# division up to 10**6
MAX_CHAR = 10**12


class TClass(enum.Enum):
    """Which exceptional value (if any) the deformation parameter t takes."""

    TWO = "two"            # t = 2, only meaningful for ell = 1
    MINUS_TWO = "minustwo"  # t = -2, only meaningful for ell = 1
    SIGN_ELL = "signell"    # t = (-1)^(ell+1), only meaningful for ell >= 2
    OTHER = "other"


class RepType(enum.IntEnum):
    """Representation type; the order is badness, used only for reporting."""

    ZERO = 0
    FINITE = 1
    TAME = 2
    WILD = 3

    def __str__(self) -> str:  # "Finite", "Tame", ...
        return self.name.capitalize()


class TClassRankError(ValueError):
    """The t class given does not exist at this rank."""


class FieldParams(Record):
    __slots__ = ("char_p", "t_class")

    def __init__(self, char_p: int = 0, t_class: TClass = TClass.OTHER) -> None:
        Record.__init__(self, char_p, t_class)
        if char_p < 0 or char_p == 1:
            raise ValueError("char_p must be 0 or a prime")
        if char_p > MAX_CHAR:
            raise LimitError(f"char_p = {char_p}", "MAX_CHAR", MAX_CHAR)
        # below 25 = 5^2 no divisor from 5 on can be the smallest, so 2 and 3
        # decide; the odd divisors from 5 are tried only above it
        if char_p > 3 and (char_p % 2 == 0 or char_p % 3 == 0 or char_p >= 25 and any(
                char_p % d == 0 for d in range(5, isqrt(char_p) + 1, 2))):
            raise ValueError(f"char_p = {char_p} is not prime")

    def check_rank(self, ell: int) -> None:
        if ell == 1 and self.t_class is TClass.SIGN_ELL:
            raise TClassRankError("t class 'signell' only applies for ell >= 2")
        if ell >= 2 and self.t_class in (TClass.TWO, TClass.MINUS_TWO):
            raise TClassRankError("t classes 'two'/'minustwo' only apply for ell = 1")


class ScriptSets(Record):
    """The finite set and the five tame sets of the classification."""

    # tame: the sets indexed 1..5, at positions 0..4
    __slots__ = ("finite", "tame")

    def tame_union(self) -> frozenset[RootVector]:
        out: set[RootVector] = set()
        for s in self.tame:
            out |= s
        return frozenset(out)


def _require_level_3(base: LevelKDominant) -> None:
    if base.level < 3:
        raise LevelTooSmallError(
            f"classification needs level >= 3, got {base.level}; levels 1 and 2 "
            "are settled in prior work"
        )


def script_sets(base: LevelKDominant, char_p: int = 0) -> ScriptSets:
    """Build the finite/tame beta sets of the main classification for `base`."""
    _require_level_3(base)
    m = base.coeffs
    e = len(m)
    occupied = base.support()
    finite: set[RootVector] = {RootVector((0,) * e)}
    tame: list[set[RootVector]] = [set() for _ in range(5)]  # indexed like ScriptSets.tame

    for i, j in zip(occupied, occupied[1:] + occupied[:1]):
        # the interval to the next occupied index, unless i is alone or it is all of I
        if i != j and (j - (i - 1)) % e != 0 and min(m[i], m[j]) == 1:
            beta = RootVector(interval_delta(i, j, e))
            if max(m[i], m[j]) == 1:
                finite.add(beta)
            else:
                tame[0].add(beta)
        # alpha_i at a doubled summand is representation-finite
        if m[i] >= 2:
            finite.add(alpha_sum(e, i))
        if e >= 4 and m[i] == 2 and m[i - 1] == 0 and m[(i + 1) % e] == 0 and char_p != 2:
            tame[1].add(alpha_sum(e, i, i, i - 1, i + 1))
        if e >= 3 and m[i] == 3 and char_p != 3:
            if m[(i + 1) % e] == 0:
                tame[2].add(alpha_sum(e, i, i, i + 1))
            if m[i - 1] == 0:
                tame[2].add(alpha_sum(e, i, i, i - 1))
        if m[i] == 4 and char_p != 2:
            tame[3].add(alpha_sum(e, i, i))
        if e >= 3 and m[i] == 2:
            for k in occupied:
                if k != i and m[k] == 2 and (k - i) % e not in (1, e - 1):
                    tame[4].add(alpha_sum(e, i, k))

    return ScriptSets(frozenset(finite), tuple(frozenset(s) for s in tame))


def classify(
    base: LevelKDominant, beta: RootVector, params: FieldParams = FieldParams()
) -> RepType:
    """Representation type of the block of `base` labelled by `beta`.

    Any beta in the positive root cone is accepted; it is first reduced to
    its orbit representative.  A vanishing block reports Zero.
    """
    params.check_rank(len(base.coeffs) - 1)  # first, so a bad t is reported at any level
    _require_level_3(base)

    result = orbit_representative(base, beta)
    if result.status is OrbitStatus.ZERO:
        return RepType.ZERO
    beta0, m = result.beta0, result.m

    if beta0.is_zero():
        if m == 0:
            return RepType.FINITE
        if m == 1:
            is_k_lambda_i = len(base.support()) == 1
            if is_k_lambda_i and params.t_class is TClass.OTHER:
                return RepType.TAME
        return RepType.WILD

    if m >= 1:
        return RepType.WILD

    sets = script_sets(base, params.char_p)
    if beta0 in sets.finite:
        return RepType.FINITE
    if beta0 in sets.tame_union():
        return RepType.TAME
    return RepType.WILD
