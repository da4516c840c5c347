from __future__ import annotations

import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from klrblocks.cartan import RootVector, WeightCoeffs, solve_pinned
from klrblocks.maxweights import LevelKDominant, max_plus, p_lambda_set
from klrblocks.tableaux import block_is_nonzero
from klrblocks.weyl import OrbitResult, OrbitStatus, orbit_representative

from oracles import (
    defect,
    delta_decompose,
    dominate,
    record_orbit_representative,
    root_to_weight,
    rotate_tuple,
    simple_reflect,
    to_weight,
    weight_sub,
)


# --- reference oracle: WeightCoeffs arithmetic and the sieving-class lookup ---

ORACLE_CAP = 100_000  # reflections the loop oracle may apply before it gives up


def weight_coeffs_dominate(mu: WeightCoeffs, cap: int = ORACLE_CAP) -> tuple[WeightCoeffs, int]:
    """Reflect mu into the dominant chamber; pivot at the smallest negative index.

    Returns the dominant representative and the number of reflections applied.
    """
    count = 0
    while True:
        neg = next((i for i, c in enumerate(mu.lam) if c < 0), None)
        if neg is None:
            return mu, count
        if count >= cap:
            raise RuntimeError(f"the oracle did not terminate within {cap} reflections")
        mu = simple_reflect(mu, neg)
        count += 1


def sieving_orbit_representative(
    base: LevelKDominant, beta: RootVector
) -> tuple[RootVector | None, int, int]:
    """Reduce beta to (beta0, m) with beta0 in the class's beta set, or Zero,
    and count the reflections: (beta0, m, reflection count).

    Zero (beta0 None, m 0) means Lambda - beta is not a weight of the module,
    i.e. the block vanishes.
    """
    if base.level < 1:
        raise ValueError("base must have level >= 1")
    mu = weight_sub(to_weight(base), root_to_weight(beta.coeffs))
    mu_plus, count = weight_coeffs_dominate(mu)
    diff = weight_sub(to_weight(base), mu_plus)
    # Expand diff on the alpha basis: the delta coefficient pins x_0.
    x = solve_pinned(diff.lam, diff.delta)
    if any(v < 0 for v in x):
        return None, 0, count
    beta0, m = delta_decompose(RootVector(x))
    if beta0.coeffs in p_lambda_set(base):
        return beta0, m, count
    return None, 0, count


def read(res: OrbitResult) -> tuple[RootVector | None, int, int]:
    """(beta0, m, reflection count) of a result, the count read from it."""
    return res.beta0, res.m, res.reflection_count


def test_simple_reflect_fixed_point():
    mu = WeightCoeffs((1, 0, 2, 0), -1)
    assert simple_reflect(mu, 1) == mu


def test_simple_reflect_example_rank_one():
    mu = WeightCoeffs((2, 0), 0)
    r0 = simple_reflect(mu, 0)
    assert r0.lam == (-2, 4) and r0.delta == -2


def test_simple_reflect_involution():
    rng = random.Random(3)
    for _ in range(100):
        e = rng.randrange(1, 7) + 1
        mu = WeightCoeffs(tuple(rng.randrange(-3, 4) for _ in range(e)), rng.randrange(-2, 3))
        i = rng.randrange(e)
        assert simple_reflect(simple_reflect(mu, i), i) == mu
        assert sum(simple_reflect(mu, i).lam) == sum(mu.lam)


def test_dominate_trivial_and_small_orbit():
    # beta = 0 leaves Lambda = 2 Lambda_0 as it is; beta = 2 alpha_0 is
    # r_0(Lambda), one reflection away
    base = LevelKDominant((2, 0))
    zero = RootVector((0, 0))
    res = orbit_representative(base, zero)
    assert res == OrbitResult(zero, 0, None)
    assert res.reflection_count == 0
    res = orbit_representative(base, RootVector((2, 0)))
    assert res == OrbitResult(zero, 0, None)
    assert res.reflection_count == 1


def beta_of(base: LevelKDominant, mu: WeightCoeffs) -> tuple[int, ...]:
    """X with Lambda - mu = sum_i x_i alpha_i, the delta part pinning x_0."""
    diff = weight_sub(to_weight(base), mu)
    return solve_pinned(diff.lam, diff.delta)


def test_dominate_recovers_after_random_words():
    # a word in the simple reflections moves a dominant maximal weight mu to
    # another weight of V(Lambda), so Lambda - w(mu) is a positive root; its
    # orbit representative is mu's own beta
    rng = random.Random(17)
    for _ in range(120):
        e = rng.randrange(1, 6) + 1
        k = rng.randrange(1, 4)
        coeffs = [0] * e
        for _ in range(k):
            coeffs[rng.randrange(e)] += 1
        base = LevelKDominant(tuple(coeffs))
        entries = max_plus(base)
        entry = entries[rng.randrange(len(entries))]
        moved = entry.max_weight
        for _ in range(rng.randrange(31)):
            moved = simple_reflect(moved, rng.randrange(e))
        res = orbit_representative(base, RootVector(beta_of(base, moved)))
        assert (res.status, res.beta0, res.m) == (OrbitStatus.NONZERO, entry.beta, 0)


def test_dominate_refuses_level_below_one():
    # the closed form reduces mod the level k, so k = 0 has no answer: the
    # base's constructor refuses it, so orbit_representative never sees it,
    # and the record oracle refuses every weight of level below 1
    for lam in ((0, 0), (0, 0, 0)):
        with pytest.raises(ValueError, match="level must be >= 1"):
            LevelKDominant(lam)
    for lam in ((1, -1, 0), (0, 0, 0), (2, -3, 0)):
        with pytest.raises(ValueError, match="level >= 1"):
            dominate(WeightCoeffs(lam, 0))


def test_tall_block_length_is_exact():
    # the loop oracle needs 2H + 1 reflections at H = 1 mod 3; H = 10**9 is
    # out of its reach
    base = LevelKDominant((3, 0, 0, 0))
    for h in range(60):
        res = orbit_representative(base, RootVector((0, h, 0, 0)))
        assert read(res) == sieving_orbit_representative(base, RootVector((0, h, 0, 0)))
        if h % 3 == 1:
            assert res.reflection_count == 2 * h + 1
    res = orbit_representative(base, RootVector((0, 10**9, 0, 0)))
    assert res.status is OrbitStatus.ZERO
    assert res.reflection_count == 2 * 10**9 + 1


def test_orbit_representative_examples():
    base = LevelKDominant((2, 1))
    res = orbit_representative(base, RootVector((0, 0)))
    assert res.status is OrbitStatus.NONZERO
    assert res.beta0.coeffs == (0, 0) and res.m == 0

    res = orbit_representative(base, RootVector((1, 0)))
    assert res.status is OrbitStatus.NONZERO
    assert res.beta0.coeffs == (1, 0) and res.m == 0

    res = orbit_representative(LevelKDominant((1, 0, 0)), RootVector((0, 1, 0)))
    assert res.status is OrbitStatus.ZERO


def test_orbit_representative_delta_shift():
    base = LevelKDominant((3, 0, 0))
    res = orbit_representative(base, RootVector((2, 1, 1)))
    assert res.status is OrbitStatus.NONZERO
    assert res.beta0.coeffs == (1, 0, 0) and res.m == 1


def test_orbit_invariance_under_reflections():
    rng = random.Random(29)
    rank_pool = [1, 2, 3, 4]
    for _ in range(60):
        e = rng.choice(rank_pool) + 1
        k = rng.randrange(1, 4)
        coeffs = [0] * e
        for _ in range(k):
            coeffs[rng.randrange(e)] += 1
        base = LevelKDominant(tuple(coeffs))
        beta = RootVector(tuple(rng.randrange(0, 3) for _ in range(e)))
        ref = orbit_representative(base, beta)
        mu = weight_sub(to_weight(base), root_to_weight(beta.coeffs))
        for _ in range(rng.randrange(1, 12)):
            mu = simple_reflect(mu, rng.randrange(e))
        # rebuild the moved beta when it stays in the positive cone
        x = beta_of(base, mu)
        if any(v < 0 for v in x):
            continue
        moved = orbit_representative(base, RootVector(x))
        assert moved.status == ref.status
        if ref.status is OrbitStatus.NONZERO:
            assert moved.beta0 == ref.beta0 and moved.m == ref.m


def test_orbit_sigma_equivariance():
    rng = random.Random(31)
    for _ in range(60):
        ell = rng.randrange(1, 5)
        e = ell + 1
        k = rng.randrange(1, 4)
        coeffs = [0] * e
        for _ in range(k):
            coeffs[rng.randrange(e)] += 1
        base = LevelKDominant(tuple(coeffs))
        beta = RootVector(tuple(rng.randrange(0, 3) for _ in range(e)))
        shift = rng.randrange(e)
        rotated = LevelKDominant(rotate_tuple(base.coeffs, shift))
        lhs = orbit_representative(rotated, RootVector(rotate_tuple(beta.coeffs, shift)))
        rhs = orbit_representative(base, beta)
        assert lhs.status == rhs.status
        if rhs.status is OrbitStatus.NONZERO:
            assert lhs.beta0.coeffs == rotate_tuple(rhs.beta0.coeffs, shift)
            assert lhs.m == rhs.m


def test_zero_block_matches_tableau_oracle_spot():
    rng = random.Random(37)
    for _ in range(150):
        ell = rng.randrange(1, 5)
        e = ell + 1
        k = rng.randrange(1, 4)
        coeffs = [0] * e
        for _ in range(k):
            coeffs[rng.randrange(e)] += 1
        base = LevelKDominant(tuple(coeffs))
        beta = RootVector(tuple(rng.randrange(0, 3) for _ in range(e)))
        by_orbit = orbit_representative(base, beta).status is OrbitStatus.NONZERO
        by_tableaux = block_is_nonzero(base.coeffs, beta)
        assert by_orbit == by_tableaux, (base, beta)


@st.composite
def orbit_cases(draw):
    """A base of level <= 5 at e <= 8 and beta entries <= 15."""
    e = draw(st.integers(2, 8))
    coeffs = [0] * e
    for _ in range(draw(st.integers(1, 5))):
        coeffs[draw(st.integers(0, e - 1))] += 1
    beta = draw(st.lists(st.integers(0, 15), min_size=e, max_size=e))
    return LevelKDominant(tuple(coeffs)), RootVector(tuple(beta))


@settings(max_examples=400, deadline=None)
@given(orbit_cases())
def test_orbit_representative_matches_sieving_oracle(case):
    res = orbit_representative(*case)
    assert read(res) == sieving_orbit_representative(*case)
    assert (res.status is OrbitStatus.ZERO) == (res.beta0 is None)


@settings(max_examples=200, deadline=None)
@given(orbit_cases())
def test_nonzero_beta0_lies_in_the_sieving_class(case):
    base, beta = case
    res = orbit_representative(base, beta)
    if res.status is OrbitStatus.NONZERO:
        assert res.beta0.coeffs in p_lambda_set(base)


@settings(max_examples=300, deadline=None)
@given(orbit_cases())
def test_defect_is_constant_on_the_orbit(case):
    # def(beta) = ((Lambda, Lambda) - (mu, mu))/2 with mu = Lambda - beta, and
    # (mu, mu) is Weyl invariant; a nonzero block has def >= 0
    base, beta = case
    res = orbit_representative(base, beta)
    if res.status is OrbitStatus.NONZERO:
        rep = tuple(c + res.m for c in res.beta0.coeffs)
        assert defect(base.coeffs, beta.coeffs) == defect(base.coeffs, rep) >= 0


@st.composite
def orbit_cases_with_an_index(draw):
    """An orbit case with beta entries <= 20 and an index that may need reducing."""
    base, beta = draw(orbit_cases())
    beta = RootVector(tuple(draw(st.integers(0, 5)) + c for c in beta.coeffs))
    return base, beta, draw(st.integers(-len(beta.coeffs), 2 * len(beta.coeffs) - 1))


@settings(max_examples=400, deadline=None)
@given(orbit_cases_with_an_index())
def test_integer_reflections_match_weight_coeffs_arithmetic(case):
    """The closed form against the reflection loop: the loop's reflection
    count, and on a nonzero block the loop's dominant weight is
    Lambda - beta0 - m delta; a reflection of mu, at an index that may need
    reducing, has the same representative when it stays in the cone."""
    base, beta, i = case
    mu = weight_sub(to_weight(base), root_to_weight(beta.coeffs))
    mu_plus, count = weight_coeffs_dominate(mu)
    res = orbit_representative(base, beta)
    assert res.reflection_count == count
    if res.status is OrbitStatus.NONZERO:
        rep = tuple(c + res.m for c in res.beta0.coeffs)
        assert weight_sub(to_weight(base), root_to_weight(rep)) == mu_plus
    moved = beta_of(base, simple_reflect(mu, i))
    if min(moved) >= 0:
        other = orbit_representative(base, RootVector(moved))
        assert (other.status, other.beta0, other.m) == (res.status, res.beta0, res.m)


@st.composite
def wide_orbit_cases(draw):
    """A base of level 1..8 at e 2..16, and beta = 0 or entries up to 10^9."""
    e = draw(st.integers(2, 16))
    coeffs = [0] * e
    for _ in range(draw(st.integers(1, 8))):
        coeffs[draw(st.integers(0, e - 1))] += 1
    top = draw(st.sampled_from([0, 3, 100, 10**9]))
    beta = draw(st.lists(st.integers(0, top), min_size=e, max_size=e))
    return LevelKDominant(tuple(coeffs)), RootVector(tuple(beta))


@settings(max_examples=500, deadline=None)
@given(wide_orbit_cases())
def test_one_pass_matches_the_record_pipeline(case):
    """Status, beta0, m and reflection_count against the weight-record form
    (`to_weight`, `root_to_weight`, `dominate`, `delta_decompose`)."""
    res = orbit_representative(*case)
    beta0, m, count = record_orbit_representative(*case)
    assert res == OrbitResult(beta0, m, None)
    assert res.reflection_count == count
    assert (res.status is OrbitStatus.ZERO) == (res.beta0 is None)


def test_record_dominance_matches_the_reflection_loop():
    # the record oracle itself, on weights that need not be Lambda - beta
    rng = random.Random(41)
    for _ in range(300):
        e = rng.randrange(2, 9)
        mu = WeightCoeffs(tuple(rng.randrange(-20, 21) for _ in range(e)), rng.randrange(-4, 5))
        if sum(mu.lam) >= 1:
            assert dominate(mu) == weight_coeffs_dominate(mu)
