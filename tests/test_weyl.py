from __future__ import annotations

import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from klrblocks.cartan import (
    RootVector,
    WeightCoeffs,
    delta_decompose,
    root_to_weight,
    solve_pinned,
)
from klrblocks.maxweights import LevelKDominant, max_plus, p_lambda_set
from klrblocks.tableaux import block_is_nonzero
from klrblocks.weyl import OrbitResult, OrbitStatus, dominate, orbit_representative

from oracles import rotate_tuple, simple_reflect


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


def sieving_orbit_representative(base: LevelKDominant, beta: RootVector) -> OrbitResult:
    """Reduce beta to (beta0, m) with beta0 in the class's beta set, or Zero.

    Zero means Lambda - beta is not a weight of the module, i.e. the block
    vanishes.
    """
    if base.level < 1:
        raise ValueError("base must have level >= 1")
    mu = base.to_weight() - root_to_weight(beta.coeffs)
    mu_plus, count = weight_coeffs_dominate(mu)
    diff = base.to_weight() - mu_plus
    # Expand diff on the alpha basis: the delta coefficient pins x_0.
    x = solve_pinned(diff.lam, diff.delta)
    if any(v < 0 for v in x):
        return OrbitResult(OrbitStatus.ZERO, None, 0, count)
    beta0, m = delta_decompose(RootVector(x))
    if beta0.coeffs in p_lambda_set(base):
        return OrbitResult(OrbitStatus.NONZERO, beta0, m, count)
    return OrbitResult(OrbitStatus.ZERO, None, 0, count)


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
        assert simple_reflect(mu, i).level == mu.level


def test_dominate_trivial_and_small_orbit():
    mu = WeightCoeffs((2, 0), 0)
    out, n = dominate(mu)
    assert out == mu and n == 0
    refl = simple_reflect(mu, 0)
    back, n = dominate(refl)
    assert back == mu and n == 1


def test_dominate_recovers_after_random_words():
    rng = random.Random(17)
    for _ in range(120):
        e = rng.randrange(1, 6) + 1
        k = rng.randrange(1, 4)
        coeffs = [0] * e
        for _ in range(k):
            coeffs[rng.randrange(e)] += 1
        base = LevelKDominant(tuple(coeffs))
        entries = max_plus(base)
        mu = entries[rng.randrange(len(entries))].max_weight
        moved = mu
        for _ in range(rng.randrange(31)):
            moved = simple_reflect(moved, rng.randrange(e))
        back, _ = dominate(moved)
        assert back == mu


def test_dominate_refuses_level_below_one():
    # no orbit point of a level-zero weight off every weight system is dominant
    for lam in ((1, -1, 0), (0, 0, 0), (2, -3, 0)):
        with pytest.raises(ValueError, match="level >= 1"):
            dominate(WeightCoeffs(lam, 0))


def test_tall_block_length_is_exact():
    # the loop oracle needs 2H + 1 reflections at H = 1 mod 3; H = 10**9 is
    # out of its reach
    base = LevelKDominant((3, 0, 0, 0))
    for h in range(60):
        res = orbit_representative(base, RootVector((0, h, 0, 0)))
        assert res == sieving_orbit_representative(base, RootVector((0, h, 0, 0)))
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
        mu = base.to_weight() - root_to_weight(beta.coeffs)
        for _ in range(rng.randrange(1, 12)):
            mu = simple_reflect(mu, rng.randrange(e))
        diff = base.to_weight() - mu
        # rebuild the moved beta when it stays in the positive cone
        from klrblocks.cartan import solve_pinned as _solve_pinned

        x = _solve_pinned(diff.lam, diff.delta)
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
    assert orbit_representative(*case) == sieving_orbit_representative(*case)


@settings(max_examples=200, deadline=None)
@given(orbit_cases())
def test_nonzero_beta0_lies_in_the_sieving_class(case):
    base, beta = case
    res = orbit_representative(base, beta)
    if res.status is OrbitStatus.NONZERO:
        assert res.beta0.coeffs in p_lambda_set(base)


@st.composite
def weights(draw):
    """Any integer weight at e <= 8, with an index that may need reducing."""
    e = draw(st.integers(2, 8))
    lam = draw(st.lists(st.integers(-20, 20), min_size=e, max_size=e))
    i = draw(st.integers(-e, 2 * e - 1))
    return WeightCoeffs(tuple(lam), draw(st.integers(-4, 4))), i


@settings(max_examples=400, deadline=None)
@given(weights())
def test_integer_reflections_match_weight_coeffs_arithmetic(case):
    """The closed form against the reflection loop: the same dominant weight
    and a length equal to the loop's reflection count; a reflection of mu,
    at an index that may need reducing, has the same dominant weight."""
    mu, i = case
    if mu.level < 1:
        with pytest.raises(ValueError):
            dominate(mu)
    else:
        assert dominate(mu) == weight_coeffs_dominate(mu)
        assert dominate(simple_reflect(mu, i))[0] == dominate(mu)[0]
