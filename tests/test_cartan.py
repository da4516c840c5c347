from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klrblocks.cartan import (
    AffineRank,
    NoSolutionError,
    RootVector,
    WeightCoeffs,
    apply_cartan,
    cartan_matrix,
    cyclic_interval,
    delta_decompose,
    interval_delta,
    sigma_rotate,
    solve_pinned,
)

from oracles import alpha_to_weight, pairing


def test_cartan_matrix_small_ranks():
    assert cartan_matrix(AffineRank(1)) == [[2, -2], [-2, 2]]
    assert cartan_matrix(AffineRank(2)) == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]


def test_cartan_matrix_kernel_and_rank():
    for ell in range(1, 9):
        rank = AffineRank(ell)
        a = cartan_matrix(rank)
        e = rank.e
        ones = (1,) * e
        assert apply_cartan(rank, ones) == (0,) * e
        assert all(a[i][j] == a[j][i] for i in range(e) for j in range(e))
        assert all(a[i][i] == 2 for i in range(e))
        # corank exactly 1: rows 1..ell are linearly independent
        m = [[Fraction(a[r][c]) for c in range(1, e)] for r in range(1, e)]
        det = Fraction(1)
        for col in range(ell):
            piv = next(r for r in range(col, ell) if m[r][col] != 0)
            if piv != col:
                m[col], m[piv] = m[piv], m[col]
                det = -det
            det *= m[col][col]
            inv = 1 / m[col][col]
            for r in range(col + 1, ell):
                f = m[r][col] * inv
                m[r] = [v - f * p for v, p in zip(m[r], m[col])]
        assert det != 0


def test_pairing():
    mu = WeightCoeffs((1, 0, 0), 0)
    assert pairing(0, mu) == 1
    delta = WeightCoeffs((0, 0, 0), 1)
    assert pairing(1, delta) == 0
    w = WeightCoeffs((0, 0, 3), 5)
    assert pairing(2, w) == 3
    assert pairing(2 + 3, w) == 3  # indices reduce mod e


def test_alpha_to_weight_examples():
    rank = AffineRank(6)
    a3 = alpha_to_weight(3, rank)
    assert a3.lam == (0, 0, -1, 2, -1, 0, 0) and a3.delta == 0
    a0 = alpha_to_weight(0, rank)
    assert a0.lam == (2, -1, 0, 0, 0, 0, -1) and a0.delta == 1


def test_alpha_sum_is_delta():
    for ell in (1, 2, 5):
        rank = AffineRank(ell)
        total = WeightCoeffs((0,) * rank.e, 0)
        for i in range(rank.e):
            total = total + alpha_to_weight(i, rank)
        assert total.lam == (0,) * rank.e
        assert total.delta == 1


def test_pairing_of_alpha_recovers_cartan_matrix():
    for ell in (1, 2, 4):
        rank = AffineRank(ell)
        a = cartan_matrix(rank)
        for i in range(rank.e):
            for j in range(rank.e):
                assert pairing(i, alpha_to_weight(j, rank)) == a[i][j]


def test_delta_decompose():
    b0, m = delta_decompose(RootVector((2, 1, 1)))
    assert b0.coeffs == (1, 0, 0) and m == 1
    b0, m = delta_decompose(RootVector((0, 0, 0)))
    assert b0.coeffs == (0, 0, 0) and m == 0
    v = (3, 2, 1, 0, 1, 2, 3)
    b0, m = delta_decompose(RootVector(v))
    assert b0.coeffs == v and m == 0


def test_sigma_rotate():
    w = WeightCoeffs((1, 0, 0, 1, 0, 0, 0), 0)
    assert sigma_rotate(w, 1).lam == (0, 1, 0, 0, 1, 0, 0)
    b = sigma_rotate(RootVector((1, 2, 0)), 2)
    assert b.coeffs == (2, 0, 1)
    # sigma^e is the identity; delta part untouched
    w2 = WeightCoeffs((1, 2, 3), -4)
    assert sigma_rotate(w2, 3) == w2
    rng = random.Random(7)
    for _ in range(50):
        e = rng.randrange(2, 8)
        lam = tuple(rng.randrange(-3, 4) for _ in range(e))
        d = rng.randrange(-2, 3)
        s = rng.randrange(-5, 9)
        w3 = WeightCoeffs(lam, d)
        r = sigma_rotate(w3, s)
        assert r.level == w3.level and r.delta == w3.delta
        assert sigma_rotate(r, -s) == w3


def test_interval_delta_examples():
    rank = AffineRank(6)
    assert interval_delta(6, 3, rank) == (1, 1, 1, 1, 0, 0, 1)
    assert interval_delta(0, 3, rank) == (1, 1, 1, 1, 0, 0, 0)
    for i in range(rank.e):
        assert interval_delta(i, i - 1, rank) == (1,) * rank.e


def test_interval_complement_identity():
    for ell in (1, 2, 5, 6):
        rank = AffineRank(ell)
        e = rank.e
        for i in range(e):
            for j in range(e):
                if (j - (i - 1)) % e == 0:
                    continue
                left = interval_delta(i, j, rank)
                right = interval_delta(j + 1, i - 1, rank)
                assert tuple(a + b for a, b in zip(left, right)) == (1,) * e


def test_cyclic_interval_wraps():
    rank = AffineRank(6)
    assert cyclic_interval(5, 1, rank) == [0, 1, 5, 6]
    assert cyclic_interval(2, 4, rank) == [2, 3, 4]


def gauss_jordan_pinned(rank: AffineRank, rhs, x0: int):
    """Reference oracle: solve A x = rhs with x_0 pinned by exact Fraction
    elimination on rows 1..ell of the materialized Cartan matrix."""
    e = rank.e
    ell = rank.ell
    a = cartan_matrix(rank)
    # Rows 1..ell in the unknowns x_1..x_ell, moving the x_0 column to the rhs.
    mat = [
        [Fraction(a[r][c]) for c in range(1, e)] + [Fraction(rhs[r] - a[r][0] * x0)]
        for r in range(1, e)
    ]
    for col in range(ell):
        piv = next(r for r in range(col, ell) if mat[r][col] != 0)
        mat[col], mat[piv] = mat[piv], mat[col]
        inv = 1 / mat[col][col]
        mat[col] = [v * inv for v in mat[col]]
        for r in range(ell):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [v - f * p for v, p in zip(mat[r], mat[col])]
    xs = [mat[r][ell] for r in range(ell)]
    if any(v.denominator != 1 for v in xs):
        raise NoSolutionError(f"no integral solution for rhs {rhs}")
    x = (x0,) + tuple(int(v) for v in xs)
    if apply_cartan(rank, x) != tuple(rhs):
        raise NoSolutionError(f"inconsistent system for rhs {rhs}")
    return x


def outcome(solve, rank, rhs, x0):
    try:
        return solve(rank, rhs, x0)
    except NoSolutionError:
        return NoSolutionError


@st.composite
def pinned_systems(draw):
    """(rank, rhs, x0) with ell in 1..12; rhs is A x for an integer x
    (consistent), balanced with sum 0 (integral only when the closed form's
    sum is 0 mod e), or arbitrary (almost always sum != 0)."""
    rank = AffineRank(draw(st.integers(1, 12)))
    vec = st.lists(st.integers(-20, 20), min_size=rank.e, max_size=rank.e)
    kind = draw(st.sampled_from(("consistent", "balanced", "arbitrary")))
    if kind == "consistent":
        rhs = list(apply_cartan(rank, tuple(draw(vec))))
    else:
        rhs = draw(vec)
        if kind == "balanced":
            rhs[0] -= sum(rhs)
    return rank, tuple(rhs), draw(st.integers(-3, 3))


@settings(max_examples=400, deadline=None)
@given(pinned_systems())
def test_solve_pinned_matches_gauss_jordan(system):
    rank, rhs, x0 = system
    assert outcome(solve_pinned, rank, rhs, x0) == outcome(gauss_jordan_pinned, rank, rhs, x0)


def test_solve_pinned_examples():
    rank = AffineRank(6)
    x = (3, 2, 1, 0, 1, 2, 3)
    assert solve_pinned(rank, apply_cartan(rank, x), 3) == x
    assert solve_pinned(rank, apply_cartan(rank, x), 0) == (0, -1, -2, -3, -2, -1, 0)
    assert solve_pinned(AffineRank(1), (-2, 2), 5) == (5, 6)
    with pytest.raises(NoSolutionError, match="integral"):
        solve_pinned(AffineRank(1), (-1, 1), 0)
    with pytest.raises(NoSolutionError, match="inconsistent"):
        solve_pinned(AffineRank(2), (1, 0, 0), 0)
