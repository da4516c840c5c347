from __future__ import annotations

import importlib
import inspect
import pkgutil
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import klrblocks
from klrblocks.cartan import (
    NoSolutionError,
    RootVector,
    WeightCoeffs,
    apply_cartan,
    interval_delta,
    solve_pinned,
)

import oracles
from oracles import (
    alpha_to_weight,
    cartan_matrix,
    cyclic_interval,
    delta_decompose,
    pairing,
    rotate_tuple,
    weight_add,
)


def test_cartan_matrix_small_ranks():
    assert cartan_matrix(2) == [[2, -2], [-2, 2]]
    assert cartan_matrix(3) == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]


def test_cartan_matrix_kernel_and_rank():
    for ell in range(1, 9):
        e = ell + 1
        a = cartan_matrix(e)
        ones = (1,) * e
        assert apply_cartan(ones) == (0,) * e
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
    a3 = alpha_to_weight(3, 7)
    assert a3.lam == (0, 0, -1, 2, -1, 0, 0) and a3.delta == 0
    a0 = alpha_to_weight(0, 7)
    assert a0.lam == (2, -1, 0, 0, 0, 0, -1) and a0.delta == 1


def test_alpha_sum_is_delta():
    for e in (2, 3, 6):
        total = WeightCoeffs((0,) * e, 0)
        for i in range(e):
            total = weight_add(total, alpha_to_weight(i, e))
        assert total.lam == (0,) * e
        assert total.delta == 1


def test_pairing_of_alpha_recovers_cartan_matrix():
    for e in (2, 3, 5):
        a = cartan_matrix(e)
        for i in range(e):
            for j in range(e):
                assert pairing(i, alpha_to_weight(j, e)) == a[i][j]


def test_delta_decompose():
    b0, m = delta_decompose(RootVector((2, 1, 1)))
    assert b0.coeffs == (1, 0, 0) and m == 1
    b0, m = delta_decompose(RootVector((0, 0, 0)))
    assert b0.coeffs == (0, 0, 0) and m == 0
    v = (3, 2, 1, 0, 1, 2, 3)
    b0, m = delta_decompose(RootVector(v))
    assert b0.coeffs == v and m == 0


def test_sigma_rotate():
    # the rotation the sigma-symmetry tests apply to weights and roots
    assert rotate_tuple((1, 0, 0, 1, 0, 0, 0), 1) == (0, 1, 0, 0, 1, 0, 0)
    assert rotate_tuple((1, 2, 0), 2) == (2, 0, 1)
    # sigma^e is the identity
    assert rotate_tuple((1, 2, 3), 3) == (1, 2, 3)
    rng = random.Random(7)
    for _ in range(50):
        e = rng.randrange(2, 8)
        lam = tuple(rng.randrange(-3, 4) for _ in range(e))
        s = rng.randrange(-5, 9)
        r = rotate_tuple(lam, s)
        assert sum(r) == sum(lam)
        assert rotate_tuple(r, -s) == lam


def test_interval_delta_examples():
    assert interval_delta(6, 3, 7) == (1, 1, 1, 1, 0, 0, 1)
    assert interval_delta(0, 3, 7) == (1, 1, 1, 1, 0, 0, 0)
    for i in range(7):
        assert interval_delta(i, i - 1, 7) == (1,) * 7


def test_interval_delta_matches_the_indicator_set_index_by_index():
    # every label, every index out of range on either side, every e up to 16
    for e in range(2, 17):
        for i in range(-e, 2 * e):
            for j in range(-e, 2 * e):
                assert interval_delta(i, j, e) == oracles.interval_delta(i, j, e)


def test_interval_complement_identity():
    for e in (2, 3, 6, 7):
        for i in range(e):
            for j in range(e):
                if (j - (i - 1)) % e == 0:
                    continue
                left = interval_delta(i, j, e)
                right = interval_delta(j + 1, i - 1, e)
                assert tuple(a + b for a, b in zip(left, right)) == (1,) * e


def test_cyclic_interval_wraps():
    assert cyclic_interval(5, 1, 7) == [0, 1, 5, 6]
    assert cyclic_interval(2, 4, 7) == [2, 3, 4]


def gauss_jordan_pinned(rhs, x0: int):
    """Reference oracle: solve A x = rhs with x_0 pinned by exact Fraction
    elimination on rows 1..ell of the materialized Cartan matrix."""
    e = len(rhs)
    ell = e - 1
    a = cartan_matrix(e)
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
    if apply_cartan(x) != tuple(rhs):
        raise NoSolutionError(f"inconsistent system for rhs {rhs}")
    return x


def outcome(solve, rhs, x0):
    try:
        return solve(rhs, x0)
    except NoSolutionError:
        return NoSolutionError


@st.composite
def pinned_systems(draw):
    """(rhs, x0) with e in 2..13; rhs is A x for an integer x (consistent),
    balanced with sum 0 (integral only when the closed form's sum is 0 mod
    e), or arbitrary (almost always sum != 0)."""
    e = draw(st.integers(2, 13))
    vec = st.lists(st.integers(-20, 20), min_size=e, max_size=e)
    kind = draw(st.sampled_from(("consistent", "balanced", "arbitrary")))
    if kind == "consistent":
        rhs = list(apply_cartan(tuple(draw(vec))))
    else:
        rhs = draw(vec)
        if kind == "balanced":
            rhs[0] -= sum(rhs)
    return tuple(rhs), draw(st.integers(-3, 3))


@settings(max_examples=400, deadline=None)
@given(pinned_systems())
def test_solve_pinned_matches_gauss_jordan(system):
    rhs, x0 = system
    assert outcome(solve_pinned, rhs, x0) == outcome(gauss_jordan_pinned, rhs, x0)


def test_solve_pinned_examples():
    x = (3, 2, 1, 0, 1, 2, 3)
    assert solve_pinned(apply_cartan(x), 3) == x
    assert solve_pinned(apply_cartan(x), 0) == (0, -1, -2, -3, -2, -1, 0)
    assert solve_pinned((-2, 2), 5) == (5, 6)
    with pytest.raises(NoSolutionError, match="integral"):
        solve_pinned((-1, 1), 0)
    with pytest.raises(NoSolutionError, match="inconsistent"):
        solve_pinned((1, 0, 0), 0)


def test_no_callable_takes_a_rank():
    """e is the length of the coefficient tuple, so no function, method or
    constructor of the package takes a separate rank, and no class has one."""
    assert not hasattr(klrblocks, "AffineRank")
    callables, members = {}, set()
    for info in pkgutil.iter_modules(klrblocks.__path__):
        module = importlib.import_module(f"klrblocks.{info.name}")
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            callables[f"{module.__name__}.{name}"] = value
            if inspect.isclass(value):
                fields = getattr(value, "__annotations__", {})
                members |= {f"{name}.{attr}" for attr in [*vars(value), *fields]}
                for attr, member in vars(value).items():
                    # a static or class method is checked through __func__
                    callables[f"{module.__name__}.{name}.{attr}"] = getattr(member, "__func__", member)
    assert "klrblocks.weyl.orbit_representative" in callables
    assert "klrblocks.quiver.WeightQuiver" in callables
    taking_rank = []
    for name, fn in callables.items():
        try:
            params = inspect.signature(fn).parameters
        except (TypeError, ValueError):  # not callable, or a builtin slot
            continue
        if "rank" in params:
            taking_rank.append(name)
    assert taking_rank == []
    assert [m for m in members if m.endswith(".rank")] == []
