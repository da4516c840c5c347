from __future__ import annotations

import itertools
import random
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klrblocks import maxweights
from klrblocks.cartan import LimitError, apply_cartan
from klrblocks.maxweights import (
    LevelKDominant,
    MaxWeightEntry,
    NoSolutionError,
    _label_table,
    _LabelRows,
    class_size,
    class_walk,
    equiv_class,
    max_plus,
    solve_x,
)

from oracles import (
    composition_equiv_class, ev, facts, interval_delta, pairing, rotate_tuple, solver_max_plus,
)


def brute_force_x(base: LevelKDominant, target: LevelKDominant, bound: int):
    """Independent oracle: scan all small nonnegative vectors for solutions
    of A X = Y with min X = 0."""
    y = tuple(b - t for b, t in zip(base.coeffs, target.coeffs))
    found = []
    for x in itertools.product(range(bound + 1), repeat=len(y)):
        if min(x) == 0 and apply_cartan(x) == y:
            found.append(x)
    return found


def test_label_table_slices_are_interval_indicators():
    # a kept table where there is one, and a fresh one at every e
    cached = maxweights.LABEL_TABLE_MAX_E
    for e in [*range(2, 13), cached, cached + 1]:
        for table in [_LabelRows(e)] + [_label_table(e)] * (e <= cached):
            for i in range(e):
                row = table[i]
                assert len(row) == e
                for j, (gap, window, start) in enumerate(row):
                    inside = interval_delta(i, j, e)
                    assert window[start : start + e] == inside
                    assert gap == sum(1 << h for h, bit in enumerate(inside) if not bit)
                    if (j - (i - 1)) % e == 0:  # the loop label: [i, j] = I
                        assert (gap, inside) == (0, (1,) * e)


def test_ev_examples():
    assert ev(LevelKDominant((3, 0))) == 0
    assert ev(LevelKDominant((1, 0, 0, 1, 0, 0, 1))) == 2  # 3 + 6 = 9 = 2 mod 7
    assert ev(LevelKDominant((0, 1, 0, 0, 2, 0, 0))) == 2  # same class


def test_equiv_class_level_one_is_singleton():
    for ell in (1, 3, 6):
        e = ell + 1
        for s in range(e):
            coeffs = tuple(1 if i == s else 0 for i in range(e))
            assert equiv_class(LevelKDominant(coeffs)) == [LevelKDominant(coeffs)]


def test_equiv_class_level_two():
    for ell in (2, 3, 6, 7):
        e = ell + 1
        base = LevelKDominant((2,) + (0,) * ell)
        expected = {base.coeffs}
        for i in range(1, e // 2 + 1):
            c = [0] * e
            c[i] += 1
            c[(e - i) % e] += 1
            expected.add(tuple(c))
        assert {m.coeffs for m in equiv_class(base)} == expected


def test_equiv_class_twelve_members():
    cls = equiv_class(LevelKDominant((1, 0, 0, 1, 0, 0, 1)))
    assert len(cls) == 12
    assert all(ev(m) == 2 for m in cls)
    assert cls == sorted(cls, key=lambda m: m.coeffs)


def test_solve_x_examples():
    for ell in (2, 4, 6):
        e = ell + 1
        base = LevelKDominant((2,) + (0,) * ell)
        target = [0] * e
        target[1] += 1
        target[ell] += 1
        assert solve_x(base, LevelKDominant(tuple(target))) == (1,) + (0,) * ell
    base = LevelKDominant((1, 0, 0, 1, 0, 0, 1))
    assert solve_x(base, LevelKDominant((0, 0, 0, 3, 0, 0, 0))) == (3, 2, 1, 0, 1, 2, 3)
    assert solve_x(base, base) == (0,) * 7


def test_solve_x_matches_brute_force():
    cases = [
        (LevelKDominant((2, 0)), 6),
        (LevelKDominant((2, 1)), 6),
        (LevelKDominant((3, 0, 0)), 6),
        (LevelKDominant((1, 1, 0, 1)), 5),
    ]
    for base, bound in cases:
        for target in equiv_class(base):
            sols = brute_force_x(base, target, bound)
            assert len(sols) == 1
            assert solve_x(base, target) == sols[0]


def test_solve_x_uniqueness_under_shift():
    base = LevelKDominant((1, 0, 0, 1, 0, 0, 1))
    for target in equiv_class(base):
        x = solve_x(base, target)
        assert min(x) == 0
        for c in (-2, -1, 1, 2):
            shifted = tuple(v + c for v in x)
            assert min(shifted) != 0 or any(v < 0 for v in shifted)


def test_solve_x_rejects_inequivalent_target():
    base = LevelKDominant((2, 0))
    with pytest.raises(NoSolutionError):
        solve_x(base, LevelKDominant((1, 1)))
    with pytest.raises(NoSolutionError):
        solve_x(LevelKDominant((3, 0, 0)), LevelKDominant((2, 1, 0)))


def test_max_plus_level_two_closed_form():
    # beta coefficients read off the solution vectors of the chain
    for ell in (4, 6, 9):
        e = ell + 1
        base = LevelKDominant((2,) + (0,) * ell)
        entries = {en.weight.coeffs: en for en in max_plus(base)}
        for i in range(1, e // 2 + 1):
            w = [0] * e
            w[i] += 1
            w[(e - i) % e] += 1
            expected = (
                list(range(i, 0, -1))
                + [0] * (ell - 2 * i + 2)
                + list(range(1, i))
            )
            en = entries[tuple(w)]
            assert en.x == tuple(expected)
            assert en.beta.coeffs == en.x
            assert en.max_weight.delta == -en.x[0]


def test_max_plus_round_trip_and_dominance():
    for base in (
        LevelKDominant((2, 0)),
        LevelKDominant((1, 0, 0, 1, 0, 0, 1)),
        LevelKDominant((2, 1, 0, 1)),
    ):
        for en in max_plus(base):
            assert min(en.max_weight.lam) >= 0
            lam = tuple(
                pairing(i, en.max_weight) for i in range(len(base.coeffs))
            )
            assert lam == en.weight.coeffs
            assert min(en.x) == 0


def test_solve_x_sigma_equivariance():
    rng = random.Random(11)
    for _ in range(60):
        ell = rng.randrange(1, 7)
        e = ell + 1
        k = rng.randrange(2, 5)
        coeffs = [0] * e
        for _ in range(k):
            coeffs[rng.randrange(e)] += 1
        base = LevelKDominant(tuple(coeffs))
        cls = equiv_class(base)
        target = cls[rng.randrange(len(cls))]
        shift = rng.randrange(e)
        lhs = solve_x(
            LevelKDominant(rotate_tuple(base.coeffs, shift)),
            LevelKDominant(rotate_tuple(target.coeffs, shift)),
        )
        rhs = rotate_tuple(solve_x(base, target), shift)
        assert lhs == rhs


def test_embedding_property():
    # adding a fixed summand to base and target leaves the solution unchanged
    rng = random.Random(13)
    for _ in range(40):
        ell = rng.randrange(1, 6)
        e = ell + 1
        k = rng.randrange(2, 4)
        coeffs = [0] * e
        for _ in range(k):
            coeffs[rng.randrange(e)] += 1
        small = LevelKDominant(tuple(coeffs))
        extra = [0] * e
        for _ in range(rng.randrange(1, 3)):
            extra[rng.randrange(e)] += 1
        big = LevelKDominant(tuple(a + b for a, b in zip(coeffs, extra)))
        for target in equiv_class(small):
            shifted = LevelKDominant(
                tuple(a + b for a, b in zip(target.coeffs, extra))
            )
            assert solve_x(big, shifted) == solve_x(small, target)


def weak_compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`, lex order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in weak_compositions(total - head, parts - 1):
            yield (head,) + tail


def filtered_equiv_class(w: LevelKDominant) -> list[LevelKDominant]:
    """Reference oracle: enumerate every level-k weight and keep those with
    the same ev, then sort."""
    target = ev(w)
    e = len(w.coeffs)
    members = [
        LevelKDominant(c)
        for c in weak_compositions(w.level, e)
        if sum(i * ci for i, ci in enumerate(c)) % e == target
    ]
    members.sort(key=lambda m: m.coeffs)
    return members


@st.composite
def dominant_weights(draw, max_e: int = 9, levels: tuple[int, int] = (1, 6)):
    """Dominant weights with e = 2..max_e and level in the given range."""
    e = draw(st.integers(2, max_e))
    coeffs = [0] * e
    for i in draw(st.lists(st.integers(0, e - 1), min_size=levels[0], max_size=levels[1])):
        coeffs[i] += 1
    return LevelKDominant(tuple(coeffs))


@settings(max_examples=300, deadline=None)
@given(dominant_weights())
def test_equiv_class_matches_filtered_enumeration(w):
    assert equiv_class(w) == filtered_equiv_class(w)


@settings(max_examples=150, deadline=None)
@given(dominant_weights(max_e=13, levels=(1, 5)))
def test_max_plus_matches_composition_class_and_solver(base):
    entries, oracle = max_plus(base), solver_max_plus(base)
    # an entry's == compares its member and x; its beta and max weight are
    # read off them, so they are compared on their own
    assert entries == [MaxWeightEntry(o.weight, o.x) for o in oracle]
    assert list(map(facts, entries)) == oracle
    assert equiv_class(base) == composition_equiv_class(base)
    for en in entries:
        assert min(en.x) == 0
        ax = apply_cartan(en.x)
        assert tuple(b - a for b, a in zip(base.coeffs, ax)) == en.weight.coeffs


def test_class_size_has_a_closed_form():
    # Kac, Infinite-Dimensional Lie Algebras, Prop. 12.6: the class is the
    # level-k dominant weights whose difference from Lambda is in the root
    # lattice; a walk that misses a member or adds one, or a count that
    # differs from the walk's, fails here
    assert class_size((10,) + (0,) * 10) == comb(20, 10) // 11  # Catalan C_10
    for e, level in itertools.product(range(2, 7), range(1, 7)):
        for coeffs in weak_compositions(level, e):
            assert len(class_walk(coeffs)) == class_size(coeffs), coeffs


@pytest.mark.parametrize(
    "coeffs",
    [
        (12,) + (0,) * 11,  # 112,720 members
        (11,) + (0,) * 10,  # 32,066 members
        tuple(1 if i % 2 == 0 and i < 16 else 0 for i in range(17)),  # 43,263 members
    ],
)
def test_an_oversize_class_is_refused_before_the_walk(coeffs, monkeypatch):
    # the walk took 0.27-0.29 s to reach member 20,001 of each of these; the
    # closed form refuses them without reading a label table
    monkeypatch.setattr(maxweights, "_label_table", lambda e: pytest.fail("the walk started"))
    start = time.perf_counter()
    with pytest.raises(LimitError, match=r"^the class of .* exceeds the limit MAX_CLASS_MEMBERS = 20000$"):
        class_walk(coeffs)
    assert time.perf_counter() - start < 0.05
