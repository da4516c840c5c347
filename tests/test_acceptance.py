"""Acceptance suite: one test per criterion, exact equality throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

from __future__ import annotations

import itertools
import random

from klrblocks.brauer import graph_cartan_matrix as graph_cartan
from klrblocks.brauer import decomp_search, derived_invariants, gamma_family
from klrblocks.cartan import RootVector
from klrblocks.classify import FieldParams, TClass, classify
from klrblocks.maxweights import LevelKDominant, equiv_class, max_plus, solve_x
from klrblocks.quiver import build_quiver, t_subquiver
from klrblocks.tableaux import (
    LaurentPoly,
    block_is_nonzero,
    charges_of,
    graded_dim,
    graded_dim_total,
)
from klrblocks.weyl import OrbitStatus, orbit_representative

from oracles import composition_equiv_class, line_graph, rotate_tuple, simple_reflect
from test_classify import TRUTH_TABLE
from test_quiver import ARROWS_636, TAGGED_EXAMPLE, arrow_triples, tagged
from test_tableaux import times
from test_weyl import beta_of


def report(num, text):
    print(f"ACCEPTANCE {num:2d}: PASS - {text}")


X_GOLDEN_636 = {
    (1, 0, 0, 1, 0, 0, 1): (0, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 1, 0, 1, 0): (1, 0, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, 1, 0, 2): (1, 1, 1, 1, 0, 0, 0),
    (1, 0, 0, 0, 1, 1, 0): (1, 1, 1, 1, 0, 0, 1),
    (0, 0, 0, 0, 0, 2, 1): (2, 2, 2, 2, 1, 0, 1),
    (0, 1, 0, 0, 2, 0, 0): (2, 1, 1, 1, 0, 1, 2),
    (0, 0, 1, 1, 1, 0, 0): (2, 1, 0, 0, 0, 1, 2),
    (0, 0, 0, 3, 0, 0, 0): (3, 2, 1, 0, 1, 2, 3),
    (0, 1, 1, 0, 0, 0, 1): (1, 0, 0, 1, 1, 1, 1),
    (0, 0, 2, 0, 0, 1, 0): (2, 1, 0, 1, 1, 1, 2),
    (2, 0, 1, 0, 0, 0, 0): (0, 0, 0, 1, 1, 1, 1),
    (1, 2, 0, 0, 0, 0, 0): (1, 0, 1, 2, 2, 2, 2),
}


def test_criterion_01_maxplus_golden():
    base = LevelKDominant((1, 0, 0, 1, 0, 0, 1))
    cls = equiv_class(base)
    assert len(cls) == 12
    assert {m.coeffs for m in cls} == set(X_GOLDEN_636)
    for member in cls:
        assert solve_x(base, member) == X_GOLDEN_636[member.coeffs]
    report(1, "12-member class with all 12 solution vectors, exact")


def level2_x_form(ell: int, s: int, member: tuple[int, ...]) -> tuple[int, ...]:
    """The closed-form solution vector for a level-2 class member."""
    e = ell + 1
    base = [0] * e
    base[0] += 1
    base[s] += 1
    if member == tuple(base):
        return (0,) * e
    support = [i for i, c in enumerate(member) for _ in range(c)]
    a, b = support
    # first family: member = L_j + L_{s-j} (integer sum s, no wrap-around)
    if s > 0 and a + b == s:
        j = a
        return tuple(
            list(range(j, 0, -1))
            + [0] * (s - 2 * j + 1)
            + list(range(1, j))
            + [j] * (ell - s + 1)
        )
    # second family: member = L_{s+i} + L_{e-i}
    i = e - b
    return tuple(
        [i] * (s + 1)
        + list(range(i - 1, 0, -1))
        + [0] * (ell - s - 2 * i + 2)
        + list(range(1, i))
    )


def test_criterion_02_level_two_closed_forms():
    checked = 0
    for ell in range(4, 13):
        e = ell + 1
        for s in range(0, e):
            coeffs = [0] * e
            coeffs[0] += 1
            coeffs[s] += 1
            base = LevelKDominant(tuple(coeffs))
            for member in equiv_class(base):
                expected = level2_x_form(ell, s, member.coeffs)
                assert solve_x(base, member) == expected, (ell, s, member)
                checked += 1
    report(2, f"level-2 closed forms, {checked} members over ell=4..12, exact")


def test_criterion_03_bfs_cross_check():
    rng = random.Random(2024)
    count = 0
    while count < 20:
        ell = rng.randrange(1, 9)
        e = ell + 1
        k = rng.randrange(2, 6)
        coeffs = [0] * e
        for _ in range(k):
            coeffs[rng.randrange(e)] += 1
        base = LevelKDominant(tuple(coeffs))
        q = build_quiver(base)
        assert {v.weight for v in q.vertices} == set(composition_equiv_class(base))
        for v in q.vertices:
            assert v.x == solve_x(base, v.weight)
        count += 1
    report(3, "20 random quivers: BFS annotations equal the solver, vertex sets equal the sieving class")


def test_criterion_04_quiver_goldens():
    # doubled-base chain with the displayed labels
    for ell in (2, 3, 6, 9):
        e = ell + 1
        q = build_quiver(LevelKDominant((2,) + (0,) * ell))
        n = e // 2
        assert len(q.arrows) == n and len(q.vertices) == n + 1
        coeffs_of = {v.weight.coeffs: i for i, v in enumerate(q.vertices)}
        prev = (2,) + (0,) * ell
        for i in range(1, n + 1):
            w = [0] * e
            w[i] += 1
            w[(e - i) % e] += 1
            label = (0, 0) if i == 1 else (e - i + 1, i - 1)
            arrow = next(
                a
                for a in q.arrows
                if a.src == coeffs_of[prev] and a.dst == coeffs_of[tuple(w)]
            )
            assert arrow.label == label
            prev = tuple(w)
    # the full worked example: arrow set exactly as drawn
    q = build_quiver(LevelKDominant((1, 0, 0, 1, 0, 0, 1)))
    assert arrow_triples(q) == ARROWS_636
    assert len(q.arrows) == 21
    report(4, "doubled-base chains and the 21 drawn arrows of the worked figure, exact")


def test_criterion_05_tagged_subquiver_golden():
    base = LevelKDominant((4, 0, 0, 2, 0, 0, 1))
    t = t_subquiver(base)
    for s, vs in TAGGED_EXAMPLE.items():
        assert tagged(t, s) == vs, s
    assert len(set().union(*TAGGED_EXAMPLE.values())) == 13
    report(5, "13 tagged vertices of the worked depth-2 subquiver, exact tags")


def poly(*pairs) -> LaurentPoly:
    return LaurentPoly({e: c for e, c in pairs})


def test_criterion_06_graded_dimension_goldens():
    # (a) level 3, rank 1
    ch = charges_of((2, 1))
    d = RootVector((1, 1))
    assert graded_dim(ch, d, (0, 1), (0, 1)) == poly((0, 1), (2, 2), (4, 2), (6, 1))
    assert graded_dim(ch, d, (1, 0), (1, 0)) == poly((0, 1), (2, 1), (4, 1), (6, 1))
    assert graded_dim(ch, d, (0, 1), (1, 0)) == poly((2, 1), (4, 1))
    # (b) the concentrated bases at rank 1, levels 3..6
    for k in range(3, 7):
        expected = {0: 1, 2 * k: 1} | {2 * i: 2 for i in range(1, k)}
        assert graded_dim_total(charges_of((k, 0)), d) == LaurentPoly(expected)
    # (c) rank 2 for levels 3 and 4
    d3 = RootVector((1, 1, 1))
    for k in (3, 4):
        ch3 = charges_of((k, 0, 0))
        diag = {0: 1, 2 * k: 1} | {2 * i: 2 for i in range(1, k)}
        cross = {2 * i - 1: 1 for i in range(1, k + 1)}
        assert graded_dim(ch3, d3, (0, 1, 2), (0, 1, 2)) == LaurentPoly(diag)
        assert graded_dim(ch3, d3, (0, 1, 2), (0, 2, 1)) == LaurentPoly(cross)
    # (d), (e) the doubled zero root under concentrated bases
    q2 = poly((2, 1), (0, 2), (-2, 1))
    assert graded_dim_total(charges_of((5, 0, 0)), RootVector((2, 0, 0))) == times(
        q2, poly((0, 1), (2, 1), (4, 2), (6, 2), (8, 2), (10, 1), (12, 1))
    )
    assert graded_dim_total(charges_of((4, 0, 0)), RootVector((2, 0, 0))) == times(
        q2, poly((0, 1), (2, 1), (4, 2), (6, 1), (8, 1))
    )
    report(6, "all five graded-dimension goldens, exact")


def test_criterion_07_zero_block_oracle_equivalence():
    cases = 0
    for ell in range(1, 5):
        e = ell + 1
        for k in range(1, 4):
            base = LevelKDominant((k,) + (0,) * ell)
            for total in range(0, 9):
                for beta in itertools.product(range(total + 1), repeat=e):
                    if sum(beta) != total:
                        continue
                    rv = RootVector(beta)
                    by_orbit = (
                        orbit_representative(base, rv).status is OrbitStatus.NONZERO
                    )
                    by_tableaux = block_is_nonzero(base.coeffs, rv)
                    assert by_orbit == by_tableaux, (base, beta)
                    cases += 1
    assert cases > 2000
    report(7, f"orbit reduction vs tableau content on {cases} blocks, exact agreement")


def test_criterion_08_classifier_truth_table():
    assert len(TRUTH_TABLE) >= 30
    for ell, base, beta, char_p, t_class, expected in TRUTH_TABLE:
        got = classify(
            LevelKDominant(base), RootVector(beta), FieldParams(char_p, t_class)
        )
        assert got == expected, (ell, base, beta, char_p, t_class)
    report(8, f"classifier truth table, {len(TRUTH_TABLE)} curated cases, exact")


def test_criterion_09_symmetry_properties():
    rng = random.Random(777)

    def random_base(min_level, max_level, max_ell=4):
        ell = rng.randrange(1, max_ell + 1)
        e = ell + 1
        k = rng.randrange(min_level, max_level + 1)
        coeffs = [0] * e
        for _ in range(k):
            coeffs[rng.randrange(e)] += 1
        return LevelKDominant(tuple(coeffs))

    # (a) classifier invariance under rotation
    for _ in range(500):
        base = random_base(3, 5)
        e = len(base.coeffs)
        beta = RootVector(tuple(rng.randrange(0, 3) for _ in range(e)))
        char_p = rng.choice([0, 2, 3])
        if e == 2:
            t_class = rng.choice([TClass.OTHER, TClass.TWO, TClass.MINUS_TWO])
        else:
            t_class = rng.choice([TClass.OTHER, TClass.SIGN_ELL])
        params = FieldParams(char_p, t_class)
        shift = rng.randrange(e)
        rotated = LevelKDominant(rotate_tuple(base.coeffs, shift))
        assert classify(
            rotated, RootVector(rotate_tuple(beta.coeffs, shift)), params
        ) == classify(base, beta, params)

    # (b) solver equivariance under rotation
    for _ in range(500):
        base = random_base(2, 5, max_ell=6)
        e = len(base.coeffs)
        cls = equiv_class(base)
        target = cls[rng.randrange(len(cls))]
        shift = rng.randrange(e)
        rotated = LevelKDominant(rotate_tuple(base.coeffs, shift))
        assert solve_x(rotated, LevelKDominant(rotate_tuple(target.coeffs, shift))) == rotate_tuple(
            solve_x(base, target), shift
        )

    # (c) dominance recovers maximal dominant weights after random words
    for _ in range(500):
        base = random_base(1, 4, max_ell=5)
        entries = max_plus(base)
        entry = entries[rng.randrange(len(entries))]
        moved = entry.max_weight
        for _ in range(rng.randrange(31)):
            moved = simple_reflect(moved, rng.randrange(len(moved.lam)))
        res = orbit_representative(base, RootVector(beta_of(base, moved)))
        assert (res.status, res.beta0, res.m) == (OrbitStatus.NONZERO, entry.beta, 0)
    report(9, "500 random instances each: rotation invariance twice and dominance recovery, zero failures")


def test_criterion_10_brauer_goldens():
    assert graph_cartan(line_graph([2, 2, 2])) == [[4, 2], [2, 4]]
    for s in range(6):
        for m in range(1, 5):
            c = graph_cartan(gamma_family(s, 1, m))
            n = s + 1
            expected = [
                [
                    (m + 1 if i == 0 else 2 * m)
                    if i == j
                    else (m if abs(i - j) == 1 else 0)
                    for j in range(n)
                ]
                for i in range(n)
            ]
            assert c == expected
    # decomposition matrices: unique staircases, unique doubled family, and
    # genuine ambiguity at multiplicity 3
    for n in range(1, 7):
        c = [
            [2 if i == j else 1 if abs(i - j) == 1 else 0 for j in range(n)]
            for i in range(n)
        ]
        assert decomp_search(c).unique
    for s in (1, 2, 3):
        assert decomp_search(graph_cartan(gamma_family(s, 1, 2))).unique
    assert not decomp_search(graph_cartan(gamma_family(1, 1, 3))).unique
    assert not decomp_search(graph_cartan(gamma_family(2, 1, 3))).unique
    # every tree has one face of perimeter twice the edge count
    trees = [
        line_graph([1, 1]),
        line_graph([2, 2, 2]),
        line_graph([3, 1, 3, 3]),
        gamma_family(4, 2, 3),
    ]
    from klrblocks.brauer import BrauerGraph

    trees.append(
        BrauerGraph.build([1, 2, 1, 1], [(0, 1), (1, 2), (1, 3)], {1: [0, 1, 2]})
    )
    for g in trees:
        inv = derived_invariants(g)
        assert inv.n_faces == 1
        assert inv.perimeter_multiset == (2 * inv.n_edges,)
    report(10, "Brauer Cartan tables, decomposition uniqueness pattern, tree faces, exact")


def test_criterion_11_cartan_graded_dim_consistency():
    for ell in (2, 3):
        e = ell + 1
        for k in (3, 4):
            charges = charges_of((k,) + (0,) * ell)
            delta = RootVector((1,) * e)
            # the standard idempotent family: hooks read off row then column
            seqs = [
                tuple(range(0, i)) + tuple(range(ell, i - 1, -1))
                for i in range(1, ell + 1)
            ]
            matrix = [
                [graded_dim(charges, delta, si, sj).at_one() for sj in seqs]
                for si in seqs
            ]
            expected = graph_cartan(line_graph([k] * e))
            assert matrix == expected, (ell, k, matrix)
    report(11, "q=1 pairwise dimensions equal the line-graph Cartan matrices, exact")
