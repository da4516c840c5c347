from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unittest import mock

from klrblocks.cartan import LimitError, RootVector
from klrblocks import maxweights, quiver
from klrblocks.maxweights import LevelKDominant, follow, max_plus, solve_x
from klrblocks.quiver import LevelTooSmallError, build_quiver, t_subquiver

from oracles import (
    composition_equiv_class,
    facts,
    interval_delta,
    interval_has_arrow,
    label_bfs_quiver,
    label_t_subquiver,
    move,
    rotate_tuple,
    solver_max_plus,
    t_beta_sets,
    with_facts,
)
from test_maxweights import dominant_weights

BASE_636 = LevelKDominant((1, 0, 0, 1, 0, 0, 1))

# The complete arrow list of the worked 12-vertex example, as drawn.
ARROWS_636 = {
    ((1, 0, 0, 1, 0, 0, 1), (0, 1, 0, 1, 0, 1, 0), (6, 0)),
    ((1, 0, 0, 1, 0, 0, 1), (1, 0, 0, 0, 1, 1, 0), (6, 3)),
    ((1, 0, 0, 1, 0, 0, 1), (0, 0, 0, 0, 1, 0, 2), (0, 3)),
    ((1, 0, 0, 1, 0, 0, 1), (0, 1, 1, 0, 0, 0, 1), (3, 0)),
    ((1, 0, 0, 1, 0, 0, 1), (2, 0, 1, 0, 0, 0, 0), (3, 6)),
    ((0, 1, 0, 1, 0, 1, 0), (0, 0, 1, 1, 1, 0, 0), (5, 1)),
    ((0, 1, 0, 1, 0, 1, 0), (0, 1, 0, 0, 2, 0, 0), (5, 3)),
    ((0, 1, 0, 1, 0, 1, 0), (0, 0, 2, 0, 0, 1, 0), (3, 1)),
    ((0, 1, 0, 1, 0, 1, 0), (0, 1, 1, 0, 0, 0, 1), (3, 5)),
    ((0, 1, 0, 1, 0, 1, 0), (1, 0, 0, 0, 1, 1, 0), (1, 3)),
    ((0, 0, 0, 0, 1, 0, 2), (0, 0, 0, 0, 0, 2, 1), (6, 4)),
    ((0, 0, 0, 0, 1, 0, 2), (1, 0, 0, 0, 1, 1, 0), (6, 6)),
    ((1, 0, 0, 0, 1, 1, 0), (0, 0, 0, 0, 0, 2, 1), (0, 4)),
    ((1, 0, 0, 0, 1, 1, 0), (0, 1, 0, 0, 2, 0, 0), (5, 0)),
    ((0, 0, 1, 1, 1, 0, 0), (0, 0, 0, 3, 0, 0, 0), (4, 2)),
    ((0, 0, 1, 1, 1, 0, 0), (0, 1, 0, 0, 2, 0, 0), (2, 3)),
    ((0, 0, 1, 1, 1, 0, 0), (0, 0, 2, 0, 0, 1, 0), (3, 4)),
    ((0, 1, 1, 0, 0, 0, 1), (0, 0, 2, 0, 0, 1, 0), (6, 1)),
    ((0, 1, 1, 0, 0, 0, 1), (1, 2, 0, 0, 0, 0, 0), (2, 6)),
    ((2, 0, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0, 1), (0, 0)),
    ((2, 0, 1, 0, 0, 0, 0), (1, 2, 0, 0, 0, 0, 0), (2, 0)),
}


def arrow_triples(q):
    return {
        (q.vertices[a.src].weight.coeffs, q.vertices[a.dst].weight.coeffs, a.label)
        for a in q.arrows
    }


def successors(q, coeffs) -> set[tuple[int, ...]]:
    """The coefficients of the targets of the arrows out of `coeffs`."""
    return {dst for src, dst, _ in arrow_triples(q) if src == coeffs}


def vertex_ids(q) -> dict[tuple[int, ...], int]:
    return {v.weight.coeffs: vid for vid, v in enumerate(q.vertices)}


def tagged(t, s: int) -> set[tuple[int, ...]]:
    """The coefficients of the vertices of the tagged subquiver t with tag s."""
    return {t.vertices[vid].weight.coeffs for vid, tags in t.tags.items() if s in tags}


def test_follow_examples():
    assert follow((2, 0, 0), (0, 0, 0), 0, 0) == ((0, 1, 1), (1, 0, 0))
    src = (0, 1, 0, 1, 0, 1, 0)
    assert follow(src, (1, 0, 0, 0, 0, 0, 1), 1, 3) == (
        (1, 0, 0, 0, 1, 1, 0),
        (1, 1, 1, 1, 0, 0, 1),
    )
    # indices are read mod e
    src = (0, 0, 1, 0, 0, 1, 0)
    assert follow(src, (0,) * 7, 5, 2) == ((0, 0, 0, 1, 1, 0, 0), (1, 1, 1, 0, 0, 1, 1))
    assert follow(src, (0,) * 7, -2, 9) == follow(src, (0,) * 7, 5, 2)


def test_follow_refuses_missing_arrows():
    # a loop label: the oracle's move fixes the weight, follow refuses it
    assert move(LevelKDominant((1, 1, 0, 1)), 1, 0).coeffs == (1, 1, 0, 1)
    with pytest.raises(ValueError, match="loop label"):
        follow((1, 1, 0, 1), (0,) * 4, 1, 0)
    with pytest.raises(ValueError, match="no move"):
        follow((1, 0, 1), (0,) * 3, 0, 0)
    # x for a doubled tail summand under a tripled base: no (2, ell) arrow
    with pytest.raises(ValueError, match="no zero"):
        follow((1, 0, 1, 1), (2, 1, 0, 0), 2, 3)


def test_quiver_chain_for_doubled_base():
    for ell in (1, 2, 3, 6, 7):
        e = ell + 1
        q = build_quiver(LevelKDominant((2,) + (0,) * ell))
        n = e // 2
        assert len(q.vertices) == n + 1
        assert len(q.arrows) == n
        # the chain: 2L0 -> L1+Lell -> L2+Lell-1 -> ...
        labels = {a.label for a in q.arrows}
        expected_labels = {(0, 0)} | {(e - i, i) for i in range(1, n)}
        assert labels == expected_labels
        outdeg = {}
        indeg = {}
        for a in q.arrows:
            outdeg[a.src] = outdeg.get(a.src, 0) + 1
            indeg[a.dst] = indeg.get(a.dst, 0) + 1
        assert all(v <= 1 for v in outdeg.values())
        assert all(v <= 1 for v in indeg.values())


def test_quiver_golden_twelve_vertices():
    q = build_quiver(BASE_636)
    assert len(q.vertices) == 12
    assert arrow_triples(q) == ARROWS_636


def test_bfs_x_agrees_with_solver_and_class():
    rng = random.Random(23)
    for _ in range(25):
        ell = rng.randrange(1, 8)
        e = ell + 1
        k = rng.randrange(2, 5)
        coeffs = [0] * e
        for _ in range(k):
            coeffs[rng.randrange(e)] += 1
        base = LevelKDominant(tuple(coeffs))
        q = build_quiver(base)
        assert {v.weight for v in q.vertices} == set(composition_equiv_class(base))
        for v in q.vertices:
            assert v.x == solve_x(base, v.weight)


@settings(max_examples=150, deadline=None)
@given(dominant_weights(max_e=13, levels=(1, 5)))
def test_quivers_match_label_by_label_oracles(base):
    if base.level < 2:
        for build in (build_quiver, t_subquiver, label_bfs_quiver, label_t_subquiver):
            with pytest.raises(LevelTooSmallError):
                build(base)
        return
    # record equality: base, every vertex's four facts, every arrow, every
    # tag; a vertex's == compares only its member and x, so its beta and max
    # weight are compared through `with_facts`
    assert with_facts(build_quiver(base)) == label_bfs_quiver(base)
    assert with_facts(t_subquiver(base)) == label_t_subquiver(base)


@settings(max_examples=6, deadline=None)
@given(
    dominant_weights(min_e=65, max_e=512, levels=(2, 2))
    | dominant_weights(min_e=14, max_e=100, levels=(3, 3))
)
def test_large_e_walks_match_the_oracles(base):
    # the walk at e past the oracle tests above: level 2 up to MAX_E, and
    # level 3 up to e = 100, where a class has up to 1,717 members
    assert with_facts(build_quiver(base)) == label_bfs_quiver(base)
    assert list(map(facts, max_plus(base))) == solver_max_plus(base)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 13).flatmap(
        lambda e: st.tuples(*(st.lists(st.integers(0, 2), min_size=e, max_size=e),) * 2)
    )
)
def test_follow_matches_interval_scan(src_and_x):
    src, x = map(tuple, src_and_x)
    e = len(x)
    for i in range(-1, e + 1):
        for j in range(-1, e + 1):
            loop = (j - (i - 1)) % e == 0
            summands = src[i % e] >= 1 + (i % e == j % e) and src[j % e] >= 1
            if loop or not summands or not interval_has_arrow(x, i, j):
                with pytest.raises(ValueError):
                    follow(src, x, i, j)
            else:
                x_dst = tuple(a + b for a, b in zip(x, interval_delta(i, j, e)))
                assert follow(src, x, i, j) == (move(LevelKDominant(src), i, j).coeffs, x_dst)


def test_level_too_small():
    with pytest.raises(LevelTooSmallError):
        build_quiver(LevelKDominant((1, 0)))
    with pytest.raises(LevelTooSmallError):
        t_subquiver(LevelKDominant((0, 1, 0)))


def test_successors():
    for ell, k in ((3, 3), (5, 4)):
        e = ell + 1
        base = LevelKDominant((k,) + (0,) * ell)
        q = build_quiver(base)
        first = [0] * e
        first[0] = k - 2
        first[1] += 1
        first[ell] += 1
        assert successors(q, base.coeffs) == {tuple(first)}
    # terminal vertices have no successors
    q = build_quiver(BASE_636)
    assert successors(q, (0, 0, 0, 3, 0, 0, 0)) == set()
    assert successors(q, (1, 2, 0, 0, 0, 0, 0)) == set()
    assert (3, 0, 0, 0, 0, 0, 0) not in vertex_ids(q)


def test_successors_of_first_vertex_of_quadruple_base():
    # out of (k-2)L0+L1+Lell under 4L0: the four vertices of tags 2..5
    ell = 4
    base = LevelKDominant((4, 0, 0, 0, 0))
    q = build_quiver(base)
    got = successors(q, (2, 1, 0, 0, 1))
    expected = {
        (0, 2, 0, 0, 2),       # (0,0) then (0,0) again: tag 4
        (1, 0, 1, 0, 2),       # (0,1): tag 3
        (1, 2, 0, 1, 0),       # (ell,0): tag 3
        (2, 0, 1, 1, 0),       # (ell,1): tag 2
    }
    assert got == expected


def test_orientation_dichotomy():
    # for each drawn arrow, the reverse labelled arrow does not exist
    for base in (BASE_636, LevelKDominant((2, 1, 1)), LevelKDominant((3, 0, 1, 0))):
        e = len(base.coeffs)
        q = build_quiver(base)
        for a in q.arrows:
            i, j = a.label
            x_src = q.vertices[a.src].x
            x_dst = q.vertices[a.dst].x
            assert interval_has_arrow(x_src, i, j)
            assert not interval_has_arrow(x_dst, j + 1, i - 1)
            # the recurrence dichotomy: min(x + interval) is 0 or 1
            for ii, jj in ((i, j), (j + 1, i - 1)):
                bits = interval_delta(ii, jj, e)
                m = min(xv + b for xv, b in zip(x_dst, bits))
                assert m in (0, 1)


def test_reachability_from_base():
    for base in (BASE_636, LevelKDominant((2, 2, 0)), LevelKDominant((1, 1, 1, 1))):
        q = build_quiver(base)
        start = vertex_ids(q)[base.coeffs]
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for a in q.arrows:
                if a.src == v and a.dst not in seen:
                    seen.add(a.dst)
                    frontier.append(a.dst)
        assert seen == set(range(len(q.vertices)))


def test_quiver_sigma_equivariance():
    rng = random.Random(5)
    for _ in range(10):
        ell = rng.randrange(1, 6)
        e = ell + 1
        k = rng.randrange(2, 5)
        coeffs = [0] * e
        for _ in range(k):
            coeffs[rng.randrange(e)] += 1
        base = LevelKDominant(tuple(coeffs))
        shift = rng.randrange(1, e)
        q1 = build_quiver(base)
        q2 = build_quiver(LevelKDominant(rotate_tuple(base.coeffs, shift)))
        mapped = {
            (
                rotate_tuple(src, shift),
                rotate_tuple(dst, shift),
                ((lab[0] + shift) % e, (lab[1] + shift) % e),
            )
            for src, dst, lab in arrow_triples(q1)
        }
        assert mapped == arrow_triples(q2)


TAGGED_EXAMPLE = {
    0: {
        (3, 0, 0, 1, 1, 0, 2),
        (3, 1, 1, 1, 0, 0, 1),
        (4, 0, 0, 1, 1, 1, 0),
        (5, 0, 1, 1, 0, 0, 0),
        (3, 1, 0, 2, 0, 1, 0),
    },
    1: {(2, 1, 0, 2, 0, 0, 2), (4, 0, 1, 0, 1, 0, 1)},
    2: {(4, 1, 0, 0, 0, 1, 1), (2, 0, 1, 2, 0, 1, 1)},
    3: {(1, 0, 1, 2, 0, 0, 3), (1, 2, 0, 2, 0, 1, 1)},
    4: {(0, 2, 0, 2, 0, 0, 3)},
    5: {(2, 1, 1, 0, 1, 0, 2)},
}


def test_t_subquiver_worked_example():
    base = LevelKDominant((4, 0, 0, 2, 0, 0, 1))
    t = t_subquiver(base)
    for s, vs in TAGGED_EXAMPLE.items():
        assert tagged(t, s) == vs
    tagged_total = set().union(*TAGGED_EXAMPLE.values())
    assert len(tagged_total) == 13
    assert {v.weight.coeffs for v in t.vertices} == tagged_total | {base.coeffs}
    expected_arrows = {
        (base.coeffs, (3, 0, 0, 1, 1, 0, 2), (0, 3)),
        (base.coeffs, (4, 0, 0, 1, 1, 1, 0), (6, 3)),
        (base.coeffs, (3, 1, 1, 1, 0, 0, 1), (3, 0)),
        (base.coeffs, (5, 0, 1, 1, 0, 0, 0), (3, 6)),
        (base.coeffs, (3, 1, 0, 2, 0, 1, 0), (6, 0)),
        (base.coeffs, (2, 1, 0, 2, 0, 0, 2), (0, 0)),
        (base.coeffs, (4, 0, 1, 0, 1, 0, 1), (3, 3)),
        ((4, 0, 1, 0, 1, 0, 1), (4, 1, 0, 0, 0, 1, 1), (2, 4)),
        ((4, 0, 1, 0, 1, 0, 1), (2, 1, 1, 0, 1, 0, 2), (0, 0)),
        ((2, 1, 0, 2, 0, 0, 2), (2, 1, 1, 0, 1, 0, 2), (3, 3)),
        ((2, 1, 0, 2, 0, 0, 2), (2, 0, 1, 2, 0, 1, 1), (6, 1)),
        ((2, 1, 0, 2, 0, 0, 2), (1, 2, 0, 2, 0, 1, 1), (6, 0)),
        ((2, 1, 0, 2, 0, 0, 2), (0, 2, 0, 2, 0, 0, 3), (0, 0)),
        ((2, 1, 0, 2, 0, 0, 2), (1, 0, 1, 2, 0, 0, 3), (0, 1)),
    }
    assert arrow_triples(t) == expected_arrows


def test_t_subquiver_triple_base():
    for ell in (3, 5):
        e = ell + 1
        base = LevelKDominant((3,) + (0,) * ell)
        t = t_subquiver(base)

        def w(*pairs):
            c = [0] * e
            for idx, mult in pairs:
                c[idx % e] += mult
            return tuple(c)

        assert tagged(t, 0) == set()
        assert tagged(t, 4) == set()
        assert tagged(t, 5) == set()
        assert tagged(t, 1) == {w((0, 1), (1, 1), (ell, 1))}
        assert tagged(t, 2) == {w((0, 1), (2, 1), (ell - 1, 1))}
        assert tagged(t, 3) == {w((1, 2), (ell - 1, 1)), w((2, 1), (ell, 2))}


def test_t_subquiver_level_two():
    base = LevelKDominant((2, 0, 0, 0))
    t = t_subquiver(base)
    assert tagged(t, 1) == {(0, 1, 0, 1)}
    for s in (0, 3, 4, 5):
        assert tagged(t, s) == set()
    # ell >= 3 keeps construction (2-1): spread both neighbours into 2L2
    assert tagged(t, 2) == {(0, 0, 2, 0)}


def test_t_subquiver_is_bounded_by_the_member_limit(monkeypatch):
    # on the all-ones weight the pairs of distinct summands reach (e - 1)^2
    # vertices, all members of the class; e = 512 once took 76 s and 2.5 GB
    def answers(e: int) -> bool:
        try:
            t = t_subquiver(LevelKDominant((1,) * e))
        except LimitError as exc:
            limit = maxweights.MAX_CLASS_MEMBERS
            assert str(exc).endswith(f" exceeds the limit MAX_CLASS_MEMBERS = {limit}")
            return False
        assert len(t.vertices) == (e - 1) ** 2
        return True

    assert maxweights.MAX_CLASS_MEMBERS == 20_000
    assert answers(142) and not answers(143)  # 19,881 and 20,164 vertices
    monkeypatch.setattr(maxweights, "MAX_CLASS_MEMBERS", 100)
    assert answers(11) and not answers(12)  # 100 and 121 vertices
    # the pairs alone are too many at e = 512, so no arrow is followed; the
    # walk to vertex 20,001 took 1.6 s and a 232 MB peak
    monkeypatch.setattr(maxweights, "MAX_CLASS_MEMBERS", 20_000)
    monkeypatch.setattr(quiver, "follow", lambda *args: pytest.fail("the walk started"))
    assert not answers(143) and not answers(512)


@settings(max_examples=200, deadline=None)
@given(dominant_weights(max_e=16, levels=(2, 12)), st.data())
def test_t_subquiver_is_refused_exactly_past_the_member_limit(base, data):
    # the count before the walk refuses only what the walk would refuse
    vertices = len(t_subquiver(base).vertices)
    limit = data.draw(st.integers(1, vertices + 1))
    with mock.patch.object(maxweights, "MAX_CLASS_MEMBERS", limit):
        try:
            t_subquiver(base)
        except LimitError:
            assert vertices > limit
        else:
            assert vertices <= limit


def test_t_beta_sets_match_subquiver():
    bases = [
        LevelKDominant((4, 0, 0, 2, 0, 0, 1)),
        LevelKDominant((3, 0, 0, 0)),
        LevelKDominant((2, 2, 0, 0, 1)),
        LevelKDominant((2, 0)),
        LevelKDominant((4, 0, 2)),
    ]
    for base in bases:
        t = t_subquiver(base)
        by_closed_form = t_beta_sets(base)
        ids = vertex_ids(t)
        for s in range(6):
            from_quiver = {t.vertices[ids[c]].beta for c in tagged(t, s)}
            assert from_quiver == by_closed_form[s], (base, s)


def test_t_beta_sets_examples():
    e = 7
    base = LevelKDominant((4, 0, 0, 2, 0, 0, 1))
    sets = t_beta_sets(base)

    def alpha(*idx):
        c = [0] * e
        for i in idx:
            c[i % e] += 1
        return RootVector(tuple(c))

    assert sets[4] == {alpha(0, 0)}
    assert sets[5] == {alpha(0, 3)}
    assert sets[1] == {alpha(0), alpha(3)}
    # a base with a single support index has no interval betas
    ko = t_beta_sets(LevelKDominant((5, 0, 0)))
    assert ko[0] == set()
    assert ko[1] == {RootVector((1, 0, 0))}
    # level 2 with two distinct summands has no doubled summand
    lv2 = t_beta_sets(LevelKDominant((1, 0, 1, 0)))
    assert lv2[1] == set()


def test_t_embedding():
    # the tagged subquiver of a sub-weight embeds after adding the extra summand
    small = LevelKDominant((3, 0, 0, 0))
    extra = (0, 0, 1, 0)
    big = LevelKDominant(tuple(a + b for a, b in zip(small.coeffs, extra)))
    t_small = t_subquiver(small)
    t_big = t_subquiver(big)
    big_vertices = {v.weight.coeffs for v in t_big.vertices}
    for v in t_small.vertices:
        shifted = tuple(a + b for a, b in zip(v.weight.coeffs, extra))
        assert shifted in big_vertices
