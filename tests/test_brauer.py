from __future__ import annotations

from collections import Counter
from itertools import combinations, product
from math import isqrt
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klrblocks import brauer
from klrblocks.brauer import (
    MAX_EDGES,
    MAX_SEARCH_DEPTH,
    BrauerGraph,
    InvalidGraphError,
    SearchSpaceExceededError,
    UnsupportedGraphError,
    decomp_search,
    derived_invariants,
    gamma_family,
    graph_cartan_matrix,
    quiver_presentation,
)

from oracles import (
    is_connected,
    line_graph,
    pairwise_cartan_matrix,
    pruned_decomp_search,
    scan_candidate_rows,
    scan_quiver_presentation,
    walk_derived_invariants,
)


def test_build_validation():
    with pytest.raises(InvalidGraphError):
        BrauerGraph.build([1, 0], [(0, 1)])  # multiplicity < 1
    with pytest.raises(InvalidGraphError):
        BrauerGraph.build([1, 1, 1], [(0, 1)])  # disconnected
    with pytest.raises(InvalidGraphError):
        BrauerGraph.build([1] * 4, [(0, 1), (0, 2), (0, 3)])  # degree 3, no rotation
    g = BrauerGraph.build([1] * 4, [(0, 1), (0, 2), (0, 3)], {0: [0, 1, 2]})
    assert len(g.rotations[0]) == 3


@pytest.mark.parametrize(
    "mult, edges, rotations",
    [
        ([2.7, True], [(0, 1)], None),
        ([2, 2], [(0, 1.0)], None),
        ([2, 2], [(False, 1)], None),
        ([2, 2], [(0, 1, 1)], None),
        ([1] * 4, [(0, 1), (0, 2), (0, 3)], {0: [0, 1.0, 2]}),
        ([1] * 4, [(0, 1), (0, 2), (0, 3)], {0: [0, True, 2]}),
    ],
)
def test_build_rejects_non_integers(mult, edges, rotations):
    with pytest.raises(InvalidGraphError):
        BrauerGraph.build(mult, edges, rotations)


def test_presentation_line_of_doubled_vertices():
    pres = quiver_presentation(line_graph([2, 2, 2]))
    assert pres.q_vertices == (0, 1)
    assert len(pres.q_arrows) == 4
    loops = [a for a in pres.q_arrows if a.src_edge == a.dst_edge]
    two_cycle = [a for a in pres.q_arrows if a.src_edge != a.dst_edge]
    assert len(loops) == 2 and len(two_cycle) == 2
    assert len(pres.rel_cycle_overshoot) == 4
    assert len(pres.rel_cycle_equality) == 2
    assert len(pres.rel_mixed_products) == 4


def test_presentation_single_edge():
    pres = quiver_presentation(line_graph([1, 1]))
    assert pres.q_vertices == (0,)
    assert len(pres.q_arrows) == 2
    assert all(a.src_edge == a.dst_edge == 0 for a in pres.q_arrows)
    assert pres.rel_cycle_equality == ("a[0,1] - a[1,1]",)


def test_presentation_star_center_cycle():
    g = BrauerGraph.build([1, 1, 1, 1], [(0, 1), (0, 2), (0, 3)], {0: [0, 1, 2]})
    pres = quiver_presentation(g)
    center = [a for a in pres.q_arrows if a.vertex == 0]
    assert len(center) == 3
    assert {(a.src_edge, a.dst_edge) for a in center} == {(0, 1), (1, 2), (2, 0)}
    # arrow count equals the total number of half-edges
    assert len(pres.q_arrows) == 6


def test_cartan_matrix_examples():
    assert graph_cartan_matrix(line_graph([2, 2, 2])) == [[4, 2], [2, 4]]
    for s in range(6):
        for m in range(1, 5):
            c = graph_cartan_matrix(gamma_family(s, 1, m))
            n = s + 1
            for i in range(n):
                assert c[i][i] == (m + 1 if i == 0 else 2 * m)
                for j in range(i + 1, n):
                    assert c[i][j] == (m if j == i + 1 else 0)
    # all multiplicities k: diagonal 2k, off-diagonal k
    for k in (3, 4):
        for nverts in (3, 4):
            c = graph_cartan_matrix(line_graph([k] * nverts))
            n = nverts - 1
            for i in range(n):
                assert c[i][i] == 2 * k
                for j in range(i + 1, n):
                    assert c[i][j] == (k if j == i + 1 else 0)


def test_cartan_matrix_unsupported():
    loop = BrauerGraph.build([1, 2], [(0, 1), (1, 1)], {1: [0, 1, 1]})
    with pytest.raises(UnsupportedGraphError):
        graph_cartan_matrix(loop)
    multi = BrauerGraph.build([1, 1], [(0, 1), (0, 1)])
    with pytest.raises(UnsupportedGraphError):
        graph_cartan_matrix(multi)


def test_derived_invariants_trees_and_cycles():
    for mults in ([1, 1], [2, 2, 2], [3, 1, 3, 3]):
        inv = derived_invariants(line_graph(mults))
        assert inv.n_faces == 1
        assert inv.perimeter_multiset == (2 * inv.n_edges,)
        assert inv.bipartite
        assert inv.genus == 0
    tri = BrauerGraph.build([1, 1, 1], [(0, 1), (1, 2), (0, 2)])
    inv = derived_invariants(tri)
    assert inv.n_faces == 2
    assert inv.perimeter_multiset == (3, 3)
    assert not inv.bipartite
    assert inv.genus == 0
    square = BrauerGraph.build([1, 1, 1, 1], [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert derived_invariants(square).bipartite


def test_face_walk_partitions_all_darts():
    graphs = [
        line_graph([2, 2, 2]),
        BrauerGraph.build([1, 1, 1], [(0, 1), (1, 2), (0, 2)]),
        BrauerGraph.build([1] * 4, [(0, 1), (0, 2), (0, 3)], {0: [0, 1, 2]}),
        gamma_family(3, 2, 2),
    ]
    for g in graphs:
        inv = derived_invariants(g)
        assert sum(inv.perimeter_multiset) == 2 * inv.n_edges
        assert inv.genus >= 0


def test_derived_equivalent():
    # two trees with the same vertex count and multiplicity multiset
    path = line_graph([1, 2, 1, 1])
    star = BrauerGraph.build([2, 1, 1, 1], [(0, 1), (0, 2), (0, 3)], {0: [0, 1, 2]})
    assert derived_invariants(path) == derived_invariants(star)
    assert derived_invariants(line_graph([2, 2, 2])) != derived_invariants(line_graph([2, 2, 1]))


def test_derived_equivalence_is_equivalence_on_corpus():
    corpus = [
        line_graph([2, 2, 2]),
        line_graph([2, 1, 2]),
        line_graph([1, 2, 2]),
        BrauerGraph.build([2, 2, 1, 1], [(0, 1), (0, 2), (0, 3)], {0: [0, 1, 2]}),
        line_graph([3, 3, 3]),
        BrauerGraph.build([1, 1, 1], [(0, 1), (1, 2), (0, 2)]),
    ]
    classes: dict = {}
    for idx, g in enumerate(corpus):
        classes.setdefault(derived_invariants(g), []).append(idx)
    # only the two lines on the multiplicities {1, 2, 2} share their invariants
    assert sorted(classes.values()) == [[0], [1, 2], [3], [4], [5]]


def test_edges_are_bounded():
    # gamma(s, a, m) has s + 1 edges; past MAX_EDGES it is refused before any
    # list is built, so s = 10**9 answers at once
    g = gamma_family(MAX_EDGES - 1, 1, 1)
    assert (len(g.edges), derived_invariants(g).n_faces) == (MAX_EDGES, 1)
    for s in (MAX_EDGES, 10**9):
        with pytest.raises(InvalidGraphError, match=f"{s + 1} edges exceed the limit MAX_EDGES = {MAX_EDGES}"):
            gamma_family(s, 1, 1)
    for n in (MAX_EDGES, MAX_EDGES + 1):
        edges = [(0, 1)] + [(0, v) for v in range(2, n + 1)]
        rotations = {0: list(range(n))}
        if n == MAX_EDGES:
            assert len(BrauerGraph.build([1] * (n + 1), edges, rotations).edges) == n
        else:
            with pytest.raises(InvalidGraphError, match="exceed the limit MAX_EDGES"):
                BrauerGraph.build([1] * (n + 1), edges, rotations)


def test_gamma_family():
    g = gamma_family(0, 1, 3)
    assert len(g.edges) == 1
    assert g.multiplicities == (1, 3)
    g2 = gamma_family(2, 2, 4)
    assert g2.multiplicities == (4, 1, 4, 4)
    with pytest.raises(ValueError):
        gamma_family(1, 4, 2)
    with pytest.raises(ValueError):
        gamma_family(-1, 1, 2)


def verify(c, sol):
    n = len(c)
    for i in range(n):
        for j in range(n):
            assert sum(r[i] * r[j] for r in sol) == c[i][j]


def test_decomp_search_staircase_family():
    # the tridiagonal (2,1) matrices have the unique staircase solution
    for n in range(1, 7):
        c = [[0] * n for _ in range(n)]
        for i in range(n):
            c[i][i] = 2
            if i + 1 < n:
                c[i][i + 1] = c[i + 1][i] = 1
        res = decomp_search(c)
        assert res.unique
        sol = res.solutions[0]
        assert len(sol) == n + 1
        verify(c, sol)
        singles = [r for r in sol if sum(r) == 1]
        pairs = [r for r in sol if sum(r) == 2]
        assert len(singles) == 2 and len(pairs) == n - 1


def test_decomp_search_doubled_line():
    res = decomp_search([[4, 2], [2, 4]])
    for sol in res.solutions:
        verify([[4, 2], [2, 4]], sol)
    display = ((1, 1), (1, 1), (1, 0), (1, 0), (0, 1), (0, 1))
    assert tuple(sorted(display, reverse=True)) in res.solutions
    zero_one = [
        sol
        for sol in res.solutions
        if all(v in (0, 1) for r in sol for v in r)
    ]
    assert zero_one == [tuple(sorted(display, reverse=True))]


def test_decomp_search_one_exceptional_line():
    # multiplicity 2: unique; multiplicity >= 3: no longer determined
    for s in (1, 2, 3):
        m = 2
        c = graph_cartan_matrix(gamma_family(s, 1, m))
        res = decomp_search(c)
        assert res.unique
        sol = res.solutions[0]
        assert len(sol) == m * (s + 1) + 1
        verify(c, sol)
        assert all(v in (0, 1) for r in sol for v in r)
    for s in (1, 2):
        c = graph_cartan_matrix(gamma_family(s, 1, 3))
        res = decomp_search(c)
        assert not res.unique
        assert len(res.solutions) >= 2
        for sol in res.solutions:
            verify(c, sol)


def test_decomp_search_node_cap(monkeypatch):
    c = graph_cartan_matrix(gamma_family(1, 1, 3))  # a full search takes 105 nodes
    monkeypatch.setattr(brauer, "MAX_SEARCH_NODES", 5)
    with pytest.raises(SearchSpaceExceededError, match="5 nodes"):
        decomp_search(c)


def test_decomp_search_depth_limit(monkeypatch):
    # (1,0) and (0,1) are the only candidate rows of diag(1, t - 1), and its
    # one decomposition takes t rows, as deep as a search of trace t goes
    monkeypatch.setattr(brauer, "MAX_SEARCH_DEPTH", 6)
    res = decomp_search([[1, 0], [0, 5]])
    assert res.solutions == (((1, 0),) + ((0, 1),) * 5,)
    # checked before the first node: with no node allowed, the depth error
    # still comes first
    monkeypatch.setattr(brauer, "MAX_SEARCH_NODES", 0)
    with pytest.raises(SearchSpaceExceededError, match=r"trace 7 exceeds .* MAX_SEARCH_DEPTH = 6$"):
        decomp_search([[1, 0], [0, 6]])


def test_decomp_search_answers_at_the_depth_limit():
    # one Python frame per row: MAX_SEARCH_DEPTH rows stay clear of the
    # recursion limit, even under the test runner's own frames
    res = decomp_search([[1, 0], [0, MAX_SEARCH_DEPTH - 1]])
    assert res.solutions == (((1, 0),) + ((0, 1),) * (MAX_SEARCH_DEPTH - 1),)
    with pytest.raises(SearchSpaceExceededError, match="MAX_SEARCH_DEPTH"):
        decomp_search([[1, 0], [0, MAX_SEARCH_DEPTH]])


def test_candidate_rows_take_no_frame_per_column():
    # the row walk once recursed once per column, so 1,200 columns of a zero
    # matrix ran into Python's recursion limit of 1,000 frames; no row is
    # nonzero, so no row is a candidate
    n = 1_200
    res = decomp_search([[0] * n for _ in range(n)])
    assert res.solutions == ((),) and res.unique


def test_decomp_search_row_cap(monkeypatch):
    c = [[4, 2], [2, 4]]  # 7 nonzero candidate rows
    monkeypatch.setattr(brauer, "MAX_CANDIDATE_ROWS", 3)
    with pytest.raises(SearchSpaceExceededError, match="3 candidate rows"):
        decomp_search(c)


# The search tree on fixed members gamma(s, a, m) of the line family: the
# nodes it visits and its solutions, each as a multiset of rows.  A pruned
# live branch, or candidates taken in another order, change the node count.
SEARCH_TREES = {
    (1, 1, 3): (105, [
        {(1, 1): 3, (1, 0): 1, (0, 1): 3},
        {(1, 2): 1, (1, 1): 1, (1, 0): 2, (0, 1): 1},
    ]),
    (2, 1, 3): (1_860, [
        {(1, 1, 0): 3, (1, 0, 0): 1, (0, 1, 1): 3, (0, 0, 1): 3},
        {(1, 1, 0): 3, (1, 0, 0): 1, (0, 1, 2): 1, (0, 1, 1): 1, (0, 1, 0): 1, (0, 0, 1): 1},
    ]),
    (3, 2, 3): (12_150, [
        {(1, 1, 0, 0): 1, (1, 0, 0, 0): 3, (0, 1, 1, 0): 3, (0, 0, 1, 1): 3, (0, 0, 0, 1): 3},
        {(1, 1, 0, 0): 1, (1, 0, 0, 0): 3, (0, 1, 1, 0): 3, (0, 0, 1, 2): 1, (0, 0, 1, 1): 1,
         (0, 0, 1, 0): 1, (0, 0, 0, 1): 1},
    ]),
    (3, 1, 3): (33_148, [
        {(1, 1, 0, 0): 3, (1, 0, 0, 0): 1, (0, 1, 1, 0): 3, (0, 0, 1, 1): 3, (0, 0, 0, 1): 3},
        {(1, 1, 0, 0): 3, (1, 0, 0, 0): 1, (0, 1, 1, 0): 3, (0, 0, 1, 2): 1, (0, 0, 1, 1): 1,
         (0, 0, 1, 0): 1, (0, 0, 0, 1): 1},
    ]),
}


@pytest.mark.parametrize("params", SEARCH_TREES, ids=lambda p: "gamma_%d_%d_%d" % p)
def test_decomp_search_tree_is_pinned(params):
    nodes, solutions = SEARCH_TREES[params]
    res = decomp_search(graph_cartan_matrix(gamma_family(*params)))
    assert res.searched_nodes == nodes
    assert [Counter(sol) for sol in res.solutions] == solutions


def test_decomp_search_leaves_its_matrix_alone(monkeypatch):
    # the search changes a copy of c in place and restores each entry it
    # changed; c stays as it was, also when the node limit stops a search
    params = (1, 1, 3)
    c = graph_cartan_matrix(gamma_family(*params))
    before = [list(row) for row in c]
    first = decomp_search(c)
    assert c == before
    assert (first.searched_nodes, [Counter(sol) for sol in first.solutions]) == SEARCH_TREES[params]
    with monkeypatch.context() as patch:
        patch.setattr(brauer, "MAX_SEARCH_NODES", 50)
        with pytest.raises(SearchSpaceExceededError, match="50 nodes"):
            decomp_search(c)
    assert c == before
    again = decomp_search(c)
    assert again == first and again.searched_nodes == first.searched_nodes


def simple_graphs():
    """Every simple connected graph on the vertices 0..nv-1 for nv = 2..4
    with 1 to 4 edges, each edge (a, b) with a < b, under every choice of
    multiplicities 1 and 2; each rotation lists the incident edges in order."""
    for nv in range(2, 5):
        pairs = list(combinations(range(nv), 2))
        for size in range(1, 5):
            for edges in combinations(pairs, size):
                if not is_connected(BrauerGraph((1,) * nv, edges, ())):
                    continue
                rotations = {v: [eid for eid, e in enumerate(edges) if v in e] for v in range(nv)}
                for mult in product((1, 2), repeat=nv):
                    yield BrauerGraph.build(mult, edges, rotations)


def test_decomp_search_finds_the_incidence_decomposition():
    # c_ij = sum over vertices v of m_v a_iv a_jv (Schroll, Brauer graph
    # algebras, 2018), so D_g, with m_v copies of the incidence row a_v of
    # each vertex v, has D_g^t D_g = C and is among the solutions
    graphs = list(simple_graphs())
    assert len(graphs) == 532
    for g in graphs:
        d_g = [
            tuple(e.count(v) for e in g.edges)
            for v, m in enumerate(g.multiplicities)
            for _ in range(m)
        ]
        assert tuple(sorted(d_g, reverse=True)) in decomp_search(graph_cartan_matrix(g)).solutions


@st.composite
def symmetric_matrices(draw, max_n=4, max_entry=12):
    """Symmetric nonnegative integer matrices, n from 1 to max_n."""
    n = draw(st.integers(1, max_n))
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            c[i][j] = c[j][i] = draw(st.integers(0, max_entry))
    return c


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices(), st.integers(1, 400))
def test_candidate_rows_match_value_scan(c, cap):
    # same rows in the same order, or the same error at the same cap
    n = len(c)
    bound = isqrt(min(c[i][i] for i in range(n)))
    with mock.patch.object(brauer, "MAX_CANDIDATE_ROWS", cap):
        try:
            expected = scan_candidate_rows(c, n, bound)
        except SearchSpaceExceededError as exc:
            with pytest.raises(SearchSpaceExceededError) as got:
                brauer._candidate_rows(c, n, bound)
            assert str(got.value) == str(exc)
        else:
            assert brauer._candidate_rows(c, n, bound) == expected


@st.composite
def sparse_symmetric_matrices(draw):
    """Symmetric nonnegative matrices with n up to 8 and mostly zero off the
    diagonal, as the Cartan matrices of Brauer graphs are."""
    n = draw(st.integers(1, 8))
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        c[i][i] = draw(st.integers(0, 10))
        for j in range(i + 1, n):
            c[i][j] = c[j][i] = draw(st.sampled_from([0, 0, 0, 1, 2, 4]))
    return c


@settings(max_examples=200, deadline=None)
@given(sparse_symmetric_matrices())
def test_sparse_candidate_rows_match_value_scan(c):
    # the walk jumps over the columns where no positive value fits
    n = len(c)
    bound = isqrt(min(c[i][i] for i in range(n)))
    assert brauer._candidate_rows(c, n, bound) == scan_candidate_rows(c, n, bound)


def test_decomp_search_input_validation():
    with pytest.raises(ValueError):
        decomp_search([[1, 2], [3, 1]])
    with pytest.raises(ValueError):
        decomp_search([[1, 2]])
    # D^t D is nonnegative for every nonnegative D
    for c in ([[2, -1], [-1, 2]], [[-1]], [[1, 1, 1], [1, 1, -1], [1, -1, 1]]):
        with pytest.raises(ValueError, match="entries must be nonnegative"):
            decomp_search(c)


@st.composite
def ribbon_graphs(draw):
    """(multiplicities, edges, rotations) of a multigraph on 1 to 6 vertices
    with loops and multi-edges, usually connected; every vertex gets a random
    rotation, except that one of degree <= 2 sometimes gets none."""
    nv = draw(st.integers(1, 6))
    mult = draw(st.lists(st.integers(1, 3), min_size=nv, max_size=nv))
    vertex = st.integers(0, nv - 1)
    # each later vertex hangs off an earlier one, unless the draw leaves it out
    edges = [
        (draw(st.integers(0, v - 1)), v)
        for v in range(1, nv)
        if draw(st.integers(0, 9))
    ]
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=5))
    edges = [e if draw(st.booleans()) else e[::-1] for e in draw(st.permutations(edges))]
    rotations = {}
    for v in range(nv):
        incident = [eid for eid, e in enumerate(edges) for end in e if end == v]
        if len(incident) > 2 or draw(st.booleans()):
            rotations[v] = draw(st.permutations(incident))
    return mult, edges, rotations


def outcome(f, *args):
    """f(*args), or the type and text of the error it raises."""
    try:
        return f(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(ribbon_graphs())
def test_graph_layer_matches_oracle(graph):
    mult, edges, rotations = graph
    if not is_connected(BrauerGraph(tuple(mult), tuple(edges), ())):
        with pytest.raises(InvalidGraphError, match="not connected"):
            BrauerGraph.build(mult, edges, rotations)
        return
    if not edges:  # the one-vertex graph
        with pytest.raises(InvalidGraphError, match="no edges"):
            BrauerGraph.build(mult, edges, rotations)
        return
    g = BrauerGraph.build(mult, edges, rotations)
    assert quiver_presentation(g) == scan_quiver_presentation(g)
    inv, oracle = derived_invariants(g), walk_derived_invariants(g)
    assert inv == oracle
    assert outcome(lambda: inv.genus) == outcome(lambda: oracle.genus)
    assert outcome(graph_cartan_matrix, g) == outcome(pairwise_cartan_matrix, g)


@st.composite
def gram_matrices(draw):
    """D^t D for D with entries 0..2, at most 4 columns and at most 4 rows."""
    n = draw(st.integers(1, 4))
    d = draw(st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n), max_size=4))
    return [[sum(r[i] * r[j] for r in d) for j in range(n)] for i in range(n)]


# A cap keeps each example short: some 4x4 D^t D run to MAX_SEARCH_NODES,
# tens of seconds in the oracle (about a second in the package's search).
# Past the cap both must fail alike.
@settings(max_examples=300, deadline=None)
@given(st.one_of(gram_matrices(), symmetric_matrices(max_entry=4)), st.integers(1, 20_000))
def test_decomp_search_matches_oracle(c, cap):
    # the same solutions and node count, or the same error at the same node cap
    with mock.patch.object(brauer, "MAX_SEARCH_NODES", cap):
        expected = outcome(pruned_decomp_search, c)
        got = outcome(decomp_search, c)
    assert got == expected
    if isinstance(got, brauer.DecompResult):
        assert got.unique == expected.unique
        assert got.searched_nodes == expected.searched_nodes
