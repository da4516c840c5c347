"""The class walk, the quivers, the orbit reduction, the classifier and the
graded dimensions under the flip and the rotations of the Dynkin diagram.

The diagram of type A_ell^(1) is a cycle of e = ell + 1 nodes, so the flip
sigma: i -> -i mod e is one of its automorphisms.  It maps Lambda_i to
Lambda_{-i} and alpha_i to alpha_{-i}, so it maps a class to the class of
the flipped base with X flipped too.  The arrow (i, j) moves Lambda_i to
Lambda_{i-1} and Lambda_j to Lambda_{j+1}; flipped, that moves Lambda_{-j}
to Lambda_{-j-1} and Lambda_{-i} to Lambda_{-i+1}, the arrow (-j, -i).  The
six constructions of the tagged subquiver are each closed under the flip,
so it keeps the tags.  These checks need no oracle, so they reach classes
of a few thousand members, which the oracles cannot.

Swapping the two entries of every label commutes with the flip (and with
every rotation), so the flip alone cannot see a label recorded as (j, i).
So each arrow is also checked to move its source to its target.

The flip also maps beta to sigma beta, so it maps the orbit representative
beta0 of (Lambda, beta) to that of (sigma Lambda, sigma beta) with the same
m, and it keeps the type of every block.  The finite and tame lists are
each closed under the flip, so a one-sided slip in one of them shows as a
block whose flip has another type; the betas near those lists are drawn on
purpose, since uniform ones seldom land on them.

The flip is an automorphism of the quiver Hecke algebras as well: it maps the
cyclotomic algebra of (Lambda, beta) onto that of (sigma Lambda, sigma beta)
and the idempotent e(nu) onto e(-nu), keeping the grading.  So the graded
dimension of a block, and that of e(nu) R e(nu'), are the same at the flipped
data.  Each block is drawn by growing a shape node by node, so it is
nonzero, and nu and nu' are the residues of two orders of growth of that
shape, so e(nu) R e(nu') is nonzero too.

A Brauer graph with every rotation reversed is its mirror image: the same
ribbon surface with the other orientation.  It has the same multiplicities,
edges and face perimeters, so the same derived invariants, and its Cartan
matrix, which reads each rotation as a set, is the same too.

The rotations i -> i + s are the other automorphisms of the cycle, and each
check above but the Brauer one holds for them the same way, with one change:
a rotation keeps the order of a label's entries, so the arrow (i, j) goes to
(i + s, j + s), and e(nu) goes to e(nu + s).
Both kinds are written g = (sign, shift), the map i -> sign*i + shift mod e.
The length of the shortest w making Lambda - beta dominant stays too, since
g conjugates the simple reflections into one another.  Each rotation test
runs the checks of a flip test, with a drawn shift, on half as many examples.
"""

from __future__ import annotations

from collections import Counter
from math import comb

from hypothesis import example, given, settings
from hypothesis import strategies as st

from klrblocks import maxweights
from klrblocks.brauer import (
    BrauerGraph, UnsupportedGraphError, derived_invariants, graph_cartan_matrix,
)
from klrblocks.cartan import RootVector
from klrblocks.classify import FieldParams, TClass, classify
from klrblocks.maxweights import LevelKDominant, class_walk
from klrblocks.quiver import TQuiver, build_quiver, t_subquiver
from klrblocks.tableaux import charges_of, graded_dim, graded_dim_total
from klrblocks.weyl import orbit_representative

MAX_E = 17
MAX_MEMBERS = 2000  # about the largest class a drawn base may have


FLIP = (-1, 0)  # sigma: i -> -i
IDENTITY = (1, 0)


def rotation(e: int, shift: int) -> tuple[int, int]:
    """i -> i + s, with s = shift brought into 1..e-1, so never the identity."""
    return (1, (shift - 1) % (e - 1) + 1)


def act(g: tuple[int, int], v: tuple[int, ...]) -> tuple[int, ...]:
    """g on a vector indexed mod e: entry g(i) of the result is v[i]."""
    sign, shift = g
    out = [0] * len(v)
    for i, c in enumerate(v):
        out[(sign * i + shift) % len(v)] = c
    return tuple(out)


def act_label(g: tuple[int, int], label: tuple[int, int], e: int) -> tuple[int, int]:
    """The label of the image of an arrow: g moves both entries, and the
    flip also swaps them."""
    sign, shift = g
    i, j = label if sign > 0 else label[::-1]
    return ((sign * i + shift) % e, (sign * j + shift) % e)


def act_residues(g: tuple[int, int], nu: tuple[int, ...]) -> tuple[int, ...]:
    """g on a residue sequence, left unreduced: graded_dim reduces it mod e."""
    sign, shift = g
    return tuple(sign * r + shift for r in nu)


def moved(c: tuple[int, ...], label: tuple[int, int]) -> tuple[int, ...]:
    """The weight that the arrow `label` takes the weight c to."""
    i, j = label
    c = list(c)
    c[i] -= 1
    c[j] -= 1
    c[i - 1] += 1
    c[(j + 1) % len(c)] += 1
    return tuple(c)


def top_level(e: int) -> int:
    """The highest level, up to 12, at which the level-k weights of e number
    at most MAX_MEMBERS per residue class on average."""
    k = 1
    while k < 12 and comb(e + k, k + 1) // e <= MAX_MEMBERS:
        k += 1
    return k


@st.composite
def bases(draw) -> tuple[int, ...]:
    """Dominant weights at e = 2..MAX_E, with levels up to `top_level(e)`."""
    e = draw(st.integers(2, MAX_E))
    level = draw(st.integers(1, top_level(e)))
    coeffs = [0] * e
    for i in draw(st.lists(st.integers(0, e - 1), min_size=level, max_size=level)):
        coeffs[i] += 1
    return tuple(coeffs)


# 8 Lambda_0 at e = 10 has 2,431 members and 22,540 arrows
LARGE = (8,) + (0,) * 9


@settings(max_examples=20, deadline=None)
@given(bases())
@example(LARGE)
@example((3, 0, 0, 2, 0, 0, 0, 1) + (0,) * 9)
def test_the_class_walk_commutes_with_the_flip(coeffs):
    assert_class_walk_commutes(coeffs, FLIP)


@settings(max_examples=10, deadline=None)
@given(bases(), st.integers(1, MAX_E))
@example(LARGE, 3)
def test_the_class_walk_commutes_with_the_rotations(coeffs, shift):
    assert_class_walk_commutes(coeffs, rotation(len(coeffs), shift))


def assert_class_walk_commutes(coeffs: tuple[int, ...], g: tuple[int, int]) -> None:
    e = len(coeffs)
    arrows: list = []
    xs = class_walk(coeffs, arrows)
    image_arrows: list = []
    image = class_walk(act(g, coeffs), image_arrows)
    # members and X by g; the walk order may differ, so compare as maps
    assert image == {act(g, m): act(g, x) for m, x in xs.items()}
    # each arrow is given by the positions of its ends in the walk's dict
    members, image_members = [act(g, m) for m in xs], list(image)
    for s, d, label in image_arrows:
        assert image_members[d] == moved(image_members[s], label)
    assert Counter(
        (members[s], members[d], act_label(g, label, e)) for s, d, label in arrows
    ) == Counter(
        (image_members[s], image_members[d], label) for s, d, label in image_arrows
    )


def drawing(q, g: tuple[int, int] = IDENTITY) -> tuple[set, Counter, dict]:
    """A quiver by coeffs: its (coeffs, X) pairs, its arrows and its tags,
    with g on every vertex and every label."""
    e = len(q.base.coeffs)
    coeffs = [act(g, v.weight.coeffs) for v in q.vertices]
    vertices = {(c, act(g, v.x)) for c, v in zip(coeffs, q.vertices)}
    arrows = Counter((coeffs[s], coeffs[d], act_label(g, label, e)) for s, d, label in q.arrows)
    tags = {coeffs[vid]: ts for vid, ts in q.tags.items()} if isinstance(q, TQuiver) else {}
    assert all(d == moved(s, label) for s, d, label in arrows)
    return vertices, arrows, tags


@settings(max_examples=20, deadline=None)
@given(bases().filter(lambda c: sum(c) >= 2))
@example(LARGE)
@example((4, 0, 0, 2, 0, 0, 1))
@example((1,) * 4 + (0,) * 13)
def test_the_quivers_commute_with_the_flip(coeffs):
    assert_quivers_commute(coeffs, FLIP)


@settings(max_examples=10, deadline=None)
@given(bases().filter(lambda c: sum(c) >= 2), st.integers(1, MAX_E))
@example((4, 0, 0, 2, 0, 0, 1), 2)
@example((1,) * 4 + (0,) * 13, 15)
def test_the_quivers_commute_with_the_rotations(coeffs, shift):
    assert_quivers_commute(coeffs, rotation(len(coeffs), shift))


def assert_quivers_commute(coeffs: tuple[int, ...], g: tuple[int, int]) -> None:
    base, image = LevelKDominant(coeffs), LevelKDominant(act(g, coeffs))
    for build in (build_quiver, t_subquiver):
        assert drawing(build(image)) == drawing(build(base), g)


@st.composite
def blocks(draw, max_e: int) -> tuple[tuple[int, ...], tuple[int, ...], FieldParams]:
    """A weight of level 3-6 at e = 2..max_e, its level spread over at most
    four indices so that doubled to quadrupled summands are common; a beta
    with entries up to 10^9; and any --char up to 5 with any t class that
    exists at ell = e - 1."""
    e = draw(st.integers(2, max_e))
    pool = draw(st.lists(st.integers(0, e - 1), min_size=1, max_size=4, unique=True))
    coeffs = [0] * e
    for i in draw(st.lists(st.sampled_from(pool), min_size=3, max_size=6)):
        coeffs[i] += 1
    beta = draw(st.lists(st.integers(0, 10**9), min_size=e, max_size=e))
    ts = (TClass.TWO, TClass.MINUS_TWO, TClass.OTHER) if e == 2 else (TClass.SIGN_ELL, TClass.OTHER)
    params = FieldParams(draw(st.sampled_from((0, 2, 3, 5))), draw(st.sampled_from(ts)))
    return tuple(coeffs), tuple(beta), params


def alphas(e: int, *indices: int) -> tuple[int, ...]:
    """sum_h alpha_{i_h} over the indices, taken mod e."""
    return tuple(Counter(i % e for i in indices)[h] for h in range(e))


def near_the_lists(coeffs: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The shapes the finite and tame lists are made of, at every summand:
    the cyclic interval [i, j] between two summands, alpha_i, 2 alpha_i and
    2 alpha_i beside alpha_{i-1}, alpha_{i+1} or both, and alpha_i + alpha_k
    for two summands."""
    e = len(coeffs)
    support = [i for i, c in enumerate(coeffs) if c]
    near = []
    for i in support:
        near += [alphas(e, i), alphas(e, i, i), alphas(e, i, i, i - 1), alphas(e, i, i, i + 1),
                 alphas(e, i, i, i - 1, i + 1)]
        near += [alphas(e, i, j) for j in support if j != i]
        near += [alphas(e, *range(i, i + (j - i) % e + 1)) for j in support if j != i]
    return near


def assert_keeps(
    coeffs: tuple[int, ...], beta: tuple[int, ...], params: FieldParams, g: tuple[int, int]
) -> None:
    """g moves the orbit representative, keeps m and the length, and keeps
    the type."""
    base, b = LevelKDominant(coeffs), RootVector(beta)
    image, gb = LevelKDominant(act(g, coeffs)), RootVector(act(g, beta))
    orbit, image_orbit = orbit_representative(base, b), orbit_representative(image, gb)
    assert image_orbit.m == orbit.m
    beta0 = None if orbit.beta0 is None else RootVector(act(g, orbit.beta0.coeffs))
    assert image_orbit.beta0 == beta0
    assert image_orbit.reflection_count == orbit.reflection_count
    assert classify(image, gb, params) == classify(base, b, params)


LARGEST_E = maxweights.MAX_E


# each example reads two O(e^2) lengths, about 7 ms each at e = 512
@settings(max_examples=20, deadline=None)
@given(blocks(LARGEST_E))
@example(((3,) + (0,) * (LARGEST_E - 1), (10**9,) + (7,) * (LARGEST_E - 1), FieldParams()))
def test_blocks_up_to_the_largest_e_keep_their_type_under_the_flip(block):
    assert_keeps(*block, FLIP)


@settings(max_examples=10, deadline=None)
@given(blocks(LARGEST_E), st.integers(1, LARGEST_E))
@example(((3,) + (0,) * (LARGEST_E - 1), (10**9,) + (7,) * (LARGEST_E - 1), FieldParams()), 200)
def test_blocks_up_to_the_largest_e_keep_their_type_under_the_rotations(block, shift):
    assert_keeps(*block, rotation(len(block[0]), shift))


@settings(max_examples=50, deadline=None)
@given(blocks(24), st.integers(-1, 1), st.booleans())
def test_blocks_near_the_finite_and_tame_lists_keep_their_type_under_the_flip(
    block, offset, delta
):
    # every shape of the lists at this weight, and each of them plus delta
    # or plus one alpha at or beside the largest summand; e stays small,
    # since each example classifies every shape
    for beta in betas_near_the_lists(block[0], offset, delta):
        assert_keeps(block[0], beta, block[2], FLIP)


@settings(max_examples=25, deadline=None)
@given(blocks(24), st.integers(-1, 1), st.booleans(), st.integers(1, 24))
def test_blocks_near_the_finite_and_tame_lists_keep_their_type_under_the_rotations(
    block, offset, delta, shift
):
    coeffs, _, params = block
    for beta in betas_near_the_lists(coeffs, offset, delta):
        assert_keeps(coeffs, beta, params, rotation(len(coeffs), shift))


def betas_near_the_lists(coeffs: tuple[int, ...], offset: int, delta: bool) -> list[tuple[int, ...]]:
    """The shapes of the lists at this weight, and each plus delta (if
    `delta`) or plus alpha_{i + offset} at the largest summand i."""
    e = len(coeffs)
    extra = (1,) * e if delta else alphas(e, coeffs.index(max(coeffs)) + offset)
    near = near_the_lists(coeffs)
    return near + [tuple(map(sum, zip(b, extra))) for b in near]


@st.composite
def grown_blocks(draw) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(Lambda, beta, nu, nu'): a weight of level 1-3 at e = 2..6, a shape of
    it of up to 7 nodes grown node by node, beta its content, and nu and nu'
    the residues of the nodes in the order of two growths of that shape."""
    e = draw(st.integers(2, 6))
    charges = sorted(draw(st.lists(st.integers(0, e - 1), min_size=1, max_size=3)))

    def grow(within: list[list[int]] | None, size: int) -> tuple[list[list[int]], tuple[int, ...]]:
        """Rows per component and the residues of the nodes in the order
        added; each node is drawn among the addable ones (inside `within`)."""
        rows: list[list[int]] = [[] for _ in charges]
        nu = []
        for _ in range(size):
            addable = [
                (s, r)
                for s, comp in enumerate(rows)
                for r, length in enumerate(comp + [0])
                if (r == 0 or length < comp[r - 1])
                and (within is None or length < (within[s] + [0])[r])
            ]
            s, r = draw(st.sampled_from(addable))
            if r == len(rows[s]):
                rows[s].append(0)
            nu.append((charges[s] + rows[s][r] - r) % e)
            rows[s][r] += 1
        return rows, tuple(nu)

    shape, nu = grow(None, draw(st.integers(1, 7)))
    _, nu_prime = grow(shape, len(nu))
    coeffs = tuple(charges.count(i) for i in range(e))
    return coeffs, tuple(nu.count(r) for r in range(e)), nu, nu_prime


@settings(max_examples=60, deadline=None)
@given(grown_blocks())
def test_graded_dim_totals_commute_with_the_flip(block):
    assert_graded_dim_total_commutes(block, FLIP)


@settings(max_examples=30, deadline=None)
@given(grown_blocks(), st.integers(1, 6))
def test_graded_dim_totals_commute_with_the_rotations(block, shift):
    assert_graded_dim_total_commutes(block, rotation(len(block[0]), shift))


def assert_graded_dim_total_commutes(block, g: tuple[int, int]) -> None:
    coeffs, beta, _, _ = block
    total = graded_dim_total(charges_of(coeffs), RootVector(beta))
    assert total
    assert graded_dim_total(charges_of(act(g, coeffs)), RootVector(act(g, beta))) == total


@settings(max_examples=60, deadline=None)
@given(grown_blocks())
def test_pair_graded_dims_commute_with_the_flip(block):
    assert_pair_graded_dim_commutes(block, FLIP)


@settings(max_examples=30, deadline=None)
@given(grown_blocks(), st.integers(1, 6))
def test_pair_graded_dims_commute_with_the_rotations(block, shift):
    # the charges move, so the image is at (g Lambda, g beta, nu + s, nu' + s)
    assert_pair_graded_dim_commutes(block, rotation(len(block[0]), shift))


def assert_pair_graded_dim_commutes(block, g: tuple[int, int]) -> None:
    coeffs, beta, nu, nu_prime = block
    pair = graded_dim(charges_of(coeffs), RootVector(beta), nu, nu_prime)
    assert pair
    image = graded_dim(
        charges_of(act(g, coeffs)), RootVector(act(g, beta)), act_residues(g, nu), act_residues(g, nu_prime)
    )
    assert image == pair


@st.composite
def rotated_graphs(draw) -> tuple[list[int], list[tuple[int, int]], dict[int, list[int]]]:
    """(multiplicities, edges, rotations) of a connected graph on 2 to 6
    vertices: a tree plus up to three more edges, loops and multi-edges
    among them; every vertex gets a drawn rotation."""
    nv = draw(st.integers(2, 6))
    mult = draw(st.lists(st.integers(1, 3), min_size=nv, max_size=nv))
    vertex = st.integers(0, nv - 1)
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, nv)]
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=3))
    edges = draw(st.permutations(edges))
    rotations = {
        v: draw(st.permutations([eid for eid, e in enumerate(edges) for end in e if end == v]))
        for v in range(nv)
    }
    return mult, edges, rotations


def cartan_or_none(g: BrauerGraph) -> list[list[int]] | None:
    """The Cartan matrix of g, or None where it is not defined."""
    try:
        return graph_cartan_matrix(g)
    except UnsupportedGraphError:
        return None


@settings(max_examples=150, deadline=None)
@given(rotated_graphs())
def test_brauer_graphs_keep_their_invariants_under_reversed_rotations(graph):
    mult, edges, rotations = graph
    g = BrauerGraph.build(mult, edges, rotations)
    mirror = BrauerGraph.build(mult, edges, {v: rot[::-1] for v, rot in rotations.items()})
    assert derived_invariants(mirror) == derived_invariants(g)
    assert cartan_or_none(mirror) == cartan_or_none(g)
