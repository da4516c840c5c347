"""The class walk and the quivers under the flip of the Dynkin diagram.

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
"""

from __future__ import annotations

from collections import Counter
from math import comb

from hypothesis import example, given, settings
from hypothesis import strategies as st

from klrblocks.maxweights import LevelKDominant, class_walk
from klrblocks.quiver import TQuiver, build_quiver, t_subquiver

MAX_E = 17
MAX_MEMBERS = 2000  # about the largest class a drawn base may have


def flip(v: tuple[int, ...]) -> tuple[int, ...]:
    """sigma on a vector indexed mod e: entry i of the result is v[-i]."""
    return v[:1] + v[:0:-1]


def flip_label(label: tuple[int, int], e: int) -> tuple[int, int]:
    i, j = label
    return (-j % e, -i % e)


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
    e = len(coeffs)
    arrows: list = []
    xs = class_walk(coeffs, arrows)
    flipped_arrows: list = []
    flipped = class_walk(flip(coeffs), flipped_arrows)
    # members and X by sigma; the walk order may differ, so compare as maps
    assert flipped == {flip(m): flip(x) for m, x in xs.items()}
    # each arrow is given by the positions of its ends in the walk's dict
    members, flipped_members = [flip(m) for m in xs], list(flipped)
    for s, d, label in flipped_arrows:
        assert flipped_members[d] == moved(flipped_members[s], label)
    assert Counter(
        (members[s], members[d], flip_label(label, e)) for s, d, label in arrows
    ) == Counter(
        (flipped_members[s], flipped_members[d], label) for s, d, label in flipped_arrows
    )


def drawing(q, sigma: bool = False) -> tuple[set, Counter, dict]:
    """A quiver by coeffs: its (coeffs, X) pairs, its arrows and its tags;
    with sigma on every vertex and every label if `sigma`."""
    e = len(q.base.coeffs)
    move = flip if sigma else tuple
    coeffs = [move(v.weight.coeffs) for v in q.vertices]
    vertices = {(c, move(v.x)) for c, v in zip(coeffs, q.vertices)}
    arrows = Counter(
        (coeffs[s], coeffs[d], flip_label(label, e) if sigma else label) for s, d, label in q.arrows
    )
    tags = {coeffs[vid]: ts for vid, ts in q.tags.items()} if isinstance(q, TQuiver) else {}
    assert all(d == moved(s, label) for s, d, label in arrows)
    return vertices, arrows, tags


@settings(max_examples=20, deadline=None)
@given(bases().filter(lambda c: sum(c) >= 2))
@example(LARGE)
@example((4, 0, 0, 2, 0, 0, 1))
@example((1,) * 4 + (0,) * 13)
def test_the_quivers_commute_with_the_flip(coeffs):
    base, flipped = LevelKDominant(coeffs), LevelKDominant(flip(coeffs))
    for build in (build_quiver, t_subquiver):
        q, fq = build(base), build(flipped)
        assert drawing(fq) == drawing(q, sigma=True)
