"""The directed weight quiver on a sieving class, and its depth-2 subquiver.

Vertices are the class members; an arrow labelled (i, j) moves one summand
Lambda_i to Lambda_{i-1} and one summand Lambda_j to Lambda_{j+1}.  The arrow
exists out of a vertex with solution vector X exactly when some position in
the cyclic interval [j+1, i-1] of X is zero, and then the target's solution
vector is X plus the indicator of [i, j].  The full quiver is the walk that
also yields the class and its solution vectors (`maxweights.class_walk`); the
tagged subquiver follows its label paths one checked arrow at a time
(`maxweights.follow`).  Both walks give each arrow by the positions of its
ends in the order they reach the members, and the quiver renumbers them by
a rank list once the vertices are ordered.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain

from . import maxweights
from .cartan import Record
from .maxweights import LevelKDominant, MaxWeightEntry, class_limit_error, class_walk, follow


class LevelTooSmallError(ValueError):
    """Raised for operations that need level at least 2 (or 3)."""


# src and dst are vertex indices, label the (i, j) of the arrow's interval
Arrow = namedtuple("Arrow", ["src", "dst", "label"])


class WeightQuiver(Record):
    """Quiver on a sieving class: its vertices are the class's max-weight
    entries, ordered by (height of beta, coeffs)."""

    __slots__ = ("vertices", "arrows")

    @property
    def base(self) -> LevelKDominant:
        # the base is the one vertex with X = 0, so the order puts it first
        return self.vertices[0].weight


class TQuiver(WeightQuiver):
    """The depth at most 2 subquiver, with per-vertex tag sets in {0,...,5}."""

    __slots__ = ("tags",)


def _canonical(members: list, xs: list, raw_arrows) -> tuple[tuple, tuple, list]:
    """The vertices in the order (height of X, coeffs), the sorted arrows,
    and the rank list: member p (with solution vector xs[p]) is vertex
    rank[p].  `raw_arrows` gives each arrow by member positions."""
    # members are distinct, so the sort never compares the positions
    order = [p for _, _, p in sorted(zip(map(sum, xs), members, range(len(xs))))]
    rank = [0] * len(order)
    for vid, p in enumerate(order):
        rank[p] = vid
    # the walks keep every record invariant, as in maxweights.max_plus
    entry, weight = MaxWeightEntry._trusted, LevelKDominant._trusted
    vertices = tuple([entry(weight(members[p]), xs[p]) for p in order])
    # tuple.__new__ makes each Arrow from a plain tuple in C, without the
    # namedtuple's Python-level __new__
    arrows = sorted([tuple.__new__(Arrow, (rank[s], rank[d], lab)) for s, d, lab in raw_arrows])
    return vertices, tuple(arrows), rank


def build_quiver(base: LevelKDominant) -> WeightQuiver:
    """The full weight quiver, from the breadth-first walk out of the base.

    The base gets X = 0; following an arrow adds the label's interval
    indicator to X.  The visited vertex set always equals the sieving class.
    """
    if base.level < 2:
        raise LevelTooSmallError(f"need level >= 2, got {base.level}")
    raw_arrows: list = []
    xmap = class_walk(base.coeffs, raw_arrows)
    vertices, arrows, _ = _canonical(list(xmap), list(xmap.values()), raw_arrows)
    return WeightQuiver(vertices, arrows)


def t_subquiver(base: LevelKDominant) -> TQuiver:
    """The tagged subquiver reached by the six depth <= 2 constructions.

    Each construction is a set of label paths from the base; tag s marks the
    last vertex of each path of the s-th construction, and a vertex can carry
    several tags.  Arrows are exactly those the paths traverse.  The vertices
    are class members, so, as in the class walk, more than MAX_CLASS_MEMBERS
    of them raise LimitError: before the walk when construction (1) alone
    reaches that many, and otherwise at vertex MAX_CLASS_MEMBERS + 1.  The
    paths are made lazily, one at a time.
    """
    if base.level < 2:
        raise LevelTooSmallError(f"need level >= 2, got {base.level}")
    coeffs, e, limit = base.coeffs, len(base.coeffs), maxweights.MAX_CLASS_MEMBERS
    # the indices with multiplicity at least 1, 2, 3, 4
    i0, i1, i2, i3 = ([i for i, c in enumerate(coeffs) if c >= k] for k in (1, 2, 3, 4))
    # Construction (1) has one label per ordered pair of distinct i, j in i0
    # but j = i - 1; for e >= 3 each reaches its own vertex other than the
    # base (the moves -e_i + e_{i-1} - e_j + e_{j+1} differ), and for e = 2
    # there is no such label.  So with the base this many are too many.
    if len(i0) * (len(i0) - 1) - sum([1 for i in i0 if coeffs[i - 1]]) >= limit:
        raise class_limit_error(coeffs)
    paths = chain(
        # (1) pairs of distinct summands, skipping the wrap-around interval
        ((0, [(i, j)]) for i in i0 for j in i0 if i != j and (j - (i - 1)) % e != 0),
        # (2) doubled summands, one step
        ((1, [(i, i)]) for i in i1),
        # (2-1) then spread to both neighbours
        ((2, [(i, i), (i - 1, i + 1)]) for i in i1 if e >= 4),
        # (2-2) tripled summands, one-sided spreads
        ((3, [(i, i), step]) for i in i2 if e >= 3 for step in ((i, i + 1), (i - 1, i))),
        # (2-3) quadrupled summands, the same move twice
        ((4, [(i, i), (i, i)]) for i in i3),
        # (2-4) two distinct doubled summands
        ((5, [(i, i), (j, j)]) for i in i1 for j in i1 if i != j and e >= 3),
    )
    zero = (0,) * e
    reached = {coeffs: (0, zero)}  # member -> (position, X), in the order reached
    tags: dict[int, set[int]] = {}  # position -> tags
    raw_arrows = set()  # (source position, target position, label)
    for tag, path in paths:
        src, s, x = coeffs, 0, zero
        for i, j in path:
            dst, x_dst = follow(src, x, i, j)
            d, x = reached.setdefault(dst, (len(reached), x_dst))
            if x != x_dst:
                raise RuntimeError(f"vertex {dst} reached with two solution vectors")
            if d >= limit:
                raise class_limit_error(coeffs)
            raw_arrows.add((s, d, (i % e, j % e)))
            src, s = dst, d
        tags.setdefault(s, set()).add(tag)

    xs = [x for _, x in reached.values()]
    vertices, arrows, rank = _canonical(list(reached), xs, raw_arrows)
    return TQuiver(vertices, arrows, {rank[p]: frozenset(ts) for p, ts in tags.items()})
