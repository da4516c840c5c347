"""The directed weight quiver on a sieving class, and its depth-2 subquiver.

Vertices are the class members; an arrow labelled (i, j) moves one summand
Lambda_i to Lambda_{i-1} and one summand Lambda_j to Lambda_{j+1}.  The arrow
exists out of a vertex with solution vector X exactly when some position in
the cyclic interval [j+1, i-1] of X is zero, and then the target's solution
vector is X plus the indicator of [i, j].  The full quiver is the walk that
also yields the class and its solution vectors (`maxweights.class_walk`); the
tagged subquiver follows its label paths one checked arrow at a time
(`maxweights.follow`).
"""

from __future__ import annotations

from collections import namedtuple

from .cartan import Record
from .maxweights import LevelKDominant, MaxWeightEntry, class_walk, follow, max_weight_entry


class LevelTooSmallError(ValueError):
    """Raised for operations that need level at least 2 (or 3)."""


# src and dst are vertex indices, label the (i, j) of the arrow's interval
Arrow = namedtuple("Arrow", ["src", "dst", "label"])


class WeightQuiver(Record):
    """Quiver on a sieving class; vertices ordered by (height of beta, coeffs)."""

    __slots__ = ("base", "vertices", "arrows")

    def __init__(
        self,
        base: LevelKDominant,
        vertices: tuple[MaxWeightEntry, ...],
        arrows: tuple[Arrow, ...],
    ) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "arrows", arrows)


class TQuiver(WeightQuiver):
    """The depth at most 2 subquiver, with per-vertex tag sets in {0,...,5}."""

    __slots__ = ("tags",)

    def __init__(
        self,
        base: LevelKDominant,
        vertices: tuple[MaxWeightEntry, ...],
        arrows: tuple[Arrow, ...],
        tags: dict[int, frozenset[int]],
    ) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "arrows", arrows)
        object.__setattr__(self, "tags", tags)


def _canonical(xmap, raw_arrows) -> tuple[tuple, tuple]:
    ordering = sorted(xmap, key=lambda c: (sum(xmap[c]), c))
    ids = {c: i for i, c in enumerate(ordering)}
    vertices = tuple(max_weight_entry(c, xmap[c]) for c in ordering)
    # tuple.__new__ makes each Arrow from a plain tuple in C, without the
    # namedtuple's Python-level __new__
    arrows = sorted([tuple.__new__(Arrow, (ids[s], ids[d], lab)) for s, d, lab in raw_arrows])
    return vertices, tuple(arrows)


def build_quiver(base: LevelKDominant) -> WeightQuiver:
    """The full weight quiver, from the breadth-first walk out of the base.

    The base gets X = 0; following an arrow adds the label's interval
    indicator to X.  The visited vertex set always equals the sieving class.
    """
    if base.level < 2:
        raise LevelTooSmallError(f"need level >= 2, got {base.level}")
    raw_arrows: list = []
    xmap = class_walk(base.coeffs, raw_arrows)
    vertices, arrows = _canonical(xmap, raw_arrows)
    return WeightQuiver(base, vertices, arrows)


def t_subquiver(base: LevelKDominant) -> TQuiver:
    """The tagged subquiver reached by the six depth <= 2 constructions.

    Each construction is a set of label paths from the base; tag s marks the
    last vertex of each path of the s-th construction, and a vertex can carry
    several tags.  Arrows are exactly those the paths traverse.
    """
    if base.level < 2:
        raise LevelTooSmallError(f"need level >= 2, got {base.level}")
    e = len(base.coeffs)
    # the indices with multiplicity at least 1, 2, 3, 4
    i0, i1, i2, i3 = ([i for i, c in enumerate(base.coeffs) if c >= k] for k in (1, 2, 3, 4))
    paths = [
        # (1) pairs of distinct summands, skipping the wrap-around interval
        *((0, [(i, j)]) for i in i0 for j in i0 if i != j and (j - (i - 1)) % e != 0),
        # (2) doubled summands, one step
        *((1, [(i, i)]) for i in i1),
        # (2-1) then spread to both neighbours
        *((2, [(i, i), (i - 1, i + 1)]) for i in i1 if e >= 4),
        # (2-2) tripled summands, one-sided spreads
        *((3, [(i, i), step]) for i in i2 if e >= 3 for step in ((i, i + 1), (i - 1, i))),
        # (2-3) quadrupled summands, the same move twice
        *((4, [(i, i), (i, i)]) for i in i3),
        # (2-4) two distinct doubled summands
        *((5, [(i, i), (j, j)]) for i in i1 for j in i1 if i != j and e >= 3),
    ]
    xmap: dict[tuple[int, ...], tuple[int, ...]] = {base.coeffs: (0,) * e}
    tags: dict[tuple[int, ...], set[int]] = {}
    raw_arrows = set()
    for tag, path in paths:
        src = base.coeffs
        for i, j in path:
            dst, x_dst = follow(src, xmap[src], i, j)
            if xmap.setdefault(dst, x_dst) != x_dst:
                raise RuntimeError(f"vertex {dst} reached with two solution vectors")
            raw_arrows.add((src, dst, (i % e, j % e)))
            src = dst
        tags.setdefault(src, set()).add(tag)

    vertices, arrows = _canonical(xmap, raw_arrows)
    ordering = {entry.weight.coeffs: vid for vid, entry in enumerate(vertices)}
    tagmap = {ordering[c]: frozenset(ts) for c, ts in tags.items()}
    return TQuiver(base, vertices, arrows, tagmap)
