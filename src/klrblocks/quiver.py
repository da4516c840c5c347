"""The directed weight quiver on a sieving class, and its depth-2 subquiver.

Vertices are the class members; an arrow labelled (i, j) moves one summand
Lambda_i to Lambda_{i-1} and one summand Lambda_j to Lambda_{j+1}.  The arrow
exists out of a vertex with solution vector X exactly when some position in
the cyclic interval [j+1, i-1] of X is zero, and then the target's solution
vector is X plus the indicator of [i, j].  The full quiver is the walk that
also yields the class and its solution vectors (`maxweights.class_walk`); the
tagged subquiver reads its intervals from the same label table, one per e.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import add
from typing import NamedTuple

from .cartan import RootVector, alpha_sum, interval_delta
from .maxweights import (
    LevelKDominant,
    MaxWeightEntry,
    _label_table,
    class_walk,
    max_weight_entry,
)


class LevelTooSmallError(ValueError):
    """Raised for operations that need level at least 2 (or 3)."""


class InsufficientMultiplicityError(ValueError):
    """Raised when a move needs a summand the weight does not have."""


class VertexNotFoundError(KeyError):
    """Raised when a vertex is not in the quiver."""


class Arrow(NamedTuple):
    src: int
    dst: int
    label: tuple[int, int]


@dataclass(frozen=True)
class WeightQuiver:
    """Quiver on a sieving class; vertices ordered by (height of beta, coeffs)."""

    base: LevelKDominant
    vertices: tuple[MaxWeightEntry, ...]
    arrows: tuple[Arrow, ...]

    def vertex_id(self, v) -> int:
        coeffs = v.coeffs if isinstance(v, LevelKDominant) else tuple(v)
        for i, entry in enumerate(self.vertices):
            if entry.weight.coeffs == coeffs:
                return i
        raise VertexNotFoundError(f"vertex {coeffs} not in quiver")


@dataclass(frozen=True)
class TQuiver(WeightQuiver):
    """The depth at most 2 subquiver, with per-vertex tag sets in {0,...,5}."""

    tags: dict[int, frozenset[int]]

    def tagged(self, s: int) -> set[tuple[int, ...]]:
        return {
            self.vertices[i].weight.coeffs for i, ts in self.tags.items() if s in ts
        }


def move(w: LevelKDominant, i: int, j: int) -> LevelKDominant:
    """Replace Lambda_i + Lambda_j by Lambda_{i-1} + Lambda_{j+1} inside w.

    Fixes w exactly when j = i - 1 mod e.
    """
    e = len(w.coeffs)
    i, j = i % e, j % e
    need = 2 if i == j else 1
    if w.coeffs[i] < need or w.coeffs[j] < need:
        raise InsufficientMultiplicityError(
            f"weight {w.coeffs} has no move ({i},{j})"
        )
    c = list(w.coeffs)
    c[i] -= 1
    c[j] -= 1
    c[(i - 1) % e] += 1
    c[(j + 1) % e] += 1
    return LevelKDominant(tuple(c))


def has_arrow(x: Sequence[int], i: int, j: int) -> bool:
    """Whether the arrow (i, j) leaves a vertex with solution vector x.

    Requires j != i - 1 mod e; true iff x vanishes somewhere on [j+1, i-1],
    equivalently min(x + interval indicator of [i, j]) = 0.
    """
    e = len(x)
    label = _label_table(e)[i % e][j % e]
    if label is None:
        raise ValueError(f"({i},{j}) is a loop label (j = i - 1 mod e)")
    return any(v == 0 and label[0] >> h & 1 for h, v in enumerate(x))


def _canonical(xmap, raw_arrows) -> tuple[tuple, tuple]:
    ordering = sorted(xmap, key=lambda c: (sum(xmap[c]), c))
    ids = {c: i for i, c in enumerate(ordering)}
    vertices = tuple(max_weight_entry(LevelKDominant(c), xmap[c]) for c in ordering)
    arrows = tuple(
        sorted(Arrow(ids[s], ids[d], lab) for (s, d, lab) in raw_arrows)
    )
    return vertices, arrows


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


def successors(q: WeightQuiver, v) -> set[LevelKDominant]:
    """Targets of the arrows with source v."""
    vid = q.vertex_id(v)
    return {q.vertices[a.dst].weight for a in q.arrows if a.src == vid}


def _supports(m: tuple[int, ...]) -> list[list[int]]:
    """The indices i0, i1, i2, i3 with multiplicity at least 1, 2, 3, 4."""
    return [[i for i, c in enumerate(m) if c >= k] for k in (1, 2, 3, 4)]


def t_subquiver(base: LevelKDominant) -> TQuiver:
    """The tagged subquiver reached by the six depth <= 2 constructions.

    Tag s marks the vertices of the s-th construction; a vertex can carry
    several tags.  Arrows are exactly those the constructions traverse.
    """
    if base.level < 2:
        raise LevelTooSmallError(f"need level >= 2, got {base.level}")
    e = len(base.coeffs)
    table = _label_table(e)
    i0, i1, i2, i3 = _supports(base.coeffs)
    xmap: dict[tuple[int, ...], tuple[int, ...]] = {base.coeffs: (0,) * e}
    tags: dict[tuple[int, ...], set[int]] = {}
    raw_arrows = set()

    def record(src: LevelKDominant, i: int, j: int, tag: int) -> LevelKDominant:
        i, j = i % e, j % e
        x = xmap[src.coeffs]
        assert has_arrow(x, i, j)
        dst = move(src, i, j)
        _, window, start = table[i][j]
        x_dst = tuple(map(add, x, window[start : start + e]))
        prev = xmap.setdefault(dst.coeffs, x_dst)
        assert prev == x_dst
        tags.setdefault(dst.coeffs, set()).add(tag)
        raw_arrows.add((src.coeffs, dst.coeffs, (i, j)))
        return dst

    # (1) pairs of distinct summands, skipping the wrap-around interval
    for i in i0:
        for j in i0:
            if i != j and (j - (i - 1)) % e != 0:
                record(base, i, j, 0)
    # (2) doubled summands, one step
    first = {i: record(base, i, i, 1) for i in i1}
    # (2-1) then spread to both neighbours
    if e >= 4:
        for i in i1:
            record(first[i], i - 1, i + 1, 2)
    # (2-2) tripled summands, one-sided spreads
    if e >= 3:
        for i in i2:
            record(first[i], i, i + 1, 3)
            record(first[i], i - 1, i, 3)
    # (2-3) quadrupled summands, the same move twice
    for i in i3:
        record(first[i], i, i, 4)
    # (2-4) two distinct doubled summands
    if e >= 3:
        for i in i1:
            for j in i1:
                if i != j:
                    record(first[i], j, j, 5)

    vertices, arrows = _canonical(xmap, raw_arrows)
    ordering = {entry.weight.coeffs: vid for vid, entry in enumerate(vertices)}
    tagmap = {ordering[c]: frozenset(ts) for c, ts in tags.items()}
    return TQuiver(base, vertices, arrows, tagmap)


def t_beta_sets(base: LevelKDominant) -> dict[int, set[RootVector]]:
    """Closed forms for the beta sets of the six constructions."""
    e = len(base.coeffs)
    i0, i1, i2, i3 = _supports(base.coeffs)
    sets: dict[int, set[RootVector]] = {s: set() for s in range(6)}
    for i in i0:
        for j in i0:
            if i != j and (j - (i - 1)) % e != 0:
                sets[0].add(RootVector(interval_delta(i, j, e)))
    sets[1] = {alpha_sum(e, i) for i in i1}
    if e >= 4:
        sets[2] = {alpha_sum(e, i, i, i - 1, i + 1) for i in i1}
    if e >= 3:
        sets[3] = {alpha_sum(e, i, i, i + d) for i in i2 for d in (1, -1)}
    sets[4] = {alpha_sum(e, i, i) for i in i3}
    if e >= 3:
        sets[5] = {alpha_sum(e, i, j) for i in i1 for j in i1 if i != j}
    return sets
