"""Reference implementations that the package's fast paths are tested against.

Each one is the slower construction the package used before its integer
replacement: weight arithmetic on `WeightCoeffs` (pairing, simple roots,
scaling), the sieving class by composition recursion with X from the
closed-form solve, and the weight quiver by testing every label at every
vertex on the cyclic interval and moving the summands by hand (`move`).  They
share no code with `class_walk` or `follow`.  The
shapes of a given residue content come from every k-multipartition of |beta|
filtered by content, not from the shape search of `tableaux`.  The candidate
rows of the decomposition search come from a scan of every value at every
prefix, not from the bound the entries of C set.  The Brauer graph layer is
the one that read the graph once per question: two depth-first walks over
adjacency lists for connectedness and bipartiteness, arrow cycles found by
scanning, and a successor map for the faces; its decomposition search is the
one with a row-count prune and separate all-zero and dead-end scans.  The
command line is read by the argparse parser that the option table of `cli`
replaced.

The rest are references the package no longer needs: the materialized Cartan
matrix, the rotation of a coefficient tuple, one simple reflection, the ev
statistic, the closed-form beta sets of the tagged subquiver and the straight
line Brauer graph.

The package's `__slots__` records are checked against the frozen dataclasses
they replaced (`Frozen*`; `FrozenArrow` is the `typing.NamedTuple` that
`quiver.Arrow` was).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt
from typing import NamedTuple

from klrblocks import brauer
from klrblocks.brauer import (
    BrauerGraph,
    DecompResult,
    DerivedInvariants,
    PresArrow,
    QuiverPresentation,
    SearchSpaceExceededError,
    UnsupportedGraphError,
)
from klrblocks.cartan import (
    RootVector,
    WeightCoeffs,
    alpha_sum,
    cyclic_interval,
    interval_delta,
    root_to_weight,
)
from klrblocks.classify import MAX_CHAR, TClass
from klrblocks.cli import UsageError
from klrblocks.maxweights import MAX_E, LevelKDominant, MaxWeightEntry, solve_x
from klrblocks.quiver import Arrow, LevelTooSmallError, TQuiver, WeightQuiver
from klrblocks.tableaux import Multipartition, Partition, charges_of
from klrblocks.weyl import OrbitStatus


# --- weight arithmetic ---


def pairing(i: int, mu: WeightCoeffs) -> int:
    """<h_i, mu>: the coefficient of Lambda_i (delta pairs to zero)."""
    return mu.lam[i % len(mu.lam)]


def alpha_to_weight(i: int, e: int) -> WeightCoeffs:
    """Expand alpha_i = 2 Lambda_i - Lambda_{i-1} - Lambda_{i+1} (+ delta if i = 0)."""
    i %= e
    lam = [0] * e
    lam[i] += 2
    lam[(i - 1) % e] -= 1
    lam[(i + 1) % e] -= 1
    return WeightCoeffs(tuple(lam), 1 if i == 0 else 0)


def scale(mu: WeightCoeffs, c: int) -> WeightCoeffs:
    return WeightCoeffs(tuple(c * a for a in mu.lam), c * mu.delta)


def simple_reflect(mu: WeightCoeffs, i: int) -> WeightCoeffs:
    """r_i(mu) = mu - <h_i, mu> alpha_i."""
    return mu - scale(alpha_to_weight(i, len(mu.lam)), pairing(i, mu))


def cartan_matrix(e: int) -> list[list[int]]:
    """The e x e affine Cartan matrix: 2 on the diagonal, -1 for each
    neighbour at distance 1 mod e (so -2 off the diagonal at e = 2)."""
    a = [[0] * e for _ in range(e)]
    for i in range(e):
        a[i][i] = 2
        a[i][(i + 1) % e] -= 1
        a[i][(i - 1) % e] -= 1
    return a


def rotate_tuple(x: tuple[int, ...], shift: int) -> tuple[int, ...]:
    """The rotation sigma^shift: the coefficient at index i goes to i + shift mod e."""
    e = len(x)
    out = [0] * e
    for i, c in enumerate(x):
        out[(i + shift) % e] = c
    return tuple(out)


# --- the sieving class and its dominant maximal weights ---


def ev(w: LevelKDominant) -> int:
    """The sieving statistic: sum over i >= 1 of coeffs[i] * i, mod e."""
    return sum(i * c for i, c in enumerate(w.coeffs)) % len(w.coeffs)


def composition_equiv_class(w: LevelKDominant) -> list[LevelKDominant]:
    """The class by recursion over compositions, sorted lexicographically:
    c_2..c_{e-1} free, c_1 in the residue class that restores ev(w) mod e,
    and c_0 the rest of the level."""
    e = len(w.coeffs)
    members = []

    def fill(i: int, tail: tuple[int, ...], left: int, need: int) -> None:
        # tail = (c_{i+1}, ..., c_{e-1}); need = ev(w) - sum_{j>i} j c_j mod e
        if i == 1:
            for c1 in range(need % e, left + 1, e):
                members.append(LevelKDominant((left - c1, c1) + tail))
            return
        for c in range(left + 1):
            fill(i - 1, (c,) + tail, left - c, need - i * c)

    fill(e - 1, (), w.level, ev(w))
    members.sort(key=lambda m: m.coeffs)
    return members


def entry(base: LevelKDominant, member: LevelKDominant, x: tuple[int, ...]) -> MaxWeightEntry:
    """The entry of `member`, its max weight computed as base - sum_i x_i alpha_i."""
    max_weight = base.to_weight() - root_to_weight(x)
    return MaxWeightEntry(member, x, RootVector(x), max_weight)


def solver_max_plus(base: LevelKDominant) -> list[MaxWeightEntry]:
    """One entry per member of the composition class, X from `solve_x`."""
    return [entry(base, m, solve_x(base, m)) for m in composition_equiv_class(base)]


# --- the weight quiver and its tagged subquiver ---


def move(w: LevelKDominant, i: int, j: int) -> LevelKDominant:
    """Replace Lambda_i + Lambda_j by Lambda_{i-1} + Lambda_{j+1} inside w.

    Fixes w exactly when j = i - 1 mod e.
    """
    e = len(w.coeffs)
    i, j = i % e, j % e
    need = 2 if i == j else 1
    if w.coeffs[i] < need or w.coeffs[j] < need:
        raise ValueError(f"weight {w.coeffs} has no move ({i},{j})")
    c = list(w.coeffs)
    c[i] -= 1
    c[j] -= 1
    c[(i - 1) % e] += 1
    c[(j + 1) % e] += 1
    return LevelKDominant(tuple(c))


def interval_has_arrow(x, i: int, j: int) -> bool:
    """Whether x vanishes somewhere on the cyclic interval [j+1, i-1]."""
    xs = tuple(x)
    e = len(xs)
    if (j - (i - 1)) % e == 0:
        raise ValueError(f"({i},{j}) is a loop label (j = i - 1 mod e)")
    return any(xs[h] == 0 for h in cyclic_interval(j + 1, i - 1, e))


def _add_vec(x, bits):
    return tuple(a + b for a, b in zip(x, bits))


def _canonical(base, xmap, raw_arrows) -> tuple[tuple, tuple]:
    ordering = sorted(xmap, key=lambda c: (sum(xmap[c]), c))
    ids = {c: i for i, c in enumerate(ordering)}
    vertices = tuple(entry(base, LevelKDominant(c), xmap[c]) for c in ordering)
    arrows = tuple(sorted(Arrow(ids[s], ids[d], lab) for (s, d, lab) in raw_arrows))
    return vertices, arrows


def _label_pairs(w: LevelKDominant):
    e = len(w.coeffs)
    support = w.support()
    for i in support:
        for j in support:
            if i == j and w.coeffs[i] < 2:
                continue
            if (j - (i - 1)) % e == 0:
                continue
            yield i, j


def label_bfs_quiver(base: LevelKDominant) -> WeightQuiver:
    """The full quiver by testing every label at every vertex of a BFS."""
    if base.level < 2:
        raise LevelTooSmallError(f"need level >= 2, got {base.level}")
    e = len(base.coeffs)
    xmap = {base.coeffs: (0,) * e}
    raw_arrows = set()
    frontier = [base]
    while frontier:
        nxt = []
        for src in frontier:
            x = xmap[src.coeffs]
            for i, j in _label_pairs(src):
                if not interval_has_arrow(x, i, j):
                    continue
                dst = move(src, i, j)
                x_dst = _add_vec(x, interval_delta(i, j, e))
                if dst.coeffs not in xmap:
                    xmap[dst.coeffs] = x_dst
                    nxt.append(dst)
                raw_arrows.add((src.coeffs, dst.coeffs, (i, j)))
        frontier = nxt
    vertices, arrows = _canonical(base, xmap, raw_arrows)
    return WeightQuiver(base, vertices, arrows)


def label_t_subquiver(base: LevelKDominant) -> TQuiver:
    """The six depth <= 2 constructions, each arrow checked on its interval."""
    if base.level < 2:
        raise LevelTooSmallError(f"need level >= 2, got {base.level}")
    e = len(base.coeffs)
    i1, i2, i3 = ([i for i, c in enumerate(base.coeffs) if c >= k] for k in (2, 3, 4))
    xmap = {base.coeffs: (0,) * e}
    tags: dict[tuple[int, ...], set[int]] = {}
    raw_arrows = set()

    def record(src: LevelKDominant, i: int, j: int, tag: int) -> LevelKDominant:
        i, j = i % e, j % e
        assert interval_has_arrow(xmap[src.coeffs], i, j)
        dst = move(src, i, j)
        x_dst = _add_vec(xmap[src.coeffs], interval_delta(i, j, e))
        prev = xmap.setdefault(dst.coeffs, x_dst)
        assert prev == x_dst
        tags.setdefault(dst.coeffs, set()).add(tag)
        raw_arrows.add((src.coeffs, dst.coeffs, (i, j)))
        return dst

    for i, j in _label_pairs(base):
        if i != j:
            record(base, i, j, 0)
    first = {i: record(base, i, i, 1) for i in i1}
    if e >= 4:
        for i in i1:
            record(first[i], i - 1, i + 1, 2)
    if e >= 3:
        for i in i2:
            record(first[i], i, i + 1, 3)
            record(first[i], i - 1, i, 3)
    for i in i3:
        record(first[i], i, i, 4)
    if e >= 3:
        for i in i1:
            for j in i1:
                if i != j:
                    record(first[i], j, j, 5)

    vertices, arrows = _canonical(base, xmap, raw_arrows)
    ordering = {v.weight.coeffs: vid for vid, v in enumerate(vertices)}
    tagmap = {ordering[c]: frozenset(ts) for c, ts in tags.items()}
    return TQuiver(base, vertices, arrows, tagmap)


def t_beta_sets(base: LevelKDominant) -> dict[int, set[RootVector]]:
    """Closed forms for the beta sets of the six constructions."""
    e = len(base.coeffs)
    i0, i1, i2, i3 = ([i for i, c in enumerate(base.coeffs) if c >= k] for k in (1, 2, 3, 4))
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


# --- charged multipartitions of a given content ---


@lru_cache(maxsize=64)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, largest first (reverse lexicographic)."""
    if n == 0:
        return ((),)
    out: list[Partition] = []

    def extend(remaining: int, cap: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            extend(remaining - part, part, prefix + (part,))

    extend(n, n, ())
    return tuple(out)


def multipartitions(k: int, n: int) -> list[Multipartition]:
    """All k-multipartitions of n, in a fixed lexicographic order."""
    out: list[Multipartition] = []

    def split(idx: int, remaining: int, prefix: tuple[Partition, ...]) -> None:
        if idx == k - 1:
            for p in partitions_of(remaining):
                out.append(Multipartition(prefix + (p,)))
            return
        for here in range(remaining, -1, -1):
            for p in partitions_of(here):
                split(idx + 1, remaining - here, prefix + (p,))

    split(0, n, ())
    return out


def residue_counts(
    components: tuple[Partition, ...], charges: tuple[int, ...], e: int
) -> tuple[int, ...]:
    """How many nodes of each residue the charged shape has: the node in row
    r, column c (0-based) of component s has residue charges[s] + c - r."""
    counts = [0] * e
    for charge, comp in zip(charges, components):
        for r, width in enumerate(comp):
            for c in range(width):
                counts[(charge + c - r) % e] += 1
    return tuple(counts)


def filtered_with_content(
    charges: tuple[int, ...], beta_coeffs: tuple[int, ...]
) -> list[Multipartition]:
    """Every len(charges)-multipartition of |beta| with content beta, in the
    order of `multipartitions`."""
    return [
        mp
        for mp in multipartitions(len(charges), sum(beta_coeffs))
        if residue_counts(mp.components, charges, len(beta_coeffs)) == beta_coeffs
    ]


def filtered_is_nonzero(base_coeffs: tuple[int, ...], beta_coeffs: tuple[int, ...]) -> bool:
    return bool(filtered_with_content(charges_of(base_coeffs), beta_coeffs))


# --- Brauer graphs ---


def line_graph(multiplicities) -> BrauerGraph:
    """A straight-line Brauer graph with the given vertex multiplicities."""
    mult = list(multiplicities)
    return BrauerGraph.build(mult, [(i, i + 1) for i in range(len(mult) - 1)])


def scan_candidate_rows(c, n: int, bound: int) -> list[tuple[int, ...]]:
    """The candidate rows of `decomp_search` by scanning every value from
    `bound` down to 0 at every prefix and testing each against the diagonal
    and the entries of C; raises as the package does past MAX_CANDIDATE_ROWS."""
    rows: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...]) -> None:
        if len(prefix) == n:
            if any(prefix):
                if len(rows) == brauer.MAX_CANDIDATE_ROWS:
                    raise SearchSpaceExceededError(
                        f"decomposition search exceeded {brauer.MAX_CANDIDATE_ROWS} "
                        "candidate rows"
                    )
                rows.append(prefix)
            return
        j = len(prefix)
        for v in range(bound, -1, -1):
            if v * v > c[j][j]:
                continue
            if any(prefix[i] * v > c[i][j] for i in range(j)):
                continue
            extend(prefix + (v,))

    extend(())
    return rows



def _adjacency(g: BrauerGraph) -> list[list[int]]:
    """The neighbours of each vertex, once per incident edge end."""
    adj: list[list[int]] = [[] for _ in g.multiplicities]
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def is_connected(g: BrauerGraph) -> bool:
    seen = {0}
    frontier = [0]
    adj = _adjacency(g)
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(g.multiplicities)


def has_loop(g: BrauerGraph) -> bool:
    return any(a == b for a, b in g.edges)


def has_multi_edge(g: BrauerGraph) -> bool:
    normalized = [tuple(sorted(e)) for e in g.edges]
    return len(set(normalized)) != len(normalized)


def _vertex_cycles(g: BrauerGraph) -> list[list[PresArrow]]:
    """The arrows around each vertex, in cyclic-order positions."""
    cycles = []
    for v, rot in enumerate(g.rotations):
        c = len(rot)
        arrows = []
        for i in range(c):
            src = rot[i][0]
            dst = rot[(i + 1) % c][0]
            arrows.append(PresArrow(f"a[{v},{i + 1}]", v, src, dst))
        cycles.append(arrows)
    return cycles


def scan_quiver_presentation(g: BrauerGraph) -> QuiverPresentation:
    """`quiver_presentation` with each arrow position found by a linear scan."""
    cycles = _vertex_cycles(g)

    def cycle_from(v: int, start_pos: int) -> list[PresArrow]:
        c = len(cycles[v])
        return [cycles[v][(start_pos + t) % c] for t in range(c)]

    def path_str(arrows: list[PresArrow], power: int = 1) -> str:
        body = " ".join(a.name for a in arrows)
        if power == 1:
            return body
        return f"({body})^{power}"

    overshoot = []
    for v, rot in enumerate(g.rotations):
        mv = g.multiplicities[v]
        for j in range(len(rot)):
            cyc = cycle_from(v, j)
            overshoot.append(f"{path_str(cyc, mv)} {cyc[0].name}")

    equality = []
    for eid, (a, b) in enumerate(g.edges):
        if a == b:
            continue
        pos_a = next(i for i, d in enumerate(g.rotations[a]) if d[0] == eid)
        pos_b = next(i for i, d in enumerate(g.rotations[b]) if d[0] == eid)
        lhs = path_str(cycle_from(a, pos_a), g.multiplicities[a])
        rhs = path_str(cycle_from(b, pos_b), g.multiplicities[b])
        equality.append(f"{lhs} - {rhs}")

    mixed = []
    for v, arrows_v in enumerate(cycles):
        for arr in arrows_v:
            eid = arr.dst_edge
            a, b = g.edges[eid]
            if a == b:
                continue
            u = a if b == v else b if a == v else None
            if u is None or u == v:
                continue
            follow = next(x for x in cycles[u] if x.src_edge == eid)
            mixed.append(f"{arr.name} {follow.name}")

    q_arrows = tuple(a for cyc in cycles for a in cyc)
    return QuiverPresentation(
        tuple(range(len(g.edges))),
        q_arrows,
        tuple(overshoot),
        tuple(equality),
        tuple(sorted(mixed)),
    )


def pairwise_cartan_matrix(g: BrauerGraph) -> list[list[int]]:
    """`graph_cartan_matrix` refusing loops and multi-edges by two scans."""
    if has_loop(g) or has_multi_edge(g):
        raise UnsupportedGraphError(
            "Cartan matrix is only defined here for loopless simple graphs"
        )
    ne = len(g.edges)
    c = [[0] * ne for _ in range(ne)]
    for i, (a, b) in enumerate(g.edges):
        c[i][i] = g.multiplicities[a] + g.multiplicities[b]
        for j in range(i + 1, ne):
            shared = set(g.edges[i]) & set(g.edges[j])
            val = sum(g.multiplicities[v] for v in shared)
            c[i][j] = c[j][i] = val
    return c


def _faces(g: BrauerGraph) -> list[int]:
    """Perimeters of the ribbon faces (dart-walk cycle lengths)."""
    succ = {}
    for rot in g.rotations:
        c = len(rot)
        for i in range(c):
            succ[rot[i]] = rot[(i + 1) % c]
    perimeters = []
    unvisited = {(eid, end) for eid in range(len(g.edges)) for end in (0, 1)}
    while unvisited:
        start = min(unvisited)
        dart = start
        length = 0
        while True:
            unvisited.discard(dart)
            length += 1
            eid, end = dart
            dart = succ[(eid, 1 - end)]
            if dart == start:
                break
        perimeters.append(length)
    return sorted(perimeters)


def _is_bipartite(g: BrauerGraph) -> bool:
    if has_loop(g):
        return False
    color = [-1] * len(g.multiplicities)
    color[0] = 0
    frontier = [0]
    adj = _adjacency(g)
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if color[w] == -1:
                color[w] = 1 - color[v]
                frontier.append(w)
            elif color[w] == color[v]:
                return False
    return True


def walk_derived_invariants(g: BrauerGraph) -> DerivedInvariants:
    """`derived_invariants` from a successor map and a depth-first colouring."""
    perims = _faces(g)
    return DerivedInvariants(
        n_vertices=len(g.multiplicities),
        n_edges=len(g.edges),
        n_faces=len(perims),
        mult_multiset=tuple(sorted(g.multiplicities)),
        perimeter_multiset=tuple(perims),
        bipartite=_is_bipartite(g),
    )


def pruned_decomp_search(c: list[list[int]]) -> DecompResult:
    """`decomp_search` with a row-count prune at trace(C) rows, an all-zero
    scan, a dead-end scan and a flagged fit loop; the candidate rows come
    from `scan_candidate_rows`.  Raises as the package does past
    MAX_SEARCH_NODES or MAX_CANDIDATE_ROWS."""
    n = len(c)
    if any(len(row) != n for row in c):
        raise ValueError("Cartan matrix must be square")
    if any(c[i][j] != c[j][i] for i in range(n) for j in range(n)):
        raise ValueError("Cartan matrix must be symmetric")
    if any(v < 0 for row in c for v in row):
        raise ValueError("Cartan matrix entries must be nonnegative")

    bound = isqrt(min(c[i][i] for i in range(n))) if n else 0
    candidates = scan_candidate_rows(c, n, bound)
    solutions = set()
    nodes = 0
    max_rows = sum(c[i][i] for i in range(n))

    def backtrack(remaining: list[list[int]], start: int, rows: list[tuple[int, ...]]):
        nonlocal nodes
        nodes += 1
        if nodes > brauer.MAX_SEARCH_NODES:
            raise SearchSpaceExceededError(
                f"decomposition search exceeded {brauer.MAX_SEARCH_NODES} nodes"
            )
        if all(remaining[i][j] == 0 for i in range(n) for j in range(n)):
            solutions.add(tuple(rows))
            return
        if len(rows) >= max_rows:
            return
        for i in range(n):
            if remaining[i][i] == 0 and any(
                remaining[i][j] != 0 for j in range(n)
            ):
                return
        for idx in range(start, len(candidates)):
            r = candidates[idx]
            ok = True
            for i in range(n):
                if r[i] == 0:
                    continue
                for j in range(i, n):
                    if r[i] * r[j] > remaining[i][j]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            nxt = [
                [remaining[i][j] - r[i] * r[j] for j in range(n)] for i in range(n)
            ]
            rows.append(r)
            backtrack(nxt, idx, rows)
            rows.pop()

    backtrack([list(row) for row in c], 0, [])
    sols = tuple(sorted(solutions))
    return DecompResult(sols, unique=len(sols) == 1, searched_nodes=nodes)


# --- the records as frozen dataclasses ---
#
# Each has the fields, defaults and checks of the package record it is named
# after; `searched_nodes` is left out of comparison as before.  Their field
# values are whatever the caller passes, so the same values can build both.


@dataclass(frozen=True)
class FrozenWeightCoeffs:
    lam: tuple[int, ...]
    delta: int = 0


@dataclass(frozen=True)
class FrozenRootVector:
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if min(self.coeffs, default=0) < 0:
            raise ValueError(f"root vector must be nonnegative, got {self.coeffs}")


@dataclass(frozen=True)
class FrozenLevelKDominant:
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) < 2:
            raise ValueError("need at least 2 coefficients (ell >= 1)")
        if len(self.coeffs) > MAX_E:
            raise ValueError(f"e = {len(self.coeffs)} exceeds the limit MAX_E = {MAX_E}")
        if min(self.coeffs) < 0:
            raise ValueError(f"coefficients must be nonnegative, got {self.coeffs}")
        if sum(self.coeffs) < 1:
            raise ValueError("level must be >= 1")


@dataclass(frozen=True)
class FrozenMaxWeightEntry:
    weight: LevelKDominant
    x: tuple[int, ...]
    beta: RootVector
    max_weight: WeightCoeffs


class FrozenArrow(NamedTuple):
    src: int
    dst: int
    label: tuple[int, int]


@dataclass(frozen=True)
class FrozenWeightQuiver:
    base: LevelKDominant
    vertices: tuple[MaxWeightEntry, ...]
    arrows: tuple[Arrow, ...]


@dataclass(frozen=True)
class FrozenTQuiver(FrozenWeightQuiver):
    tags: dict[int, frozenset[int]]


@dataclass(frozen=True)
class FrozenFieldParams:
    char_p: int = 0
    t_class: TClass = TClass.OTHER

    def __post_init__(self) -> None:
        if self.char_p < 0 or self.char_p == 1:
            raise ValueError("char_p must be 0 or a prime")
        if self.char_p > MAX_CHAR:
            raise ValueError(
                f"char_p above {MAX_CHAR} is refused: every prime >= 5 classifies "
                "like 0, since only 2 and 3 enter the script sets"
            )
        if self.char_p > 1 and any(
            self.char_p % d == 0 for d in range(2, isqrt(self.char_p) + 1)
        ):
            raise ValueError(f"char_p = {self.char_p} is not prime")


@dataclass(frozen=True)
class FrozenScriptSets:
    finite: frozenset[RootVector]
    tame: tuple[frozenset[RootVector], ...]


@dataclass(frozen=True)
class FrozenOrbitResult:
    status: OrbitStatus
    beta0: RootVector | None
    m: int
    reflection_count: int


@dataclass(frozen=True)
class FrozenMultipartition:
    components: tuple[Partition, ...]

    def __post_init__(self) -> None:
        for comp in self.components:
            if any(a < b for a, b in zip(comp, comp[1:])) or any(
                r <= 0 for r in comp
            ):
                raise ValueError(f"not a partition: {comp}")


@dataclass(frozen=True)
class FrozenBrauerGraph:
    multiplicities: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    rotations: tuple[tuple[tuple[int, int], ...], ...]


@dataclass(frozen=True)
class FrozenPresArrow:
    name: str
    vertex: int
    src_edge: int
    dst_edge: int


@dataclass(frozen=True)
class FrozenQuiverPresentation:
    q_vertices: tuple[int, ...]
    q_arrows: tuple[PresArrow, ...]
    rel_cycle_overshoot: tuple[str, ...]
    rel_cycle_equality: tuple[str, ...]
    rel_mixed_products: tuple[str, ...]


@dataclass(frozen=True)
class FrozenDerivedInvariants:
    n_vertices: int
    n_edges: int
    n_faces: int
    mult_multiset: tuple[int, ...]
    perimeter_multiset: tuple[int, ...]
    bipartite: bool


@dataclass(frozen=True)
class FrozenDecompResult:
    solutions: tuple[tuple[tuple[int, ...], ...], ...]
    unique: bool
    searched_nodes: int = field(compare=False, default=0)


# --- the command line, read by argparse ---


class _ArgumentParser(argparse.ArgumentParser):
    """An argparse parser whose rejections raise UsageError, as the table's do."""

    def error(self, message: str):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser before the option table; its namespaces carry no handler."""
    parser = _ArgumentParser(
        prog="klrblocks",
        description="Dominant maximal weights, weight quivers, block types and "
        "graded dimensions in affine type A",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_weight_opts(p):
        p.add_argument("--ell", type=int, required=True, help="rank (e = ell + 1)")
        p.add_argument(
            "--weight",
            required=True,
            help="comma-separated coefficients on Λ0..Λell (length ell+1)",
        )

    p = sub.add_parser("maxweights", help="dominant maximal weights of a class")
    add_weight_opts(p)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("quiver", help="the full weight quiver")
    add_weight_opts(p)
    p.add_argument("--format", choices=["text", "json", "dot"], default="text")

    p = sub.add_parser("tquiver", help="the tagged depth-2 subquiver")
    add_weight_opts(p)
    p.add_argument("--format", choices=["text", "json", "dot"], default="text")

    p = sub.add_parser("classify", help="representation type of a block")
    add_weight_opts(p)
    p.add_argument("--beta", required=True, help="comma-separated alpha coefficients")
    p.add_argument("--mdelta", type=int, default=0, help="add m copies of delta")
    p.add_argument("--char", type=int, default=0, help="field characteristic")
    p.add_argument(
        "--t",
        default="other",
        help="t class: 'two'/'minustwo' (ell=1), 'signell' (ell>=2) or 'other'",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("gdim", help="graded dimension of a block")
    add_weight_opts(p)
    p.add_argument("--beta", required=True, help="comma-separated alpha coefficients")
    p.add_argument("--mdelta", type=int, default=0, help="add m copies of delta")
    p.add_argument("--nu", default=None, help="residue sequence of the left idempotent")
    p.add_argument("--nup", default=None, help="residue sequence of the right idempotent")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("brauer", help="Brauer graph data")
    p.add_argument("--graph", default=None, help="JSON graph file")
    p.add_argument("--gamma", default=None, help="line family parameters s,a,m")
    p.add_argument(
        "--what", choices=["invariants", "cartan", "quiver", "all"], default="all"
    )
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("decomp", help="decomposition matrices with D^t D = C")
    p.add_argument("--cartan", default=None, help="matrix rows 'a,b;c,d'")
    p.add_argument("--graph", default=None, help="JSON graph file")
    p.add_argument("--gamma", default=None, help="line family parameters s,a,m")
    p.add_argument("--format", choices=["text", "json"], default="text")

    return parser
