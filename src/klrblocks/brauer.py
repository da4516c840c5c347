"""Brauer graphs with ribbon structure: presentations, Cartan data, invariants.

A graph is stored as vertex multiplicities, an edge list, and one cyclic
ordering of half-edges per vertex.  Faces are traced with the standard dart
walk: cross to the other end of the edge, then step to the successor in that
vertex's cyclic order.  Derived-equivalence comparison uses the counts of
vertices/edges/faces, the multisets of multiplicities and face perimeters,
and bipartiteness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt


class InvalidGraphError(ValueError):
    pass


class UnsupportedGraphError(ValueError):
    """Cartan matrices for graphs with loops or multiple edges are out of scope."""


class LocalAlgebraUnsupportedError(ValueError):
    """Derived-equivalence comparison requires non-local inputs (>= 2 edges)."""


class SearchSpaceExceededError(RuntimeError):
    pass


MAX_SEARCH_NODES = 1_000_000  # nodes one decomposition search may visit
MAX_CANDIDATE_ROWS = 10_000  # rows it may build; a Brauer graph's matrix gives tens


def _integers(values, what: str) -> tuple[int, ...]:
    """`values` as a tuple if every entry is an int; bools and floats are not."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            raise InvalidGraphError(f"{what} must be integers, got {v!r}")
    return values


# A dart is one of the two (edge, end) incidences of an edge.
Dart = tuple[int, int]


@dataclass(frozen=True)
class BrauerGraph:
    multiplicities: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    rotations: tuple[tuple[Dart, ...], ...]  # cyclic dart order around each vertex

    @staticmethod
    def build(
        multiplicities,
        edges,
        rotations: dict[int, list[int]] | None = None,
    ) -> "BrauerGraph":
        """Construct a graph from edge lists, checking the ribbon data.

        `rotations` maps a vertex to its cyclic list of edge ids (a loop id
        appears twice); it may be omitted for vertices of degree <= 2.
        """
        mult = _integers(multiplicities, "vertex multiplicities")
        if any(x < 1 for x in mult):
            raise InvalidGraphError("vertex multiplicities must be >= 1")
        nv = len(mult)
        edge_list = [_integers(edge, "edge ends") for edge in edges]
        for edge in edge_list:
            if len(edge) != 2:
                raise InvalidGraphError(f"edge {edge} does not have exactly two ends")
            a, b = edge
            if not (0 <= a < nv and 0 <= b < nv):
                raise InvalidGraphError(f"edge ({a},{b}) out of vertex range")
        darts_at: list[list[Dart]] = [[] for _ in range(nv)]
        for eid, (a, b) in enumerate(edge_list):
            darts_at[a].append((eid, 0))
            darts_at[b].append((eid, 1))
        for v in rotations or ():
            if type(v) is not int or not 0 <= v < nv:
                raise InvalidGraphError(
                    f"rotation key {v!r} names no vertex of 0..{nv - 1}"
                )
        rot: list[tuple[Dart, ...]] = []
        for v in range(nv):
            incident = darts_at[v]
            if rotations is not None and v in rotations:
                order = _integers(rotations[v], f"rotation entries at vertex {v}")
                if sorted(order) != sorted(e for e, _ in incident):
                    raise InvalidGraphError(
                        f"rotation at vertex {v} is not a permutation of its edges"
                    )
                seen: dict[int, int] = {}
                seq = []
                for eid in order:
                    end = seen.get(eid, 0)
                    a, b = edge_list[eid]
                    if a != b:
                        end = 0 if a == v else 1
                    seen[eid] = end + 1
                    seq.append((eid, end))
                rot.append(tuple(seq))
            elif len(incident) <= 2:
                rot.append(tuple(sorted(incident)))
            else:
                raise InvalidGraphError(
                    f"vertex {v} has degree {len(incident)}; a rotation is required"
                )
        g = BrauerGraph(mult, tuple(edge_list), tuple(rot))
        g._check_connected()
        return g

    def _check_connected(self) -> None:
        nv = len(self.multiplicities)
        if nv == 0:
            raise InvalidGraphError("empty graph")
        seen = {0}
        frontier = [0]
        adj = _adjacency(self)
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if len(seen) != nv:
            raise InvalidGraphError("graph is not connected")

    def degree(self, v: int) -> int:
        return len(self.rotations[v])

    def has_loop(self) -> bool:
        return any(a == b for a, b in self.edges)

    def has_multi_edge(self) -> bool:
        normalized = [tuple(sorted(e)) for e in self.edges]
        return len(set(normalized)) != len(normalized)


@dataclass(frozen=True)
class PresArrow:
    name: str
    vertex: int
    pos: int  # position in the vertex's cyclic order, 0-based
    src_edge: int
    dst_edge: int


@dataclass(frozen=True)
class QuiverPresentation:
    q_vertices: tuple[int, ...]  # edge ids
    q_arrows: tuple[PresArrow, ...]
    rel_cycle_overshoot: tuple[str, ...]  # (cycle at v)^m(v) followed by one more step
    rel_cycle_equality: tuple[str, ...]   # the two special cycles through an edge agree
    rel_mixed_products: tuple[str, ...]   # consecutive arrows around different vertices


@dataclass(frozen=True)
class DerivedInvariants:
    n_vertices: int
    n_edges: int
    n_faces: int
    mult_multiset: tuple[int, ...]
    perimeter_multiset: tuple[int, ...]
    bipartite: bool

    @property
    def genus(self) -> int:
        chi = self.n_vertices - self.n_edges + self.n_faces
        if chi % 2 != 0:
            raise InvalidGraphError("odd Euler characteristic: invalid ribbon data")
        return (2 - chi) // 2


def _vertex_cycles(g: BrauerGraph) -> list[list[PresArrow]]:
    """The arrows around each vertex, in cyclic-order positions."""
    cycles = []
    for v, rot in enumerate(g.rotations):
        c = len(rot)
        arrows = []
        for i in range(c):
            src = rot[i][0]
            dst = rot[(i + 1) % c][0]
            arrows.append(PresArrow(f"a[{v},{i + 1}]", v, i, src, dst))
        cycles.append(arrows)
    return cycles


def quiver_presentation(g: BrauerGraph) -> QuiverPresentation:
    """The bound-quiver presentation read off the ribbon structure.

    Vertices are the edges of the graph; each graph vertex v contributes the
    cycle of arrows following its rotation, with three relation families:
    a full v-cycle repeated mult(v) times overshooting by one arrow is zero,
    the two full cycles through a shared edge agree, and a product of two
    consecutive arrows turning around different vertices is zero.
    """
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


def graph_cartan_matrix(g: BrauerGraph) -> list[list[int]]:
    """Cartan matrix indexed by edges, for simple loopless graphs.

    Diagonal: the sum of the two endpoint multiplicities; off-diagonal: the
    multiplicity sum over shared endpoints.
    """
    if g.has_loop() or g.has_multi_edge():
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
    succ: dict[Dart, Dart] = {}
    for rot in g.rotations:
        c = len(rot)
        for i in range(c):
            succ[rot[i]] = rot[(i + 1) % c]
    perimeters = []
    unvisited: set[Dart] = {(eid, end) for eid in range(len(g.edges)) for end in (0, 1)}
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


def _adjacency(g: BrauerGraph) -> list[list[int]]:
    """The neighbours of each vertex, once per incident edge end."""
    adj: list[list[int]] = [[] for _ in g.multiplicities]
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _is_bipartite(g: BrauerGraph) -> bool:
    if g.has_loop():
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


def derived_invariants(g: BrauerGraph) -> DerivedInvariants:
    perims = _faces(g)
    return DerivedInvariants(
        n_vertices=len(g.multiplicities),
        n_edges=len(g.edges),
        n_faces=len(perims),
        mult_multiset=tuple(sorted(g.multiplicities)),
        perimeter_multiset=tuple(perims),
        bipartite=_is_bipartite(g),
    )


def derived_equivalent(g1: BrauerGraph, g2: BrauerGraph) -> bool:
    """Derived equivalence of the associated algebras, via the invariant list."""
    if len(g1.edges) < 2 or len(g2.edges) < 2:
        raise LocalAlgebraUnsupportedError(
            "derived-equivalence test requires non-local algebras (>= 2 edges)"
        )
    return derived_invariants(g1) == derived_invariants(g2)


def gamma_family(s: int, a: int, m: int) -> BrauerGraph:
    """The straight line with s+2 vertices, all multiplicity m except the a-th
    (1-based), which has multiplicity 1."""
    if s < 0 or not (1 <= a <= s + 2) or m < 1:
        raise ValueError(f"invalid gamma family parameters s={s}, a={a}, m={m}")
    mult = [m] * (s + 2)
    mult[a - 1] = 1
    edges = [(i, i + 1) for i in range(s + 1)]
    return BrauerGraph.build(mult, edges)


def line_graph(multiplicities) -> BrauerGraph:
    """A straight-line Brauer graph with the given vertex multiplicities."""
    mult = list(multiplicities)
    edges = [(i, i + 1) for i in range(len(mult) - 1)]
    return BrauerGraph.build(mult, edges)


@dataclass(frozen=True)
class DecompResult:
    solutions: tuple[tuple[tuple[int, ...], ...], ...]  # each: rows, lex-descending
    unique: bool
    searched_nodes: int = field(compare=False, default=0)


def decomp_search(c: list[list[int]]) -> DecompResult:
    """All D with D^t D = C, over nonnegative integers, up to row permutation.

    The search space follows the fixed convention: entries are bounded by the
    integer square root of the smallest diagonal entry, rows are nonzero, and
    at most trace(C) rows are used.  Solutions are canonicalized with rows
    sorted lexicographically descending and deduplicated.  More than
    MAX_CANDIDATE_ROWS candidate rows, or MAX_SEARCH_NODES search nodes,
    raise SearchSpaceExceededError.
    """
    n = len(c)
    if any(len(row) != n for row in c):
        raise ValueError("Cartan matrix must be square")
    if any(c[i][j] != c[j][i] for i in range(n) for j in range(n)):
        raise ValueError("Cartan matrix must be symmetric")
    if any(c[i][i] < 0 for i in range(n)):
        raise ValueError("Cartan matrix must have a nonnegative diagonal")

    bound = isqrt(min(c[i][i] for i in range(n))) if n else 0
    candidates = _candidate_rows(c, n, bound)
    solutions: set[tuple[tuple[int, ...], ...]] = set()
    nodes = 0
    max_rows = sum(c[i][i] for i in range(n))

    def backtrack(remaining: list[list[int]], start: int, rows: list[tuple[int, ...]]):
        nonlocal nodes
        nodes += 1
        if nodes > MAX_SEARCH_NODES:
            raise SearchSpaceExceededError(
                f"decomposition search exceeded {MAX_SEARCH_NODES} nodes"
            )
        if all(remaining[i][j] == 0 for i in range(n) for j in range(n)):
            solutions.add(tuple(rows))
            return
        if len(rows) >= max_rows:
            return
        # A positive off-diagonal entry with an exhausted diagonal is a dead end.
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


def _candidate_rows(c, n, bound) -> list[tuple[int, ...]]:
    """Nonzero candidate rows in descending lex order, pruned entrywise."""
    rows: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...]) -> None:
        if len(prefix) == n:
            if any(prefix):
                if len(rows) == MAX_CANDIDATE_ROWS:
                    raise SearchSpaceExceededError(
                        f"decomposition search exceeded {MAX_CANDIDATE_ROWS} "
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
