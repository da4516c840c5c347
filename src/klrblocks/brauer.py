"""Brauer graphs with ribbon structure: presentations, Cartan data, invariants.

A graph is stored as vertex multiplicities, an edge list, and one cyclic
ordering of half-edges per vertex.  Faces are traced with the standard dart
walk: cross to the other end of the edge, then step to the successor in that
vertex's cyclic order.  One dart table, giving each dart's vertex and place
in its rotation, serves the face walk and the quiver presentation; one
breadth-first colouring serves connectedness and bipartiteness.  The derived
invariants are the counts of vertices/edges/faces, the multisets of
multiplicities and face perimeters, and bipartiteness.
"""

from __future__ import annotations

from bisect import bisect_left
from math import isqrt

from .cartan import Record


class InvalidGraphError(ValueError):
    pass


class UnsupportedGraphError(ValueError):
    """Cartan matrices for graphs with loops or multiple edges are out of scope."""


class SearchSpaceExceededError(RuntimeError):
    pass


# nodes one decomposition search may visit: `decomp --gamma 20,1,1` runs
# into this limit in about 0.9 s (a CLI process on a 2-vCPU VM)
MAX_SEARCH_NODES = 1_000_000
MAX_CANDIDATE_ROWS = 10_000  # rows it may build; a Brauer graph's matrix gives tens
# rows one decomposition may have, checked on the trace before the search
# starts: each row of a branch takes at least 1 from the trace and costs one
# Python frame, so this keeps the search well inside Python's recursion
# limit (1,000 frames by default)
MAX_SEARCH_DEPTH = 500
# edges of one graph: its Cartan matrix has MAX_EDGES^2 entries, and
# `brauer --what all` on gamma(999, 1, 1) prints it in about 0.4 s (a CLI
# process on a 2-vCPU VM)
MAX_EDGES = 1_000


def _check_edges(count: int) -> None:
    if count > MAX_EDGES:
        raise InvalidGraphError(f"{count} edges exceed the limit MAX_EDGES = {MAX_EDGES}")


def _integers(values, what: str) -> tuple[int, ...]:
    """`values` as a tuple if every entry is an int; bools and floats are not."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            raise InvalidGraphError(f"{what} must be integers, got {v!r}")
    return values


# A dart is one of the two (edge, end) incidences of an edge.
Dart = tuple[int, int]


class BrauerGraph(Record):
    __slots__ = ("multiplicities", "edges", "rotations")

    def __init__(
        self,
        multiplicities: tuple[int, ...],
        edges: tuple[tuple[int, int], ...],
        rotations: tuple[tuple[Dart, ...], ...],  # cyclic dart order around each vertex
    ) -> None:
        object.__setattr__(self, "multiplicities", multiplicities)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "rotations", rotations)

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
        _check_edges(len(edge_list))
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
        if not nv:
            raise InvalidGraphError("empty graph")
        if -1 in _colours(g):
            raise InvalidGraphError("graph is not connected")
        # a lone vertex: its Brauer graph algebra has no simple module
        if not edge_list:
            raise InvalidGraphError("graph has no edges")
        return g


def _colours(g: BrauerGraph) -> list[int]:
    """A 0/1 colouring by breadth-first search from vertex 0, each vertex
    coloured unlike the one it was reached from; -1 where it never reaches."""
    colour = [-1] * len(g.multiplicities)
    colour[0] = 0
    frontier = [0]
    for v in frontier:
        for eid, end in g.rotations[v]:
            w = g.edges[eid][1 - end]
            if colour[w] == -1:
                colour[w] = 1 - colour[v]
                frontier.append(w)
    return colour


def _places(g: BrauerGraph) -> dict[Dart, tuple[int, int]]:
    """The dart table: each dart's vertex and its place in that rotation."""
    return {d: (v, i) for v, rot in enumerate(g.rotations) for i, d in enumerate(rot)}


class PresArrow(Record):
    __slots__ = ("name", "vertex", "src_edge", "dst_edge")

    def __init__(self, name: str, vertex: int, src_edge: int, dst_edge: int) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "src_edge", src_edge)
        object.__setattr__(self, "dst_edge", dst_edge)


class QuiverPresentation(Record):
    __slots__ = (
        "q_vertices",
        "q_arrows",
        "rel_cycle_overshoot",
        "rel_cycle_equality",
        "rel_mixed_products",
    )

    def __init__(
        self,
        q_vertices: tuple[int, ...],  # edge ids
        q_arrows: tuple[PresArrow, ...],
        rel_cycle_overshoot: tuple[str, ...],  # (cycle at v)^m(v) followed by one more step
        rel_cycle_equality: tuple[str, ...],  # the two special cycles through an edge agree
        rel_mixed_products: tuple[str, ...],  # consecutive arrows around different vertices
    ) -> None:
        object.__setattr__(self, "q_vertices", q_vertices)
        object.__setattr__(self, "q_arrows", q_arrows)
        object.__setattr__(self, "rel_cycle_overshoot", rel_cycle_overshoot)
        object.__setattr__(self, "rel_cycle_equality", rel_cycle_equality)
        object.__setattr__(self, "rel_mixed_products", rel_mixed_products)


class DerivedInvariants(Record):
    __slots__ = (
        "n_vertices",
        "n_edges",
        "n_faces",
        "mult_multiset",
        "perimeter_multiset",
        "bipartite",
    )

    def __init__(
        self,
        n_vertices: int,
        n_edges: int,
        n_faces: int,
        mult_multiset: tuple[int, ...],
        perimeter_multiset: tuple[int, ...],
        bipartite: bool,
    ) -> None:
        object.__setattr__(self, "n_vertices", n_vertices)
        object.__setattr__(self, "n_edges", n_edges)
        object.__setattr__(self, "n_faces", n_faces)
        object.__setattr__(self, "mult_multiset", mult_multiset)
        object.__setattr__(self, "perimeter_multiset", perimeter_multiset)
        object.__setattr__(self, "bipartite", bipartite)

    @property
    def genus(self) -> int:
        # a built graph is connected with an edge, so its ribbon surface is
        # closed and orientable and the Euler characteristic is even
        return (2 - (self.n_vertices - self.n_edges + self.n_faces)) // 2


def quiver_presentation(g: BrauerGraph) -> QuiverPresentation:
    """The bound-quiver presentation read off the ribbon structure.

    Vertices are the edges of the graph; each graph vertex v contributes the
    cycle of arrows following its rotation, with three relation families:
    a full v-cycle repeated mult(v) times overshooting by one arrow is zero,
    the two full cycles through a shared edge agree, and a product of two
    consecutive arrows turning around different vertices is zero.
    """
    # cycles[v][i] leaves the i-th dart of v's rotation for the next one
    cycles = [
        [PresArrow(f"a[{v},{i + 1}]", v, eid, rot[(i + 1) % len(rot)][0])
         for i, (eid, _) in enumerate(rot)]
        for v, rot in enumerate(g.rotations)
    ]
    place = _places(g)

    def cycle_power(d: Dart) -> str:
        """The full cycle at d's vertex from d, raised to its multiplicity."""
        v, i = place[d]
        body = " ".join(a.name for a in cycles[v][i:] + cycles[v][:i])
        m = g.multiplicities[v]
        return body if m == 1 else f"({body})^{m}"

    overshoot = [f"{cycle_power(d)} {cycles[v][i].name}" for d, (v, i) in place.items()]
    equality = [
        f"{cycle_power((eid, 0))} - {cycle_power((eid, 1))}"
        for eid, (a, b) in enumerate(g.edges)
        if a != b
    ]
    # the arrow into a dart, then the arrow out of the edge's other dart
    mixed = []
    for (eid, end), (v, i) in place.items():
        a, b = g.edges[eid]
        if a != b:
            u, j = place[(eid, 1 - end)]
            mixed.append(f"{cycles[v][i - 1].name} {cycles[u][j].name}")

    return QuiverPresentation(
        tuple(range(len(g.edges))),
        tuple(a for cyc in cycles for a in cyc),
        tuple(overshoot),
        tuple(equality),
        tuple(sorted(mixed)),
    )


def graph_cartan_matrix(g: BrauerGraph) -> list[list[int]]:
    """Cartan matrix indexed by edges, for simple loopless graphs.

    c = sum over vertices v of m_v a_v a_v^T, a_v the incidence vector of v
    (Schroll, Brauer graph algebras, 2018): each vertex adds its multiplicity
    to c[i][j] for every ordered pair of edges i, j in its rotation.  So the
    diagonal is the sum of the two endpoint multiplicities, an off-diagonal
    entry the multiplicity sum over shared endpoints.
    """
    if len({frozenset(e) for e in g.edges if e[0] != e[1]}) != len(g.edges):
        raise UnsupportedGraphError(
            "Cartan matrix is only defined here for loopless simple graphs"
        )
    ne = len(g.edges)
    c = [[0] * ne for _ in range(ne)]
    for m, rot in zip(g.multiplicities, g.rotations):
        for i, _ in rot:
            row = c[i]
            for j, _ in rot:
                row[j] += m
    return c


def _faces(g: BrauerGraph) -> list[int]:
    """Perimeters of the ribbon faces (dart-walk cycle lengths)."""
    place = _places(g)
    perimeters = []
    unvisited = set(place)
    while unvisited:
        start = min(unvisited)
        dart = start
        length = 0
        while True:
            unvisited.discard(dart)
            length += 1
            eid, end = dart
            v, i = place[(eid, 1 - end)]
            rot = g.rotations[v]
            dart = rot[(i + 1) % len(rot)]
            if dart == start:
                break
        perimeters.append(length)
    return sorted(perimeters)


def derived_invariants(g: BrauerGraph) -> DerivedInvariants:
    perims = _faces(g)
    colour = _colours(g)
    return DerivedInvariants(
        n_vertices=len(g.multiplicities),
        n_edges=len(g.edges),
        n_faces=len(perims),
        mult_multiset=tuple(sorted(g.multiplicities)),
        perimeter_multiset=tuple(perims),
        bipartite=all(colour[a] != colour[b] for a, b in g.edges),
    )


def gamma_family(s: int, a: int, m: int) -> BrauerGraph:
    """The straight line with s+2 vertices, all multiplicity m except the a-th
    (1-based), which has multiplicity 1."""
    if s < 0 or not (1 <= a <= s + 2) or m < 1:
        raise ValueError(f"invalid gamma family parameters s={s}, a={a}, m={m}")
    _check_edges(s + 1)
    mult = [m] * (s + 2)
    mult[a - 1] = 1
    edges = [(i, i + 1) for i in range(s + 1)]
    return BrauerGraph.build(mult, edges)


class DecompResult(Record, uncompared=("searched_nodes",)):
    __slots__ = ("solutions", "unique", "searched_nodes")

    def __init__(
        self,
        solutions: tuple[tuple[tuple[int, ...], ...], ...],  # each: rows, lex-descending
        unique: bool,
        searched_nodes: int = 0,
    ) -> None:
        object.__setattr__(self, "solutions", solutions)
        object.__setattr__(self, "unique", unique)
        object.__setattr__(self, "searched_nodes", searched_nodes)


def decomp_search(c: list[list[int]]) -> DecompResult:
    """All D with D^t D = C, over nonnegative integers, up to row permutation.

    The search space follows the fixed convention: entries are bounded by the
    integer square root of the smallest diagonal entry, rows are nonzero, and
    at most trace(C) rows are used.  Solutions are canonicalized with rows
    sorted lexicographically descending and deduplicated.  More than
    MAX_CANDIDATE_ROWS candidate rows, or MAX_SEARCH_NODES search nodes,
    raise SearchSpaceExceededError, and so does a trace above
    MAX_SEARCH_DEPTH, before the search starts.
    """
    n = len(c)
    if any(len(row) != n for row in c):
        raise ValueError("Cartan matrix must be square")
    if any(c[i][j] != c[j][i] for i in range(n) for j in range(n)):
        raise ValueError("Cartan matrix must be symmetric")
    # D^t D >= 0 for D >= 0; and with C >= 0 a zero entry always extends a
    # candidate prefix, so MAX_CANDIDATE_ROWS bounds the row walk.
    if any(v < 0 for row in c for v in row):
        raise ValueError("Cartan matrix entries must be nonnegative")

    bound = isqrt(min(c[i][i] for i in range(n))) if n else 0
    candidate_rows = _candidate_rows(c, n, bound)
    # The row limit comes first, so a matrix with too many candidate rows
    # keeps that error; the depth limit is checked once, before any node.
    trace = sum(c[i][i] for i in range(n))
    if trace > MAX_SEARCH_DEPTH:
        raise SearchSpaceExceededError(
            f"decomposition search of trace {trace} exceeds the limit "
            f"MAX_SEARCH_DEPTH = {MAX_SEARCH_DEPTH}"
        )
    # The remainder C - sum of r r^t over the rows taken is one copy of c,
    # changed in place.  Each candidate r carries its cells on S x S, for S
    # the support of r, as (remainder row i, j, r[i] r[j]); the cells with
    # i <= j; the remainder rows of S with their diagonal index; and
    # sum r[i]^2.  r r^t fits the remainder if it fits on the cells with
    # i <= j: elsewhere it reads 0 <= an entry of a nonnegative symmetric
    # matrix.
    remaining = [list(row) for row in c]
    candidates = []
    for r in candidate_rows:
        support = [i for i in range(n) if r[i]]
        cells = [(remaining[i], j, r[i] * r[j]) for i in support for j in support]
        upper = [(remaining[i], j, r[i] * r[j]) for i in support for j in support if i <= j]
        support_rows = [(remaining[i], i) for i in support]
        candidates.append((r, cells, upper, support_rows, sum(r[i] * r[i] for i in support)))
    solutions: set[tuple[tuple[int, ...], ...]] = set()
    nodes = 0

    # Every row takes at least 1 from the trace, so no branch is deeper than
    # trace(C) rows: there the trace is 0 and the node returns.
    def backtrack(start: int, changed: list, trace: int, rows: list[tuple[int, ...]]):
        nonlocal nodes
        nodes += 1
        if nodes > MAX_SEARCH_NODES:
            raise SearchSpaceExceededError(
                f"decomposition search exceeded {MAX_SEARCH_NODES} nodes"
            )
        # A positive entry in a row whose diagonal is exhausted is a dead end.
        # Only the rows the last candidate changed need the test: the others
        # are as they were when the parent node passed it.
        for row, i in changed:
            if not row[i] and any(row):
                return
        if not trace:
            solutions.add(tuple(rows))
            return
        for idx in range(start, len(candidates)):
            r, cells, upper, support_rows, square = candidates[idx]
            for row, j, p in upper:
                if p > row[j]:
                    break
            else:
                for row, j, p in cells:
                    row[j] -= p
                rows.append(r)
                backtrack(idx, support_rows, trace - square, rows)
                rows.pop()
                for row, j, p in cells:
                    row[j] += p

    every_row = [(row, i) for i, row in enumerate(remaining)]
    backtrack(0, every_row, trace, [])
    sols = tuple(sorted(solutions))
    return DecompResult(sols, unique=len(sols) == 1, searched_nodes=nodes)


def _candidate_rows(c, n, bound) -> list[tuple[int, ...]]:
    """Nonzero candidate rows in descending lex order, pruned entrywise.

    A depth-first walk with an explicit stack, so n columns cost no Python
    frames.  A frame is (support, column, values): the prefix's nonzero
    (column, value) pairs, the column it fills next, and the positive values
    still to try there, largest first.  The value 0 comes last, as a move to
    the next column where a positive value fits, which is a positive column
    of the support's first row; so a sparse C walks only the columns its rows
    can use.
    """
    rows: list[tuple[int, ...]] = []
    positive = [[j for j, v in enumerate(row) if v] for row in c]
    stack: list = []

    def open_frame(support: tuple[tuple[int, int], ...], j: int) -> None:
        """Push the frame of the first column >= j that a positive value of
        this support fits, or give the finished row when there is none."""
        if not support:
            if j < n:
                stack.append((support, j, iter(range(bound, 0, -1))))
            return
        first = positive[support[0][0]]
        for col in first[bisect_left(first, j):]:
            # v <= bound <= isqrt(c[j][j]), and prefix[i] * v <= c[i][j]
            top = min([bound] + [c[i][col] // p for i, p in support])
            if top:
                stack.append((support, col, iter(range(top, 0, -1))))
                return
        if len(rows) == MAX_CANDIDATE_ROWS:
            raise SearchSpaceExceededError(
                f"decomposition search exceeded {MAX_CANDIDATE_ROWS} candidate rows"
            )
        row = [0] * n
        for i, p in support:
            row[i] = p
        rows.append(tuple(row))

    open_frame((), 0)
    while stack:
        support, col, values = stack[-1]
        v = next(values, 0)
        if v:
            open_frame(support + ((col, v),), col + 1)
        else:
            stack.pop()
            open_frame(support, col + 1)
    return rows
