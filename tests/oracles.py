"""Reference implementations that the package's fast paths are tested against.

Each one is the slower construction the package used before its integer
replacement: weight arithmetic on `WeightCoeffs` (pairing, simple roots,
scaling), the sieving class by composition recursion with X from the
closed-form solve, and the weight quiver by testing every label at every
vertex on the cyclic interval and moving the summands by hand (`move`),
each interval's indicator set index by index from its list of indices
(`cyclic_interval`, `interval_delta`), not sliced from a doubled 0/1
pattern as the package's `interval_delta` is.  They share no code with
`class_walk` or `follow`.  The script sets of the classification come
from the walk that finds each summand's neighbours by stepping along the
occupied list (`nxt`, `prv`) and testing them mod e, not from the one pass
of `classify.script_sets`.  The
shapes of a given residue content come from every k-multipartition of |beta|
filtered by content, not from the shape search of `tableaux`, and the degree
of a tableau step is recounted from every addable and removable node of
every later component (`_d_statistic`).  The content lattice and the shape
search themselves have a reference that keeps each shape as a tuple of
partitions and reads its addable nodes from one bottom-up sweep
(`tuple_degree_table`, `tuple_shapes_of_content`, `_addable_nodes`), not from
the stacked abacus of `tableaux`; on that abacus, the lattice built with a
tuple of owed counts per shape, a backward prune on every lattice and the
total summed step by step (`owed_tuple_lattice`) is the reference for the
one-pass `_lattice`.  The candidate
rows of the decomposition search come from a scan of every value at every
prefix, not from the bound the entries of C set.  The Brauer graph layer is
the one that read the graph once per question: two depth-first walks over
adjacency lists for connectedness and bipartiteness, arrow cycles found by
scanning, and a successor map for the faces; its decomposition search is the
one with a row-count prune and separate all-zero and dead-end scans.  The
command line is read by the argparse parser that the option table of `cli`
replaced, and the output of `maxweights`, `quiver` and `tquiver` is written
by the renderers that read every arrow and weight field by name.  The
`classify` command checks each sign with a generator, adds `--mdelta` even
when it is 0, reads `--t` through `TClass(...)` and writes its JSON from
lists (`classify_output`).

The rest are references the package no longer needs: the materialized Cartan
matrix, the rotation of a coefficient tuple, one simple reflection, the ev
statistic, the closed-form beta sets of the tagged subquiver and the straight
line Brauer graph.

`defect` is the weight of a block, def(beta) = (Lambda, beta) - (beta,
beta)/2.  It checks three layers against theorems instead of against a
predecessor: graded dimensions are palindromes about q^def, a block of
defect 0 has one shape, a nonzero block of defect <= 1 is Finite, and the
defect is constant on Weyl orbits.

The package's `__slots__` records are checked against the frozen dataclasses
they replaced (`Frozen*`; `FrozenArrow` is the `typing.NamedTuple` that
`quiver.Arrow` was).
"""

from __future__ import annotations

import argparse
import json
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
    UnsupportedGraphError,
)
from klrblocks.cartan import (
    LimitError,
    RootVector,
    WeightCoeffs,
    alpha_sum,
    apply_cartan,
    solve_pinned,
)
from klrblocks.classify import (
    MAX_CHAR,
    FieldParams,
    ScriptSets,
    TClass,
    TClassRankError,
    _require_level_3,
    classify,
)
from klrblocks.cli import _LINE_BREAKS, UsageError, _parse_int_vector
from klrblocks.maxweights import MAX_E, LevelKDominant, MaxWeightEntry, solve_x
from klrblocks.quiver import Arrow, LevelTooSmallError, TQuiver, WeightQuiver
from klrblocks.tableaux import (
    Multipartition,
    Partition,
    _abacus,
    _along,
    _check_shapes,
    _field_width,
    charges_of,
)
from klrblocks.weyl import OrbitResult


# --- weight arithmetic ---


def weight_add(mu: WeightCoeffs, nu: WeightCoeffs) -> WeightCoeffs:
    """mu + nu; the two must have the same length."""
    lam = tuple(a + b for a, b in zip(mu.lam, nu.lam, strict=True))
    return WeightCoeffs(lam, mu.delta + nu.delta)


def weight_sub(mu: WeightCoeffs, nu: WeightCoeffs) -> WeightCoeffs:
    """mu - nu; the two must have the same length."""
    lam = tuple(a - b for a, b in zip(mu.lam, nu.lam, strict=True))
    return WeightCoeffs(lam, mu.delta - nu.delta)


def to_weight(base: LevelKDominant) -> WeightCoeffs:
    """A dominant weight on the Lambda/delta basis (delta coefficient 0)."""
    return WeightCoeffs(base.coeffs, 0)


def root_to_weight(beta: tuple[int, ...]) -> WeightCoeffs:
    """Expand sum_i beta_i alpha_i on the Lambda/delta basis.

    The Lambda part is A @ beta and the delta coefficient is beta_0.
    """
    return WeightCoeffs(apply_cartan(beta), beta[0])


def delta_decompose(beta: RootVector) -> tuple[RootVector, int]:
    """Split beta = beta0 + m * delta with min(beta0) = 0 and m = min(beta)."""
    m = min(beta.coeffs)
    return RootVector(tuple(c - m for c in beta.coeffs)), m


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
    return weight_sub(mu, scale(alpha_to_weight(i, len(mu.lam)), pairing(i, mu)))


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


# --- Weyl dominance on weight records ---


def dominate(mu: WeightCoeffs) -> tuple[WeightCoeffs, int]:
    """The dominant weight in the orbit of mu and the length of the shortest
    w with w(mu) dominant, which is the count of any loop that reflects at a
    negative pairing until none is left.  Raises ValueError below level 1.
    """
    k = sum(mu.lam)
    if k < 1:
        raise ValueError(f"dominance needs level >= 1, got {k}")
    e = len(mu.lam)
    p = [0] * e
    for a in range(e - 2, -1, -1):
        p[a] = p[a + 1] + mu.lam[a + 1]
    quotients, residues = zip(*(divmod(v, k) for v in p))
    share, extra = divmod(sum(quotients), e)
    spread = [r + k * (share + (n < extra)) for n, r in enumerate(sorted(residues))]
    u = sorted(spread, reverse=True)
    lam = (k - u[0] + u[-1],) + tuple(u[a] - u[a + 1] for a in range(e - 1))
    delta = mu.delta + (sum(v * v for v in p) - sum(v * v for v in u)) // (2 * k)
    diffs = [pa - pb for a, pa in enumerate(p) for pb in p[a + 1:]]
    length = sum([(x - 1) // k if x > 0 else -(x // k) for x in diffs])
    return WeightCoeffs(lam, delta), length


def record_orbit_representative(base: LevelKDominant, beta: RootVector) -> OrbitResult:
    """`weyl.orbit_representative` through weight records: mu = Lambda - beta
    as a `WeightCoeffs`, made dominant by `dominate`, and X expanded from
    Lambda - mu+ and split by `delta_decompose`."""
    if len(beta.coeffs) != len(base.coeffs):
        raise ValueError(
            f"beta has length {len(beta.coeffs)}, the weight {len(base.coeffs)}"
        )
    mu = weight_sub(to_weight(base), root_to_weight(beta.coeffs))
    mu_plus, count = dominate(mu)
    diff = weight_sub(to_weight(base), mu_plus)
    # Expand diff on the alpha basis: the delta coefficient pins x_0.
    x = solve_pinned(diff.lam, diff.delta)
    if any(v < 0 for v in x):
        return OrbitResult(None, 0, count)
    beta0, m = delta_decompose(RootVector(x))
    return OrbitResult(beta0, m, count)


# --- the sieving class and its dominant maximal weights ---


def ev(w: LevelKDominant) -> int:
    """The sieving statistic: sum over i >= 1 of coeffs[i] * i, mod e."""
    return sum(i * c for i, c in enumerate(w.coeffs)) % len(w.coeffs)


def composition_equiv_class(w: LevelKDominant) -> list[LevelKDominant]:
    """The class by recursion over compositions, sorted lexicographically:
    c_2..c_{e-1} free, c_1 in the residue class that restores ev(w) mod e,
    and c_0 the rest of the level."""
    e = len(w.coeffs)
    members, c = [], [0] * e

    def fill(i: int, left: int, need: int) -> None:
        # c holds c_{i+1}, ..., c_{e-1} and zeros below; need is
        # ev(w) - sum_{j>i} j c_j mod e
        if left == 0:  # c_0, ..., c_i are all 0
            if need % e == 0:
                members.append(LevelKDominant(tuple(c)))
            return
        if left == 1:  # the one unit left sits at p = need mod e, if p <= i
            p = need % e
            if p <= i:
                c[p] = 1
                members.append(LevelKDominant(tuple(c)))
                c[p] = 0
            return
        if i == 1:
            for c1 in range(need % e, left + 1, e):
                c[0], c[1] = left - c1, c1
                members.append(LevelKDominant(tuple(c)))
            c[0] = c[1] = 0
            return
        for v in range(left + 1):
            c[i] = v
            fill(i - 1, left - v, need - i * v)
        c[i] = 0

    fill(e - 1, w.level, ev(w))
    members.sort(key=lambda m: m.coeffs)
    return members


class Entry(NamedTuple):
    """A max-weight entry with each of its four facts stored; a
    `MaxWeightEntry` stores the member and x and reads beta and the max
    weight off them."""

    weight: LevelKDominant
    x: tuple[int, ...]
    beta: RootVector
    max_weight: WeightCoeffs


def facts(e) -> Entry:
    """The four facts that the entry `e` reads, stored."""
    return Entry(e.weight, e.x, e.beta, e.max_weight)


def with_facts(q: WeightQuiver) -> WeightQuiver:
    """`q` with each vertex replaced by the `Entry` of its facts."""
    return type(q)(*[
        tuple(map(facts, q.vertices)) if name == "vertices" else getattr(q, name)
        for name in q._fields
    ])


def entry(base: LevelKDominant, member: LevelKDominant, x: tuple[int, ...]) -> Entry:
    """The entry of `member`, its max weight computed as base - sum_i x_i alpha_i."""
    max_weight = weight_sub(to_weight(base), root_to_weight(x))
    return Entry(member, x, RootVector(x), max_weight)


def solver_max_plus(base: LevelKDominant) -> list[Entry]:
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


def cyclic_interval(i: int, j: int, e: int) -> list[int]:
    """The cyclic interval [i, j] = {i, i+1, ..., j} of indices mod e."""
    i, j = i % e, j % e
    if i <= j:
        return list(range(i, j + 1))
    return list(range(0, j + 1)) + list(range(i, e))


def interval_delta(i: int, j: int, e: int) -> tuple[int, ...]:
    """Indicator vector of the cyclic interval [i, j], set index by index."""
    bits = [0] * e
    for h in cyclic_interval(i, j, e):
        bits[h] = 1
    return tuple(bits)


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
    return WeightQuiver(vertices, arrows)


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
    return TQuiver(vertices, arrows, tagmap)


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


# --- the script sets of the classification ---


def walk_script_sets(base: LevelKDominant, char_p: int = 0) -> ScriptSets:
    """Build the finite/tame beta sets of the main classification for `base`.

    Uses the cyclic enumeration i_1 < ... < i_h of occupied indices, with
    i_0 = i_h and i_{h+1} = i_1.
    """
    _require_level_3(base)
    e = len(base.coeffs)
    m = base.coeffs
    occupied = base.support()
    h = len(occupied)

    def nxt(j: int) -> int:
        return occupied[(j + 1) % h]

    def prv(j: int) -> int:
        return occupied[(j - 1) % h]

    finite: set[RootVector] = {RootVector((0,) * e)}
    t1: set[RootVector] = set()
    t2: set[RootVector] = set()
    t3: set[RootVector] = set()
    t4: set[RootVector] = set()
    t5: set[RootVector] = set()

    # alpha_i at a doubled summand is representation-finite
    for i in occupied:
        if m[i] >= 2:
            finite.add(alpha_sum(e, i))

    if h >= 2:
        for j in range(h):
            i, nx = occupied[j], nxt(j)
            if (nx - (i - 1)) % e == 0:  # interval would be all of I
                continue
            beta = RootVector(interval_delta(i, nx, e))
            if m[i] == 1 and m[nx] == 1:
                finite.add(beta)
            elif m[i] == 1 or m[nx] == 1:
                t1.add(beta)

    for j, i in enumerate(occupied):
        before_ok = (prv(j) - (i - 1)) % e != 0
        after_ok = (nxt(j) - (i + 1)) % e != 0
        if e >= 4 and m[i] == 2 and before_ok and after_ok and char_p != 2:
            t2.add(alpha_sum(e, i, i, i - 1, i + 1))
        if e >= 3 and m[i] == 3 and char_p != 3:
            if after_ok:
                t3.add(alpha_sum(e, i, i, i + 1))
            if before_ok:
                t3.add(alpha_sum(e, i, i, i - 1))
        if m[i] == 4 and char_p != 2:
            t4.add(alpha_sum(e, i, i))

    if e >= 3:
        for i in occupied:
            for j in occupied:
                if i != j and m[i] == 2 and m[j] == 2 and (j - i) % e not in (1, e - 1):
                    t5.add(alpha_sum(e, i, j))

    return ScriptSets(
        frozenset(finite),
        (frozenset(t1), frozenset(t2), frozenset(t3), frozenset(t4), frozenset(t5)),
    )


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


def _addable(comp: Partition) -> list[tuple[int, int]]:
    """Addable node positions (row, col), 0-based, of one partition."""
    nodes = []
    for r, width in enumerate(comp):
        if r == 0 or comp[r - 1] > width:
            nodes.append((r, width))
    nodes.append((len(comp), 0))
    return nodes


def _removable(comp: Partition) -> list[tuple[int, int]]:
    """Removable node positions (row, col), 0-based, of one partition."""
    return [
        (r, width - 1)
        for r, width in enumerate(comp)
        if r + 1 == len(comp) or comp[r + 1] < width
    ]


def _res(charges: tuple[int, ...], e: int, s: int, r: int, c: int) -> int:
    """Residue of 0-based node (component s, row r, column c)."""
    return (charges[s] + c - r) % e


def _d_statistic(
    components: tuple[Partition, ...],
    charges: tuple[int, ...],
    e: int,
    node: tuple[int, int, int],
) -> int:
    """Addable minus removable nodes of the node's residue strictly below it."""
    s, r, c = node
    omega = _res(charges, e, s, r, c)
    total = 0
    for s2 in range(s, len(components)):
        comp = components[s2]
        for r2, c2 in _addable(comp):
            if (s2 > s or r2 > r) and _res(charges, e, s2, r2, c2) == omega:
                total += 1
        for r2, c2 in _removable(comp):
            if (s2 > s or r2 > r) and _res(charges, e, s2, r2, c2) == omega:
                total -= 1
    return total


def defect(lam: tuple[int, ...], beta: tuple[int, ...]) -> int:
    """def(beta) = (Lambda, beta) - (beta, beta)/2 for the symmetrised affine
    Cartan form; lam holds Lambda's fundamental-weight coefficients."""
    pairing = sum(l * b for l, b in zip(lam, beta))
    return pairing - sum(b * cb for b, cb in zip(beta, apply_cartan(beta))) // 2


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


# --- the content lattice on tuples of partitions ---


def _addable_nodes(
    components: tuple[Partition, ...], charges: tuple[int, ...], e: int
) -> list[tuple[int, int, int, int]]:
    """Each addable node as (component, row, residue, degree), top to bottom.

    The degree of adding a node is the number of addable minus removable
    nodes of its residue strictly below it in the grown shape.  One
    bottom-up sweep keeps that count per residue.  It may be read off the
    shape before the node is added: adding a node changes only its four
    neighbours, whose residues differ from its own when e >= 2.
    """
    below = [0] * e
    nodes = []
    for s in range(len(components) - 1, -1, -1):
        comp, charge = components[s], charges[s]
        res = (charge - len(comp)) % e
        nodes.append((s, len(comp), res, below[res]))
        below[res] += 1
        for r in range(len(comp) - 1, -1, -1):
            width = comp[r]
            if r == 0 or comp[r - 1] > width:
                res = (charge + width - r) % e
                nodes.append((s, r, res, below[res]))
                below[res] += 1
            if r + 1 == len(comp) or comp[r + 1] < width:
                below[(charge + width - 1 - r) % e] -= 1
    nodes.reverse()
    return nodes


def _grow(components: tuple[Partition, ...], s: int, r: int) -> tuple[Partition, ...]:
    """The shape with one node added at the end of row r of component s."""
    comp = components[s]
    if r == len(comp):
        new = comp + (1,)
    else:
        new = comp[:r] + (comp[r] + 1,) + comp[r + 1 :]
    return components[:s] + (new,) + components[s + 1 :]


def tuple_shapes_of_content(
    charges: tuple[int, ...], beta_coeffs: tuple[int, ...]
) -> list[tuple[Partition, ...]]:
    """Each shape of content beta once, in the order a depth-first search
    from the empty shape finds them; it adds only addable nodes whose residue
    beta still owes, and pushes them top to bottom."""
    e, k = len(beta_coeffs), len(charges)
    empty = ((),) * k
    seen = {empty}
    stack = [(empty, beta_coeffs)]
    found = []
    while stack:
        comps, rem = stack.pop()
        if not any(rem):
            found.append(comps)
            continue
        for s, r, res, _ in _addable_nodes(comps, charges, e):
            if rem[res] == 0:
                continue
            grown = _grow(comps, s, r)
            if grown not in seen:
                seen.add(grown)
                stack.append((grown, rem[:res] + (rem[res] - 1,) + rem[res + 1 :]))
    return found


def tuple_degree_table(
    charges: tuple[int, ...], beta_coeffs: tuple[int, ...]
) -> tuple[list[list[list[tuple[int, int]]]], dict[int, dict[int, int]]]:
    """The content lattice with one tuple of partitions per shape: (moves,
    full), where moves[id][res] lists (grown id, step degree) for the
    addable nodes of residue res, top to bottom, and full maps the id of each
    shape of content beta to its {degree: number of standard tableaux}."""
    e = len(beta_coeffs)
    empty = ((),) * len(charges)
    ids = {empty: 0}
    shapes = [empty]
    owed = [beta_coeffs]
    gf: list[dict[int, int] | None] = [{0: 1}]
    moves: list[list[list[tuple[int, int]]]] = []
    for i, comps in enumerate(shapes):
        rem, own = owed[i], gf[i]
        out: list[list[tuple[int, int]]] = [[] for _ in range(e)]
        for s, r, res, d in _addable_nodes(comps, charges, e):
            if rem[res] == 0:
                continue
            grown = _grow(comps, s, r)
            j = ids.get(grown)
            if j is None:
                j = ids[grown] = len(shapes)
                shapes.append(grown)
                owed.append(rem[:res] + (rem[res] - 1,) + rem[res + 1 :])
                gf.append({})
            out[res].append((j, d))
            target = gf[j]
            for deg, count in own.items():
                target[deg + d] = target.get(deg + d, 0) + count
        moves.append(out)
        if any(rem):
            gf[i] = None
    alive = [not any(rem) for rem in owed]
    for i in range(len(shapes) - 1, -1, -1):
        moves[i] = [[(j, d) for j, d in by_res if alive[j]] for by_res in moves[i]]
        alive[i] = alive[i] or any(moves[i])
    return moves, {i: gf[i] for i, rem in enumerate(owed) if not any(rem)}


def tuple_graded_dim(
    charges: tuple[int, ...], beta_coeffs: tuple[int, ...], nu: tuple[int, ...], nu_prime: tuple[int, ...]
) -> dict[int, int]:
    """The graded dimension between e(nu) and e(nu') from `tuple_degree_table`
    by a DP along each sequence, as {degree: coefficient} without zeros."""
    moves, _ = tuple_degree_table(charges, beta_coeffs)

    def along(seq):
        states = {(0, 0): 1}
        for res in seq:
            nxt: dict[tuple[int, int], int] = {}
            for (i, deg), count in states.items():
                for j, d in moves[i][res]:
                    nxt[(j, deg + d)] = nxt.get((j, deg + d), 0) + count
            states = nxt
        return states

    # the right-hand states grouped by end shape, so each left-hand state
    # meets only the states of its own shape
    right: dict[int, list[tuple[int, int]]] = {}
    for (j, deg), count in along(nu_prime).items():
        right.setdefault(j, []).append((deg, count))
    terms: dict[int, int] = {}
    for (j, deg), count in along(nu).items():
        for deg2, count2 in right.get(j, ()):
            terms[deg + deg2] = terms.get(deg + deg2, 0) + count * count2
    return {d: c for d, c in terms.items() if c}


def owed_tuple_lattice(
    charges: tuple[int, ...], beta_coeffs: tuple[int, ...], h: int
) -> tuple[list[dict[int, list[tuple[int, int]]]], list[tuple[int, tuple[int, int]]], int] | None:
    """`tableaux._lattice` as it was before its one-pass form: what a shape
    still owes is a tuple rebuilt for every new shape, the backward prune
    runs on every lattice, and the total is `_along` offered every owed
    residue at each of the |beta| steps.  The same (moves, full, width) on
    the stacked abacus of section height h, or None once a move outgrows it."""
    e = len(beta_coeffs)
    live = [r for r, c in enumerate(beta_coeffs) if c]
    empty, fixed, edge, res = _abacus(charges, {(r + i) % e for r in live for i in (0, 1)}, e, h)
    steps = [(x, r, res[r], res[(r + 1) % e]) for x, r in enumerate(live)]
    movable, outgrown = ~fixed, fixed | edge
    ids = {empty: 0}
    shapes = [empty]
    owed = [tuple(beta_coeffs[r] for r in live)]
    moves: list[dict[int, list[tuple[int, int]]]] = []
    for i, shape in enumerate(shapes):
        rem = owed[i]
        add = shape & ~(shape >> 1)
        removable = shape & ~(shape << 1) & movable
        out: dict[int, list[tuple[int, int]]] = {}
        for x, r, adds, removes in steps:
            bits = add & adds if rem[x] else 0
            if not bits:
                continue
            if bits & outgrown:
                return None
            removes &= removable
            out[r] = by_res = []
            for below in range(bits.bit_count()):
                low = bits & -bits
                bits ^= low
                grown = shape + low
                j = ids.get(grown)
                if j is None:
                    j = ids[grown] = len(shapes)
                    shapes.append(grown)
                    _check_shapes(len(shapes), beta_coeffs)
                    owed.append(rem[:x] + (rem[x] - 1,) + rem[x + 1 :])
                by_res.append((j, below - (removes & (low - 1)).bit_count()))
        moves.append(out)
    alive = [not any(rem) for rem in owed]
    for i in range(len(shapes) - 1, -1, -1):
        kept = {}
        for r, by_res in moves[i].items():
            if live_moves := [(j, d) for j, d in by_res if alive[j]]:
                kept[r] = live_moves
        moves[i] = kept
        alive[i] = alive[i] or bool(kept)
    width = _field_width(len(charges), sum(beta_coeffs) - sum(owed[-1]))
    full = _along(moves, [live] * sum(beta_coeffs), width) if alive[0] else {}
    return moves, [(shapes[i], f) for i, f in full.items()], width


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
                    raise LimitError(
                        "decomposition search", "MAX_CANDIDATE_ROWS", brauer.MAX_CANDIDATE_ROWS
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
    return DerivedInvariants(
        len(g.edges), tuple(sorted(g.multiplicities)), tuple(_faces(g)), _is_bipartite(g)
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
            raise LimitError("decomposition search", "MAX_SEARCH_NODES", brauer.MAX_SEARCH_NODES)
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
    return DecompResult(sols, nodes)


# --- the records as frozen dataclasses ---
#
# Each has the fields, defaults and checks of the package record it is named
# after; `searched_nodes` is left out of comparison as before.  Their field
# values are whatever the caller passes, so the same values can build both.


@dataclass(frozen=True)
class FrozenWeightCoeffs:
    lam: tuple[int, ...]
    delta: int


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
            raise LimitError(f"e = {len(self.coeffs)}", "MAX_E", MAX_E)
        if min(self.coeffs) < 0:
            raise ValueError(f"coefficients must be nonnegative, got {self.coeffs}")
        if sum(self.coeffs) < 1:
            raise ValueError("level must be >= 1")


@dataclass(frozen=True)
class FrozenMaxWeightEntry:
    weight: LevelKDominant
    x: tuple[int, ...]


class FrozenArrow(NamedTuple):
    src: int
    dst: int
    label: tuple[int, int]


@dataclass(frozen=True)
class FrozenWeightQuiver:
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
            raise LimitError(f"char_p = {self.char_p}", "MAX_CHAR", MAX_CHAR)
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
    n_edges: int
    mult_multiset: tuple[int, ...]
    perimeter_multiset: tuple[int, ...]
    bipartite: bool


@dataclass(frozen=True)
class FrozenDecompResult:
    solutions: tuple[tuple[tuple[int, ...], ...], ...]
    searched_nodes: int = field(compare=False)


# --- the class commands' output, written field by field ---
#
# The renderers of `cli` before they read the arrows as plain tuples and named
# each entry of `maxweights` once: every arrow field is read by name and
# every weight name is built part by part, the max weight's from
# `max_weight.lam`.


def weight_name(coeffs: tuple[int, ...]) -> str:
    """A dominant weight the way the figures write it, e.g. '2Λ0+Λ2'."""
    parts = []
    for i, c in enumerate(coeffs):
        if c == 1:
            parts.append(f"Λ{i}")
        elif c >= 2:
            parts.append(f"{c}Λ{i}")
    return "+".join(parts) if parts else "0"


def vec_text(x) -> str:
    return "(" + ",".join(str(v) for v in x) + ")"


def _tag_suffix(q: WeightQuiver, vid: int) -> str:
    tags = q.tags.get(vid) if isinstance(q, TQuiver) else None
    return " [" + ",".join(str(s) for s in sorted(tags)) + "]" if tags else ""


def maxweights_output(base: LevelKDominant, entries: list[Entry], fmt: str) -> str:
    """The stdout of `maxweights --format fmt` on `base` with these entries."""
    if fmt == "json":
        data = [
            {
                "weight": list(e.weight.coeffs),
                "x": list(e.x),
                "beta": list(e.beta.coeffs),
                "max_weight": {"lam": list(e.max_weight.lam), "delta": e.max_weight.delta},
            }
            for e in entries
        ]
        ell = len(base.coeffs) - 1
        return json.dumps({"ell": ell, "base": list(base.coeffs), "entries": data}) + "\n"
    lines = []
    for e in entries:
        mw = weight_name(e.max_weight.lam)
        d = e.max_weight.delta
        mw_str = mw if d == 0 else f"{mw}{d:+d}δ"
        lines.append(
            f"{weight_name(e.weight.coeffs):<24} X={vec_text(e.x):<20} "
            f"beta={vec_text(e.beta.coeffs):<20} max={mw_str}\n"
        )
    return "".join(lines)


def quiver_output(q: WeightQuiver, fmt: str) -> str:
    """The stdout of `quiver` or `tquiver --format fmt` on the quiver `q`."""
    if fmt == "json":
        data = {
            "ell": len(q.base.coeffs) - 1,
            "k": q.base.level,
            "base": list(q.base.coeffs),
            "vertices": [
                {"coeffs": list(v.weight.coeffs), "x": list(v.x), "beta": list(v.beta.coeffs)}
                for v in q.vertices
            ],
            "arrows": [
                {"src": a.src, "dst": a.dst, "label": [a.label[0], a.label[1]]}
                for a in q.arrows
            ],
        }
        if isinstance(q, TQuiver):
            data["tags"] = {str(vid): sorted(tags) for vid, tags in sorted(q.tags.items())}
        return json.dumps(data) + "\n"
    if fmt == "dot":
        lines = ["digraph quiver {", "  rankdir=LR;"]
        for vid, v in enumerate(q.vertices):
            label = weight_name(v.weight.coeffs) + _tag_suffix(q, vid)
            lines.append(f'  v{vid} [label="{label}"];')
        for a in q.arrows:
            lines.append(f'  v{a.src} -> v{a.dst} [label="({a.label[0]},{a.label[1]})"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    lines = []
    for vid, v in enumerate(q.vertices):
        name = weight_name(v.weight.coeffs) + _tag_suffix(q, vid)
        lines.append(f"{vid}: {name} X={vec_text(v.x)}\n")
    for a in q.arrows:
        lines.append(f"{a.src} -> {a.dst} ({a.label[0]},{a.label[1]})\n")
    return "".join(lines)


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


# --- the classify command, with generator sign checks and a TClass lookup ---

PARSER = build_parser()

T_ALIASES = {"2": "two", "-2": "minustwo", "sign": "signell"}


def weight_from_args(args) -> LevelKDominant:
    coeffs = _parse_int_vector(args.weight, args.ell + 1, "weight")
    if any(c < 0 for c in coeffs):
        raise UsageError("--weight: coefficients must be nonnegative")
    return LevelKDominant(coeffs)


def beta_from_args(args) -> RootVector:
    coeffs = _parse_int_vector(args.beta, args.ell + 1, "beta")
    if any(c < 0 for c in coeffs):
        raise UsageError("--beta: coefficients must be nonnegative")
    coeffs = tuple(c + args.mdelta for c in coeffs)
    if any(c < 0 for c in coeffs):
        raise UsageError("--mdelta: beta + mdelta*delta has a negative coefficient")
    return RootVector(coeffs)


def t_class_from_args(args) -> TClass:
    key = args.t.lower()
    try:
        return TClass(T_ALIASES.get(key, key))
    except ValueError:
        raise UsageError(f"--t: unknown class {args.t!r}") from None


def classify_output(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of `klrblocks classify` with the
    options `argv`, read by the argparse parser; JSON is written from lists."""
    try:
        args = PARSER.parse_args(["classify", *argv])
        base = weight_from_args(args)
        beta = beta_from_args(args)
        params = FieldParams(char_p=args.char, t_class=t_class_from_args(args))
        try:
            result = classify(base, beta, params)
        except TClassRankError as exc:
            raise UsageError(str(exc)) from exc
    except UsageError as exc:
        return 2, "", f"usage error: {str(exc).translate(_LINE_BREAKS)}\n"
    except (ValueError, RuntimeError) as exc:
        return 1, "", f"error: {str(exc).translate(_LINE_BREAKS)}\n"
    if args.format == "json":
        data = {"ell": args.ell, "base": list(base.coeffs), "beta": list(beta.coeffs),
                "char": args.char, "t": args.t, "type": str(result)}
        return 0, json.dumps(data) + "\n", ""
    return 0, f"{result}\n", ""
