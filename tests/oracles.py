"""Reference implementations that the package's fast paths are tested against.

Each one is the slower construction the package used before its integer
replacement: weight arithmetic on `WeightCoeffs` (pairing, simple roots,
scaling), the sieving class by composition recursion with X from the
closed-form solve, and the weight quiver by testing every label at every
vertex on the cyclic interval.  They share no code with `class_walk`.  The
shapes of a given residue content come from every k-multipartition of |beta|
filtered by content, not from the shape search of `tableaux`.  The command
line is read by the argparse parser that the option table of `cli` replaced.
"""

from __future__ import annotations

import argparse
from functools import lru_cache

from klrblocks.cartan import (
    RootVector,
    WeightCoeffs,
    cyclic_interval,
    interval_delta,
    root_to_weight,
)
from klrblocks.cli import UsageError
from klrblocks.maxweights import LevelKDominant, MaxWeightEntry, ev, solve_x
from klrblocks.quiver import Arrow, LevelTooSmallError, TQuiver, WeightQuiver, move
from klrblocks.tableaux import ChargedShape, Multipartition, Partition, charges_of, content_counts


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


# --- the sieving class and its dominant maximal weights ---


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


def filtered_with_content(
    charges: tuple[int, ...], beta_coeffs: tuple[int, ...]
) -> list[Multipartition]:
    """Every len(charges)-multipartition of |beta| with content beta, in the
    order of `multipartitions`."""
    return [
        mp
        for mp in multipartitions(len(charges), sum(beta_coeffs))
        if content_counts(ChargedShape(mp, charges, len(beta_coeffs))) == beta_coeffs
    ]


def filtered_is_nonzero(base_coeffs: tuple[int, ...], beta_coeffs: tuple[int, ...]) -> bool:
    return bool(filtered_with_content(charges_of(base_coeffs), beta_coeffs))


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
