"""Charged multipartition combinatorics and graded block dimensions.

The graded dimension between two idempotents e(nu), e(nu') of a block with
content beta is the sum over multipartitions with that residue content and
over pairs of standard tableaux with residue sequences nu, nu' of
q^(deg S + deg T) (the Brundan-Kleshchev graded dimension formula).  Degrees
are the usual addable-minus-removable statistics accumulated along the growth
sequence of a tableau.

These sums are read from a content lattice instead of a list of tableaux:
one forward pass over the shapes of content <= beta records, for each shape
and each addable node whose residue beta still owes, the grown shape and the
degree of the step.  Ids follow size, so every move goes from a smaller id
to a larger one, and one pass in id order adds up the degree generating
function of every shape of content beta, whose squares sum to the total
dimension.  A DP along the moves (_along) offered one residue sequence
gives the function of each shape a filling with that sequence reaches; a
pair query sums the products of the functions of nu and of nu' over the
shapes both reach.  The last few walks are cached by block and sequence
(_walk), so the two orders of a pair, and nu = nu', walk each sequence
once.  No standard tableau is ever listed, and the shapes of content beta
are read off the same lattice.
Nonvanishing is a depth-first search along such moves that stops at the
first shape of content beta.

A degree generating function is a pair (packed, low): one int holding the
coefficient of q^(low + i) in its i-th field of a fixed number of bits, wide
enough that no coefficient reaches the next field (_field_width).  Adding
two functions is one int addition after a shift that lines up their lowest
degrees, multiplying by q^d changes low only, and a product is one int
product; a LaurentPoly is read off the result only at the end of a query.
The width grows with the number of nodes, so it is worked out from the
largest shape the walk built, not from |beta| as given.

Each shape is one integer, a stacked abacus.  Component s owns a section of
2h + 2 bits, component 0 the highest, and the bead of row a (for rows 0..h)
sits at bit h - a + lambda_a of its section, so a lower bit is always lower
in the stacked picture.  Adding a node moves a bead up one bit.  The degree
of the step counts the addable minus the removable nodes of its residue on
lower bits, read with one mask of bits per residue.  h starts at
min(|beta|, 31).  A move that would outgrow it (a bead onto a section's top
bit, or a row-h bead moving) starts the walk again at twice the height, at
most |beta|; discovery order does not depend on h, so that changes no
outcome.  The level is bounded by MAX_LEVEL before any shape is built.

The residue of the node in row a, column b of the s-th component is
charge_s + b - a mod e.  Components with smaller index sit above components
with larger index; "below" always refers to this stacked picture.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from math import factorial

from .cartan import LimitError, Record, RootVector, alpha_sum, elide

# shapes of content <= beta one lattice or search may reach (gdim on
# 4 Lambda_0 with beta = (3, 3, 3, 3), 16,113 shapes at e = 4: 0.16-0.25 s
# and 27 MB peak RSS as a CLI process on a 2-vCPU VM)
MAX_LATTICE_SHAPES = 20_000
# lattices kept; that one holds about 10 MB (tracemalloc), at any e, since a
# shape keeps moves only for the residues it can add
DEGREE_TABLE_CACHE = 4
# residue-sequence walks kept (_walk): the four sequences of two pair
# queries of a block, each asked in both orders.  A walk holds at most one
# state per shape of content beta, none wider than that shape's function in
# the lattice, so a full cache holds at most WALK_CACHE times those
# functions: 9.9 MB on Lambda_0 at e = 2 with beta = 14 delta, the block
# found whose functions are the largest (2.5 MB), and 1.5 MB on the 18,587
# shapes of 4 Lambda_0 with beta = (3, 3, 3, 4).  Filled with the widest
# walks of 400 random tableau sequences, it held 5.7 MB and 0.6 MB there
# (tracemalloc).  A table of pair queries wider than the cache walks each
# column again on each row.
WALK_CACHE = 4
# charges, so sections per shape (level 1,000 with |beta| = 1: 0.06 s and
# 18 MB peak RSS as a CLI process)
MAX_LEVEL = 1_000

Partition = tuple[int, ...]


class ContentMismatchError(ValueError):
    pass


class Multipartition(Record):
    """An ordered tuple of partitions (weakly decreasing positive rows)."""

    __slots__ = ("components",)

    def __init__(self, components: tuple[Partition, ...]) -> None:
        Record.__init__(self, components)
        for comp in components:
            if any(a < b for a, b in zip(comp, comp[1:])) or any(
                r <= 0 for r in comp
            ):
                raise ValueError(f"not a partition: {comp}")


class LaurentPoly:
    """Integer Laurent polynomial in q: {exponent: coefficient}, zero terms dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, int] | None = None) -> None:
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def at_one(self) -> int:
        """Evaluation at q = 1 (a tableau-pair count, hence nonnegative here)."""
        return sum(self.terms.values())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms):
            c = self.terms[exp]
            if exp == 0:
                body = str(abs(c))
            else:
                if exp == 1:
                    qp = "q"
                elif exp > 0:
                    qp = f"q^{exp}"
                else:
                    qp = f"q^{{{exp}}}"
                body = qp if abs(c) == 1 else f"{abs(c)}{qp}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    __repr__ = __str__


def _check_shapes(count: int, beta_coeffs: tuple[int, ...]) -> None:
    if count > MAX_LATTICE_SHAPES:
        what = f"the count of shapes of content <= beta = {elide(beta_coeffs)}"
        raise LimitError(what, "MAX_LATTICE_SHAPES", MAX_LATTICE_SHAPES)


def _check_level(level: int) -> None:
    if level > MAX_LEVEL:
        raise LimitError(f"level {level}", "MAX_LEVEL", MAX_LEVEL)


def _check_e(e: int) -> None:
    if e < 2:
        raise ValueError(f"graded dimensions need e >= 2 (ell >= 1), got e = {e}")


def _abacus(
    charges: tuple[int, ...], residues: set[int], e: int, h: int
) -> tuple[int, int, int, dict[int, int]]:
    """(empty, fixed, edge, res) on the stacked abacus of section height h.

    empty is the empty shape, fixed holds the row-h beads and edge the bit
    below each section's top bit.  res[r], for each r in residues, holds the
    bits whose bead adds a node of residue r when it moves up; a bead in
    res[r + 1] can remove one of residue r.
    """
    width = 2 * h + 2
    fixed = ((1 << width * len(charges)) - 1) // ((1 << width) - 1)
    res = {}
    for r in residues:
        section = {c: sum(1 << p for p in range((r - c + h) % e, width, e)) for c in set(charges)}
        mask = 0
        for c in charges:
            mask = mask << width | section[c]
        res[r] = mask
    return ((1 << h + 1) - 1) * fixed, fixed, fixed << 2 * h, res


def _widened(walk, charges: tuple[int, ...], beta_coeffs: tuple[int, ...]):
    """walk(charges, beta_coeffs, h) from h = min(|beta|, 31), again at twice
    the height while it returns None (no shape of content <= beta outgrows
    height |beta|)."""
    size = sum(beta_coeffs)
    h = min(size, 31)
    while (out := walk(charges, beta_coeffs, h)) is None:
        h = min(2 * h, size)
    return out


def _decode(shape: int, k: int) -> tuple[Partition, ...]:
    """The partitions of a shape of k sections, component 0 first.  Every
    section holds h + 1 beads, so the bead count gives the height h; only
    the sections that differ from the empty shape are read."""
    h = shape.bit_count() // k - 1 if k else 0
    width = 2 * h + 2
    comps: list[Partition] = [()] * k
    differ = shape ^ ((1 << h + 1) - 1) * (((1 << width * k) - 1) // ((1 << width) - 1))
    while differ:
        s = (differ.bit_length() - 1) // width
        section, rows = shape >> s * width, []
        for p in range(width - 1, -1, -1):
            if section >> p & 1:
                if p - h + len(rows) == 0:
                    break
                rows.append(p - h + len(rows))
        comps[k - 1 - s] = tuple(rows)
        differ &= (1 << s * width) - 1
    return tuple(comps)


def _search(charges: tuple[int, ...], beta_coeffs: tuple[int, ...], h: int) -> bool | None:
    """Whether a shape of content beta exists, by a depth-first search on
    sections of height h that adds only nodes whose residue beta still owes
    and stops at the first such shape; None once a move outgrows them."""
    live = [r for r, c in enumerate(beta_coeffs) if c]
    empty, fixed, edge, res = _abacus(charges, set(live), len(beta_coeffs), h)
    outgrown = fixed | edge
    seen = {empty}
    stack = [(empty, tuple(beta_coeffs[r] for r in live))]
    while stack:
        shape, rem = stack.pop()
        if not any(rem):
            return True
        add = shape & ~(shape >> 1)
        steps = []
        for x, r in enumerate(live):
            bits = add & res[r] if rem[x] else 0
            while bits:
                low = bits & -bits
                bits ^= low
                steps.append((low, x))
        # pushed top to bottom, so the lowest node is grown first
        for low, x in sorted(steps, reverse=True):
            if low & outgrown:
                return None
            grown = shape + low
            if grown not in seen:
                seen.add(grown)
                _check_shapes(len(seen), beta_coeffs)
                stack.append((grown, rem[:x] + (rem[x] - 1,) + rem[x + 1 :]))
    return False


def enumerate_with_content(charges: tuple[int, ...], beta: RootVector) -> list[Multipartition]:
    """All multipartitions with one component per charge whose residue
    multiset equals beta, largest first: the shapes of content beta of the
    block's content lattice."""
    shapes = sorted(
        (_decode(shape, len(charges)) for shape, _ in _degree_table(charges, beta.coeffs)[1]),
        key=lambda comps: [(sum(p), p) for p in comps],
        reverse=True,
    )
    return [Multipartition._trusted(comps) for comps in shapes]


_Moves = list[dict[int, list[tuple[int, int]]]]
# a degree generating function: (packed, low) stands for the polynomial whose
# coefficient of q^(low + i) is field i of packed (see _field_width)
_Packed = tuple[int, int]
# (moves, full, width): see _degree_table
_Table = tuple[_Moves, list[tuple[int, _Packed]], int]
# memoryview formats of the native unsigned ints, by size in bytes: they
# read the fields of a little-endian to_bytes on little-endian machines
_FIELD_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _field_width(level: int, size: int) -> int:
    """Bits per degree field of a packed function of a block of this level
    and |beta| = size: 8, 16, 32 or 64, so that _poly reads the fields as
    native unsigned ints, or past 64 a whole number of bytes.

    Every coefficient that a shape's function, a pair answer or the total
    holds, or passes through while it is summed, counts pairs of standard
    tableaux of shapes with at most `size` nodes (or single tableaux, fewer),
    so it is at most the sum of (f^lambda)^2 over the level-tuples of
    partitions of size, which is level**size * size!, the dimension of the
    Ariki-Koike algebra.  No coefficient reaches 2**width, so no field ever
    carries into the next and one int add, shift or product acts on all of
    them at once (Kronecker substitution).
    """
    bits = (level**size * factorial(size)).bit_length() + 1
    return next((w for w in (8, 16, 32, 64) if bits <= w), (bits + 7) // 8 * 8)


def _poly(packed: int, low: int, width: int) -> LaurentPoly:
    """The LaurentPoly of a packed function, read in one to_bytes call."""
    size = width // 8
    data = packed.to_bytes((packed.bit_length() + width - 1) // width * size, "little")
    if size in _FIELD_FORMATS and sys.byteorder == "little":
        fields = memoryview(data).cast(_FIELD_FORMATS[size])
    else:
        fields = (int.from_bytes(data[at : at + size], "little") for at in range(0, len(data), size))
    return LaurentPoly({low + i: c for i, c in enumerate(fields) if c})


@lru_cache(maxsize=DEGREE_TABLE_CACHE)
def _degree_table(charges: tuple[int, ...], beta_coeffs: tuple[int, ...]) -> _Table:
    """The content lattice of the block: (moves, full, width).

    Its shapes are those of content <= beta that grow to content beta, with
    integer ids (the empty shape is 0).  moves[id] maps each residue res that
    has a move to the list of (grown id, step degree) for the addable nodes
    of residue res, bottom to top; full pairs each shape of content beta (its
    abacus integer) with the sum of q^deg over its standard tableaux, packed
    as (packed, low) with fields of width bits.  One forward pass over
    shapes builds the moves; only where it meets a dead end (a shape with no
    move that still owes a node) does a backward pass drop the moves into
    shapes that cannot reach content beta.  One pass in id order then adds
    up the functions (_full_functions).  At e < 2 only the shapes of full
    mean anything.
    """
    _check_level(len(charges))
    return _widened(_lattice, charges, beta_coeffs)


def _lattice(charges: tuple[int, ...], beta_coeffs: tuple[int, ...], h: int) -> _Table | None:
    """The content lattice on sections of height h, or None once a move
    outgrows them."""
    e = len(beta_coeffs)
    live = [r for r, c in enumerate(beta_coeffs) if c]
    empty, fixed, edge, res = _abacus(charges, {(r + i) % e for r in live for i in (0, 1)}, e, h)
    # What a shape still owes of beta is one int, field x of `bits` bits
    # holding the count of residue live[x]: a step subtracts `one`, and the
    # shape owes r while its field is not 0.
    bits = max(beta_coeffs, default=0).bit_length()
    mask = (1 << bits) - 1
    steps = [(r, 1 << bits * x, mask << bits * x, res[r], res[(r + 1) % e]) for x, r in enumerate(live)]
    movable, outgrown = ~fixed, fixed | edge
    limit = MAX_LATTICE_SHAPES
    ids = {empty: 0}
    shapes = [empty]
    owed = [sum(beta_coeffs[r] << bits * x for x, r in enumerate(live))]
    moves: _Moves = []
    dead_end = False
    # Ids follow discovery, so every move goes from a smaller id to a larger
    # one, and shapes come up in order of size.
    for i, shape in enumerate(shapes):
        rem = owed[i]
        add = shape & ~(shape >> 1)
        removable = shape & ~(shape << 1) & movable
        out: dict[int, list[tuple[int, int]]] = {}
        for r, one, field, adds, removes in steps:
            if not rem & field:
                continue
            nodes = add & adds
            if not nodes:
                continue
            if nodes & outgrown:
                return None
            removes &= removable
            out[r] = by_res = []
            # the addable nodes of residue r below this one come first
            for below in range(nodes.bit_count()):
                low = nodes & -nodes
                nodes ^= low
                grown = shape + low
                j = ids.get(grown)
                if j is None:
                    j = ids[grown] = len(shapes)
                    shapes.append(grown)
                    if j >= limit:
                        _check_shapes(j + 1, beta_coeffs)
                    owed.append(rem - one)
                by_res.append((j, below - (removes & (low - 1)).bit_count()))
        moves.append(out)
        if not out and rem:
            dead_end = True
    if dead_end:
        # drop the moves into shapes that cannot grow to content beta
        alive = [not rem for rem in owed]
        for i in range(len(shapes) - 1, -1, -1):
            kept = {}
            for r, by_res in moves[i].items():
                if live_moves := [(j, d) for j, d in by_res if alive[j]]:
                    kept[r] = live_moves
            moves[i] = kept
            alive[i] = alive[i] or bool(kept)
    # The last shape is the largest built: it has |beta| nodes whenever a
    # shape has content beta, and fewer than MAX_LATTICE_SHAPES, since each
    # shape's growth sequence is built before it.  So the width is only
    # worked out for sizes the walk reached.
    left = sum(owed[-1] >> bits * x & mask for x in range(len(live)))
    width = _field_width(len(charges), sum(beta_coeffs) - left)
    return moves, _full_functions(moves, shapes, owed, width), width


def _full_functions(
    moves: _Moves, shapes: list[int], owed: list[int], width: int
) -> list[tuple[int, _Packed]]:
    """Each shape of content beta (owing nothing) with the sum of q^deg over
    its standard tableaux, packed at this width.

    Every move goes from a smaller id to a larger one, so one pass in id
    order has added every move into a shape before it leaves that shape.  A
    shape's function is dropped once passed on, so besides the shapes of
    content beta only those of two sizes hold one at a time.  Shapes left
    with no move are skipped: those of content beta, and those the prune cut
    off, which received none.
    """
    funcs: list[_Packed | None] = [None] * len(shapes)
    funcs[0] = (1, 0)
    for i, out in enumerate(moves):
        if not out:
            continue
        f, low = funcs[i]
        funcs[i] = None
        for by_res in out.values():
            for j, d in by_res:
                # a merge shifts the function of higher lowest degree
                if (old := funcs[j]) is None:
                    funcs[j] = f, low + d
                elif (up := low + d - old[1]) >= 0:
                    funcs[j] = old[0] + (f << width * up), old[1]
                else:
                    funcs[j] = (old[0] << -width * up) + f, low + d
    return [(shape, f) for shape, rem, f in zip(shapes, owed, funcs) if not rem]


def _along(moves: _Moves, steps, width: int) -> dict[int, _Packed]:
    """shape id -> the sum of q^deg, packed at this width, over the standard
    fillings whose i-th node has a residue in steps[i]: for a pair query,
    zip(nu), which reaches only the shapes of one size at each step."""
    states = {0: (1, 0)}
    for step in steps:
        nxt: dict[int, _Packed] = {}
        for i, (f, low) in states.items():
            out = moves[i]
            for res in step:
                for j, d in out.get(res, ()):
                    # a merge shifts the function of higher lowest degree
                    if (old := nxt.get(j)) is None:
                        nxt[j] = f, low + d
                    elif (up := low + d - old[1]) >= 0:
                        nxt[j] = old[0] + (f << width * up), old[1]
                    else:
                        nxt[j] = (old[0] << -width * up) + f, low + d
        states = nxt
    return states


def _sum_of_products(pairs: list[tuple[_Packed, _Packed]], width: int) -> LaurentPoly:
    """The sum of the products of the packed functions in each pair.

    Shifted to the lowest degree of all, each product is an int spanning
    every degree below its own, so adding them up costs the number of pairs
    times the spread of their degrees.  Where the spread is the larger, the
    products are added two at a time in degree order, round by round, so an
    int only spans the degrees of the products it holds.
    """
    if not pairs:
        return LaurentPoly()
    lows = [a + b for (_, a), (_, b) in pairs]
    base = min(lows)
    if max(lows) - base <= len(pairs):
        total = sum(f * g << width * (c - base) for ((f, _), (g, _)), c in zip(pairs, lows))
        return _poly(total, base, width)
    terms = sorted((a + b, f * g) for (f, a), (g, b) in pairs)
    while len(terms) > 1:
        merged = [(c, f + (g << width * (d - c))) for (c, f), (d, g) in zip(terms[::2], terms[1::2])]
        terms = merged + terms[2 * len(merged) :]
    return _poly(terms[0][1], base, width)


@lru_cache(maxsize=WALK_CACHE)
def _walk(
    charges: tuple[int, ...], beta_coeffs: tuple[int, ...], nu: tuple[int, ...]
) -> tuple[dict[int, _Packed], int]:
    """(_along the block's lattice offered nu, the lattice's width), for a
    sequence nu already reduced mod e and of content beta.  Every query
    that reuses the walk gets the same dict, so callers only read it.

    Shape ids follow discovery order, which depends on the block alone, so
    a lattice rebuilt after its eviction from _degree_table numbers its
    shapes as before and has the same width: a walk cached before the
    eviction still joins a walk made on the rebuilt lattice.
    """
    moves, _, width = _degree_table(charges, beta_coeffs)
    return _along(moves, zip(nu), width), width


def graded_dim(
    charges: tuple[int, ...],
    beta: RootVector,
    nu: tuple[int, ...],
    nu_prime: tuple[int, ...],
) -> LaurentPoly:
    """Graded dimension between the idempotents of residue sequences nu, nu':
    the sum over the shapes both walks reach of the product of their two
    functions.  Each walk comes from the cache of _walk, keyed by the block
    and the sequence once it is reduced mod e and its content checked, so a
    later query of the block that reuses nu or nu' while its walk is cached
    walks it no more."""
    e = len(beta.coeffs)
    _check_e(e)
    nu = tuple(r % e for r in nu)
    nu_prime = tuple(r % e for r in nu_prime)
    for seq in (nu, nu_prime):
        if alpha_sum(e, *seq) != beta:
            raise ContentMismatchError(f"residue sequence {seq} has content != beta")
    left, width = _walk(charges, beta.coeffs, nu)
    right, _ = _walk(charges, beta.coeffs, nu_prime)
    return _sum_of_products([(f, right[j]) for j, f in left.items() if j in right], width)


def graded_dim_total(charges: tuple[int, ...], beta: RootVector) -> LaurentPoly:
    """The full graded dimension: sum over shapes of (sum of q^deg)^2."""
    _check_e(len(beta.coeffs))
    _, full, width = _degree_table(charges, beta.coeffs)
    return _sum_of_products([(f, f) for _, f in full], width)


def charges_of(base_coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """The canonical (weakly increasing) charge expression of a dominant weight."""
    _check_level(sum(base_coeffs))
    out: list[int] = []
    for i, c in enumerate(base_coeffs):
        out.extend([i] * c)
    return tuple(out)


def block_is_nonzero(base_coeffs: tuple[int, ...], beta: RootVector) -> bool:
    """Whether some multipartition has residue content beta (block nonvanishing).

    Raises ValueError when beta and the weight differ in length.
    """
    if len(beta.coeffs) != len(base_coeffs):
        raise ValueError(
            f"beta has length {len(beta.coeffs)}, the weight {len(base_coeffs)}"
        )
    return _widened(_search, charges_of(base_coeffs), beta.coeffs)
