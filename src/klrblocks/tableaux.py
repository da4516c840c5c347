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
degree of the step, together with the degree generating function of every
shape.  The total dimension sums the squares of those functions over the
shapes of content beta; a pair query runs a DP along nu and along nu' over
the recorded moves, so no standard tableau is ever listed.  The shapes of
content beta alone come from a depth-first search along the same moves,
stopped at the first shape when only existence is asked.

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

from functools import lru_cache

from .cartan import Record, RootVector, alpha_sum

# shapes of content <= beta one lattice or search may reach (gdim on a block
# of 16,113 shapes at e = 4: ~0.5 s, 30 MB)
MAX_LATTICE_SHAPES = 20_000
# lattices kept; one of 16,113 shapes holds about 12 MB, at any e, since a
# shape keeps moves only for the residues it can add
DEGREE_TABLE_CACHE = 4
# charges, so sections per shape (level 1,000 with |beta| = 1: ~0.1 s, 15 MB)
MAX_LEVEL = 1_000

Partition = tuple[int, ...]


class ContentMismatchError(ValueError):
    pass


class EnumerationLimitError(ValueError):
    pass


class Multipartition(Record):
    """An ordered tuple of partitions (weakly decreasing positive rows)."""

    __slots__ = ("components",)

    def __init__(self, components: tuple[Partition, ...]) -> None:
        object.__setattr__(self, "components", components)
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
        raise EnumerationLimitError(
            f"beta = {beta_coeffs} has more than {MAX_LATTICE_SHAPES} shapes "
            "of content <= beta"
        )


def _check_level(level: int) -> None:
    if level > MAX_LEVEL:
        raise EnumerationLimitError(f"level {level} exceeds the limit MAX_LEVEL = {MAX_LEVEL}")


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


def _widened(walk, charges: tuple[int, ...], beta_coeffs: tuple[int, ...], *args):
    """walk(charges, beta_coeffs, h, *args) from h = min(|beta|, 31), again
    at twice the height while it returns None (no shape of content <= beta
    outgrows height |beta|)."""
    size = sum(beta_coeffs)
    h = min(size, 31)
    while (out := walk(charges, beta_coeffs, h, *args)) is None:
        h = min(2 * h, size)
    return out


def _decode(shape: int, empty: int, k: int, h: int) -> tuple[Partition, ...]:
    """The partitions of a shape, component 0 first; only the sections that
    differ from the empty shape are read."""
    width = 2 * h + 2
    comps: list[Partition] = [()] * k
    differ = shape ^ empty
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


def _search(
    charges: tuple[int, ...], beta_coeffs: tuple[int, ...], h: int, first: bool
) -> list[tuple[Partition, ...]] | None:
    """The shape search on sections of height h, or None once a move
    outgrows them."""
    live = [r for r, c in enumerate(beta_coeffs) if c]
    empty, fixed, edge, res = _abacus(charges, set(live), len(beta_coeffs), h)
    outgrown = fixed | edge
    seen = {empty}
    stack = [(empty, tuple(beta_coeffs[r] for r in live))]
    found = []
    while stack:
        shape, rem = stack.pop()
        if not any(rem):
            found.append(shape)
            if first:
                break
            continue
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
    return [_decode(shape, empty, len(charges), h) for shape in found]


def _shapes_of_content(
    charges: tuple[int, ...], beta_coeffs: tuple[int, ...], first: bool = False
) -> list[tuple[Partition, ...]]:
    """Each shape of content beta once (only the first found when first is
    set): a depth-first search from the empty shape that adds only addable
    nodes whose residue beta still owes."""
    _check_level(len(charges))
    return _widened(_search, charges, beta_coeffs, first)


def enumerate_with_content(charges: tuple[int, ...], beta: RootVector) -> list[Multipartition]:
    """All multipartitions with one component per charge whose residue
    multiset equals beta, largest first."""
    shapes = sorted(
        _shapes_of_content(charges, beta.coeffs),
        key=lambda comps: [(sum(p), p) for p in comps],
        reverse=True,
    )
    return [Multipartition(comps) for comps in shapes]


_Moves = list[dict[int, list[tuple[int, int]]]]
_Table = tuple[_Moves, dict[int, dict[int, int]]]


@lru_cache(maxsize=DEGREE_TABLE_CACHE)
def _degree_table(charges: tuple[int, ...], beta_coeffs: tuple[int, ...]) -> _Table:
    """The content lattice of the block: (moves, full).

    Its shapes are those of content <= beta that grow to content beta, with
    integer ids (the empty shape is 0).  moves[id] maps each residue res that
    has a move to the list of (grown id, step degree) for the addable nodes
    of residue res, bottom to top; full maps the id of each shape of content
    beta to the sum of q^deg over its standard tableaux, as {deg: count}.  One
    forward pass over shapes builds it, and one backward pass drops the moves
    into shapes that cannot reach content beta.
    """
    e = len(beta_coeffs)
    if e < 2:
        raise ValueError(f"graded dimensions need e >= 2 (ell >= 1), got e = {e}")
    _check_level(len(charges))
    return _widened(_lattice, charges, beta_coeffs)


def _lattice(charges: tuple[int, ...], beta_coeffs: tuple[int, ...], h: int) -> _Table | None:
    """The content lattice on sections of height h, or None once a move
    outgrows them."""
    e = len(beta_coeffs)
    live = [r for r, c in enumerate(beta_coeffs) if c]
    empty, fixed, edge, res = _abacus(charges, {(r + i) % e for r in live for i in (0, 1)}, e, h)
    steps = [(x, r, res[r], res[(r + 1) % e]) for x, r in enumerate(live)]
    movable, outgrown = ~fixed, fixed | edge
    ids = {empty: 0}
    shapes = [empty]
    owed = [tuple(beta_coeffs[r] for r in live)]
    gf: list[dict[int, int] | None] = [{0: 1}]
    moves: _Moves = []
    # Ids follow discovery, so every move goes from a smaller id to a larger
    # one and a shape's function is complete by the time its id comes up;
    # once pushed along its moves it is dropped unless it has content beta.
    for i, shape in enumerate(shapes):
        rem, own = owed[i], gf[i]
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
            # the addable nodes of residue r below this one come first
            for below in range(bits.bit_count()):
                low = bits & -bits
                bits ^= low
                d = below - (removes & (low - 1)).bit_count()
                grown = shape + low
                j = ids.get(grown)
                if j is None:
                    j = ids[grown] = len(shapes)
                    shapes.append(grown)
                    _check_shapes(len(shapes), beta_coeffs)
                    owed.append(rem[:x] + (rem[x] - 1,) + rem[x + 1 :])
                    gf.append({})
                by_res.append((j, d))
                target = gf[j]
                for deg, count in own.items():
                    target[deg + d] = target.get(deg + d, 0) + count
        moves.append(out)
        if any(rem):
            gf[i] = None
    alive = [not any(rem) for rem in owed]
    for i in range(len(shapes) - 1, -1, -1):
        kept = {}
        for r, by_res in moves[i].items():
            if live_moves := [(j, d) for j, d in by_res if alive[j]]:
                kept[r] = live_moves
        moves[i] = kept
        alive[i] = alive[i] or bool(kept)
    return moves, {i: gf[i] for i, rem in enumerate(owed) if not any(rem)}


def _along(moves: _Moves, nu: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """(shape id, degree) -> number of standard fillings with residue sequence nu."""
    states = {(0, 0): 1}
    for res in nu:
        nxt: dict[tuple[int, int], int] = {}
        for (i, deg), count in states.items():
            for j, d in moves[i].get(res, ()):
                key = (j, deg + d)
                nxt[key] = nxt.get(key, 0) + count
        states = nxt
    return states


def graded_dim(
    charges: tuple[int, ...],
    beta: RootVector,
    nu: tuple[int, ...],
    nu_prime: tuple[int, ...],
) -> LaurentPoly:
    """Graded dimension between the idempotents of residue sequences nu, nu'."""
    e = len(beta.coeffs)
    nu = tuple(r % e for r in nu)
    nu_prime = tuple(r % e for r in nu_prime)
    for seq in (nu, nu_prime):
        if alpha_sum(e, *seq) != beta:
            raise ContentMismatchError(f"residue sequence {seq} has content != beta")
    moves, _ = _degree_table(charges, beta.coeffs)
    left = _along(moves, nu)
    right: dict[int, list[tuple[int, int]]] = {}
    for (j, deg), count in _along(moves, nu_prime).items():
        right.setdefault(j, []).append((deg, count))
    terms: dict[int, int] = {}
    for (j, deg), count in left.items():
        for deg2, count2 in right.get(j, ()):
            terms[deg + deg2] = terms.get(deg + deg2, 0) + count * count2
    return LaurentPoly(terms)


def graded_dim_total(charges: tuple[int, ...], beta: RootVector) -> LaurentPoly:
    """The full graded dimension: sum over shapes of (sum of q^deg)^2."""
    terms: dict[int, int] = {}
    _, full = _degree_table(charges, beta.coeffs)
    for by_deg in full.values():
        for d1, c1 in by_deg.items():
            for d2, c2 in by_deg.items():
                terms[d1 + d2] = terms.get(d1 + d2, 0) + c1 * c2
    return LaurentPoly(terms)


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
    return bool(_shapes_of_content(charges_of(base_coeffs), beta.coeffs, first=True))
