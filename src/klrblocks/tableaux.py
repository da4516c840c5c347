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

The residue of the node in row a, column b of the s-th component is
charge_s + b - a mod e.  Components with smaller index sit above components
with larger index; "below" always refers to this stacked picture.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from .cartan import Record, RootVector

# shapes of content <= beta one lattice or search may reach (~0.8 s, 20 MB)
MAX_LATTICE_SHAPES = 20_000
DEGREE_TABLE_CACHE = 4  # lattices kept, so at most 4 * MAX_LATTICE_SHAPES shapes

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


def _check_shapes(count: int, beta_coeffs: tuple[int, ...]) -> None:
    if count > MAX_LATTICE_SHAPES:
        raise EnumerationLimitError(
            f"beta = {beta_coeffs} has more than {MAX_LATTICE_SHAPES} shapes "
            "of content <= beta"
        )


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


def _grow(
    components: tuple[Partition, ...], s: int, r: int
) -> tuple[Partition, ...]:
    comp = components[s]
    if r == len(comp):
        new = comp + (1,)
    else:
        new = comp[:r] + (comp[r] + 1,) + comp[r + 1 :]
    return components[:s] + (new,) + components[s + 1 :]


def _shapes_of_content(
    charges: tuple[int, ...], beta_coeffs: tuple[int, ...]
) -> Iterator[tuple[Partition, ...]]:
    """Each shape of content beta once: a depth-first search from the empty
    shape that adds only addable nodes whose residue beta still owes."""
    e, k = len(beta_coeffs), len(charges)
    empty = ((),) * k
    seen = {empty}
    stack = [(empty, beta_coeffs)]
    while stack:
        comps, rem = stack.pop()
        if not any(rem):
            yield comps
            continue
        for s in range(k):
            for r, c in _addable(comps[s]):
                res = _res(charges, e, s, r, c)
                if rem[res] == 0:
                    continue
                grown = _grow(comps, s, r)
                if grown not in seen:
                    seen.add(grown)
                    _check_shapes(len(seen), beta_coeffs)
                    stack.append((grown, rem[:res] + (rem[res] - 1,) + rem[res + 1 :]))


def enumerate_with_content(charges: tuple[int, ...], beta: RootVector) -> list[Multipartition]:
    """All multipartitions with one component per charge whose residue
    multiset equals beta, largest first."""
    shapes = sorted(
        _shapes_of_content(charges, beta.coeffs),
        key=lambda comps: [(sum(p), p) for p in comps],
        reverse=True,
    )
    return [Multipartition(comps) for comps in shapes]


_Moves = list[list[list[tuple[int, int]]]]


@lru_cache(maxsize=DEGREE_TABLE_CACHE)
def _degree_table(
    charges: tuple[int, ...], beta_coeffs: tuple[int, ...]
) -> tuple[_Moves, dict[int, dict[int, int]]]:
    """The content lattice of the block: (moves, full).

    Its shapes are those of content <= beta that grow to content beta, with
    integer ids (the empty shape is 0).  moves[id][res] lists (grown id, step
    degree) for the addable nodes of residue res; full maps the id of each
    shape of content beta to the sum of q^deg over its standard tableaux, as
    {deg: count}.  One forward pass over shapes builds it, and one backward
    pass drops the moves into shapes that cannot reach content beta.
    """
    e, k = len(beta_coeffs), len(charges)
    empty = ((),) * k
    ids = {empty: 0}
    shapes = [empty]
    owed = [beta_coeffs]
    gf: list[dict[int, int] | None] = [{0: 1}]
    moves: _Moves = []
    # Ids follow discovery, so every move goes from a smaller id to a larger
    # one and a shape's function is complete by the time its id comes up;
    # once pushed along its moves it is dropped unless it has content beta.
    for i, comps in enumerate(shapes):
        rem, own = owed[i], gf[i]
        out: list[list[tuple[int, int]]] = [[] for _ in range(e)]
        for s in range(k):
            for r, c in _addable(comps[s]):
                res = _res(charges, e, s, r, c)
                if rem[res] == 0:
                    continue
                grown = _grow(comps, s, r)
                d = _d_statistic(grown, charges, e, (s, r, c))
                j = ids.get(grown)
                if j is None:
                    j = ids[grown] = len(shapes)
                    shapes.append(grown)
                    _check_shapes(len(shapes), beta_coeffs)
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


def residue_content(nu: tuple[int, ...], e: int) -> tuple[int, ...]:
    counts = [0] * e
    for r in nu:
        counts[r % e] += 1
    return tuple(counts)


def _along(moves: _Moves, nu: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """(shape id, degree) -> number of standard fillings with residue sequence nu."""
    states = {(0, 0): 1}
    for res in nu:
        nxt: dict[tuple[int, int], int] = {}
        for (i, deg), count in states.items():
            for j, d in moves[i][res]:
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
        if residue_content(seq, e) != beta.coeffs:
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
    shapes = _shapes_of_content(charges_of(base_coeffs), beta.coeffs)
    return next(shapes, None) is not None
