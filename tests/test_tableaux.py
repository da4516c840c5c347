from __future__ import annotations

import itertools
import math
import os
import random
import resource
import subprocess
import sys
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import klrblocks
from klrblocks import tableaux
from klrblocks.cartan import LimitError, RootVector
from klrblocks.maxweights import LevelKDominant
from klrblocks.tableaux import (
    DEGREE_TABLE_CACHE,
    WALK_CACHE,
    ContentMismatchError,
    LaurentPoly,
    Multipartition,
    Partition,
    _degree_table,
    _walk,
    block_is_nonzero,
    charges_of,
    enumerate_with_content,
    graded_dim,
    graded_dim_total,
)
from klrblocks.weyl import OrbitStatus, orbit_representative

from oracles import (
    _addable,
    _addable_nodes,
    _d_statistic,
    _grow,
    _removable,
    _res,
    defect,
    filtered_is_nonzero,
    filtered_with_content,
    multipartitions,
    owed_tuple_lattice,
    partitions_of,
    residue_counts,
    tuple_degree_table,
    tuple_graded_dim,
    tuple_shapes_of_content,
)


def _tableau_walks(
    charges: tuple[int, ...], e: int, remaining: list[int]
) -> list[tuple[tuple[Partition, ...], tuple[int, ...], int]]:
    """All standard fillings using exactly the prescribed residue counts.

    Returns (final shape, residue sequence, degree) triples.
    """
    k = len(charges)
    results = []
    empty = ((),) * k

    def walk(components, seq, deg):
        if all(v == 0 for v in remaining):
            results.append((components, tuple(seq), deg))
            return
        for s in range(k):
            for r, c in _addable(components[s]):
                res = _res(charges, e, s, r, c)
                if remaining[res] == 0:
                    continue
                remaining[res] -= 1
                grown = _grow(components, s, r)
                d = _d_statistic(grown, charges, e, (s, r, c))
                seq.append(res)
                walk(grown, seq, deg + d)
                seq.pop()
                remaining[res] += 1

    walk(empty, [], 0)
    return results


def poly(*pairs) -> LaurentPoly:
    return LaurentPoly({e: c for e, c in pairs})


def add_terms(total: dict[int, int], f: dict[int, int], g: dict[int, int] | None = None) -> None:
    """total += f, or total += f * g when g is given, on {degree: count} dicts."""
    for d1, c1 in f.items():
        for d2, c2 in (g or {0: 1}).items():
            total[d1 + d2] = total.get(d1 + d2, 0) + c1 * c2


def times(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    terms: dict[int, int] = {}
    add_terms(terms, f.terms, g.terms)
    return LaurentPoly(terms)


def test_partitions_of():
    assert partitions_of(0) == ((),)
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_multipartition_counts():
    assert len(multipartitions(1, 5)) == 7
    assert len(multipartitions(2, 2)) == 5  # (2|-), (11|-), (1|1), (-|2), (-|11)


def test_d_below_examples():
    # (component, row, residue, degree) of each addable node, top to bottom
    assert _addable_nodes(((),), (0,), 2) == [(0, 0, 0, 0)]
    # a second empty component of equal charge hangs an addable node below
    assert _addable_nodes(((), ()), (0, 0), 3) == [(0, 0, 0, 1), (1, 0, 0, 0)]
    # in (1, 1) at e = 3 both addable nodes have residue 1; the removable node
    # between them has residue 2, so only the lower one counts for the upper
    assert _addable_nodes(((1, 1),), (0,), 3) == [(0, 0, 1, 1), (0, 2, 1, 0)]


def test_enumerate_with_content_examples():
    one_node = enumerate_with_content((0,), RootVector((1, 0, 0)))
    assert one_node == [Multipartition(((1,),))]
    # two nodes of residues 0 and 1: only the row, the column has residues 0, ell
    rows = enumerate_with_content((0,), RootVector((1, 1, 0)))
    assert rows == [Multipartition(((2,),))]
    # at e = 2 both shapes carry the full delta content
    both = enumerate_with_content((0,), RootVector((1, 1)))
    assert {mp.components for mp in both} == {((2,),), ((1, 1),)}


def test_shape_limit_bounds_every_public_function(monkeypatch):
    # every public function reads the one content lattice, so each is
    # refused once it passes the limit, on a vanishing block or not: charges
    # (0, 0, 1) have 200 shapes of content <= (6, 2), none of content (6, 2),
    # and 192 shapes of content <= (4, 2), 41 of them of content (4, 2)
    charges = (0, 0, 1)
    for coeffs, nu, count in (((6, 2), (0,) * 6 + (1,) * 2, 0), ((4, 2), (0, 1, 0, 0, 1, 0), 41)):
        beta = RootVector(coeffs)
        calls = [
            lambda: graded_dim(charges, beta, nu, nu),
            lambda: graded_dim_total(charges, beta),
            lambda: enumerate_with_content(charges, beta),
            lambda: block_is_nonzero((2, 1), beta),
        ]
        monkeypatch.setattr(tableaux, "MAX_LATTICE_SHAPES", 150)
        for call in calls:
            with pytest.raises(LimitError, match="exceeds the limit MAX_LATTICE_SHAPES = 150$"):
                call()
        monkeypatch.undo()
        dim, total, shapes, nonzero = (call() for call in calls)
        assert len(shapes) == count
        assert nonzero == bool(dim) == bool(total) == (count > 0)


def test_graded_dim_level3_rank1_block():
    # the three displayed dimensions of the level-3, rank-1 delta block
    charges = charges_of((2, 1))
    delta = RootVector((1, 1))
    assert graded_dim(charges, delta, (0, 1), (0, 1)) == poly((0, 1), (2, 2), (4, 2), (6, 1))
    assert graded_dim(charges, delta, (1, 0), (1, 0)) == poly((0, 1), (2, 1), (4, 1), (6, 1))
    assert graded_dim(charges, delta, (0, 1), (1, 0)) == poly((2, 1), (4, 1))


def test_graded_dim_high_multiplicity_base():
    delta = RootVector((1, 1))
    for k in range(3, 7):
        expected = {0: 1, 2 * k: 1}
        for i in range(1, k):
            expected[2 * i] = 2
        assert graded_dim_total(charges_of((k, 0)), delta) == LaurentPoly(expected)


def test_graded_dim_rank2_cross_terms():
    delta3 = RootVector((1, 1, 1))
    for k in (3, 4):
        charges = charges_of((k, 0, 0))
        cross = graded_dim(charges, delta3, (0, 1, 2), (0, 2, 1))
        assert cross == LaurentPoly({2 * i - 1: 1 for i in range(1, k + 1)})
        diag = graded_dim(charges, delta3, (0, 1, 2), (0, 1, 2))
        expected = {0: 1, 2 * k: 1}
        for i in range(1, k):
            expected[2 * i] = 2
        assert diag == LaurentPoly(expected)


def test_graded_dim_doubled_zero_root():
    q2 = poly((2, 1), (0, 2), (-2, 1))  # (q + 1/q)^2
    five = graded_dim_total(charges_of((5, 0, 0)), RootVector((2, 0, 0)))
    assert five == times(q2, poly((0, 1), (2, 1), (4, 2), (6, 2), (8, 2), (10, 1), (12, 1)))
    four = graded_dim_total(charges_of((4, 0, 0)), RootVector((2, 0, 0)))
    assert four == times(q2, poly((0, 1), (2, 1), (4, 2), (6, 1), (8, 1)))


def test_graded_dim_empty_block():
    assert graded_dim_total((0, 0), RootVector((0, 0))) == poly((0, 1))
    assert graded_dim((0,), RootVector((0, 0)), (), ()) == poly((0, 1))


def test_graded_dim_symmetry_and_charge_invariance():
    rng = random.Random(41)
    for _ in range(25):
        ell = rng.randrange(1, 4)
        e = ell + 1
        k = rng.randrange(1, 4)
        base = [0] * e
        for _ in range(k):
            base[rng.randrange(e)] += 1
        charges = charges_of(tuple(base))
        beta = RootVector(tuple(rng.randrange(0, 2) for _ in range(e)))
        if beta.height == 0 or beta.height > 5:
            continue
        seqs = [
            nu
            for nu in itertools.permutations(
                [i for i in range(e) for _ in range(beta.coeffs[i])]
            )
        ]
        seqs = sorted(set(seqs))[:4]
        for nu, nup in itertools.product(seqs, repeat=2):
            d1 = graded_dim(charges, beta, nu, nup)
            assert d1 == graded_dim(charges, beta, nup, nu)
            for perm in set(itertools.permutations(charges)):
                assert graded_dim(perm, beta, nu, nup) == d1


def test_total_equals_sum_of_pairwise():
    rng = random.Random(43)
    for _ in range(15):
        ell = rng.randrange(1, 4)
        e = ell + 1
        k = rng.randrange(1, 3)
        base = [0] * e
        for _ in range(k):
            base[rng.randrange(e)] += 1
        charges = charges_of(tuple(base))
        beta = RootVector(tuple(rng.randrange(0, 2) for _ in range(e)))
        if not 0 < beta.height <= 5:
            continue
        seqs = sorted(
            set(
                itertools.permutations(
                    [i for i in range(e) for _ in range(beta.coeffs[i])]
                )
            )
        )
        terms: dict[int, int] = {}
        for nu, nup in itertools.product(seqs, repeat=2):
            add_terms(terms, graded_dim(charges, beta, nu, nup).terms)
        total = LaurentPoly(terms)
        assert total == graded_dim_total(charges, beta)
        assert total.at_one() >= 0


def test_graded_dim_content_mismatch():
    with pytest.raises(ContentMismatchError):
        graded_dim((0,), RootVector((1, 1)), (0, 0), (0, 1))


def test_graded_dim_refuses_e_below_two():
    # the degree statistic is defined for e >= 2 only: at e = 1 a node's
    # neighbours share its residue
    for beta in ((), (3,)):
        with pytest.raises(ValueError, match="e >= 2"):
            graded_dim_total((0,), RootVector(beta))
        with pytest.raises(ValueError, match="e >= 2"):
            graded_dim((0,), RootVector(beta), (0,) * sum(beta), (0,) * sum(beta))
        # the shapes need no degrees: at e < 2 every partition of |beta| has content beta
        assert len(enumerate_with_content((0,), RootVector(beta))) == len(partitions_of(sum(beta)))
    # e is checked before the residues are reduced mod e
    with pytest.raises(ValueError, match="e >= 2"):
        graded_dim((0,), RootVector(()), (0,), (0,))


def test_laurent_poly_str():
    assert str(poly((0, 1), (2, 2), (6, 1))) == "1 + 2q^2 + q^6"
    assert str(poly((-2, 1), (0, 3))) == "q^{-2} + 3"
    assert str(poly((1, -1), (3, 2))) == "-q + 2q^3"
    assert str(LaurentPoly()) == "0"


# --- the content lattice against the walk over every standard tableau --------


@lru_cache(maxsize=64)
def walk_table(charges: tuple[int, ...], beta: tuple[int, ...]) -> dict:
    """Per final shape: residue sequence -> {degree: count}, from the walk."""
    table: dict = {}
    for comps, seq, deg in _tableau_walks(charges, len(beta), list(beta)):
        by_deg = table.setdefault(comps, {}).setdefault(seq, {})
        by_deg[deg] = by_deg.get(deg, 0) + 1
    return table


def oracle_total(charges, beta) -> LaurentPoly:
    total: dict[int, int] = {}
    for by_seq in walk_table(charges, beta).values():
        f: dict[int, int] = {}
        for by_deg in by_seq.values():
            add_terms(f, by_deg)
        add_terms(total, f, f)
    return LaurentPoly(total)


def oracle_pair(charges, beta, nu, nup) -> LaurentPoly:
    total: dict[int, int] = {}
    for by_seq in walk_table(charges, beta).values():
        if nu in by_seq and nup in by_seq:
            add_terms(total, by_seq[nu], by_seq[nup])
    return LaurentPoly(total)


@st.composite
def charged_shapes(draw, max_n: int = 7, max_e: int = 4, max_level: int = 3):
    """(charges, components, e) of a charged shape with 2 <= e <= max_e, level
    at most max_level and at most max_n nodes."""
    e = draw(st.integers(2, max_e))
    k = draw(st.integers(1, max_level))
    charges = tuple(sorted(draw(st.lists(st.integers(0, e - 1), min_size=k, max_size=k))))
    comps = ((),) * k
    for _ in range(draw(st.integers(0, max_n))):
        addable = [(s, r) for s in range(k) for r, _ in _addable(comps[s])]
        s, r = draw(st.sampled_from(addable))
        comps = _grow(comps, s, r)
    return charges, comps, e


@settings(max_examples=300, deadline=None)
@given(charged_shapes(max_n=25, max_e=6, max_level=5))
def test_addable_nodes_match_d_statistic(shape):
    # the one sweep against the statistic recounted on the grown shape
    charges, comps, e = shape
    expected = [
        (s, r, _res(charges, e, s, r, c), _d_statistic(_grow(comps, s, r), charges, e, (s, r, c)))
        for s in range(len(comps))
        for r, c in _addable(comps[s])
    ]
    assert _addable_nodes(comps, charges, e) == expected


@settings(max_examples=150, deadline=None)
@given(charged_shapes())
def test_graded_dim_total_matches_walk(shape):
    charges, comps, e = shape
    beta = residue_counts(comps, charges, e)
    assert graded_dim_total(charges, RootVector(beta)) == oracle_total(charges, beta)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda e: st.tuples(
            st.just(e),
            st.lists(st.integers(0, e - 1), min_size=1, max_size=3),
            st.lists(st.integers(0, 2), min_size=e, max_size=e),
        )
    )
)
def test_graded_dim_total_matches_walk_on_any_content(case):
    # most such contents carry no multipartition: both sides are then zero
    e, charges, beta = case
    charges, beta = tuple(sorted(charges)), tuple(beta)
    assert graded_dim_total(charges, RootVector(beta)) == oracle_total(charges, beta)


@settings(max_examples=150, deadline=None)
@given(charged_shapes(), st.data())
def test_graded_dim_pairs_match_walk(shape, data):
    charges, comps, e = shape
    beta = residue_counts(comps, charges, e)
    seqs = sorted(walk_table(charges, beta)[comps])
    nu = data.draw(st.sampled_from(seqs))
    nup = data.draw(st.sampled_from(seqs))
    shuffled = tuple(data.draw(st.permutations(nu)))
    rv = RootVector(beta)
    for left, right in ((nu, nup), (nu, shuffled), (shuffled, nu), (shuffled, shuffled)):
        expected = oracle_pair(charges, beta, left, right)
        assert graded_dim(charges, rv, left, right) == expected
        assert graded_dim(charges, rv, right, left) == expected


# --- theorems about the defect def(beta) = (Lambda, beta) - (beta, beta)/2 ----


def is_palindrome(poly: LaurentPoly, centre: int) -> bool:
    """Whether the coefficients of q^d and q^(2 centre - d) agree for all d."""
    return all(poly.terms.get(2 * centre - d) == c for d, c in poly.terms.items())


def test_defect_theorems_on_every_small_block():
    """Over e = 2..4, level 1..3 and beta entries <= 2 with |beta| <= 5, every
    nonzero block has def >= 0, exactly one shape when def = 0, and graded
    dimensions that are palindromes about q^def (the cyclotomic quotient is
    graded symmetric of degree 2 def); pairs of residue sequences are checked
    up to |beta| = 4."""
    zero_defect = pairs = 0
    for e in (2, 3, 4):
        for k in (1, 2, 3):
            for parts in itertools.combinations_with_replacement(range(e), k):
                lam = tuple(parts.count(i) for i in range(e))
                charges = charges_of(lam)
                for beta in itertools.product(range(3), repeat=e):
                    rv = RootVector(beta)
                    shapes = enumerate_with_content(charges, rv)
                    if sum(beta) > 5 or not shapes:
                        continue
                    d = defect(lam, beta)
                    assert d >= 0
                    if d == 0:
                        zero_defect += 1
                        assert len(shapes) == 1
                    assert is_palindrome(graded_dim_total(charges, rv), d)
                    if sum(beta) > 4:
                        continue
                    seqs = set(itertools.permutations([i for i in range(e) for _ in range(beta[i])]))
                    live = [nu for nu in sorted(seqs) if graded_dim(charges, rv, nu, nu)]
                    for nu, nup in itertools.product(live, repeat=2):
                        pairs += 1
                        assert is_palindrome(graded_dim(charges, rv, nu, nup), d)
    assert (zero_defect, pairs) == (468, 12358)


@settings(max_examples=40, deadline=None)
@given(charged_shapes(max_n=8), st.data())
def test_graded_dims_are_palindromes_about_the_defect(shape, data):
    charges, comps, e = shape
    beta = residue_counts(comps, charges, e)
    d = defect(tuple(charges.count(i) for i in range(e)), beta)
    rv = RootVector(beta)
    assert is_palindrome(graded_dim_total(charges, rv), d)
    seqs = sorted(walk_table(charges, beta)[comps])
    nu, nup = data.draw(st.sampled_from(seqs)), data.draw(st.sampled_from(seqs))
    assert is_palindrome(graded_dim(charges, rv, nu, nup), d)
    if d == 0:
        assert enumerate_with_content(charges, rv) == [Multipartition(comps)]


def test_totals_at_one_add_up_to_the_ariki_koike_dimension():
    """At q = 1 the total of a block counts pairs of standard tableaux of its
    shapes, so for each Lambda of level k the totals of the blocks with
    |beta| = n add up to k**n * n!, the dimension of the Ariki-Koike algebra
    (e = 2..4, k = 1..3, n <= 5)."""
    for e in (2, 3, 4):
        for k in (1, 2, 3):
            for charges in itertools.combinations_with_replacement(range(e), k):
                by_size = [0] * 6
                for beta in itertools.product(range(6), repeat=e):
                    if sum(beta) <= 5:
                        by_size[sum(beta)] += graded_dim_total(charges, RootVector(beta)).at_one()
                assert by_size == [k**n * math.factorial(n) for n in range(6)], charges


def test_level_one_blocks_count_e_multipartitions_of_the_defect():
    """At level 1 the partitions of content beta share one e-core and have
    e-weight def(beta), so a nonzero block has as many shapes as there are
    e-multipartitions of def(beta) (e = 2..5, beta entries <= 3, |beta| <=
    10); the Weyl orbit reduction finds the block nonzero exactly when the
    lattice has a shape of content beta."""
    nonzero = 0
    for e in (2, 3, 4, 5):
        for i in range(e):
            lam = tuple(int(j == i) for j in range(e))
            for beta in itertools.product(range(4), repeat=e):
                if sum(beta) > 10:
                    continue
                rv = RootVector(beta)
                shapes = enumerate_with_content((i,), rv)
                assert bool(shapes) == (
                    orbit_representative(LevelKDominant(lam), rv).status is OrbitStatus.NONZERO
                )
                if shapes:
                    nonzero += 1
                    assert len(shapes) == len(multipartitions(e, defect(lam, beta))), (i, beta)
    assert nonzero == 577


def e_cores(e: int, n: int) -> list[Partition]:
    """The partitions of at most n nodes with no hook length divisible by e."""
    cores = []
    for size in range(n + 1):
        for p in partitions_of(size):
            columns = [sum(1 for row in p if row > c) for c in range(p[0] if p else 0)]
            hooks = (p[r] - c + columns[c] - r - 1 for r in range(len(p)) for c in range(p[r]))
            if all(h % e for h in hooks):
                cores.append(p)
    return cores


def test_level_k_blocks_count_cores_and_quotients():
    """A partition is its e-core and its e-quotient, an e-multipartition of
    its weight, and its content is that of its core plus weight * delta.  So
    at level k the shapes of content beta are counted by the k-tuples of
    e-cores whose contents add up to beta - m * delta, each with the
    ke-multipartitions of m (e = 2..4, level 2 and 3, beta entries <= 2,
    |beta| <= 6)."""
    nonzero = 0
    for e in (2, 3, 4):
        cores = e_cores(e, 6)
        for k in (2, 3):
            for charges in itertools.combinations_with_replacement(range(e), k):
                # contents of the k-tuples of cores: content -> number of tuples
                tuples = Counter({(0,) * e: 1})
                for charge in charges:
                    grown = Counter()
                    for content, count in tuples.items():
                        for core in cores:
                            c = residue_counts((core,), (charge,), e)
                            total = tuple(a + b for a, b in zip(content, c))
                            if sum(total) <= 6:
                                grown[total] += count
                    tuples = grown
                for beta in itertools.product(range(3), repeat=e):
                    if sum(beta) > 6:
                        continue
                    expected = 0
                    for m in range(min(beta) + 1):
                        left = tuple(b - m for b in beta)
                        if tuples[left]:
                            expected += tuples[left] * len(multipartitions(k * e, m))
                    shapes = enumerate_with_content(charges, RootVector(beta))
                    assert len(shapes) == expected, (charges, beta)
                    nonzero += bool(shapes)
    assert nonzero == 1538


def test_level_limit():
    k = tableaux.MAX_LEVEL + 1
    calls = [
        lambda: charges_of((k, 0)),
        lambda: block_is_nonzero((k, 0), RootVector((1, 0))),
        lambda: enumerate_with_content((0,) * k, RootVector((1, 0))),
        lambda: graded_dim_total((0,) * k, RootVector((1, 0))),
    ]
    for call in calls:
        with pytest.raises(LimitError, match=f"^level {k} exceeds the limit MAX_LEVEL = {k - 1}$"):
            call()
    assert len(charges_of((tableaux.MAX_LEVEL - 1, 1))) == tableaux.MAX_LEVEL


def test_degree_table_cache_is_bounded():
    betas = list(itertools.product(range(5), repeat=3))[: DEGREE_TABLE_CACHE + 8]
    for beta in betas:
        _degree_table((0,), beta)
    assert _degree_table.cache_info().currsize == DEGREE_TABLE_CACHE
    assert _degree_table.cache_parameters()["maxsize"] is not None


# --- pair queries through the walk cache -------------------------------------

# small blocks (charges, beta) at e = 3 and 4 and level 1 to 3, each with 15
# to 30 residue sequences of standard tableaux
PAIR_BLOCKS = [
    ((0, 0), (2, 2, 2)),
    ((0, 1), (2, 2, 1)),
    ((0, 2), (2, 1, 2)),
    ((0, 0, 1), (2, 2, 1)),
    ((0, 1, 1), (1, 2, 2)),
    ((0, 1, 2), (1, 2, 2)),
    ((0, 0, 2), (2, 1, 2)),
    ((0, 0), (2, 1, 2, 1)),
    ((0, 1), (1, 2, 2, 1)),
    ((0, 0), (2, 2, 0, 2)),
    ((0, 1), (1, 2, 1, 1)),
]


def tableau_sequences(charges: tuple[int, ...], beta: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The residue sequences of the block's standard tableaux, then beta's
    residues in order (often no tableau's), each once."""
    seqs = sorted({seq for by_seq in walk_table(charges, beta).values() for seq in by_seq})
    return list(dict.fromkeys(seqs + [tuple(r for r, c in enumerate(beta) for _ in range(c))]))


@st.composite
def pair_query_tables(draw):
    """(charges, beta, nu, nu') queries on 5 to 8 blocks of PAIR_BLOCKS:
    each sequence of a block with a drawn one of the same block, in both
    orders, and with itself.  The blocks take turns, and the whole list is
    then drawn into an order."""
    blocks = draw(st.lists(st.sampled_from(PAIR_BLOCKS), min_size=DEGREE_TABLE_CACHE + 1,
                           max_size=8, unique=True))
    rows = []
    for charges, beta in blocks:
        seqs, row = tableau_sequences(charges, beta), []
        for nu in seqs:
            nup = draw(st.sampled_from(seqs))
            row += [(charges, beta, nu, nup), (charges, beta, nup, nu), (charges, beta, nu, nu)]
        rows.append(row)
    turns = [q for turn in itertools.zip_longest(*rows) for q in turn if q is not None]
    return draw(st.permutations(turns))


def uncached_pair(charges, beta, nu, nup) -> dict[int, int]:
    """A pair answer from _along called on the lattice, no walk cached."""
    moves, _, width = _degree_table(charges, beta)
    left, right = tableaux._along(moves, zip(nu), width), tableaux._along(moves, zip(nup), width)
    return tableaux._sum_of_products([(f, right[j]) for j, f in left.items() if j in right], width).terms


@settings(max_examples=10, deadline=None)
@given(pair_query_tables())
def test_cached_walks_match_the_oracle_and_uncached_walks(queries):
    """Over more blocks than the lattice cache holds and more sequences than
    the walk cache holds, every pair answer equals the tuple lattice's and
    the one from uncached walks.  Walks outlive the lattices they were made
    on: the lattice cache misses more often than there are blocks."""
    expected = {}
    for query in queries:
        if query not in expected:
            expected[query] = tuple_graded_dim(*query)
            assert uncached_pair(*query) == expected[query]
    assert len({query[:3] for query in queries}) > WALK_CACHE
    _degree_table.cache_clear()
    _walk.cache_clear()
    for charges, beta, nu, nup in queries:
        assert graded_dim(charges, RootVector(beta), nu, nup).terms == expected[(charges, beta, nu, nup)]
    # each (nu, nu) query reads its second walk from the cache
    assert _walk.cache_info().hits >= len(queries) // 3
    assert _degree_table.cache_info().misses > len({query[:2] for query in queries})


def test_a_walk_cached_before_its_lattice_is_evicted_joins_the_rebuilt_lattice():
    """Shape ids follow discovery order, so the lattice rebuilt after an
    eviction numbers its shapes as the first one did."""
    charges, beta = (0, 1, 2), (1, 2, 2)
    nu, nup = tableau_sequences(charges, beta)[:2]
    first = _degree_table(charges, beta)
    _walk(charges, beta, nu)
    for other, other_beta in PAIR_BLOCKS[:DEGREE_TABLE_CACHE]:
        _degree_table(other, other_beta)
    answer = graded_dim(charges, RootVector(beta), nu, nup)
    assert _walk.cache_info()[:2] == (1, 2)  # nu read from the cache, nup walked
    assert _degree_table(charges, beta) is not first
    assert answer.terms == tuple_graded_dim(charges, beta, nu, nup) != {}


def test_refused_pair_queries_cache_no_walk(monkeypatch):
    """A pair query that raises caches no walk, and its message is the one a
    query without the walk cache gives."""
    refusals = [
        (ContentMismatchError, r"^residue sequence \(0, 0\) has content != beta$",
         lambda: graded_dim((0,), RootVector((1, 1)), (0, 0), (0, 1))),
        (ContentMismatchError, r"^residue sequence \(1, 1\) has content != beta$",
         lambda: graded_dim((0,), RootVector((1, 1)), (0, 1), (1, 1))),
        (LimitError, f"^level {tableaux.MAX_LEVEL + 1} exceeds the limit MAX_LEVEL = {tableaux.MAX_LEVEL}$",
         lambda: graded_dim((0,) * (tableaux.MAX_LEVEL + 1), RootVector((1, 0)), (0,), (0,))),
        (LimitError, r"^the count of shapes of content <= beta = \(6, 2\) exceeds the limit MAX_LATTICE_SHAPES = 150$",
         lambda: graded_dim((0, 0, 1), RootVector((6, 2)), (0,) * 6 + (1,) * 2, (0,) * 6 + (1,) * 2)),
    ]
    monkeypatch.setattr(tableaux, "MAX_LATTICE_SHAPES", 150)
    for error, message, call in refusals:
        with pytest.raises(error, match=message):
            call()
        assert _walk.cache_info().currsize == 0


def test_walk_cache_is_bounded():
    seqs = sorted(set(itertools.permutations((0, 0, 1, 1, 2, 2))))[: WALK_CACHE + 8]
    assert len(seqs) == WALK_CACHE + 8
    for nu in seqs:
        graded_dim((0,), RootVector((2, 2, 2)), nu, nu)
    assert _walk.cache_info().currsize == WALK_CACHE
    assert _walk.cache_parameters()["maxsize"] is not None


# --- the content lattice against every multipartition filtered by content ----


@st.composite
def shape_search_cases(draw):
    """(charges, beta) with e <= 5, level <= 4 and |beta| <= 9; beta is the
    content of a random shape or an arbitrary vector (mostly no shape)."""
    e = draw(st.integers(2, 5))
    k = draw(st.integers(1, 4))
    charges = tuple(draw(st.lists(st.integers(0, e - 1), min_size=k, max_size=k)))
    if draw(st.booleans()):
        comps = ((),) * k
        for _ in range(draw(st.integers(0, 9))):
            s, r = draw(st.sampled_from([(s, r) for s in range(k) for r, _ in _addable(comps[s])]))
            comps = _grow(comps, s, r)
        beta = residue_counts(comps, charges, e)
    else:
        beta = tuple(draw(st.lists(st.integers(0, 9), min_size=e, max_size=e)))
        if sum(beta) > 9:
            beta = tuple(c * 9 // sum(beta) for c in beta)
    return charges, beta


@settings(max_examples=150, deadline=None)
@given(shape_search_cases())
def test_enumerate_with_content_matches_filter(case):
    charges, beta = case
    got = enumerate_with_content(charges, RootVector(beta))
    assert got == filtered_with_content(charges, beta)


@settings(max_examples=150, deadline=None)
@given(shape_search_cases())
def test_block_is_nonzero_matches_filter(case):
    charges, beta = case
    base = tuple(charges.count(i) for i in range(len(beta)))
    assert block_is_nonzero(base, RootVector(beta)) == filtered_is_nonzero(base, beta)


# --- the stacked abacus against the lattice and search on tuples --------------


def largest_first(shapes):
    """Shapes in the order of `enumerate_with_content`."""
    return sorted(shapes, key=lambda comps: [(sum(p), p) for p in comps], reverse=True)


def decoded(full: list, width: int) -> dict:
    """The full shapes of a block's lattice, each with its packed function
    read back as {degree: count}."""
    return {i: tableaux._poly(packed, low, width).terms for i, (packed, low) in full}


def degree_functions(full: dict) -> Counter:
    """The multiset of the {degree: count} functions of a lattice's full shapes."""
    return Counter(tuple(sorted(f.items())) for f in full.values())


def shrink(comps: tuple[Partition, ...], s: int, r: int, c: int) -> tuple[Partition, ...]:
    """The shape with its removable node (s, r, c) taken away."""
    comp = comps[s][:r] + ((c,) if c else ()) + comps[s][r + 1 :]
    return comps[:s] + (comp,) + comps[s + 1 :]


def below_any(shapes) -> set:
    """Every shape contained in one of the given shapes."""
    seen, stack = set(shapes), list(shapes)
    while stack:
        comps = stack.pop()
        for s, comp in enumerate(comps):
            for r, c in _removable(comp):
                smaller = shrink(comps, s, r, c)
                if smaller not in seen:
                    seen.add(smaller)
                    stack.append(smaller)
    return seen


def drawn_sequence(data, charges, beta, shapes) -> tuple[int, ...]:
    """The residue sequence of a drawn standard tableau of a drawn shape of
    content beta, or a drawn ordering of beta's residues when there is none."""
    e = len(beta)
    if not shapes:
        return tuple(data.draw(st.permutations([r for r in range(e) for _ in range(beta[r])])))
    comps, seq = data.draw(st.sampled_from(shapes)), []
    while any(comps):
        nodes = [(s, r, c) for s, comp in enumerate(comps) for r, c in _removable(comp)]
        s, r, c = data.draw(st.sampled_from(nodes))
        seq.append(_res(charges, e, s, r, c))
        comps = shrink(comps, s, r, c)
    return tuple(reversed(seq))


@settings(max_examples=150, deadline=None)
@given(shape_search_cases(), st.data())
def test_abacus_lattice_matches_tuple_lattice(case, data):
    charges, beta = case
    moves, full, width = _degree_table(charges, beta)
    tuple_moves, tuple_full = tuple_degree_table(charges, beta)
    assert len(moves) == len(tuple_moves)
    assert degree_functions(decoded(full, width)) == degree_functions(tuple_full)
    rv = RootVector(beta)
    shapes = tuple_shapes_of_content(charges, beta)
    assert [mp.components for mp in enumerate_with_content(charges, rv)] == largest_first(shapes)
    nu, nup = drawn_sequence(data, charges, beta, shapes), drawn_sequence(data, charges, beta, shapes)
    assert graded_dim(charges, rv, nu, nup).terms == tuple_graded_dim(charges, beta, nu, nup)




@settings(max_examples=150, deadline=None)
@given(shape_search_cases())
def test_abacus_steps_match_d_statistic(case):
    """Each move of the lattice adds the right node with the degree that
    `_d_statistic` recounts on the grown shape.  The shape of each id is
    recovered by following the moves from the empty shape: moves[id][res]
    lists the addable nodes of residue res that can still reach content
    beta, bottom to top.  full pairs the shapes of content beta with their
    functions."""
    charges, beta = case
    e, k = len(beta), len(charges)
    moves, full, _ = _degree_table(charges, beta)
    targets = tuple_shapes_of_content(charges, beta)
    alive = below_any(targets)
    shape_of = {0: ((),) * k}
    for i, by_res in enumerate(moves):
        if i not in shape_of:  # a shape that cannot reach content beta
            assert by_res == {}
            continue
        comps = shape_of[i]
        nodes = [(s, r, c) for s in range(k) for r, c in _addable(comps[s])][::-1]
        expected: dict[int, list] = {}
        for s, r, c in nodes:
            grown = _grow(comps, s, r)
            if grown in alive:
                expected.setdefault(_res(charges, e, s, r, c), []).append((grown, (s, r, c)))
        assert sorted(by_res) == sorted(expected)
        for res, steps in by_res.items():
            assert len(steps) == len(expected[res])
            for (j, d), (grown, node) in zip(steps, expected[res]):
                assert shape_of.setdefault(j, grown) == grown
                assert d == _d_statistic(grown, charges, e, node)
    assert sorted(tableaux._decode(shape, k) for shape, _ in full) == sorted(targets)


@settings(max_examples=150, deadline=None)
@given(shape_search_cases())
# charges (0,) with beta = (2, 3): the shape (2, 2) holds both nodes of
# residue 0 and still owes one of residue 1, but each of its addable nodes
# has residue 0, so the lattice has a dead end and is pruned
@example(((0,), (2, 3)))
def test_lattice_matches_owed_tuple_lattice(case):
    """The one-pass lattice gives the moves, the functions of the shapes of
    content beta and the width of the reference built with owed tuples, an
    unconditional prune and `_along` for the total, at every section height
    up to |beta|, so also where a move outgrows the sections (None)."""
    charges, beta = case
    for h in range(sum(beta) + 1):
        got, want = tableaux._lattice(charges, beta, h), owed_tuple_lattice(charges, beta, h)
        if want is None:
            assert got is None
        else:
            moves, full, width = got
            assert (moves, dict(full), width) == (want[0], dict(want[1]), want[2])


def test_lattice_moves_example():
    # one node of residue 0 at charges (0, 0): the node of the lower component
    # first, whose degree counts nothing below it, then the upper one, which
    # counts the lower one's addable node
    moves, full, width = _degree_table((0, 0), (1, 0, 0))
    assert moves == [{0: [(1, 0), (2, 1)]}, {}, {}]
    # full pairs the abacus integers of the shapes of content beta with their
    # functions
    shapes = {tableaux._decode(shape, 2): f for shape, f in decoded(full, width).items()}
    assert shapes == {((), (1,)): {0: 1}, ((1,), ()): {1: 1}}


# --- packed degree functions against the {degree: count} lattice -------------


def oracle_table_total(charges: tuple[int, ...], beta: tuple[int, ...]) -> dict[int, int]:
    """The total graded dimension from the dict functions of `tuple_degree_table`."""
    total: dict[int, int] = {}
    for f in tuple_degree_table(charges, beta)[1].values():
        add_terms(total, f, f)
    return total


def extreme_fillings(moves, n: int) -> list[tuple[int, ...]]:
    """The residue sequences of two standard fillings of a nonzero block:
    from the empty shape, always follow a move of the smallest residue that
    has one, or always of the largest (moves lead only to shapes that reach
    content beta)."""
    out = []
    for pick in (min, max):
        i, seq = 0, []
        for _ in range(n):
            res = pick(r for r, by_res in enumerate(moves[i]) if by_res)
            seq.append(res)
            i = moves[i][res][0][0]
        out.append(tuple(seq))
    return out


def test_packed_functions_match_dict_lattice_on_every_small_block():
    """Over the blocks of `test_defect_theorems_on_every_small_block` (e = 2..4,
    level 1..3, beta entries <= 2, |beta| <= 5), the total equals the one the
    dict lattice gives, and so does each pair answer on the first and last
    fillings, both orders, and the sorted residues (often zero)."""
    blocks = pairs = 0
    for e in (2, 3, 4):
        for k in (1, 2, 3):
            for charges in itertools.combinations_with_replacement(range(e), k):
                for beta in itertools.product(range(3), repeat=e):
                    if sum(beta) > 5:
                        continue
                    rv = RootVector(beta)
                    assert graded_dim_total(charges, rv).terms == oracle_table_total(charges, beta)
                    tuple_moves, tuple_full = tuple_degree_table(charges, beta)
                    if not tuple_full:
                        continue
                    blocks += 1
                    first, last = extreme_fillings(tuple_moves, sum(beta))
                    for nu, nup in ((first, first), (first, last), (last, first), (first, tuple(sorted(first)))):
                        pairs += 1
                        assert graded_dim(charges, rv, nu, nup).terms == tuple_graded_dim(charges, beta, nu, nup)
    assert (blocks, pairs) == (1359, 5436)


def wide_total(charges: tuple[int, ...], beta: tuple[int, ...]) -> dict[int, int]:
    """graded_dim_total with 1,024-bit fields, far wider than any coefficient
    of a block of level <= 5 and |beta| <= 10 needs."""
    _degree_table.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tableaux, "_field_width", lambda level, size: 1024)
            return graded_dim_total(charges, RootVector(beta)).terms
    finally:
        _degree_table.cache_clear()


@settings(max_examples=100, deadline=None)
@given(charged_shapes(max_n=10, max_e=6, max_level=5))
def test_total_coefficients_fit_the_field_width(shape):
    """Read with fields far wider than needed, the total sums to at most
    level**|beta| * |beta|!, the dimension of the Ariki-Koike algebra, so each
    coefficient is below 2**width: the packed total at the package's width
    carries no field into the next and equals the wide one."""
    charges, comps, e = shape
    beta = residue_counts(comps, charges, e)
    k, n = len(charges), sum(beta)
    try:
        total = wide_total(charges, beta)
    except LimitError:
        assume(False)
    assert sum(total.values()) <= k**n * math.factorial(n)
    assert max(total.values()) < 2 ** tableaux._field_width(k, n)
    assert graded_dim_total(charges, RootVector(beta)).terms == total


def test_total_with_widely_spread_lowest_degrees():
    # At level K with beta = alpha_0 each content-beta shape is one node in
    # one component, of degree the number of components below it, so the
    # K squares lie at degrees 0, 2, ..., 2(K - 1): more degrees than
    # products, which are then added two at a time in degree order.
    for k in (1, 2, 3, 300, 301):
        expected = LaurentPoly({2 * a: 1 for a in range(k)})
        assert graded_dim_total((0,) * k, RootVector((1, 0))) == expected
        assert graded_dim((0,) * k, RootVector((1, 0)), (0,), (0,)) == expected


def test_multipartition_constructor_still_validates():
    # enumerate_with_content skips the check for the shapes it builds
    for comps in (((1, 2),), ((0,),)):
        with pytest.raises(ValueError, match="not a partition"):
            Multipartition(comps)


@pytest.mark.parametrize(
    "charges, beta, count, heights",
    [
        # level 1, e = 64, one node of each residue: the 64 hooks of size 64
        # outgrow sections of height 31 and then 62 (a bead onto the top bit
        # first, or the row-h bead moving first)
        ((0,), (1,) * 64, 64, [31, 62, 64]),
        # one node of each residue 0..39 at e = 64: a row of 40 in either
        # component, which outgrows the top bit only
        ((0, 0), (1,) * 40 + (0,) * 24, 2, [31, 40]),
    ],
)
def test_large_shapes_widen_the_abacus(monkeypatch, charges, beta, count, heights):
    walked = []
    lattice = tableaux._lattice
    monkeypatch.setattr(tableaux, "_lattice", lambda *args: walked.append(args[2]) or lattice(*args))
    moves, full, width = _degree_table(charges, beta)
    tuple_moves, tuple_full = tuple_degree_table(charges, beta)
    assert (len(moves), len(full)) == (len(tuple_moves), count)
    assert degree_functions(decoded(full, width)) == degree_functions(tuple_full)
    shapes = [mp.components for mp in enumerate_with_content(charges, RootVector(beta))]
    assert shapes == largest_first(tuple_shapes_of_content(charges, beta))
    assert block_is_nonzero(tuple(charges.count(i) for i in range(len(beta))), RootVector(beta))
    # the lattice is walked once; the enumeration and the nonvanishing test
    # read it again from the cache
    assert walked == heights


def test_a_walk_refused_at_the_shape_limit_keeps_the_height_it_reached(monkeypatch):
    """The section height follows the nodes a walk adds, not beta, so the
    memory a refused walk holds is that of the small shapes it reached.  At
    e = 64 with charges 1, 1, 63, 63 and beta one node of each residue
    1..63, a row of 63 in a charge-1 component has content <= beta, yet the
    breadth-first lattice passes 500 shapes at about 16 nodes and is refused
    on sections of height 31, its first."""
    monkeypatch.setattr(tableaux, "MAX_LATTICE_SHAPES", 500)
    walked = []
    lattice = tableaux._lattice
    monkeypatch.setattr(tableaux, "_lattice", lambda *args: walked.append(args[2]) or lattice(*args))
    charges, beta = (1, 1, 63, 63), RootVector((0,) + (1,) * 63)
    for query in (graded_dim_total, enumerate_with_content):
        with pytest.raises(LimitError, match="exceeds the limit MAX_LATTICE_SHAPES = 500$"):
            query(charges, beta)
    assert walked == [31, 31]


def test_wide_block_fits_in_bounded_memory():
    """At e = 512 the lattice of 4 Lambda_0 with beta = 2 on residues 0..6 and
    506..511 has 16,367 shapes.  A shape keeps only the residues it can move
    on, so `gdim` on this block runs under a 400 MB address-space limit; when
    every shape kept e lists it took 668 MB.  In a child process, so that the
    limit binds only there."""
    beta = tuple(2 if i <= 6 or i >= 506 else 0 for i in range(512))
    argv = ["gdim", "--ell", "511", "--weight", ",".join(["4"] + ["0"] * 511)]
    argv += ["--beta", ",".join(map(str, beta))]
    code = (
        "import io, sys\n"
        "from klrblocks import cli, tableaux\n"
        "out = io.StringIO()\n"
        "code = cli.run(sys.argv[2:], out)\n"
        "moves = tableaux._degree_table((0, 0, 0, 0), eval(sys.argv[1]))[0]\n"
        "print(code, tableaux._degree_table.cache_info().hits, len(moves), out.getvalue()[:23])\n"
    )

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(klrblocks.__file__))}
    proc = subprocess.run(
        [sys.executable, "-c", code, repr(beta), *argv],
        capture_output=True, text=True, timeout=60, env=env, preexec_fn=limit_memory,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "0 1 16367 7312459672336q^{-26} + \n"
