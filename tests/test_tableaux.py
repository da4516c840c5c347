from __future__ import annotations

import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klrblocks import tableaux
from klrblocks.cartan import RootVector
from klrblocks.tableaux import (
    DEGREE_TABLE_CACHE,
    ContentMismatchError,
    EnumerationLimitError,
    LaurentPoly,
    Multipartition,
    Partition,
    _addable,
    _d_statistic,
    _degree_table,
    _grow,
    _res,
    block_is_nonzero,
    charges_of,
    enumerate_with_content,
    graded_dim,
    graded_dim_total,
)

from oracles import (
    filtered_is_nonzero,
    filtered_with_content,
    multipartitions,
    partitions_of,
    residue_counts,
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
    # the degree statistic of a removable node, 0-based (component, row, column)
    assert _d_statistic(((1,),), (0,), 2, (0, 0, 0)) == 0
    # a second empty component of equal charge hangs an addable node below
    assert _d_statistic(((1,), ()), (0, 0), 3, (0, 0, 0)) == 1
    assert _d_statistic(((1, 1, 1),), (0,), 3, (0, 2, 0)) == 0


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
    # no shape of charges (0, 0, 1) has content (6, 2), so the search and
    # the lattice both reach all 200 shapes of content <= beta
    charges, beta, nu = (0, 0, 1), RootVector((6, 2)), (0,) * 6 + (1,) * 2
    calls = [
        lambda: graded_dim(charges, beta, nu, nu),
        lambda: graded_dim_total(charges, beta),
        lambda: enumerate_with_content(charges, beta),
        lambda: block_is_nonzero((2, 1), beta),
    ]
    _degree_table.cache_clear()
    monkeypatch.setattr(tableaux, "MAX_LATTICE_SHAPES", 150)
    for call in calls:
        with pytest.raises(EnumerationLimitError, match="more than 150 shapes"):
            call()
    monkeypatch.undo()
    assert [call() for call in calls] == [LaurentPoly(), LaurentPoly(), [], False]
    _degree_table.cache_clear()


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
def charged_shapes(draw, max_n: int = 7):
    """(charges, components, e) of a charged shape with e <= 4, level <= 3 and
    at most max_n nodes."""
    e = draw(st.integers(2, 4))
    k = draw(st.integers(1, 3))
    charges = tuple(sorted(draw(st.lists(st.integers(0, e - 1), min_size=k, max_size=k))))
    comps = ((),) * k
    for _ in range(draw(st.integers(0, max_n))):
        addable = [(s, r) for s in range(k) for r, _ in _addable(comps[s])]
        s, r = draw(st.sampled_from(addable))
        comps = _grow(comps, s, r)
    return charges, comps, e


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


def test_degree_table_cache_is_bounded():
    _degree_table.cache_clear()
    betas = list(itertools.product(range(5), repeat=3))[: DEGREE_TABLE_CACHE + 8]
    for beta in betas:
        _degree_table((0,), beta)
    assert _degree_table.cache_info().currsize == DEGREE_TABLE_CACHE
    _degree_table.cache_clear()
    assert _degree_table.cache_parameters()["maxsize"] is not None


# --- the shape search against every multipartition filtered by content -------


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
