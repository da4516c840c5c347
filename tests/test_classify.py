from __future__ import annotations

import itertools
import random

import pytest

from klrblocks.cartan import RootVector, WeightCoeffs
from klrblocks.classify import FieldParams, RepType, TClass, classify, script_sets
from klrblocks.maxweights import LevelKDominant, max_plus
from klrblocks.quiver import LevelTooSmallError, build_quiver, t_subquiver
from klrblocks.tableaux import block_is_nonzero
from klrblocks.weyl import orbit_representative

from oracles import defect, rotate_tuple, walk_script_sets


def alpha(e, *idx):
    c = [0] * e
    for i in idx:
        c[i % e] += 1
    return RootVector(tuple(c))


def test_script_sets_quadrupled_base():
    base = LevelKDominant((4, 0, 0, 0))
    s0 = script_sets(base, 0)
    assert s0.tame[3] == {alpha(4, 0, 0)}
    assert s0.tame[1] == frozenset()
    assert s0.tame[4] == frozenset()
    s2 = script_sets(base, 2)
    assert s2.tame[3] == frozenset()


def test_script_sets_interval_families():
    # one doubled summand next to a single one: the two intervals are tame
    base = LevelKDominant((2, 0, 1, 0, 0))
    sets = script_sets(base, 0)
    assert alpha(5, 0, 1, 2) in sets.tame[0]
    assert alpha(5, 2, 3, 4, 0) in sets.tame[0]
    # both endpoints simple: the interval is representation-finite
    base2 = LevelKDominant((1, 0, 1, 0, 0, 1, 0))
    sets2 = script_sets(base2, 0)
    assert alpha(7, 2, 3, 4, 5) in sets2.finite
    assert alpha(7, 0, 1, 2) in sets2.finite
    assert alpha(7, 5, 6, 0) in sets2.finite


def test_script_sets_char_dependence():
    base = LevelKDominant((2, 0, 1, 0, 0, 0))
    assert script_sets(base, 0).tame[2 - 1] == {alpha(6, 0, 0, 1, 5)}
    assert script_sets(base, 2).tame[2 - 1] == frozenset()
    base3 = LevelKDominant((3, 0, 1, 0))
    assert script_sets(base3, 0).tame[3 - 1] == {alpha(4, 0, 0, 1), alpha(4, 0, 0, 3)}
    assert script_sets(base3, 3).tame[3 - 1] == frozenset()


def small_bases():
    """Every dominant weight of level 3..5 at e = 2..7 (1,593 of them)."""
    for e in range(2, 8):
        for k in (3, 4, 5):
            for parts in itertools.combinations_with_replacement(range(e), k):
                yield LevelKDominant(tuple(parts.count(i) for i in range(e)))


def test_script_sets_match_walk_oracle():
    calls = 0
    for base in small_bases():
        for char_p in (0, 2, 3, 5):
            got, want = script_sets(base, char_p), walk_script_sets(base, char_p)
            assert got.finite == want.finite, (base.coeffs, char_p)
            assert got.tame == want.tame, (base.coeffs, char_p)
            calls += 1
    assert calls == 6372


def test_script_sets_lie_on_the_tagged_subquiver():
    # The classification is read off the tagged subquiver: every non-wild
    # beta other than 0 is the beta of a vertex reached by the construction
    # of its family.  Intervals (finite or tame family 1) carry tag 0, the
    # doubled alphas tag 1, and tame families 2..5 tags 2..5.
    cases = 0
    for base in small_bases():
        tq = t_subquiver(base)
        tagged: list[set[RootVector]] = [set() for _ in range(6)]
        for vid, tags in tq.tags.items():
            for tag in tags:
                tagged[tag].add(tq.vertices[vid].beta)
        zero = RootVector((0,) * len(base.coeffs))
        for char_p in (0, 2, 3):
            sets = script_sets(base, char_p)
            assert sets.finite - {zero} <= tagged[0] | tagged[1], (base.coeffs, char_p)
            assert sets.tame[0] <= tagged[0], (base.coeffs, char_p)
            for family in range(1, 5):
                assert sets.tame[family] <= tagged[family + 1], (base.coeffs, char_p, family)
            cases += 1
    assert cases == 4779


def test_level_too_small_rejected():
    with pytest.raises(LevelTooSmallError):
        classify(LevelKDominant((2, 0)), RootVector((1, 0)))
    with pytest.raises(LevelTooSmallError):
        script_sets(LevelKDominant((1, 1, 0)), 0)


def test_t_class_rank_consistency():
    with pytest.raises(ValueError):
        classify(
            LevelKDominant((3, 0)),
            RootVector((0, 0)),
            FieldParams(0, TClass.SIGN_ELL),
        )
    with pytest.raises(ValueError):
        classify(
            LevelKDominant((3, 0, 0)),
            RootVector((0, 0, 0)),
            FieldParams(0, TClass.TWO),
        )


# The curated truth table: (ell, base, beta, char, t-class, expected).
TRUTH_TABLE = [
    # beta = 0 and pure delta shifts
    (2, (3, 0, 0), (0, 0, 0), 0, TClass.OTHER, RepType.FINITE),
    (1, (3, 0), (1, 1), 0, TClass.OTHER, RepType.TAME),
    (1, (3, 0), (1, 1), 0, TClass.TWO, RepType.WILD),
    (1, (3, 0), (1, 1), 0, TClass.MINUS_TWO, RepType.WILD),
    (1, (0, 4), (1, 1), 5, TClass.OTHER, RepType.TAME),
    (2, (3, 0, 0), (1, 1, 1), 0, TClass.OTHER, RepType.TAME),
    (2, (3, 0, 0), (1, 1, 1), 0, TClass.SIGN_ELL, RepType.WILD),
    (2, (0, 0, 5), (1, 1, 1), 3, TClass.OTHER, RepType.TAME),
    (2, (2, 1, 0), (1, 1, 1), 0, TClass.OTHER, RepType.WILD),
    (2, (3, 0, 0), (2, 2, 2), 0, TClass.OTHER, RepType.WILD),
    (2, (3, 0, 0), (2, 1, 1), 0, TClass.OTHER, RepType.WILD),
    # single alpha at a doubled summand
    (2, (2, 0, 1), (1, 0, 0), 0, TClass.OTHER, RepType.FINITE),
    (3, (1, 2, 1, 0), (0, 1, 0, 0), 0, TClass.OTHER, RepType.FINITE),
    # m_0 = 1: L - a_0 is the reflection of L at 0, so this reduces to beta = 0
    (2, (1, 1, 1), (1, 0, 0), 0, TClass.OTHER, RepType.FINITE),
    # interval sums between consecutive occupied indices
    (6, (1, 0, 1, 0, 0, 1, 0), (0, 0, 1, 1, 1, 1, 0), 0, TClass.OTHER, RepType.FINITE),
    (6, (1, 0, 1, 0, 0, 1, 0), (1, 1, 1, 0, 0, 0, 0), 0, TClass.OTHER, RepType.FINITE),
    (6, (1, 0, 1, 0, 0, 1, 0), (1, 0, 0, 0, 0, 1, 1), 0, TClass.OTHER, RepType.FINITE),
    (3, (2, 0, 1, 0), (1, 1, 1, 0), 0, TClass.OTHER, RepType.TAME),
    (3, (2, 0, 1, 0), (1, 0, 1, 1), 0, TClass.OTHER, RepType.TAME),
    (3, (2, 0, 2, 0), (1, 1, 1, 0), 0, TClass.OTHER, RepType.WILD),
    (4, (1, 1, 0, 1, 0), (1, 1, 1, 1, 0), 0, TClass.OTHER, RepType.WILD),  # skips i=1
    # doubled root at a quadrupled summand
    (2, (4, 0, 0), (2, 0, 0), 3, TClass.OTHER, RepType.TAME),
    (1, (4, 0), (2, 0), 0, TClass.OTHER, RepType.TAME),
    (2, (4, 0, 0), (2, 0, 0), 2, TClass.OTHER, RepType.WILD),
    (2, (5, 0, 0), (2, 0, 0), 0, TClass.OTHER, RepType.WILD),
    (2, (4, 1, 0), (2, 0, 0), 0, TClass.OTHER, RepType.TAME),
    # 2 alpha_i + alpha_{i +- 1} at a tripled summand
    (2, (3, 0, 0), (2, 1, 0), 0, TClass.OTHER, RepType.TAME),
    (2, (3, 0, 0), (2, 0, 1), 0, TClass.OTHER, RepType.TAME),
    (2, (3, 0, 0), (2, 1, 0), 3, TClass.OTHER, RepType.WILD),
    (2, (3, 1, 0), (2, 1, 0), 0, TClass.OTHER, RepType.WILD),   # neighbour adjacent
    (3, (3, 0, 1, 0), (2, 1, 0, 0), 0, TClass.OTHER, RepType.TAME),
    (2, (4, 0, 0), (2, 1, 0), 0, TClass.OTHER, RepType.WILD),   # multiplicity 4
    # the spread family 2a_i + a_{i-1} + a_{i+1} at a doubled summand
    (3, (2, 0, 1, 0), (2, 1, 0, 1), 0, TClass.OTHER, RepType.TAME),
    (3, (2, 0, 1, 0), (2, 1, 0, 1), 2, TClass.OTHER, RepType.WILD),
    (3, (2, 1, 0, 0), (2, 1, 0, 1), 0, TClass.OTHER, RepType.WILD),  # adjacent
    (3, (3, 0, 1, 0), (2, 1, 0, 1), 0, TClass.OTHER, RepType.WILD),  # tripled
    # sums of two alphas at two doubled summands
    (4, (2, 0, 2, 0, 1), (1, 0, 1, 0, 0), 0, TClass.OTHER, RepType.TAME),
    (4, (2, 0, 2, 0, 1), (1, 0, 1, 0, 0), 2, TClass.OTHER, RepType.TAME),
    (4, (3, 0, 2, 0, 0), (1, 0, 1, 0, 0), 0, TClass.OTHER, RepType.WILD),
    (4, (2, 2, 0, 0, 1), (1, 1, 0, 0, 0), 0, TClass.OTHER, RepType.WILD),  # adjacent
    # wild beyond the depth-2 lists
    (6, (1, 0, 0, 1, 0, 0, 1), (3, 2, 1, 0, 1, 2, 3), 0, TClass.OTHER, RepType.WILD),
    # content beginning away from every charge: the block vanishes
    (2, (3, 0, 0), (0, 1, 0), 0, TClass.OTHER, RepType.ZERO),
    # a non-representative beta that reduces onto the finite single-alpha case
    (2, (3, 0, 0), (1, 1, 0), 0, TClass.OTHER, RepType.FINITE),
]


def test_classifier_truth_table():
    assert len(TRUTH_TABLE) >= 30
    for ell, base, beta, char_p, t_class, expected in TRUTH_TABLE:
        got = classify(
            LevelKDominant(base), RootVector(beta), FieldParams(char_p, t_class)
        )
        assert got == expected, (ell, base, beta, char_p, t_class, got, expected)


def test_classify_sigma_invariance():
    rng = random.Random(47)
    for _ in range(80):
        ell = rng.randrange(1, 5)
        e = ell + 1
        k = rng.randrange(3, 6)
        coeffs = [0] * e
        for _ in range(k):
            coeffs[rng.randrange(e)] += 1
        base = LevelKDominant(tuple(coeffs))
        beta = RootVector(tuple(rng.randrange(0, 3) for _ in range(e)))
        char_p = rng.choice([0, 2, 3, 5])
        t_class = TClass.OTHER if ell == 1 else rng.choice([TClass.OTHER, TClass.SIGN_ELL])
        if ell == 1:
            t_class = rng.choice([TClass.OTHER, TClass.TWO, TClass.MINUS_TWO])
        params = FieldParams(char_p, t_class)
        shift = rng.randrange(e)
        rotated = LevelKDominant(rotate_tuple(base.coeffs, shift))
        lhs = classify(rotated, RootVector(rotate_tuple(beta.coeffs, shift)), params)
        rhs = classify(base, beta, params)
        assert lhs == rhs


def test_low_defect_blocks_are_finite():
    # Blocks of defect 0 are simple and blocks of defect 1 are Brauer tree
    # algebras, so every nonzero one is Finite, in every characteristic and
    # t class; at defect 2 all three nonzero types occur, so there is no
    # converse.  Over e = 2..4, level 3..4 and beta entries <= 2.
    cases = 0
    for e in (2, 3, 4):
        t_classes = (TClass.OTHER, TClass.TWO, TClass.MINUS_TWO) if e == 2 else (
            TClass.OTHER, TClass.SIGN_ELL)
        for k in (3, 4):
            for parts in itertools.combinations_with_replacement(range(e), k):
                lam = tuple(parts.count(i) for i in range(e))
                for beta in itertools.product(range(3), repeat=e):
                    if defect(lam, beta) > 1:
                        continue
                    for char_p, t_class in itertools.product((0, 2, 3), t_classes):
                        got = classify(LevelKDominant(lam), RootVector(beta), FieldParams(char_p, t_class))
                        assert got in (RepType.ZERO, RepType.FINITE), (lam, beta, char_p, t_class, got)
                        cases += got is RepType.FINITE
    assert cases == 6663


def test_partition_of_class_betas():
    # finite minus zero, the tame union, and the wild remainder partition the
    # beta set of the class
    for coeffs in ((3, 0, 0, 0), (2, 1, 0, 1), (4, 0, 2), (2, 0, 2, 0, 1)):
        base = LevelKDominant(coeffs)
        sets = script_sets(base, 0)
        finite = {b.coeffs for b in sets.finite}
        tame = {b.coeffs for b in sets.tame_union()}
        assert not (finite & tame)
        betas = {en.x for en in max_plus(base)}
        assert finite <= betas
        assert tame <= betas
        for en in max_plus(base):
            got = classify(base, en.beta, FieldParams(0, TClass.OTHER))
            if en.x in finite:
                assert got == RepType.FINITE
            elif en.x in tame:
                assert got == RepType.TAME
            elif en.beta.is_zero():
                assert got == RepType.FINITE
            else:
                assert got == RepType.WILD


def test_badness_never_decreases_along_arrows():
    # if a directed arrow leads from beta' to beta'', the type cannot improve
    order = {RepType.FINITE: 1, RepType.TAME: 2, RepType.WILD: 3}
    for coeffs in ((3, 0, 0), (2, 1, 0, 0), (4, 0, 0, 0)):
        base = LevelKDominant(coeffs)
        q = build_quiver(base)
        types = {
            v.weight.coeffs: classify(base, v.beta, FieldParams(0, TClass.OTHER))
            for v in q.vertices
        }
        for a in q.arrows:
            src = types[q.vertices[a.src].weight.coeffs]
            dst = types[q.vertices[a.dst].weight.coeffs]
            assert order[dst] >= order[src]


def test_unequal_lengths_raise():
    # the weight fixes e; a beta of another length names no block of it
    base = LevelKDominant((3, 0, 0))
    for coeffs in ((1, 1, 1, 5), (0, 0, 0, 9), (1, 1)):
        beta = RootVector(coeffs)
        for call in (
            lambda: classify(base, beta),
            lambda: orbit_representative(base, beta),
            lambda: block_is_nonzero(base.coeffs, beta),
        ):
            with pytest.raises(ValueError, match="beta has length"):
                call()
    with pytest.raises(ValueError):
        WeightCoeffs((1, 0, 0)) - WeightCoeffs((1, 1))
