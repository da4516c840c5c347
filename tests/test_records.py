"""The package's records against the frozen dataclasses they replaced.

Each record is built from the same drawn field values as its oracle in
`oracles` (`FrozenX` for record `X`): construction fails with the same error
and message or succeeds in both, and then `==`, `!=`, `hash`, `repr`, the
refusal of assignment and deletion, and `__match_args__` agree.  The records
built without their constructors' checks (by the class walk, by
`orbit_representative` and by `enumerate_with_content`) are compared with the
records the checking constructors build.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klrblocks.brauer import (
    BrauerGraph,
    DecompResult,
    DerivedInvariants,
    PresArrow,
    QuiverPresentation,
)
from klrblocks.cartan import Record, RootVector, WeightCoeffs
from klrblocks.classify import MAX_CHAR, FieldParams, ScriptSets, TClass
from klrblocks.maxweights import MAX_E, LevelKDominant, MaxWeightEntry, max_plus
from klrblocks.quiver import Arrow, TQuiver, WeightQuiver, build_quiver, t_subquiver
from klrblocks.tableaux import Multipartition, charges_of, enumerate_with_content
from klrblocks.weyl import OrbitResult, OrbitStatus, orbit_representative

import oracles

small = st.integers(-1, 2)
# a value of a field that no check reads; small domains make equal draws common
value = st.one_of(
    st.none(),
    small,
    st.tuples(small, small),
    st.text("ab", max_size=2),
    st.just(RootVector((1, 0))),
    st.just(LevelKDominant((1, 2))),
)
# a checked tuple field: None and a tuple past MAX_E reach the other messages
vector = st.one_of(
    st.lists(small, max_size=4).map(tuple),
    st.none(),
    st.just((1,) * (MAX_E + 1)),
)
chars = st.one_of(
    st.integers(-2, 30), st.sampled_from([97, 91, MAX_CHAR + 1]), st.none()
)
partitions = st.lists(st.lists(st.integers(-1, 3), max_size=3).map(tuple), max_size=3)
tags = st.dictionaries(small, st.frozensets(st.integers(0, 5), max_size=2), max_size=2)

# record -> (the strategy of each field, how many fields its __init__ requires)
RECORDS = {
    WeightCoeffs: ([vector, small], 2),
    RootVector: ([vector], 1),
    LevelKDominant: ([vector], 1),
    MaxWeightEntry: ([value] * 2, 2),
    Arrow: ([small, small, st.tuples(small, small)], 3),
    WeightQuiver: ([value] * 2, 2),
    TQuiver: ([value] * 2 + [tags], 3),
    FieldParams: ([chars, st.sampled_from(TClass)], 0),
    ScriptSets: ([value] * 2, 2),
    OrbitResult: ([value, small, small], 3),
    Multipartition: ([partitions.map(tuple) | st.none()], 1),
    BrauerGraph: ([value] * 3, 3),
    PresArrow: ([st.text("ab", max_size=2), small, small, small], 4),
    QuiverPresentation: ([value] * 5, 5),
    DerivedInvariants: ([small] * 3 + [st.booleans()], 4),
    DecompResult: ([value, small], 2),
}
# the records whose own __init__ checks the fields, and the named tuple Arrow,
# take fields by keyword; every other record takes them by position only
KEYWORDS = {RootVector, LevelKDominant, FieldParams, Multipartition, Arrow}


def oracle_of(cls):
    return getattr(oracles, f"Frozen{cls.__name__}")


def field_names(cls) -> list[str]:
    oracle = oracle_of(cls)
    return list(oracle._fields) if cls is Arrow else [f.name for f in dataclasses.fields(oracle)]


def unfrozen(text: str) -> str:
    """An oracle's repr or message with its class named as the record's."""
    return text.replace("Frozen", "")


def built(cls, names, values, keywords):
    """The instance, or the type and message of what construction raised."""
    try:
        return cls(**dict(zip(names, values))) if keywords else cls(*values)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


def refusal(action, obj, name):
    """The message of the AttributeError that assigning or deleting raises."""
    with pytest.raises(AttributeError) as info:
        if action == "assign":
            setattr(obj, name, 0)
        else:
            delattr(obj, name)
    return unfrozen(str(info.value))


def outcome(f, *args):
    try:
        return f(*args)
    except TypeError as exc:
        return TypeError, str(exc)


@st.composite
def record_pairs(draw, cls):
    """Two argument lists for cls, the second sharing some fields with the
    first; each omits the same trailing defaults and is passed by position,
    or by keyword where cls takes keywords."""
    strategies, required = RECORDS[cls]
    given_count = draw(st.integers(required, len(strategies)))
    first = [draw(s) for s in strategies[:given_count]]
    second = [draw(st.just(v) | s) for v, s in zip(first, strategies)]
    return first, second, cls in KEYWORDS and draw(st.booleans())


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_record_matches_frozen_dataclass(cls, data):
    oracle = oracle_of(cls)
    names = field_names(cls)
    first, second, keywords = data.draw(record_pairs(cls))
    if cls not in KEYWORDS:
        with pytest.raises(TypeError):
            cls(**dict(zip(names, first)))
    a, oa = built(cls, names, first, keywords), built(oracle, names, first, keywords)
    b, ob = built(cls, names, second, keywords), built(oracle, names, second, keywords)
    failed = [(r, f) for r, f in ((a, oa), (b, ob)) if not isinstance(f, oracle)]
    for record, frozen in failed:
        assert record == frozen  # the same check failed with the same message
    if failed:
        return
    assert type(a) is cls and type(b) is cls
    assert type(a).__match_args__ == oracle.__match_args__ == tuple(names)
    assert repr(a) == unfrozen(repr(oa)) and repr(b) == unfrozen(repr(ob))
    assert (a == b) == (oa == ob) and (a != b) == (oa != ob)
    assert outcome(hash, a) == outcome(hash, oa)
    # a record never equals its oracle, but Arrow is a tuple like FrozenArrow
    assert (a == oa) == (cls is Arrow) and (a != oa) == (cls is not Arrow)
    assert (a == tuple(first)) == (oa == tuple(first))
    for name in [*names, "unknown"]:
        assert refusal("assign", a, name) == refusal("assign", oa, name)
        assert refusal("delete", a, name) == refusal("delete", oa, name)
    assert getattr(a, names[0]) is getattr(oa, names[0])
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is cls and repr(twin) == repr(a) and twin == a


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([0, 1, (1, 0), "a"]), min_size=2, max_size=2), tags)
def test_tquiver_never_equals_weight_quiver(fields, tag_sets):
    plain, tagged = WeightQuiver(*fields), TQuiver(*fields, tag_sets)
    assert plain != tagged and tagged != plain
    assert not plain == tagged and not tagged == plain


def test_decomp_result_compares_without_searched_nodes():
    a, b = DecompResult(((),), 3), DecompResult(((),), 5)
    assert a == b and hash(a) == hash(b) == hash((((),),))
    assert repr(a) == "DecompResult(solutions=((),), searched_nodes=3)"


def test_record_init_refuses_a_missing_extra_or_repeated_field():
    # Record.__init__ takes the fields by position only, so a keyword is
    # refused, whether it names a missing field, one given by position or none
    for args, message in (
        (("a", 0, 1), "PresArrow takes 4 fields, got 3"),
        (("a", 0, 1, 2, 3), "PresArrow takes 4 fields, got 5"),
    ):
        with pytest.raises(TypeError) as info:
            PresArrow(*args)
        assert str(info.value) == message
    for named in ({"dst_edge": 2}, {"vertex": 0}, {"colour": 0}):
        with pytest.raises(TypeError):
            PresArrow("a", 0, 1, **named)


def records_of(cls) -> list[type]:
    """Every subclass of cls, at any depth."""
    return [sub for child in cls.__subclasses__() for sub in [child, *records_of(child)]]


def test_only_the_checked_records_have_their_own_init():
    records = records_of(Record)
    assert set(records) == set(RECORDS) - {Arrow}
    assert {cls for cls in records if "__init__" in vars(cls)} == KEYWORDS - {Arrow}
    assert OrbitResult._fields == ("beta0", "m", "sums")
    assert WeightQuiver._fields == ("vertices", "arrows")
    assert TQuiver._fields == ("vertices", "arrows", "tags")
    assert WeightCoeffs._fields == ("lam", "delta")
    assert DecompResult._fields == ("solutions", "searched_nodes")


def bases(es, levels):
    """Every dominant weight with e in `es` and level in `levels`."""
    for e, level in itertools.product(es, levels):
        for cut in itertools.combinations(range(level + e - 1), e - 1):
            # stars and bars: the gaps between the e - 1 bars sum to level
            bounds = (-1, *cut, level + e - 1)
            yield LevelKDominant(tuple(b - a - 1 for a, b in zip(bounds, bounds[1:])))


def assert_checked(got, want):
    """`got`, built without its checks, is the record `want` that its
    checking constructor built, and a copy (which rebuilds it through the
    checks) is too."""
    assert type(got) is type(want)
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    twin = copy.copy(got)
    assert type(twin) is type(want) and twin == want and repr(twin) == repr(want)


def test_walk_records_are_the_checked_records():
    # every base with e = 2..6 and level 2..4
    for base in bases(range(2, 7), range(2, 5)):
        quivers = (build_quiver(base), t_subquiver(base))
        for entry in [*max_plus(base), *quivers[0].vertices, *quivers[1].vertices]:
            c, x = entry.weight.coeffs, entry.x
            assert type(x) is tuple
            assert_checked(entry, MaxWeightEntry(LevelKDominant(c), x))
            assert_checked(entry.weight, LevelKDominant(c))
            assert_checked(entry.beta, RootVector(x))
            assert_checked(entry.max_weight, WeightCoeffs(c, -x[0]))
        for q in quivers:
            # the base is the one vertex with X = 0, read off the first vertex
            assert q.base == base and q.base is q.vertices[0].weight
            for a in q.arrows:
                assert type(a) is Arrow and type(a.label) is tuple
                assert all(type(v) is int for v in (a.src, a.dst, *a.label))


def test_trusted_records_are_the_checked_records():
    # every base with e = 2..4 and level 1..2, against every beta with
    # entries 0..2: the orbit representatives and the shapes of each content
    for base in bases(range(2, 5), range(1, 3)):
        charges = charges_of(base.coeffs)
        for coeffs in itertools.product(range(3), repeat=len(base.coeffs)):
            beta = RootVector(coeffs)
            result = orbit_representative(base, beta)
            beta0 = result.beta0
            assert (result.status is OrbitStatus.ZERO) == (beta0 is None)
            if beta0 is not None:
                assert_checked(beta0, RootVector(beta0.coeffs))
            for shape in enumerate_with_content(charges, beta):
                assert_checked(shape, Multipartition(shape.components))
