"""The package's records against the frozen dataclasses they replaced.

Each record is built from the same drawn field values as its oracle in
`oracles` (`FrozenX` for record `X`): construction fails with the same error
and message or succeeds in both, and then `==`, `!=`, `hash`, `repr`, the
refusal of assignment and deletion, and `__match_args__` agree.  The records
that the class walk builds without their constructors' checks are compared
with the records the checking constructors build.
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
from klrblocks.cartan import RootVector, WeightCoeffs
from klrblocks.classify import MAX_CHAR, FieldParams, ScriptSets, TClass
from klrblocks.maxweights import MAX_E, LevelKDominant, MaxWeightEntry, max_plus
from klrblocks.quiver import Arrow, TQuiver, WeightQuiver, build_quiver, t_subquiver
from klrblocks.tableaux import Multipartition
from klrblocks.weyl import OrbitResult, OrbitStatus

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
    WeightCoeffs: ([vector, small], 1),
    RootVector: ([vector], 1),
    LevelKDominant: ([vector], 1),
    MaxWeightEntry: ([value] * 4, 4),
    Arrow: ([small, small, st.tuples(small, small)], 3),
    WeightQuiver: ([value] * 3, 3),
    TQuiver: ([value] * 3 + [tags], 4),
    FieldParams: ([chars, st.sampled_from(TClass)], 0),
    ScriptSets: ([value] * 2, 2),
    OrbitResult: ([st.sampled_from(OrbitStatus), value, small, small], 4),
    Multipartition: ([partitions.map(tuple) | st.none()], 1),
    BrauerGraph: ([value] * 3, 3),
    PresArrow: ([st.text("ab", max_size=2), small, small, small], 4),
    QuiverPresentation: ([value] * 5, 5),
    DerivedInvariants: ([small] * 5 + [st.booleans()], 6),
    DecompResult: ([value, st.booleans(), small], 2),
}


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
    first; each omits the same trailing defaults and is passed by keyword or
    by position."""
    strategies, required = RECORDS[cls]
    given_count = draw(st.integers(required, len(strategies)))
    first = [draw(s) for s in strategies[:given_count]]
    second = [draw(st.just(v) | s) for v, s in zip(first, strategies)]
    return first, second, draw(st.booleans())


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_record_matches_frozen_dataclass(cls, data):
    oracle = oracle_of(cls)
    names = field_names(cls)
    first, second, keywords = data.draw(record_pairs(cls))
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
@given(st.lists(st.sampled_from([0, 1, (1, 0), "a"]), min_size=3, max_size=3), tags)
def test_tquiver_never_equals_weight_quiver(fields, tag_sets):
    plain, tagged = WeightQuiver(*fields), TQuiver(*fields, tag_sets)
    assert plain != tagged and tagged != plain
    assert not plain == tagged and not tagged == plain


def test_decomp_result_compares_without_searched_nodes():
    a, b = DecompResult(((),), True, 3), DecompResult(((),), True, 5)
    assert a == b and hash(a) == hash(b) == hash((((),), True))
    assert repr(a) == "DecompResult(solutions=((),), unique=True, searched_nodes=3)"


def test_walk_records_are_the_checked_records():
    # every base with e = 2..6 and level 2..4; a copy rebuilds each record
    # through its checking __init__, so it also shows the invariants hold
    for e, level in itertools.product(range(2, 7), range(2, 5)):
        for cut in itertools.combinations(range(level + e - 1), e - 1):
            # stars and bars: the gaps between the e - 1 bars sum to level
            bounds = (-1, *cut, level + e - 1)
            base = LevelKDominant(tuple(b - a - 1 for a, b in zip(bounds, bounds[1:])))
            quivers = (build_quiver(base), t_subquiver(base))
            for entry in [*max_plus(base), *quivers[0].vertices, *quivers[1].vertices]:
                c, x = entry.weight.coeffs, entry.x
                checked = MaxWeightEntry(
                    LevelKDominant(c), x, RootVector(x), WeightCoeffs(c, -x[0])
                )
                assert type(x) is tuple
                for got, want in (
                    (entry, checked),
                    (entry.weight, checked.weight),
                    (entry.beta, checked.beta),
                    (entry.max_weight, checked.max_weight),
                ):
                    assert type(got) is type(want)
                    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
                    twin = copy.copy(got)
                    assert type(twin) is type(want) and twin == want and repr(twin) == repr(want)
            for q in quivers:
                for a in q.arrows:
                    assert type(a) is Arrow and type(a.label) is tuple
                    assert all(type(v) is int for v in (a.src, a.dst, *a.label))
