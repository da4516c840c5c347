from __future__ import annotations

import importlib
import inspect
import pkgutil
import random
import sys
import tracemalloc

import pytest

import klrblocks
from klrblocks import maxweights, tableaux
from klrblocks.cartan import RootVector

from oracles import _removable, _res


def test_every_package_cache_is_bounded():
    """No lru_cache with arguments may grow for the life of the process."""
    caches = {}
    for info in pkgutil.iter_modules(klrblocks.__path__):
        module = importlib.import_module(f"klrblocks.{info.name}")
        for name, value in vars(module).items():
            cached = callable(getattr(value, "cache_info", None))
            if cached and value.__module__ == module.__name__:
                caches[f"{module.__name__}.{name}"] = value
    assert {"klrblocks.maxweights.p_lambda_set", "klrblocks.tableaux._walk"} <= set(caches)
    unbounded = [
        name
        for name, fn in caches.items()
        if fn.cache_info().maxsize is None and inspect.signature(fn).parameters
    ]
    assert unbounded == []


def test_large_e_walks_keep_nothing():
    # a class walk keeps no state past its return, whatever e
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for e in (481, 497, 509):
            assert len(maxweights.class_walk((1,) + (0,) * (e - 1))) == 1
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2 << 20


def random_tableau_sequence(rnd: random.Random, charges, e: int, comps) -> tuple[int, ...]:
    """The residue sequence of a random standard tableau of shape comps: its
    nodes are taken off in a random order of removable nodes."""
    comps, seq = [list(p) for p in comps], []
    while any(comps):
        s, r, c = rnd.choice([(s, r, c) for s, p in enumerate(comps) for r, c in _removable(tuple(p))])
        seq.append(_res(charges, e, s, r, c))
        if c:
            comps[s][r] = c
        else:
            comps[s].pop(r)
    return tuple(reversed(seq))


@pytest.mark.parametrize(
    "charges, beta, shapes, most_mb",
    [
        # the most shapes a lattice under the shape limit was found to have
        ((0, 0, 0, 0), (3, 3, 3, 4), 18_587, 2),
        # the block found whose functions of shapes of content beta are the
        # largest (2.5 MB), so the one that sets the cache's byte bound
        ((0,), (14, 14), 17_332, 10),
    ],
)
def test_a_full_walk_cache_on_the_largest_lattices_stays_small(charges, beta, shapes, most_mb):
    """WALK_CACHE walks of a block.  A walk holds at most one state per
    shape of content beta, none wider than that shape's function in the
    lattice, so the full cache holds less than WALK_CACHE copies of those
    functions."""
    moves, full, _ = tableaux._degree_table(charges, beta)
    assert len(moves) == shapes
    functions = {i: f for i, (_, f) in enumerate(full)}
    most = sys.getsizeof(functions) + sum(
        sys.getsizeof(f) + sys.getsizeof(f[0]) + sys.getsizeof(f[1]) + sys.getsizeof(i)
        for i, f in functions.items()
    )
    shapes = [tableaux._decode(shape, len(charges)) for shape, _ in full]
    rnd, seqs = random.Random(0), set()
    while len(seqs) < tableaux.WALK_CACHE:
        seqs.add(random_tableau_sequence(rnd, charges, len(beta), rnd.choice(shapes)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for nu in seqs:
            assert tableaux.graded_dim(charges, RootVector(beta), nu, nu)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert tableaux._walk.cache_info().currsize == tableaux.WALK_CACHE
    assert held < tableaux.WALK_CACHE * most < most_mb << 20
