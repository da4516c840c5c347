from __future__ import annotations

import importlib
import inspect
import pkgutil
import tracemalloc

import klrblocks
from klrblocks import maxweights


def test_every_package_cache_is_bounded():
    """No lru_cache with arguments may grow for the life of the process."""
    caches = {}
    for info in pkgutil.iter_modules(klrblocks.__path__):
        module = importlib.import_module(f"klrblocks.{info.name}")
        for name, value in vars(module).items():
            cached = callable(getattr(value, "cache_info", None))
            if cached and value.__module__ == module.__name__:
                caches[f"{module.__name__}.{name}"] = value
    assert "klrblocks.maxweights.p_lambda_set" in caches
    assert "klrblocks.maxweights._label_table" in caches
    unbounded = [
        name
        for name, fn in caches.items()
        if fn.cache_info().maxsize is None and inspect.signature(fn).parameters
    ]
    assert unbounded == []


def test_label_tables_past_the_cached_e_are_not_kept():
    # a whole label table holds about 51 MB at e = 512, and the cache keeps
    # one per e up to LABEL_TABLE_MAX_E; a walk past it builds only the rows
    # it reads, and keeps none of them
    assert maxweights.LABEL_TABLE_MAX_E < 481
    maxweights._label_table.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for e in (481, 497, 509):
            assert len(maxweights.class_walk((1,) + (0,) * (e - 1))) == 1
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2 << 20
    assert maxweights._label_table.cache_info().currsize == 0
