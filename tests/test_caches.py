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
