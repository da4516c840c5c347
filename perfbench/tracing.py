"""Spans around the public functions of each klrblocks layer.

The benchmark wraps the functions itself; nothing inside `src/` is traced.
Each call records a span (name, start, end, parent span, query id, self
time) in memory.  Work counts come from public return values; cache hits and
misses come from `cache_info()`.  The `cartan` helpers are too fine-grained to
wrap, so their cost lands in the self time of `maxweights.solve_x` and
`weyl.orbit_representative`, which call them.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from math import comb
from time import perf_counter

# layer -> wrapped public functions; a dotted name is a static method.
TRACED = {
    "cli": ("run",),
    "maxweights": ("max_plus", "equiv_class", "solve_x", "p_lambda_set"),
    "quiver": ("build_quiver", "t_subquiver"),
    "weyl": ("orbit_representative",),
    "classify": ("classify", "script_sets"),
    "tableaux": ("graded_dim_total", "graded_dim"),
    "brauer": ("BrauerGraph.build", "derived_invariants", "quiver_presentation", "decomp_search"),
}
LAYERS = tuple(TRACED)


def _equiv_class(counts: Counter, args, result) -> None:
    coeffs = args[0].coeffs
    counts["class_members"] += len(result)
    counts["compositions_scanned"] += comb(sum(coeffs) + len(coeffs) - 1, len(coeffs) - 1)


def _arrows(counts: Counter, args, result) -> None:
    counts["arrows"] += len(result.arrows)


def _reflections(counts: Counter, args, result) -> None:
    counts["reflections"] += result.reflection_count


def _decomp(counts: Counter, args, result) -> None:
    counts["searched_nodes"] += result.searched_nodes
    counts["solutions"] += len(result.solutions)


OBSERVERS = {
    "maxweights.equiv_class": _equiv_class,
    "quiver.build_quiver": _arrows,
    "quiver.t_subquiver": _arrows,
    "weyl.orbit_representative": _reflections,
    "brauer.decomp_search": _decomp,
}


class Tracer:
    """Installs span wrappers into the loaded klrblocks modules."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index, query id, self seconds)
        self.counts: Counter = Counter()
        self.query = -1
        self._stack: list[list] = []  # [span index, seconds spent in child spans]
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [index, 0.0]
            self.spans.append(None)
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans[index] = (name, start, end, parent, self.query, end - start - frame[1])
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "klrblocks" or n.startswith("klrblocks.")]
        for layer, names in TRACED.items():
            module = sys.modules[f"klrblocks.{layer}"]
            for name in names:
                span = f"{layer}.{name.rsplit('.', 1)[-1]}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    self._patches.append((cls, attr, original))
                    setattr(cls, attr, staticmethod(self.wrap(span, original.__func__)))
                    continue
                original = getattr(module, name)
                wrapped = self.wrap(span, original)
                # Patch every module that bound the function by name.
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def pass_profile(spans, scale) -> tuple[dict, dict, Counter, dict]:
    """Inclusive seconds and calls per span name, self seconds per layer and
    per query; each span's seconds are multiplied by scale[its query]."""
    inclusive: dict = defaultdict(float)
    calls: Counter = Counter()
    self_time: dict = defaultdict(float)
    per_query: dict = defaultdict(lambda: defaultdict(float))
    for name, start, end, _, query, own in spans:
        layer = name.split(".", 1)[0]
        factor = scale[query]
        inclusive[name] += (end - start) * factor
        calls[name] += 1
        self_time[layer] += own * factor
        per_query[query][layer] += own * factor
    return inclusive, self_time, calls, per_query
