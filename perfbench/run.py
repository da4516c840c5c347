"""klrblocks benchmark: seeded CLI query workloads, timed in one process.

Run from the repository root:

    python3 perfbench/run.py --workload blocks --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Every query goes through the CLI's entry point `klrblocks.cli.run(argv, out,
err)` in this process, one after another: a closed loop with one client and
one thread.  A pass answers the workload's whole query list (workloads.py)
starting from empty package caches; passes repeat until --seconds are spent.
Interpreter start-up and import are measured separately, in fresh
interpreters, as setup_s.

The host's speed drifts, so every pass also times the reference kernel
(reference.py) right before each query and after the last one.  A query's
time is scaled by the mean of the two kernel times around it to the
reference speed, and its latency is the median of that over the passes.
wall_s is the sum of those latencies (the time to answer the whole list),
query_p50_ms and query_p90_ms are percentiles over them, ok_ratio is the
share of attempted queries that did not fail, and peak_rss_mb is the peak
RSS of this process.  setup_s is the median import time, each scaled by the
kernel's time in the same fresh interpreter.  The per-layer times of the
traced run are scaled the same way, query by query.  The unscaled wall time
is printed beside the metrics.

--trace 0 prints the end-to-end metrics.  --trace 1 spends half the time on
untraced passes and half on traced ones (tracing.py) and prints the per-layer
metrics, the tracing overhead, and writes spans and per-query scaling records
to perfbench/results/.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.

A well-formed query fails when it raises, exits with a code other than 0,
breaks an invariant in checks.py, prints something different from the
first pass, or (at the default seed) prints something whose digest differs
from golden/<workload>.json; any such failure makes `correct` false.  A
malformed query fails when it raises or exits with a code the README
contract does not give it; it counts in `failed` and ok_ratio only, so known
input-hardening defects stay visible without hiding output errors.

    python3 perfbench/run.py --record-golden

re-records the digests at the default seed; run it only on a commit whose
output is trusted.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import checks
import reference
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "perfbench")
GOLDEN = os.path.join(BENCH, "golden")
RESULTS = os.path.join(BENCH, "results")
WORK = os.path.join(BENCH, "work")

DEFAULT_SEED = 1
SETUP_REPEATS = 7
PASS_DEADLINE_S = 120.0  # start no pass after this, so a run ends within 180 s
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, 'src')\n"
    "t = time.perf_counter()\n"
    "import klrblocks, klrblocks.cli\n"
    "t = time.perf_counter() - t\n"
    "sys.path.insert(0, 'perfbench')\n"
    "import reference, statistics\n"
    "k = statistics.median(reference.kernel() for _ in range(7))\n"
    "print(reference.scaled(t, k))\n"
)
# Caches whose hits and misses the traced run reports.
HIT_MISS = {
    "maxweights.p_lambda_set": "klrblocks.maxweights.p_lambda_set",
    "tableaux.degree_table": "klrblocks.tableaux._degree_table",
}
SPAN_METRICS = [
    "maxweights.max_plus", "maxweights.equiv_class", "maxweights.solve_x",
    "quiver.build_quiver", "quiver.t_subquiver", "weyl.orbit_representative",
    "classify.classify", "classify.script_sets",
    "tableaux.graded_dim_total", "tableaux.graded_dim",
    "brauer.build", "brauer.derived_invariants", "brauer.quiver_presentation",
    "brauer.decomp_search",
]


class BenchError(Exception):
    pass


@dataclass
class PassResult:
    seconds: list[float]
    kernel: list[float]  # reference kernel before each query and after the last
    codes: list
    stdouts: list[str] | None  # dropped once judged; the digests remain
    digests: list[str]
    cache_info: dict
    cache_entries: int
    spans: list | None = None  # traced passes only
    counts: dict | None = None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def query_key(q: workloads.Query) -> str:
    """Identity of a query for the golden file: argv plus any graph file."""
    text = json.dumps(q.argv)
    if "--graph" in q.argv:
        path = q.argv[q.argv.index("--graph") + 1]
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                text += fh.read()
    return digest(text)


def import_program():
    sys.path.insert(0, SRC)
    import klrblocks.cli
    import klrblocks.tableaux

    if not os.path.abspath(klrblocks.__file__).startswith(SRC + os.sep):
        raise BenchError(f"klrblocks was imported from {klrblocks.__file__}, not {SRC}")
    return klrblocks


def package_caches() -> dict:
    """Every lru_cache in the loaded package, by qualified name."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name != "klrblocks" and not name.startswith("klrblocks."):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_info", None)) and callable(getattr(value, "cache_clear", None)):
                found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


def measure_setup() -> list[float]:
    """Import time of klrblocks and klrblocks.cli, each in a fresh interpreter.

    Each is scaled to the reference speed by the median of seven kernel times
    taken in the same interpreter after the import.  The first run is
    discarded: it compiles and caches the bytecode.
    """
    samples = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            samples.append(float(proc.stdout))
    return samples


def run_pass(queries, cli, caches: dict, tracer=None) -> PassResult:
    for cache in caches.values():
        cache.cache_clear()
    gc.collect()
    run = cli.run  # the traced wrapper once the tracer is installed
    seconds, kernel, codes, stdouts = [], [], [], []
    for i, q in enumerate(queries):
        kernel.append(reference.kernel())
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.query = i
        with contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = run(q.argv, out, err)
            except Exception as exc:  # a traceback is a failed query, not a crashed benchmark
                code = f"exception:{type(exc).__name__}"
            end = perf_counter()
        seconds.append(end - start)
        codes.append(code)
        stdouts.append(out.getvalue())
    kernel.append(reference.kernel())
    return PassResult(
        seconds,
        kernel,
        codes,
        stdouts,
        [digest(f"{c}\n{s}") for c, s in zip(codes, stdouts)],
        {name: cache.cache_info() for name, cache in caches.items()},
        sum(cache.cache_info().currsize for cache in caches.values()),
        tracer.spans if tracer is not None else None,
        dict(tracer.counts) if tracer is not None else None,
    )


class Judge:
    """Counts failed queries over every pass; checks outputs on the first."""

    def __init__(self, queries, golden: list | None, block_is_nonzero) -> None:
        self.queries = queries
        self.golden = golden
        self.block_is_nonzero = block_is_nonzero
        self.first: list[str] | None = None
        self.bad: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.well_formed_failed = 0
        self.reasons: Counter = Counter()

    def _check_first(self, result: PassResult) -> None:
        self.first = result.digests
        stdouts = [
            s if code == 0 else None for code, s in zip(result.codes, result.stdouts)
        ]
        self.bad.update(checks.check_pass(self.queries, stdouts, self.block_is_nonzero))
        if self.golden is None:
            return
        mine = [(i, query_key(q)) for i, q in enumerate(self.queries) if q.well_formed]
        for n, (i, key) in enumerate(mine):
            if n >= len(self.golden) or self.golden[n][0] != key:
                self.bad.setdefault(i, "golden: query differs from the recorded list")
            elif self.golden[n][1] != result.digests[i]:
                self.bad.setdefault(i, "golden: output differs from the recorded digest")

    def judge(self, result: PassResult) -> None:
        if self.first is None:
            self._check_first(result)
        for i, q in enumerate(self.queries):
            code = result.codes[i]
            if code not in q.expect:
                reason = f"exit {code}, expected {'/'.join(map(str, q.expect))}"
            elif i in self.bad:
                reason = self.bad[i]
            elif result.digests[i] != self.first[i]:
                reason = "output differs from the first pass"
            else:
                reason = None
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                self.well_formed_failed += q.well_formed
                self.reasons[(q.kind, reason)] += 1

    @property
    def correct(self) -> bool:
        return self.well_formed_failed == 0


def timed_passes(queries, cli, caches, judge: Judge, budget: float, started: float, tracer=None):
    """Repeat passes until `budget` seconds are spent (at least one pass)."""
    passes = []
    begin = perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        result = run_pass(queries, cli, caches, tracer)
        judge.judge(result)
        result.stdouts = None
        passes.append(result)
        now = perf_counter()
        if now - begin >= budget or now - started > PASS_DEADLINE_S:
            return passes


def pass_scale(result: PassResult) -> list[float]:
    """Per query, the factor that brings its seconds to the reference speed."""
    k = result.kernel
    return [reference.scaled(1.0, (k[i] + k[i + 1]) / 2) for i in range(len(result.seconds))]


def query_latencies(passes) -> list[float]:
    """Each query's latency in seconds at the reference speed, median over the passes."""
    scales = [pass_scale(result) for result in passes]
    return [
        statistics.median(result.seconds[i] * scale[i] for result, scale in zip(passes, scales))
        for i in range(len(passes[0].seconds))
    ]


def raw_wall(passes) -> float:
    """Sum over the queries of each one's unscaled median seconds."""
    return sum(statistics.median(result.seconds[i] for result in passes)
               for i in range(len(passes[0].seconds)))


def percentile_ms(latencies: list[float], p: int) -> float:
    return statistics.quantiles(latencies, n=100, method="inclusive")[p - 1] * 1000


def end_to_end(passes, judge: Judge, setup: list[float], peak_rss_mb: float) -> dict:
    latencies = query_latencies(passes)
    samples = f"{len(latencies)} queries, median of {len(passes)} passes each"
    return {
        "wall_s": (sum(latencies), "s", samples),
        "query_p50_ms": (percentile_ms(latencies, 50), "ms", samples),
        "query_p90_ms": (percentile_ms(latencies, 90), "ms", samples),
        "ok_ratio": (1 - judge.failed / judge.attempted, "ratio", f"{judge.attempted} queries"),
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters, scaled"),
        "peak_rss_mb": (peak_rss_mb, "MB", "1 process"),
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(result: PassResult) -> dict:
    inclusive, self_time, calls, _ = tracing.pass_profile(result.spans, pass_scale(result))
    counts = result.counts
    m = {f"{layer}.self_ms": (self_time[layer] * 1000, "ms") for layer in tracing.LAYERS}
    for name in SPAN_METRICS:
        m[f"{name}_ms"] = (inclusive[name] * 1000, "ms")
    m["maxweights.solve_x_calls"] = (calls["maxweights.solve_x"], "count")
    m["maxweights.class_members"] = (counts.get("class_members", 0), "count")
    m["maxweights.class_yield"] = (
        ratio(counts.get("class_members", 0), counts.get("compositions_scanned", 0)), "ratio")
    for metric, cache in HIT_MISS.items():
        info = result.cache_info[cache]
        m[f"{metric}_hits"] = (info.hits, "count")
        m[f"{metric}_misses"] = (info.misses, "count")
    m["quiver.arrows"] = (counts.get("arrows", 0), "count")
    m["weyl.reflections"] = (counts.get("reflections", 0), "count")
    m["brauer.searched_nodes"] = (counts.get("searched_nodes", 0), "count")
    m["brauer.decomp_yield"] = (
        ratio(counts.get("solutions", 0), counts.get("searched_nodes", 0)), "ratio")
    m["cache.entries"] = (result.cache_entries, "count")
    return m


def per_layer(traced, untraced_wall: float) -> dict:
    per_pass = [layer_metrics(result) for result in traced]
    n = f"median of {len(per_pass)} traced passes"
    out = {
        name: (statistics.median(p[name][0] for p in per_pass), unit, n)
        for name, (_, unit) in per_pass[0].items()
    }
    traced_wall = sum(query_latencies(traced))
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s", "traced minus untraced wall_s")
    return out


def scaling_records(queries, traced) -> list[dict]:
    """Per query: size tags, median latency and median self time per layer."""
    scales = [pass_scale(result) for result in traced]
    profiles = [tracing.pass_profile(result.spans, scale)[3] for result, scale in zip(traced, scales)]
    records = []
    for i, q in enumerate(queries):
        self_ms = {
            layer: statistics.median(p[i].get(layer, 0.0) for p in profiles) * 1000
            for layer in tracing.LAYERS
        }
        records.append({
            "query": i,
            "command": q.argv[0],
            "kind": q.kind,
            "tags": q.tags,
            "ms": statistics.median(
                result.seconds[i] * scale[i] for result, scale in zip(traced, scales)) * 1000,
            "self_ms": {k: v for k, v in self_ms.items() if v},
        })
    return records


def scaling_summary(records) -> dict:
    """Self ms per layer summed by each size tag value: the scaling curves."""
    summary: dict = {}
    for rec in records:
        for tag in ("e", "k", "beta", "n"):
            if tag not in rec["tags"]:
                continue
            row = summary.setdefault(tag, {}).setdefault(str(rec["tags"][tag]), {"queries": 0})
            row["queries"] += 1
            for layer, ms in rec["self_ms"].items():
                row[layer] = row.get(layer, 0.0) + ms
    return summary


def write_trace(workload: str, seed: int, traced, records) -> str:
    os.makedirs(RESULTS, exist_ok=True)
    spans = traced[0].spans
    t0 = spans[0][1] if spans else 0.0
    data = {
        "workload": workload,
        "seed": seed,
        "span_fields": ["name", "start_s", "end_s", "parent", "query", "self_s"],
        "spans": [[n, s - t0, e - t0, p, q, own] for n, s, e, p, q, own in spans],
        "queries": records,
        "scaling": scaling_summary(records),
    }
    path = os.path.join(RESULTS, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return os.path.relpath(path, ROOT)


def load_golden(workload: str, seed: int) -> list | None:
    if seed != DEFAULT_SEED:
        return None
    path = os.path.join(GOLDEN, f"{workload}.json")
    if not os.path.exists(path):
        return []  # every well-formed query then fails the golden comparison
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["queries"]


def report(workload: str, seed: int, metrics: dict, judge: Judge, unscaled_wall: float) -> None:
    print(f"{workload} seed={seed} correct={str(judge.correct).lower()} "
          f"attempted={judge.attempted} failed={judge.failed} "
          f"failed_ratio={judge.failed / judge.attempted:.4f}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit:<6} ({samples})")
    print(f"  {'(unscaled wall_s)':<36} {unscaled_wall:>14.6g} s      (not at the reference speed)")
    for (kind, reason), count in sorted(judge.reasons.items()):
        print(f"  failed {count:>5}  [{kind}] {reason}")


def nonzero_oracle(klrblocks):
    from klrblocks.cartan import RootVector

    def block_is_nonzero(base, beta) -> bool:
        return klrblocks.tableaux.block_is_nonzero(tuple(base), RootVector(tuple(beta)))

    return block_is_nonzero


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    started = perf_counter()
    klrblocks = import_program()
    caches = package_caches()
    setup = measure_setup()
    workdir = os.path.join(WORK, f"{workload}-seed{seed}")
    try:
        queries = workloads.generate(workload, seed, os.path.relpath(workdir, ROOT))
        judge = Judge(queries, load_golden(workload, seed), nonzero_oracle(klrblocks))
        budget = seconds / 2 if traced else seconds
        plain = timed_passes(queries, klrblocks.cli, caches, judge, budget, started)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end(plain, judge, setup, peak_rss_mb)
        unscaled_wall = raw_wall(plain)
        if traced:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_passes = timed_passes(queries, klrblocks.cli, caches, judge, budget, started, tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(traced_passes, metrics["wall_s"][0])
            records = scaling_records(queries, traced_passes)
            path = write_trace(workload, seed, traced_passes, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(workload, seed, metrics, judge, unscaled_wall)
    if traced:
        total = sum(metrics[f"{layer}.self_ms"][0] for layer in tracing.LAYERS)
        shares = ", ".join(
            f"{layer} {ratio(metrics[f'{layer}.self_ms'][0], total):.1%}" for layer in tracing.LAYERS
        )
        print(f"  self-time shares: {shares}")
        print(f"  spans and scaling records: {path}")
    return {
        "correct": judge.correct,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so caches and peak RSS stay separate."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {workload} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def record_golden(names) -> None:
    klrblocks = import_program()
    caches = package_caches()
    os.makedirs(GOLDEN, exist_ok=True)
    for workload in names:
        workdir = os.path.join(WORK, f"{workload}-seed{DEFAULT_SEED}")
        try:
            queries = workloads.generate(workload, DEFAULT_SEED, os.path.relpath(workdir, ROOT))
            judge = Judge(queries, None, nonzero_oracle(klrblocks))
            result = run_pass(queries, klrblocks.cli, caches)
            judge.judge(result)
            if not judge.correct:
                raise BenchError(f"{workload}: well-formed queries fail, not recording: {dict(judge.reasons)}")
            rows = [[query_key(q), d] for q, d in zip(queries, result.digests) if q.well_formed]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        with open(os.path.join(GOLDEN, f"{workload}.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": DEFAULT_SEED, "queries": rows}, fh, indent=0)
            fh.write("\n")
        print(f"recorded {len(rows)} digests for {workload}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="re-record output digests at the default seed and exit")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    try:
        if not os.path.isfile(os.path.join(SRC, "klrblocks", "cli.py")):
            raise BenchError(f"no klrblocks sources under {SRC}")
        if args.record_golden:
            record_golden(workloads.WORKLOADS if args.workload == "all" else (args.workload,))
            return 0
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
