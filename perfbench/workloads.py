"""Seeded query lists for the four benchmark workloads.

A workload is one list of CLI argument vectors (one "pass"), together with
what the benchmark knows about each query by construction: its size tags, the
exit codes the README contract allows, and the facts the correctness gate
checks.  Sizes come from fixed strata, so different seeds give different
inputs of nearly equal total work; the seed picks the weights, roots, shapes
and graphs inside each stratum.  Nothing here imports klrblocks: the program
only ever sees the generated argv and graph files.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("classes", "blocks", "gdim", "brauer")
MIN_QUERIES = 100  # per pass, so that at least 10 queries lie beyond p90

# classes: one maxweights query per stratum (ell, level), plus seven more
# bases at (8, 3).  That stratum costs as much as (6, 4) and well less than
# the strata above it, so the 90th percentile lies inside a band of nine
# similar queries instead of between two unlike ones.  ell = 16 at level 4
# takes seconds per maxweights query today, so maxweights stops at ell 14 /
# level 3 and ell 10 / level 4.  quiver stops at ell 12, below that band;
# tquiver covers ell up to 16.
MAXWEIGHTS_STRATA = (
    [(ell, 3) for ell in range(4, 15)] + [(ell, 4) for ell in range(4, 11)] + [(8, 3)] * 7
)
QUIVER_STRATA = [(ell, k) for ell in range(4, 13) for k in (3, 4)]
TQUIVER_STRATA = [(ell, k) for ell in range(4, 17) for k in (3, 4)]

# blocks: a pool of six bases takes most queries; each pool base misses the
# p_lambda_set cache once per pass.  Fresh bases (12% of the list) always miss.
POOL_STRATA = [(2, 3), (3, 4), (4, 5), (5, 3), (6, 4), (8, 3)]
POOL_QUERIES = 190
FRESH_STRATA = [(ell, k) for ell in range(2, 7) for k in (3, 4, 5)] * 2
MAX_HEIGHT = 100
MDELTA_SHARE = 0.25
CHARS = (0, 2, 3, 5, 7)
T_CLASSES = ("other", "signell", "sign", None)  # every valid class for ell >= 2
BOGUS_T = ("bogus", "three", "minus", "2x", "signel")

# gdim: blocks per stratum (e, level, |beta|, target number of standard
# tableaux of content beta).  The target is a common value of that count in
# the stratum, so the total work per pass barely depends on the seed.
GDIM_STRATA = [
    (2, 1, 8, 636), (3, 1, 8, 295), (4, 1, 8, 428),
    (2, 2, 6, 976), (2, 2, 7, 3256), (3, 2, 7, 2185), (4, 2, 7, 1096), (3, 2, 8, 7645),
    (2, 3, 5, 844), (3, 3, 6, 2088), (4, 3, 6, 1100), (4, 3, 7, 6376),
]
GDIM_BLOCKS_PER_STRATUM = 2
GDIM_CANDIDATES = 64

# brauer: decomp on every line-family member gamma(s, a, m) with s <= 3 and
# m <= 3, plus random trees, lines and D^t D matrices small enough that their
# searches stay below the line family's 90th-percentile query.
GAMMA_SWEEP = [(s, a, m) for s in range(4) for m in (1, 2, 3) for a in range(1, s + 3)]
BRAUER_GAMMA_QUERIES = 12
BRAUER_TREES = 8
BRAUER_LINES = 6
BRAUER_CARTANS = 10

# Every workload runs probes() once per pass, so that every layer is measured
# (with a small, nonzero time) on every workload.  These are its class
# queries; probes() adds one query for each other subcommand.
PROBES = [
    ("maxweights", (1, 0, 1, 1), "text"),
    ("quiver", (2, 0, 1, 0), "json"),
    ("tquiver", (2, 0, 1, 0, 0), "json"),
]


@dataclass
class Query:
    argv: list[str]
    tags: dict  # sizes e, k (level), beta (height), n (matrix size); probe/fresh flags
    kind: str = "ok"  # "ok" for well-formed input, else the malformed-input kind
    expect: tuple[int, ...] = (0,)  # exit codes the README contract allows
    check: dict = field(default_factory=dict)  # facts known by construction

    @property
    def well_formed(self) -> bool:
        return self.kind == "ok"


def csv(values) -> str:
    return ",".join(str(v) for v in values)


# --- weights, roots and charged multipartitions -----------------------------


def random_vector(rng: random.Random, e: int, height: int) -> tuple[int, ...]:
    coeffs = [0] * e
    for _ in range(height):
        coeffs[rng.randrange(e)] += 1
    return tuple(coeffs)


def fresh_weight(rng: random.Random, e: int, k: int, used: set) -> tuple[int, ...]:
    for _ in range(10_000):
        w = random_vector(rng, e, k)
        if w not in used:
            used.add(w)
            return w
    raise RuntimeError(f"no unused level-{k} weight left at e = {e}")


def charges_of(weight) -> tuple[int, ...]:
    return tuple(i for i, c in enumerate(weight) for _ in range(c))


def residue(charges, e: int, s: int, r: int, c: int) -> int:
    return (charges[s] + c - r) % e


def addable_nodes(comps):
    for s, comp in enumerate(comps):
        for r in range(len(comp) + 1):
            width = comp[r] if r < len(comp) else 0
            if r == 0 or comp[r - 1] > width:
                yield s, r, width


def removable_nodes(comps):
    for s, comp in enumerate(comps):
        for r, width in enumerate(comp):
            if r + 1 == len(comp) or comp[r + 1] < width:
                yield s, r, width - 1


def add_node(comps, s: int, r: int):
    comp = comps[s]
    new = comp + (1,) if r == len(comp) else comp[:r] + (comp[r] + 1,) + comp[r + 1 :]
    return comps[:s] + (new,) + comps[s + 1 :]


def remove_node(comps, s: int, r: int):
    comp = list(comps[s])
    comp[r] -= 1
    if comp[r] == 0:
        comp.pop()
    return comps[:s] + (tuple(comp),) + comps[s + 1 :]


def random_shape(rng: random.Random, charges, e: int, n: int):
    """Grow n random nodes; returns the multipartition and its residue content."""
    comps = ((),) * len(charges)
    content = [0] * e
    for _ in range(n):
        s, r, c = rng.choice(list(addable_nodes(comps)))
        comps = add_node(comps, s, r)
        content[residue(charges, e, s, r, c)] += 1
    return comps, tuple(content)


def random_filling(rng: random.Random, charges, e: int, comps) -> tuple[int, ...]:
    """Residue sequence of a random standard filling of the shape."""
    seq = []
    while any(comps):
        s, r, c = rng.choice(list(removable_nodes(comps)))
        seq.append(residue(charges, e, s, r, c))
        comps = remove_node(comps, s, r)
    return tuple(reversed(seq))


def tableau_counts(charges, e: int, beta) -> dict:
    """Number of standard tableaux of each shape with residue content beta.

    Forward count over shapes, adding one node of an unused residue at a time;
    independent of klrblocks, so it doubles as an oracle for graded_dim_total
    at q = 1 (the sum of the squared counts).
    """
    level = {((),) * len(charges): (1, tuple(beta))}
    for _ in range(sum(beta)):
        nxt: dict = {}
        for comps, (count, rem) in level.items():
            for s, r, c in addable_nodes(comps):
                res = residue(charges, e, s, r, c)
                if rem[res] == 0:
                    continue
                grown = add_node(comps, s, r)
                prev = nxt.get(grown)
                left = rem[:res] + (rem[res] - 1,) + rem[res + 1 :]
                nxt[grown] = ((prev[0] if prev else 0) + count, left)
        level = nxt
    return {comps: count for comps, (count, _) in level.items()}


# --- Brauer graphs -----------------------------------------------------------


def graph_cartan(mults, edges) -> list[list[int]]:
    """Edge-indexed Cartan matrix of a simple loopless Brauer graph."""
    n = len(edges)
    return [
        [
            mults[edges[i][0]] + mults[edges[i][1]]
            if i == j
            else sum(mults[v] for v in set(edges[i]) & set(edges[j]))
            for j in range(n)
        ]
        for i in range(n)
    ]


def gamma_graph(s: int, a: int, m: int):
    mults = [m] * (s + 2)
    mults[a - 1] = 1
    return mults, [(i, i + 1) for i in range(s + 1)]


def random_tree(rng: random.Random, nv: int, max_mult: int):
    edges = [(rng.randrange(i), i) for i in range(1, nv)]
    mults = [rng.randint(1, max_mult) for _ in range(nv)]
    rotation = {}
    for v in range(nv):
        incident = [eid for eid, edge in enumerate(edges) if v in edge]
        if len(incident) > 2:
            rng.shuffle(incident)
            rotation[v] = incident
    return mults, edges, rotation


def write_graph(path: str, mults, edges, rotation=None, ids=None) -> None:
    ids = ids if ids is not None else list(range(len(mults)))
    data = {
        "vertices": [{"id": i, "mult": m} for i, m in zip(ids, mults)],
        "edges": [list(edge) for edge in edges],
    }
    if rotation:
        data["rotation"] = {str(v): order for v, order in rotation.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


# --- query builders ----------------------------------------------------------


def class_query(cmd: str, weight, fmt: str) -> Query:
    e = len(weight)
    argv = [cmd, "--ell", str(e - 1), "--weight", csv(weight), "--format", fmt]
    return Query(argv, {"e": e, "k": sum(weight)}, check={"type": cmd, "base": weight, "format": fmt})


def classify_query(rng: random.Random, base, height: int, derived: bool) -> Query:
    """A classify query; a content-derived beta is nonzero by construction."""
    e = len(base)
    if derived:
        beta = random_shape(rng, charges_of(base), e, height)[1]
    else:
        beta = random_vector(rng, e, height)
    argv = ["classify", "--ell", str(e - 1), "--weight", csv(base), "--beta", csv(beta)]
    m = rng.randint(1, 3) if rng.random() < MDELTA_SHARE else 0
    if m:
        argv += ["--mdelta", str(m)]
    char = rng.choice(CHARS)
    if char or rng.random() < 0.5:
        argv += ["--char", str(char)]
    t_class = rng.choice(T_CLASSES)
    if t_class:
        argv += ["--t", t_class]
    fmt = rng.choice(("text", "json"))
    argv += ["--format", fmt]
    final = tuple(b + m for b in beta)
    return Query(
        argv,
        {"e": e, "k": sum(base), "beta": sum(final)},
        check={"type": "classify", "base": base, "beta": final, "nonzero": derived, "format": fmt},
    )


def gdim_total_query(base, beta, fmt: str, at_one: int) -> Query:
    e = len(base)
    argv = ["gdim", "--ell", str(e - 1), "--weight", csv(base), "--beta", csv(beta), "--format", fmt]
    return Query(
        argv,
        {"e": e, "k": sum(base), "beta": sum(beta)},
        check={"type": "gdim_total", "at_one": at_one, "format": fmt},
    )


def gdim_pair_query(base, beta, nu, nup, fmt: str, pair: int, nonzero: bool) -> Query:
    e = len(base)
    argv = [
        "gdim", "--ell", str(e - 1), "--weight", csv(base), "--beta", csv(beta),
        "--nu", csv(nu), "--nup", csv(nup), "--format", fmt,
    ]
    return Query(
        argv,
        {"e": e, "k": sum(base), "beta": sum(beta)},
        check={"type": "gdim_pair", "pair": pair, "nonzero": nonzero, "format": fmt},
    )


def brauer_query(source: list[str], mults, edges, fmt: str) -> Query:
    argv = ["brauer", *source, "--what", "all", "--format", fmt]
    return Query(
        argv,
        {"n": len(edges)},
        check={"type": "brauer", "cartan": graph_cartan(mults, edges),
               "vertices": len(mults), "edges": len(edges), "format": fmt},
    )


def decomp_query(source: list[str], cartan, fmt: str) -> Query:
    argv = ["decomp", *source, "--format", fmt]
    return Query(argv, {"n": len(cartan)}, check={"type": "decomp", "cartan": cartan, "format": fmt})


def probes() -> list[Query]:
    out = [class_query(cmd, w, fmt) for cmd, w, fmt in PROBES]
    out.append(Query(
        ["classify", "--ell", "2", "--weight", "4,0,0", "--beta", "2,0,0", "--char", "2"],
        {"e": 3, "k": 4, "beta": 2},
        check={"type": "classify", "base": (4, 0, 0), "beta": (2, 0, 0), "nonzero": True, "format": "text"},
    ))
    base, beta = (2, 1), (1, 1)
    counts = tableau_counts(charges_of(base), 2, beta)
    out.append(gdim_total_query(base, beta, "text", sum(c * c for c in counts.values())))
    out.append(gdim_pair_query(base, beta, (0, 1), (0, 1), "text", -1, True))
    out.append(gdim_pair_query(base, beta, (0, 1), (0, 1), "json", -1, True))
    mults, edges = gamma_graph(1, 1, 2)
    out.append(brauer_query(["--gamma", "1,1,2"], mults, edges, "json"))
    out.append(decomp_query(["--gamma", "1,1,2"], graph_cartan(mults, edges), "text"))
    for q in out:
        q.tags["probe"] = True
    return out


# --- workloads ---------------------------------------------------------------


def classes(rng: random.Random, workdir: str) -> list[Query]:
    used: set = set()
    queries = [
        class_query("maxweights", fresh_weight(rng, ell + 1, k, used), rng.choice(("text", "json")))
        for ell, k in MAXWEIGHTS_STRATA
    ]
    for cmd, strata in (("quiver", QUIVER_STRATA), ("tquiver", TQUIVER_STRATA)):
        for ell, k in strata * 2:
            w = fresh_weight(rng, ell + 1, k, used)
            queries.append(class_query(cmd, w, rng.choice(("text", "json", "dot"))))
    return queries


def blocks(rng: random.Random, workdir: str) -> list[Query]:
    used: set = set()
    pool = [fresh_weight(rng, ell + 1, k, used) for ell, k in POOL_STRATA]
    # Heights spread evenly from 1 to MAX_HEIGHT; each base takes every
    # len(pool)-th of them, alternately derived and random, so the cost of a
    # base's queries depends on the seed only through the base and the roots.
    queries = [
        classify_query(
            rng, pool[i % len(pool)], 1 + (i * (MAX_HEIGHT - 1)) // (POOL_QUERIES - 1),
            (i // len(pool)) % 2 == 0,
        )
        for i in range(POOL_QUERIES)
    ]
    for ell, k in FRESH_STRATA:
        base = fresh_weight(rng, ell + 1, k, used)
        # A beta built from a multipartition is nonzero, so the query always
        # reaches (and misses) p_lambda_set instead of stopping at Zero.
        q = classify_query(rng, base, rng.randint(1, MAX_HEIGHT), True)
        q.tags["fresh"] = True
        queries.append(q)
    return queries + malformed(rng, workdir)


def malformed(rng: random.Random, workdir: str) -> list[Query]:
    """Two queries of each malformed-input kind, with the README exit codes.

    Usage errors (bad vectors, unknown --t, a --graph file that does not
    exist, a --cartan that is not a matrix of integers) must exit 2.  A graph
    file whose vertex ids fall outside the vertex list is invalid graph data,
    reported like an out-of-range edge: exit 1.
    """
    out = []
    for i in range(2):
        ell = rng.randint(2, 8)
        base = random_vector(rng, ell + 1, rng.randint(3, 5))
        beta = random_vector(rng, ell + 1, rng.randint(1, 20))
        short = base[:-1] if i == 0 else base + (1,)
        out.append(Query(
            ["classify", "--ell", str(ell), "--weight", csv(short), "--beta", csv(beta)],
            {"e": ell + 1}, "wrong_length", (2,)))
        negative = list(beta)
        negative[rng.randrange(1, ell + 1)] = -rng.randint(1, 3)
        out.append(Query(
            ["classify", "--ell", str(ell), "--weight", csv(base), "--beta", csv(negative)],
            {"e": ell + 1}, "negative_coefficient", (2,)))
        out.append(Query(
            ["classify", "--ell", str(ell), "--weight", csv(base), "--beta", csv(beta),
             "--t", rng.choice(BOGUS_T)],
            {"e": ell + 1}, "unknown_t", (2,)))
        out.append(Query(
            [rng.choice(("brauer", "decomp")), "--graph", os.path.join(workdir, f"missing-{i}.json")],
            {}, "missing_graph_file", (2,)))
        mults, edges, rotation = random_tree(rng, rng.randint(3, 4), 2)
        ids = list(range(len(mults)))
        ids[rng.randrange(len(ids))] = len(ids) + rng.randint(0, 5)
        path = os.path.join(workdir, f"bad-vertex-id-{i}.json")
        write_graph(path, mults, edges, rotation, ids)
        out.append(Query(["brauer", "--graph", path], {}, "vertex_id_out_of_range", (1,)))
        rows = [[rng.randint(0, 4) for _ in range(2)] for _ in range(2)]
        tokens = [[str(v) for v in row] for row in rows]
        tokens[rng.randrange(2)][rng.randrange(2)] = rng.choice(("x", "", "1.5", "two"))
        out.append(Query(
            ["decomp", "--cartan", ";".join(",".join(row) for row in tokens)],
            {"n": 2}, "malformed_cartan", (2,)))
    return out


def gdim(rng: random.Random, workdir: str) -> list[Query]:
    used: set = set()
    groups = []
    pair = 0
    for e, k, n, target in GDIM_STRATA:
        for _ in range(GDIM_BLOCKS_PER_STRATUM):
            best = None
            for _ in range(GDIM_CANDIDATES):
                base = random_vector(rng, e, k)
                charges = charges_of(base)
                comps, beta = random_shape(rng, charges, e, n)
                if (base, beta) in used:
                    continue
                counts = tableau_counts(charges, e, beta)
                score = abs(math.log(sum(counts.values()) / target))
                if best is None or score < best[0]:
                    best = (score, base, charges, comps, beta, counts)
            if best is None:
                raise RuntimeError(f"no unused gdim block in stratum {(e, k, n)}")
            _, base, charges, comps, beta, counts = best
            used.add((base, beta))
            fmt = rng.choice(("text", "json"))
            group = [gdim_total_query(base, beta, fmt, sum(c * c for c in counts.values()))]
            same_shape = (random_filling(rng, charges, e, comps), random_filling(rng, charges, e, comps))
            nu = random_filling(rng, charges, e, comps)
            shuffled = list(nu)
            rng.shuffle(shuffled)
            # Two fillings of one shape give a nonzero result; a shuffled
            # residue sequence may give zero.  Each pair runs in both orders.
            for (left, right), nonzero in ((same_shape, True), ((nu, tuple(shuffled)), False)):
                fmt = rng.choice(("text", "json"))
                group.append(gdim_pair_query(base, beta, left, right, fmt, pair, nonzero))
                group.append(gdim_pair_query(base, beta, right, left, fmt, pair, nonzero))
                pair += 1
            groups.append(group)
    rng.shuffle(groups)
    return [q for group in groups for q in group]


def brauer(rng: random.Random, workdir: str) -> list[Query]:
    def fmt() -> str:
        return rng.choice(("text", "json"))

    queries = []
    for s, a, m in GAMMA_SWEEP:
        mults, edges = gamma_graph(s, a, m)
        queries.append(decomp_query(["--gamma", csv((s, a, m))], graph_cartan(mults, edges), fmt()))
    for _ in range(BRAUER_GAMMA_QUERIES):
        s, a, m = rng.choice(GAMMA_SWEEP)
        mults, edges = gamma_graph(s, a, m)
        queries.append(brauer_query(["--gamma", csv((s, a, m))], mults, edges, fmt()))
    graphs = []
    for _ in range(BRAUER_TREES):
        nv = rng.randint(3, 4)
        graphs.append(random_tree(rng, nv, 3 if nv == 3 else 2))
    for _ in range(BRAUER_LINES):
        nv = rng.randint(3, 4)
        mults = [rng.randint(1, 3 if nv == 3 else 2) for _ in range(nv)]
        graphs.append((mults, [(i, i + 1) for i in range(nv - 1)], {}))
    for i, (mults, edges, rotation) in enumerate(graphs):
        path = os.path.join(workdir, f"graph-{i}.json")
        write_graph(path, mults, edges, rotation)
        queries.append(brauer_query(["--graph", path], mults, edges, fmt()))
        queries.append(decomp_query(["--graph", path], graph_cartan(mults, edges), fmt()))
    for _ in range(BRAUER_CARTANS):
        n = rng.randint(2, 3)
        while True:
            d = [[rng.randint(0, 1) for _ in range(n)] for _ in range(rng.randint(n, n + 1))]
            if all(any(row[j] for row in d) for j in range(n)):
                break
        c = [[sum(row[i] * row[j] for row in d) for j in range(n)] for i in range(n)]
        queries.append(decomp_query(["--cartan", ";".join(csv(row) for row in c)], c, fmt()))
    return queries


def generate(workload: str, seed: int, workdir: str) -> list[Query]:
    """The pass of `workload` for `seed`: the same seed gives the same queries."""
    rng = random.Random(f"klrblocks-bench:{workload}:{seed}")
    os.makedirs(workdir, exist_ok=True)
    queries = globals()[workload](rng, workdir) + probes()
    if workload != "gdim":  # gdim keeps each block's total before its pairs
        rng.shuffle(queries)
    if len(queries) < MIN_QUERIES:
        raise RuntimeError(f"{workload} has {len(queries)} queries per pass, fewer than {MIN_QUERIES}")
    return queries
