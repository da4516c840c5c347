"""The correctness gate: invariants every query's output must satisfy.

Each check parses the CLI output and tests a fact the benchmark knows
independently of klrblocks: the sieving class and the Cartan relation for
solution vectors, D^t D = C for decomposition matrices, the symmetry of
pairwise graded dimensions, tableau counts at q = 1, and nonvanishing of
blocks built from a multipartition.  The one exception is the classify
cross-check, which compares against klrblocks' own tableau oracle
(`block_is_nonzero`) on small blocks.
"""

from __future__ import annotations

import json
import re

ORACLE_MAX_HEIGHT = 8
REP_TYPES = ("Zero", "Finite", "Tame", "Wild")


class CheckError(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def sieving_class(base) -> set[tuple[int, ...]]:
    """All level-k dominant weights with the same ev statistic mod e."""
    e, level = len(base), sum(base)
    target = sum(i * c for i, c in enumerate(base)) % e
    out = set()

    def extend(prefix: tuple[int, ...], left: int) -> None:
        if len(prefix) == e - 1:
            c = prefix + (left,)
            if sum(i * ci for i, ci in enumerate(c)) % e == target:
                out.add(c)
            return
        for head in range(left + 1):
            extend(prefix + (head,), left - head)

    extend((), level)
    return out


def apply_cartan(x) -> tuple[int, ...]:
    e = len(x)
    if e == 2:
        return (2 * x[0] - 2 * x[1], 2 * x[1] - 2 * x[0])
    return tuple(2 * x[i] - x[i - 1] - x[(i + 1) % e] for i in range(e))


def parse_weight_name(name: str) -> dict[int, int]:
    coeffs: dict[int, int] = {}
    for term in name.split("+"):
        m = re.fullmatch(r"(\d*)Λ(\d+)", term)
        require(m is not None, f"bad weight name {name!r}")
        coeffs[int(m.group(2))] = int(m.group(1) or 1)
    return coeffs


def weight_from_name(name: str, e: int) -> tuple[int, ...]:
    coeffs = parse_weight_name(name)
    require(all(i < e for i in coeffs), f"weight {name!r} has an index >= e")
    return tuple(coeffs.get(i, 0) for i in range(e))


def vector(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def check_solution(base, weight, x) -> None:
    require(min(x) == 0, f"min X != 0 for {weight}")
    diff = tuple(b - w for b, w in zip(base, weight))
    require(apply_cartan(x) == diff, f"A X != base - member for {weight}")


def class_vertices(check: dict, stdout: str) -> list[tuple[tuple[int, ...], tuple[int, ...] | None]]:
    """(weight, X or None) per vertex or entry, from any output format."""
    base, fmt, cmd = check["base"], check["format"], check["type"]
    e = len(base)
    if fmt == "json":
        data = json.loads(stdout)
        if cmd == "maxweights":
            out = []
            for entry in data["entries"]:
                require(entry["beta"] == entry["x"], "beta != X")
                require(entry["max_weight"]["lam"] == entry["weight"], "max weight != member")
                require(entry["max_weight"]["delta"] == -entry["x"][0], "max weight delta != -x_0")
                out.append((tuple(entry["weight"]), tuple(entry["x"])))
            return out
        return [(tuple(v["coeffs"]), tuple(v["x"])) for v in data["vertices"]]
    if fmt == "dot":
        names = re.findall(r'^\s+v\d+ \[label="([^" ]+)(?: \[[\d,]*\])?"\];$', stdout, re.M)
        return [(weight_from_name(n, e), None) for n in names]
    if cmd == "maxweights":
        rows = re.findall(r"^(\S+)\s+X=\(([\d,]+)\)\s+beta=\(([\d,]+)\)\s+max=\S+$", stdout, re.M)
        require(all(x == b for _, x, b in rows), "beta != X")
        return [(weight_from_name(n, e), vector(x)) for n, x, _ in rows]
    rows = re.findall(r"^\d+: (\S+)(?: \[[\d,]*\])? X=\(([\d,]+)\)$", stdout, re.M)
    return [(weight_from_name(n, e), vector(x)) for n, x in rows]


def check_class(check: dict, stdout: str) -> None:
    base = check["base"]
    vertices = class_vertices(check, stdout)
    require(vertices, "no vertices in output")
    for weight, x in vertices:
        if x is not None:
            check_solution(base, weight, x)
    members = {w for w, _ in vertices}
    require(len(members) == len(vertices), "repeated class member")
    cls = sieving_class(base)
    if check["type"] == "tquiver":
        require(tuple(base) in members and members <= cls, "tquiver vertices outside the class")
    else:
        require(members == cls, "vertex set != sieving class")


def parse_poly(text: str) -> dict[int, int]:
    """Laurent polynomial terms from the CLI's text form, e.g. 'q^{-2} + 3 + 5q^2'."""
    text = text.strip()
    if text == "0":
        return {}
    terms: dict[int, int] = {}
    sign = 1
    for tok in text.split(" "):
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        m = re.fullmatch(r"(\d*)(q(?:\^(?:\{(-?\d+)\}|(\d+)))?)?", tok)
        require(m is not None and tok != "", f"bad polynomial term {tok!r}")
        coeff, q, exp_braced, exp_plain = m.groups()
        exp = 0 if not q else int(exp_braced or exp_plain or 1)
        require(exp not in terms, f"repeated exponent in {text!r}")
        terms[exp] = sign * int(coeff or 1)
        sign = 1
    return terms


def gdim_terms(check: dict, stdout: str) -> dict[int, int]:
    if check["format"] == "json":
        return {int(k): v for k, v in json.loads(stdout)["terms"].items()}
    return parse_poly(stdout)


def decomp_solutions(check: dict, stdout: str) -> tuple[bool, list[list[list[int]]]]:
    if check["format"] == "json":
        data = json.loads(stdout)
        require(data["cartan"] == check["cartan"], "reported Cartan matrix != expected")
        return data["unique"], data["solutions"]
    lines = stdout.splitlines()
    require(lines and lines[0] in ("unique: yes", "unique: no"), "missing 'unique:' line")
    solutions: list[list[list[int]]] = []
    for line in lines[1:]:
        if line.startswith("solution "):
            solutions.append([])
        else:
            require(bool(solutions), f"row before any solution: {line!r}")
            solutions[-1].append([int(v) for v in line.split()])
    return lines[0] == "unique: yes", solutions


def check_decomp(check: dict, stdout: str) -> None:
    c = check["cartan"]
    n = len(c)
    unique, solutions = decomp_solutions(check, stdout)
    require(solutions, "no decomposition matrix found for a C = D^t D")
    require(unique == (len(solutions) == 1), "'unique' disagrees with the solution count")
    for d in solutions:
        require(all(len(row) == n for row in d), "solution row of the wrong length")
        dtd = [[sum(row[i] * row[j] for row in d) for j in range(n)] for i in range(n)]
        require(dtd == c, "D^t D != C")


def check_brauer(check: dict, stdout: str) -> None:
    if check["format"] == "json":
        data = json.loads(stdout)
        inv = data["invariants"]
        require((inv["vertices"], inv["edges"]) == (check["vertices"], check["edges"]),
                "vertex or edge count differs from the graph")
        cartan = data["cartan"]
        require(len(data["quiver"]["vertices"]) == check["edges"], "quiver vertex count != edges")
    else:
        block = stdout.split("[cartan]\n", 1)[1].split("[", 1)[0]
        cartan = [[int(v) for v in line.split()] for line in block.splitlines() if line.strip()]
    require(cartan == check["cartan"], "Cartan matrix differs from the graph's")


def classify_type(check: dict, stdout: str) -> str:
    rep = json.loads(stdout)["type"] if check["format"] == "json" else stdout.strip()
    require(rep in REP_TYPES, f"unknown representation type {rep!r}")
    return rep


def check_query(check: dict, stdout: str, block_is_nonzero) -> None:
    kind = check["type"]
    if kind in ("maxweights", "quiver", "tquiver"):
        check_class(check, stdout)
    elif kind == "classify":
        rep = classify_type(check, stdout)
        if check["nonzero"]:
            require(rep != "Zero", "Zero for a block built from a multipartition")
        if sum(check["beta"]) <= ORACLE_MAX_HEIGHT:
            nonzero = block_is_nonzero(check["base"], check["beta"])
            require((rep == "Zero") == (not nonzero), "classify disagrees with block_is_nonzero")
    elif kind == "gdim_total":
        terms = gdim_terms(check, stdout)
        require(sum(terms.values()) == check["at_one"], "total at q=1 != sum of squared tableau counts")
    elif kind == "gdim_pair":
        if check["nonzero"]:
            require(bool(gdim_terms(check, stdout)), "zero for two fillings of one shape")
    elif kind == "decomp":
        check_decomp(check, stdout)
    elif kind == "brauer":
        check_brauer(check, stdout)
    else:
        raise CheckError(f"no check for {kind!r}")


def check_pass(queries, stdouts, block_is_nonzero) -> dict[int, str]:
    """Reasons for every well-formed query of a pass whose output is wrong."""
    bad: dict[int, str] = {}
    pairs: dict[int, list[int]] = {}
    for i, (q, stdout) in enumerate(zip(queries, stdouts)):
        if not q.well_formed or stdout is None:
            continue
        try:
            check_query(q.check, stdout, block_is_nonzero)
        except (CheckError, ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            bad[i] = f"check: {exc}"
        if q.check["type"] == "gdim_pair":
            pairs.setdefault(q.check["pair"], []).append(i)
    for members in pairs.values():
        try:
            polys = [gdim_terms(queries[i].check, stdouts[i]) for i in members]
        except (CheckError, ValueError, KeyError) as exc:
            polys = [str(exc)]
        if any(p != polys[0] for p in polys):
            for i in members:
                bad.setdefault(i, "check: graded_dim(nu, nu') != graded_dim(nu', nu)")
    return bad
