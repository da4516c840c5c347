"""Command-line front end; all output is deterministic for fixed input.

Exit codes: 0 on success, 1 on domain errors (a vanishing block is data, not
an error), 2 on usage errors.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace

from .brauer import (
    BrauerGraph,
    InvalidGraphError,
    decomp_search,
    derived_invariants,
    gamma_family,
    graph_cartan_matrix,
    quiver_presentation,
)
from .cartan import RootVector
from .classify import FieldParams, TClass, TClassRankError, classify
from .maxweights import LevelKDominant, max_plus
from .quiver import TQuiver, WeightQuiver, build_quiver, t_subquiver
from .tableaux import charges_of, graded_dim, graded_dim_total


class UsageError(ValueError):
    pass


# Every line boundary str.splitlines knows, written as its escape, so that an
# error message quoting user text stays on one line.
_LINE_BREAKS = str.maketrans(
    {c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}
)


def _write_json(obj, out) -> None:
    """One JSON document and a newline; json.dumps takes the C encoder."""
    import json  # only JSON output needs it, so text queries start faster

    out.write(json.dumps(obj) + "\n")


def _parse_int_vector(text: str, expected_len: int | None, what: str) -> tuple[int, ...]:
    if not text and expected_len == 0:  # e.g. --nu= for beta = 0
        return ()
    try:
        vals = tuple(map(int, text.split(",")))
    except ValueError as exc:
        raise UsageError(f"--{what}: expected comma-separated integers") from exc
    if expected_len is not None and len(vals) != expected_len:
        raise UsageError(
            f"--{what}: expected {expected_len} comma-separated values, got {len(vals)}"
        )
    return vals


def _weight_from_args(args) -> LevelKDominant:
    coeffs = _parse_int_vector(args.weight, args.ell + 1, "weight")
    if any(c < 0 for c in coeffs):
        raise UsageError("--weight: coefficients must be nonnegative")
    return LevelKDominant(coeffs)


def _beta_from_args(args) -> RootVector:
    coeffs = _parse_int_vector(args.beta, args.ell + 1, "beta")
    if any(c < 0 for c in coeffs):
        raise UsageError("--beta: coefficients must be nonnegative")
    coeffs = tuple(c + args.mdelta for c in coeffs)
    if any(c < 0 for c in coeffs):
        raise UsageError("--mdelta: beta + mdelta*delta has a negative coefficient")
    return RootVector(coeffs)


def weight_name(coeffs: tuple[int, ...]) -> str:
    """Render a dominant weight the way the figures do, e.g. '2Λ0+Λ2'."""
    parts = [f"Λ{i}" if c == 1 else f"{c}Λ{i}" for i, c in enumerate(coeffs) if c > 0]
    return "+".join(parts) or "0"


def _vec(x) -> str:
    return "(" + ",".join(map(str, x)) + ")"


def _tag_suffix(q: WeightQuiver, vid: int) -> str:
    """' [s,...]' for a vertex carrying tags, '' otherwise."""
    tags = q.tags.get(vid) if isinstance(q, TQuiver) else None
    return " [" + ",".join(str(s) for s in sorted(tags)) + "]" if tags else ""


def quiver_to_json_dict(q: WeightQuiver | TQuiver) -> dict:
    data = {
        "ell": len(q.base.coeffs) - 1,
        "k": q.base.level,
        "base": list(q.base.coeffs),
        "vertices": [
            {
                "coeffs": list(v.weight.coeffs),
                "x": list(v.x),
                "beta": list(v.beta.coeffs),
            }
            for v in q.vertices
        ],
        "arrows": [{"src": s, "dst": d, "label": [i, j]} for s, d, (i, j) in q.arrows],
    }
    if isinstance(q, TQuiver):
        data["tags"] = {
            str(vid): sorted(tags) for vid, tags in sorted(q.tags.items())
        }
    return data


def quiver_to_dot(q: WeightQuiver | TQuiver) -> str:
    lines = ["digraph quiver {", "  rankdir=LR;"]
    for vid, v in enumerate(q.vertices):
        label = weight_name(v.weight.coeffs) + _tag_suffix(q, vid)
        lines.append(f'  v{vid} [label="{label}"];')
    lines.extend([f'  v{s} -> v{d} [label="({i},{j})"];' for s, d, (i, j) in q.arrows])
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_maxweights(args, out) -> int:
    base = _weight_from_args(args)
    entries = max_plus(base)
    if args.format == "json":
        data = [
            {
                "weight": list(e.weight.coeffs),
                "x": list(e.x),
                "beta": list(e.beta.coeffs),
                "max_weight": {"lam": list(e.max_weight.lam), "delta": e.max_weight.delta},
            }
            for e in entries
        ]
        _write_json({"ell": args.ell, "base": list(base.coeffs), "entries": data}, out)
        return 0
    for e in entries:
        # max_weight.lam is weight.coeffs, so one name serves both columns
        name = weight_name(e.weight.coeffs)
        d = e.max_weight.delta
        mw = name if d == 0 else f"{name}{d:+d}δ"
        out.write(f"{name:<24} X={_vec(e.x):<20} beta={_vec(e.beta.coeffs):<20} max={mw}\n")
    return 0


def _emit_quiver(q, args, out) -> int:
    if args.format == "json":
        _write_json(quiver_to_json_dict(q), out)
    elif args.format == "dot":
        out.write(quiver_to_dot(q))
    else:
        for vid, v in enumerate(q.vertices):
            name = weight_name(v.weight.coeffs) + _tag_suffix(q, vid)
            out.write(f"{vid}: {name} X={_vec(v.x)}\n")
        out.write("".join([f"{s} -> {d} ({i},{j})\n" for s, d, (i, j) in q.arrows]))
    return 0


def _cmd_quiver(args, out) -> int:
    return _emit_quiver(build_quiver(_weight_from_args(args)), args, out)


def _cmd_tquiver(args, out) -> int:
    return _emit_quiver(t_subquiver(_weight_from_args(args)), args, out)


_T_ALIASES = {"2": "two", "-2": "minustwo", "sign": "signell"}


def _t_class_from_args(args) -> TClass:
    key = args.t.lower()
    try:
        return TClass(_T_ALIASES.get(key, key))
    except ValueError:
        raise UsageError(f"--t: unknown class {args.t!r}") from None


def _cmd_classify(args, out) -> int:
    base = _weight_from_args(args)
    beta = _beta_from_args(args)
    params = FieldParams(char_p=args.char, t_class=_t_class_from_args(args))
    try:
        result = classify(base, beta, params)
    except TClassRankError as exc:
        raise UsageError(str(exc)) from exc
    if args.format == "json":
        _write_json({"ell": args.ell, "base": list(base.coeffs), "beta": list(beta.coeffs),
                     "char": args.char, "t": args.t, "type": str(result)}, out)
    else:
        out.write(f"{result}\n")
    return 0


def _cmd_gdim(args, out) -> int:
    base = _weight_from_args(args)
    beta = _beta_from_args(args)
    charges = charges_of(base.coeffs)
    if (args.nu is None) != (args.nup is None):
        raise UsageError("--nu and --nup must be given together")
    if args.nu is None:
        poly = graded_dim_total(charges, beta)
        label = "total"
    else:
        nu = _parse_int_vector(args.nu, beta.height, "nu")
        nup = _parse_int_vector(args.nup, beta.height, "nup")
        poly = graded_dim(charges, beta, nu, nup)
        label = f"e{_vec(nu)} .. e{_vec(nup)}"
    if args.format == "json":
        terms = {str(k): v for k, v in sorted(poly.terms.items())}
        _write_json({"ell": args.ell, "base": list(base.coeffs), "beta": list(beta.coeffs),
                     "which": label, "terms": terms, "at_one": poly.at_one()}, out)
    else:
        out.write(f"{poly}\n")
    return 0


def _graph_from_args(args) -> BrauerGraph:
    if args.gamma is not None:
        s, a, m = _parse_int_vector(args.gamma, 3, "gamma")
        return gamma_family(s, a, m)
    if args.graph is None:
        raise UsageError("need either --graph FILE or --gamma s,a,m")
    import json  # only --graph input needs it

    try:
        with open(args.graph, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"--graph: cannot read {args.graph}: {exc.strerror}") from exc
    if not (
        isinstance(data, dict)
        and isinstance(data.get("vertices"), list)
        and isinstance(data.get("edges"), list)
        and isinstance(data.get("rotation", {}), dict)
    ):
        raise InvalidGraphError(
            'graph JSON must be an object with "vertices" and "edges" lists '
            'and an optional "rotation" object'
        )
    rotation = data.get("rotation", {})
    if not all(isinstance(x, list) for x in data["edges"] + list(rotation.values())):
        raise InvalidGraphError("each edge and each rotation must be a list")
    # BrauerGraph.build checks the integers; the ids only place the vertices.
    n = len(data["vertices"])
    mults = {}
    for v in data["vertices"]:
        vid = v.get("id") if isinstance(v, dict) else None
        if type(vid) is not int or not 0 <= vid < n:
            raise InvalidGraphError(f"vertex id {vid!r} outside 0..{n - 1}")
        if vid in mults:
            raise InvalidGraphError(f"duplicate vertex id {vid}")
        mults[vid] = v.get("mult")
    # only "0".."n-1" name a vertex; build refuses every other key
    names = {str(i): i for i in range(n)}
    rotations = {names.get(k, k): order for k, order in rotation.items()}
    return BrauerGraph.build([mults[i] for i in range(n)], data["edges"], rotations)


def _cmd_brauer(args, out) -> int:
    g = _graph_from_args(args)
    show = args.what
    result: dict = {}
    if show in ("invariants", "all"):
        inv = derived_invariants(g)
        result["invariants"] = {
            "vertices": inv.n_vertices,
            "edges": inv.n_edges,
            "faces": inv.n_faces,
            "multiplicities": list(inv.mult_multiset),
            "perimeters": list(inv.perimeter_multiset),
            "bipartite": inv.bipartite,
            "genus": inv.genus,
        }
    if show in ("cartan", "all"):
        result["cartan"] = graph_cartan_matrix(g)
    if show in ("quiver", "all"):
        pres = quiver_presentation(g)
        result["quiver"] = {
            "vertices": list(pres.q_vertices),
            "arrows": [
                {"name": a.name, "src": a.src_edge, "dst": a.dst_edge}
                for a in pres.q_arrows
            ],
            "relations": {
                "cycle_overshoot": list(pres.rel_cycle_overshoot),
                "cycle_equality": list(pres.rel_cycle_equality),
                "mixed_products": list(pres.rel_mixed_products),
            },
        }
    if args.format == "json":
        _write_json(result, out)
    else:
        for key, value in result.items():
            out.write(f"[{key}]\n")
            if key == "cartan":
                for row in value:
                    out.write("  " + " ".join(f"{v:3d}" for v in row) + "\n")
            elif key == "invariants":
                for k2, v2 in value.items():
                    out.write(f"  {k2}: {v2}\n")
            else:
                out.write(f"  vertices: {value['vertices']}\n")
                for a in value["arrows"]:
                    out.write(f"  {a['name']}: {a['src']} -> {a['dst']}\n")
                for fam, rels in value["relations"].items():
                    for r in rels:
                        out.write(f"  [{fam}] {r}\n")
    return 0


def _cmd_decomp(args, out) -> int:
    if args.cartan is not None:
        c = [list(_parse_int_vector(r, None, "cartan")) for r in args.cartan.split(";")]
    else:
        g = _graph_from_args(args)
        c = graph_cartan_matrix(g)
    result = decomp_search(c)
    if args.format == "json":
        _write_json(
            {
                "cartan": c,
                "unique": result.unique,
                "solutions": [[list(r) for r in sol] for sol in result.solutions],
            },
            out,
        )
    else:
        out.write(f"unique: {'yes' if result.unique else 'no'}\n")
        for idx, sol in enumerate(result.solutions):
            out.write(f"solution {idx + 1} ({len(sol)} rows):\n")
            for r in sol:
                out.write("  " + " ".join(str(v) for v in r) + "\n")
    return 0


_REQUIRED = object()  # the default of an option that must be given

# option tuples: (name, int or str, default or _REQUIRED, choices, help)
_WEIGHT = (
    ("ell", int, _REQUIRED, None, "rank (e = ell + 1)"),
    ("weight", str, _REQUIRED, None, "comma-separated coefficients on Λ0..Λell (length ell+1)"),
)
_BETA = (
    ("beta", str, _REQUIRED, None, "comma-separated alpha coefficients"),
    ("mdelta", int, 0, None, "add m copies of delta"),
)
_GRAPH = (
    ("graph", str, None, None, "JSON graph file"),
    ("gamma", str, None, None, "line family parameters s,a,m"),
)
_JSON = (("format", str, "text", ("text", "json"), "output format"),)
_DOT = (("format", str, "text", ("text", "json", "dot"), "output format"),)
_T_HELP = "t class: 'two'/'minustwo' (ell=1), 'signell' (ell>=2) or 'other'"

# subcommand -> (handler, help line, options in the order help and errors list them)
COMMANDS = {
    "maxweights": (_cmd_maxweights, "dominant maximal weights of a class", _WEIGHT + _JSON),
    "quiver": (_cmd_quiver, "the full weight quiver", _WEIGHT + _DOT),
    "tquiver": (_cmd_tquiver, "the tagged depth-2 subquiver", _WEIGHT + _DOT),
    "classify": (_cmd_classify, "representation type of a block", _WEIGHT + _BETA + (
        ("char", int, 0, None, "field characteristic"), ("t", str, "other", None, _T_HELP),
    ) + _JSON),
    "gdim": (_cmd_gdim, "graded dimension of a block", _WEIGHT + _BETA + (
        ("nu", str, None, None, "residue sequence of the left idempotent"),
        ("nup", str, None, None, "residue sequence of the right idempotent"),
    ) + _JSON),
    "brauer": (_cmd_brauer, "Brauer graph data", _GRAPH + (
        ("what", str, "all", ("invariants", "cartan", "quiver", "all"), "what to show"),
    ) + _JSON),
    "decomp": (_cmd_decomp, "decomposition matrices with D^t D = C",
               (("cartan", str, None, None, "matrix rows 'a,b;c,d'"),) + _GRAPH + _JSON),
}
# subcommand -> ({"--name": option tuple}, the flags that end a value, defaults),
# built once; _parse copies the defaults into each namespace it makes
_TABLES = {
    command: (
        {f"--{opt[0]}": opt for opt in opts},
        frozenset([f"--{opt[0]}" for opt in opts] + ["-h", "--help"]),
        {opt[0]: opt[2] for opt in opts},
    )
    for command, (_, _, opts) in COMMANDS.items()
}
# what argparse reads as the value of an option: empty text, text that does not
# start with "-", a lone "-", a negative number, or text holding a space, unless
# the text before its first "=" names an option ("--gamma= " is an option)
_VALUE = re.compile(r"\Z|[^-]|-\Z|-\d+$|-\d*\.\d+$|.* ", re.DOTALL)


def _help_text(command: str | None = None) -> str:
    if command is None:
        head = ("<command> [options]\n\nDominant maximal weights, weight quivers, block "
                "types and graded dimensions in affine type A\n\ncommands:")
        rows = [f"  {name:<12}{line}" for name, (_, line, _) in COMMANDS.items()]
    else:
        _, line, opts = COMMANDS[command]
        head = f"{command} [options]\n\n{line}\n\noptions:"
        rows = [
            f"  --{name} {'{' + ','.join(choices) + '}' if choices else name.upper()}  {text} ("
            + ("required)" if default is _REQUIRED else f"default: {default})")
            for name, _, default, choices, text in opts
        ]
    return "\n".join([f"usage: klrblocks {head}", *rows]) + "\n"


def _parse(argv: list[str]) -> SimpleNamespace | str:
    """The handler and options that argv names, or the help text it asks for.

    Option names are exact; `--opt value` and `--opt=value` both work, and a
    repeated option keeps its last value.  Tokens are read left to right, so
    -h/--help wins over a later fault but not an earlier one.  Each rejection
    is a UsageError with argparse's message.
    """
    if not argv:
        raise UsageError("the following arguments are required: command")
    if argv[0] in ("-h", "--help"):
        return _help_text()
    if argv[0] not in COMMANDS:
        raise UsageError(f"argument command: invalid choice: {argv[0]!r} "
                         f"(choose from {', '.join(map(repr, COMMANDS))})")
    table, flags, defaults = _TABLES[argv[0]]
    args = SimpleNamespace(func=COMMANDS[argv[0]][0], **defaults)
    tokens, extras = argv[:0:-1], []  # reversed, so that pop() reads left to right
    while tokens:
        token = tokens.pop()
        if token in ("-h", "--help"):
            return _help_text(argv[0])
        flag, eq, value = token.partition("=")
        if flag not in table:
            extras.append(token)
            continue
        if not eq:
            if not tokens or tokens[-1].partition("=")[0] in flags or not _VALUE.match(tokens[-1]):
                raise UsageError(f"argument {flag}: expected one argument")
            value = tokens.pop()
        name, typ, _, choices, _ = table[flag]
        try:
            value = typ(value)
        except ValueError:
            raise UsageError(f"argument {flag}: invalid int value: {value!r}") from None
        if choices and value not in choices:
            raise UsageError(f"argument {flag}: invalid choice: {value!r} "
                             f"(choose from {', '.join(map(repr, choices))})")
        setattr(args, name, value)
    missing = [flag for flag, opt in table.items() if getattr(args, opt[0]) is _REQUIRED]
    if missing:
        raise UsageError("the following arguments are required: " + ", ".join(missing))
    if extras:
        raise UsageError("unrecognized arguments: " + " ".join(extras))
    return args


def run(argv: list[str], out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _parse(argv)
        if isinstance(args, str):  # -h/--help
            out.write(args)
            return 0
        return args.func(args, out)
    except UsageError as exc:
        err.write(f"usage error: {str(exc).translate(_LINE_BREAKS)}\n")
        return 2
    except (ValueError, RuntimeError) as exc:
        err.write(f"error: {str(exc).translate(_LINE_BREAKS)}\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
