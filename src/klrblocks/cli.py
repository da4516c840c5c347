"""Command-line front end; all output is deterministic for fixed input.

Exit codes: 0 on success, 1 on domain errors (a vanishing block is data, not
an error), 2 on usage errors.
"""

from __future__ import annotations

import re
import sys
from itertools import islice
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
from .quiver import TQuiver, build_quiver, t_subquiver
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
    if args.ell < 1:
        raise UsageError(f"--ell: must be at least 1, got {args.ell}")
    coeffs = _parse_int_vector(args.weight, args.ell + 1, "weight")
    if min(coeffs, default=0) < 0:
        raise UsageError("--weight: coefficients must be nonnegative")
    return LevelKDominant(coeffs)


def _beta_from_args(args) -> RootVector:
    coeffs = _parse_int_vector(args.beta, args.ell + 1, "beta")
    if min(coeffs, default=0) < 0:
        raise UsageError("--beta: coefficients must be nonnegative")
    m = args.mdelta
    if m:
        coeffs = tuple([c + m for c in coeffs])
        if min(coeffs, default=0) < 0:
            raise UsageError("--mdelta: beta + mdelta*delta has a negative coefficient")
    return RootVector(coeffs)


def weight_name(coeffs: tuple[int, ...]) -> str:
    """Render a dominant weight the way the figures do, e.g. '2Λ0+Λ2'."""
    parts = [f"Λ{i}" if c == 1 else f"{c}Λ{i}" for i, c in enumerate(coeffs) if c > 0]
    return "+".join(parts) or "0"


def _vec(x: tuple[int, ...]) -> str:
    """`x` as "(a,b,c)": Python's print of it without the spaces and the
    trailing comma of a 1-tuple."""
    return str(x).replace(" ", "").replace(",)", ")")


# The class commands frame their JSON and text by hand from the records'
# int tuples, where str(list(t)) is the JSON of t and str(sorted(ts)) that of
# a tag set, so no class answer imports json; _write_joined writes them _CHUNK
# items at a time, so no whole answer is held in memory.
_CHUNK = 256


def _write_joined(out, texts, sep: str = "") -> None:
    """Write the strings of the iterator `texts` joined by `sep`, _CHUNK at a time."""
    lead = ""
    while chunk := list(islice(texts, _CHUNK)):
        out.write(lead + sep.join(chunk))
        lead = sep


def _cmd_maxweights(args, out) -> int:
    """One entry per class member, as JSON or as text lines."""
    base = _weight_from_args(args)
    entries = max_plus(base)
    if args.format == "json":
        out.write(f'{{"ell": {args.ell}, "base": {list(base.coeffs)}, "entries": [')
        _write_joined(out, (f'{{"weight": {w}, "x": {x}, "beta": {x}, '
                            f'"max_weight": {{"lam": {w}, "delta": {-e.x[0]}}}}}'
                            for e in entries
                            for w, x in [(str(list(e.weight.coeffs)), str(list(e.x)))]), ", ")
        out.write("]}\n")
    else:
        # max= is the weight, then -X[0] as a multiple of delta unless it is 0
        _write_joined(out, (f"{name:<24} X={x:<20} beta={x:<20} max={name}"
                            f"{f'{-e.x[0]:+d}δ' if e.x[0] else ''}\n"
                            for e in entries
                            for name, x in [(weight_name(e.weight.coeffs), _vec(e.x))]))
    return 0


def _cmd_quiver(args, out, walk=None) -> int:
    """The quiver that `walk` (by default build_quiver) builds on the weight:
    its vertices, its arrows by vertex index and, for the tagged subquiver,
    its tags.  build_quiver is looked up when called, not bound at import,
    so a wrapper put in its place on this module is the one called."""
    q = (walk or build_quiver)(_weight_from_args(args))
    vertices, arrows = q.vertices, q.arrows
    tags = q.tags if isinstance(q, TQuiver) else None
    if args.format == "json":
        base = q.base.coeffs
        out.write(f'{{"ell": {len(base) - 1}, "k": {sum(base)}, "base": {list(base)}, '
                  '"vertices": [')
        _write_joined(out, (f'{{"coeffs": {list(v.weight.coeffs)}, "x": {x}, "beta": {x}}}'
                            for v in vertices for x in [str(list(v.x))]), ", ")
        out.write('], "arrows": [')
        _write_joined(out, (f'{{"src": {s}, "dst": {d}, "label": [{i}, {j}]}}'
                            for s, d, (i, j) in arrows), ", ")
        if tags is None:
            out.write("]}\n")
            return 0
        out.write('], "tags": {')
        _write_joined(out, (f'"{vid}": {sorted(ts)}' for vid, ts in sorted(tags.items())), ", ")
        out.write("}}\n")
        return 0
    # each vertex's weight, then ' [s,...]' if it carries tags
    suffix = {vid: f" [{','.join(map(str, sorted(ts)))}]" for vid, ts in (tags or {}).items()}
    names = (weight_name(v.weight.coeffs) + suffix.get(vid, "") for vid, v in enumerate(vertices))
    if args.format == "dot":
        out.write("digraph quiver {\n  rankdir=LR;\n")
        _write_joined(out, (f'  v{vid} [label="{name}"];\n' for vid, name in enumerate(names)))
        _write_joined(out, (f'  v{s} -> v{d} [label="({i},{j})"];\n' for s, d, (i, j) in arrows))
        out.write("}\n")
    else:
        _write_joined(out, (f"{vid}: {name} X={_vec(v.x)}\n"
                            for vid, (name, v) in enumerate(zip(names, vertices))))
        _write_joined(out, (f"{s} -> {d} ({i},{j})\n" for s, d, (i, j) in arrows))
    return 0


def _cmd_tquiver(args, out) -> int:
    return _cmd_quiver(args, out, t_subquiver)


_T_ALIASES = {"2": "two", "-2": "minustwo", "sign": "signell"}
# the lower-cased --t text of each class: its value or an alias of it
_T_CLASSES = {t.value: t for t in TClass} | {a: TClass(v) for a, v in _T_ALIASES.items()}


def _t_class_from_args(args) -> TClass:
    t_class = _T_CLASSES.get(args.t.lower())
    if t_class is None:
        raise UsageError(f"--t: unknown class {args.t!r}")
    return t_class


def _cmd_classify(args, out) -> int:
    base = _weight_from_args(args)
    beta = _beta_from_args(args)
    params = FieldParams(char_p=args.char, t_class=_t_class_from_args(args))
    try:
        result = classify(base, beta, params)
    except TClassRankError as exc:
        raise UsageError(str(exc)) from exc
    if args.format == "json":
        # framed by hand like the class answers: a --t that names a class is
        # ASCII letters, digits and "-" (every key of _T_CLASSES is, and no
        # other character lowers to one of those), so it needs no escape
        out.write(f'{{"ell": {args.ell}, "base": {list(base.coeffs)}, "beta": {list(beta.coeffs)}, '
                  f'"char": {args.char}, "t": "{args.t}", "type": "{result}"}}\n')
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
    else:
        nu = _parse_int_vector(args.nu, beta.height, "nu")
        nup = _parse_int_vector(args.nup, beta.height, "nup")
        poly = graded_dim(charges, beta, nu, nup)
    if args.format == "json":
        # framed by hand like the class answers: the label is plain ASCII
        # and the terms map degree strings to ints
        label = "total" if args.nu is None else f"e{_vec(nu)} .. e{_vec(nup)}"
        terms = ", ".join(f'"{k}": {v}' for k, v in sorted(poly.terms.items()))
        out.write(f'{{"ell": {args.ell}, "base": {list(base.coeffs)}, "beta": {list(beta.coeffs)}, '
                  f'"which": "{label}", "terms": {{{terms}}}, "at_one": {poly.at_one()}}}\n')
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
# subcommand -> the (flag, name) of each option it requires, in table order
_REQUIRED_FLAGS = {
    command: tuple([(f"--{opt[0]}", opt[0]) for opt in opts if opt[2] is _REQUIRED])
    for command, (_, _, opts) in COMMANDS.items()
}
# what argparse reads as the value of an option: empty text, text that does not
# start with "-", a lone "-", a negative number, or text holding a space, unless
# the text before its first "=" names an option ("--gamma= " is an option).
# Every flag starts with "-", so _parse takes other text as a value unread
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
            if not tokens or tokens[-1][:1] == "-" and (
                tokens[-1].partition("=")[0] in flags or not _VALUE.match(tokens[-1])
            ):
                raise UsageError(f"argument {flag}: expected one argument")
            value = tokens.pop()
        name, typ, _, choices, _ = table[flag]
        if typ is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"argument {flag}: invalid int value: {value!r}") from None
        if choices and value not in choices:
            raise UsageError(f"argument {flag}: invalid choice: {value!r} "
                             f"(choose from {', '.join(map(repr, choices))})")
        setattr(args, name, value)
    missing = [flag for flag, name in _REQUIRED_FLAGS[argv[0]] if getattr(args, name) is _REQUIRED]
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
