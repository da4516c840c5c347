from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import json
import math
import os
import pickle
import pkgutil
import shlex
import subprocess
import sys
import tempfile
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import klrblocks
from klrblocks.brauer import MAX_EDGES, MAX_SEARCH_DEPTH
from klrblocks.cartan import LimitError, RootVector
from klrblocks.classify import MAX_CHAR, FieldParams, TClass, TClassRankError, classify
from klrblocks.cli import _REQUIRED, _TABLES, COMMANDS, UsageError, _parse, run
from klrblocks import maxweights, tableaux
from klrblocks.maxweights import MAX_E, LevelKDominant, max_plus
from klrblocks.quiver import WeightQuiver, build_quiver
from klrblocks.tableaux import MAX_LEVEL

import oracles
from oracles import build_parser, partitions_of
from test_maxweights import dominant_weights


def quiver_from_json_dict(data: dict) -> WeightQuiver:
    """Rebuild a weight quiver from its JSON form (round-trip check)."""
    q = build_quiver(LevelKDominant(tuple(data["base"])))
    expect_vertices = [tuple(v["coeffs"]) for v in data["vertices"]]
    got_vertices = [v.weight.coeffs for v in q.vertices]
    expect_arrows = {
        (a["src"], a["dst"], (a["label"][0], a["label"][1])) for a in data["arrows"]
    }
    got_arrows = {(a.src, a.dst, a.label) for a in q.arrows}
    if expect_vertices != got_vertices or expect_arrows != got_arrows:
        raise ValueError("JSON data does not describe the quiver of its base weight")
    return q


def capture(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_maxweights_text():
    code, out, err = capture(["maxweights", "--ell", "6", "--weight", "1,0,0,1,0,0,1"])
    assert code == 0 and err == ""
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 12
    assert any("3Λ3" in l and "(3,2,1,0,1,2,3)" in l for l in lines)


def test_classify_text_and_zero_exit():
    code, out, _ = capture(
        ["classify", "--ell", "2", "--weight", "3,0,0", "--beta", "1,1,1",
         "--char", "0", "--t", "other"]
    )
    assert code == 0 and out.strip() == "Tame"
    code, out, _ = capture(
        ["classify", "--ell", "2", "--weight", "3,0,0", "--beta", "0,1,0"]
    )
    assert code == 0 and out.strip() == "Zero"
    code, out, _ = capture(
        ["classify", "--ell", "2", "--weight", "3,0,0", "--beta", "0,0,0",
         "--mdelta", "2"]
    )
    assert code == 0 and out.strip() == "Wild"


def test_usage_errors_exit_two():
    code, _, err = capture(["classify", "--ell", "2", "--weight", "3,0", "--beta", "1,1,1"])
    assert code == 2 and "--weight" in err
    code, _, err = capture(
        ["classify", "--ell", "2", "--weight", "3,0,0", "--beta", "1,1,1", "--t", "bogus"]
    )
    assert code == 2
    code, _, err = capture(
        ["classify", "--ell", "2", "--weight", "3,0,0", "--beta", "1,1,1", "--t", "two"]
    )
    assert code == 2  # t class inconsistent with the rank
    code, _, _ = capture(["nonsense"])
    assert code == 2
    code, _, err = capture(
        ["classify", "--ell", "2", "--weight", "3,0,0", "--beta", "1,1,1", "--cap", "5"]
    )
    assert code == 2 and err.count("\n") == 1
    code, _, err = capture(
        ["gdim", "--ell", "1", "--weight", "2,1", "--beta", "1,1", "--max-height", "3"]
    )
    assert code == 2 and err.startswith("usage error: ") and err.count("\n") == 1


def test_argparse_rejections_are_one_usage_line():
    for argv in (["classify", "--ell", "x"], ["nonsense"], [], ["brauer", "--what=q"]):
        parse_err = io.StringIO()
        with contextlib.redirect_stderr(parse_err):
            code, out, err = capture(argv)
        assert code == 2 and out == "" and parse_err.getvalue() == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1


def test_user_text_with_line_breaks_stays_on_one_line(tmp_path):
    weight = ["--ell", "2", "--weight", "3,0,0", "--beta", "1,1,1"]
    for argv in (
        ["classify", *weight, "extra\nline"],
        ["classify", *weight, "a\rb\u2028c"],
        ["brauer", "--graph", str(tmp_path / "a\nb.json")],
    ):
        code, out, err = capture(argv)
        assert code == 2 and out == ""
        assert err.startswith("usage error: ") and len(err.splitlines()) == 1
    _, _, err = capture(["classify", *weight, "extra\nline"])
    assert err == "usage error: unrecognized arguments: extra\\nline\n"


def test_help_is_written_to_out():
    for argv in (["--help"], ["quiver", "--help"]):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code, out, err = capture(argv)
        assert code == 0 and err == "" and stdout.getvalue() == ""
        assert out.startswith("usage: klrblocks")


def test_domain_errors_exit_one():
    code, _, err = capture(
        ["classify", "--ell", "1", "--weight", "1,1", "--beta", "1,0"]
    )
    assert code == 1 and "level" in err


def test_quiver_dot_output():
    code, out, _ = capture(["quiver", "--ell", "1", "--weight", "2,0", "--format", "dot"])
    assert code == 0
    assert out.startswith("digraph quiver {")
    assert '"2Λ0"' in out and '"2Λ1"' in out
    assert '[label="(0,0)"]' in out


def test_quiver_json_round_trip():
    code, out, _ = capture(
        ["quiver", "--ell", "6", "--weight", "1,0,0,1,0,0,1", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["ell"] == 6 and data["k"] == 3
    assert len(data["vertices"]) == 12
    assert len(data["arrows"]) == 21
    q = quiver_from_json_dict(data)
    assert len(q.vertices) == 12


def test_determinism():
    argv = ["quiver", "--ell", "4", "--weight", "2,0,1,0,0", "--format", "json"]
    runs = [capture(argv) for _ in range(3)]
    assert all(code == 0 for code, _, _ in runs)
    assert len({out for _, out, _ in runs}) == 1


def test_tquiver_tags():
    code, out, _ = capture(
        ["tquiver", "--ell", "6", "--weight", "4,0,0,2,0,0,1", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    tagged = [vs for vs in data["tags"].values() if vs]
    assert len(tagged) == 13


def test_gdim_text():
    code, out, _ = capture(
        ["gdim", "--ell", "1", "--weight", "2,1", "--beta", "1,1",
         "--nu", "0,1", "--nup", "0,1"]
    )
    assert code == 0 and out.strip() == "1 + 2q^2 + 2q^4 + q^6"
    code, out, _ = capture(
        ["gdim", "--ell", "2", "--weight", "5,0,0", "--beta", "2,0,0"]
    )
    assert code == 0
    assert out.strip().startswith("q^{-2} + 3 + 5q^2")


@settings(max_examples=100, deadline=None)
@given(dominant_weights(max_e=4, levels=(1, 3)), st.data())
def test_gdim_json_is_the_json_of_its_answer(base, data):
    """gdim frames its JSON by hand: for totals and pairs, zero answers
    (empty terms) and negative degrees among them, it prints the bytes
    json.dumps gives for the answer's dict."""
    e = len(base.coeffs)
    beta = tuple(data.draw(st.lists(st.integers(0, 2), min_size=e, max_size=e)))
    argv = ["gdim", "--ell", str(e - 1), "--weight", ",".join(map(str, base.coeffs)),
            "--beta", ",".join(map(str, beta)), "--format", "json"]
    charges, rv = tableaux.charges_of(base.coeffs), RootVector(beta)
    if data.draw(st.booleans()):
        label, poly = "total", tableaux.graded_dim_total(charges, rv)
    else:
        residues = [r for r, c in enumerate(beta) for _ in range(c)]
        nu, nup = data.draw(st.permutations(residues)), data.draw(st.permutations(residues))
        nu_text, nup_text = ",".join(map(str, nu)), ",".join(map(str, nup))
        argv += [f"--nu={nu_text}", f"--nup={nup_text}"]
        label, poly = f"e({nu_text}) .. e({nup_text})", tableaux.graded_dim(charges, rv, nu, nup)
    terms = {str(k): v for k, v in sorted(poly.terms.items())}
    expected = json.dumps({"ell": e - 1, "base": list(base.coeffs), "beta": list(beta),
                           "which": label, "terms": terms, "at_one": poly.at_one()})
    assert capture(argv) == (0, expected + "\n", "")


def test_readme_examples_run(tmp_path, monkeypatch):
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as fh:
        commands = [shlex.split(line)[1:] for line in fh if line.startswith("klrblocks ")]
    assert len(commands) == 12
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graph.json").write_text(
        json.dumps({"vertices": [{"id": 0, "mult": 2}, {"id": 1, "mult": 1}], "edges": [[0, 1]]})
    )
    for argv in commands:
        code, out, err = capture(argv)
        assert (code, err) == (0, ""), argv
        assert out


def test_brauer_and_decomp_subcommands(tmp_path):
    code, out, _ = capture(["brauer", "--gamma", "1,1,2", "--what", "cartan"])
    assert code == 0 and "3   2" in out and "2   4" in out
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(
        json.dumps(
            {
                "vertices": [{"id": 0, "mult": 2}, {"id": 1, "mult": 2}, {"id": 2, "mult": 2}],
                "edges": [[0, 1], [1, 2]],
            }
        )
    )
    code, out, _ = capture(["brauer", "--graph", str(graph_file), "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["cartan"] == [[4, 2], [2, 4]]
    assert data["invariants"]["faces"] == 1
    assert data["invariants"]["perimeters"] == [4]
    code, out, _ = capture(["decomp", "--cartan", "2,1;1,2"])
    assert code == 0 and "unique: yes" in out
    code, out, _ = capture(["decomp", "--gamma", "1,1,3", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["unique"] is False


def test_missing_graph_source_is_usage_error():
    code, _, err = capture(["brauer"])
    assert code == 2 and "--graph" in err


def test_missing_graph_file_is_usage_error(tmp_path):
    for cmd in ("brauer", "decomp"):
        code, out, err = capture([cmd, "--graph", str(tmp_path / "missing.json")])
        assert code == 2 and out == ""
        assert err.startswith("usage error: --graph") and err.count("\n") == 1


def test_bad_vertex_ids_are_domain_errors(tmp_path):
    edges = [[0, 1], [1, 2]]
    for ids in ([0, 1, 3], [0, -1, 2], [0, 1, 1], [0, "1", 2]):
        graph_file = tmp_path / "graph.json"
        graph_file.write_text(
            json.dumps({"vertices": [{"id": i, "mult": 2} for i in ids], "edges": edges})
        )
        code, out, err = capture(["brauer", "--graph", str(graph_file)])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "vertex id" in err and err.count("\n") == 1


def test_one_vertex_graph_is_a_domain_error(tmp_path):
    graph_file = tmp_path / "point.json"
    graph_file.write_text(json.dumps({"vertices": [{"id": 0, "mult": 2}], "edges": []}))
    for argv in (["brauer"], ["brauer", "--what", "cartan"], ["decomp"]):
        code, out, err = capture([*argv, "--graph", str(graph_file)])
        assert (code, out, err) == (1, "", "error: graph has no edges\n")


def test_non_integer_cartan_is_usage_error():
    for text in ("4,x;2,4", "4,;2,4", "1.5,2;2,4"):
        code, out, err = capture(["decomp", "--cartan", text])
        assert code == 2 and out == ""
        assert err.startswith("usage error: --cartan") and err.count("\n") == 1


def test_repeated_runs_share_no_parser_state():
    argvs = [
        ["maxweights", "--ell", "2", "--weight", "2,0,1", "--format", "json"],
        ["classify", "--ell", "2", "--weight", "3,0,0", "--beta", "1,1,1", "--mdelta", "1"],
        ["classify", "--ell", "2", "--weight", "3,0,0", "--beta", "1,1,1"],
        ["quiver", "--ell", "1", "--weight", "2,0", "--format", "dot"],
        ["quiver", "--ell", "1", "--weight", "2,0"],
        ["gdim", "--ell", "1", "--weight", "2,1", "--beta", "1,1"],
        ["decomp", "--cartan", "2,1;1,2", "--format", "json"],
        ["decomp", "--cartan", "4,x;2,4"],
        ["nonsense"],
        ["brauer", "--gamma", "1,1,2", "--what", "cartan"],
        ["brauer", "--gamma", "1,1,2"],
    ]
    first = [capture(argv)[:2] for argv in argvs]
    second = [capture(argv)[:2] for argv in argvs]
    assert first == second
    assert [code for code, _ in first] == [0, 0, 0, 0, 0, 0, 0, 2, 2, 0, 0]


def test_shared_option_tables_do_not_leak_between_parses():
    # the tables are built once at import; a parse that sets options must
    # leave the next parse of the same command its defaults.  The option
    # tuples and flag sets are immutable, so copying each dict is a snapshot
    before = {cmd: (dict(table), flags, dict(defaults))
              for cmd, (table, flags, defaults) in _TABLES.items()}
    block = ["classify", "--ell", "2", "--weight", "3,0,0", "--beta", "1,1,1"]
    first = _parse([*block, "--char", "3", "--format", "json"])
    assert (first.char, first.format) == (3, "json")
    second = _parse(block)
    assert (second.char, second.format, second.t, second.mdelta) == (0, "text", "other", 0)
    assert _TABLES == before


PAIR = [{"id": 0, "mult": 2}, {"id": 1, "mult": 2}]


@pytest.mark.parametrize(
    "data",
    [
        {"vertices": 5, "edges": [[0, 1]]},
        {"vertices": PAIR, "edges": [5]},
        [{"id": 0, "mult": 2}],
        {"vertices": PAIR, "edges": [[0, 1]], "rotation": {"0": 5}},
        {"vertices": PAIR, "edges": [[0, 1]], "rotation": [[0]]},
        {"vertices": PAIR, "edges": [[0, "1"]]},
        {"vertices": [{"id": 0, "mult": 2.7}, {"id": 1, "mult": 2}], "edges": [[0, 1]]},
        {"vertices": [{"id": 0, "mult": True}, {"id": 1, "mult": 2}], "edges": [[0, 1]]},
        {"vertices": PAIR, "edges": [[0, 1]], "rotation": {"5": [0]}},
        {"vertices": PAIR, "edges": [[0, 1]], "rotation": {" 1": [0]}},
        {"vertices": PAIR, "edges": [[0, 1]], "rotation": {"1": [0], "01": [0]}},
    ],
)
def test_malformed_graph_json_is_domain_error(tmp_path, data):
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps(data))
    for cmd in ("brauer", "decomp"):
        code, out, err = capture([cmd, "--graph", str(graph_file)])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_negative_beta_is_usage_error_in_classify_and_gdim():
    weight = ["--ell", "2", "--weight", "3,0,0"]
    for cmd in ("classify", "gdim"):
        for beta in (["--beta=-1,1,1"], ["--beta=1,0,1", "--mdelta=-1"]):
            code, out, err = capture([cmd, *weight, *beta])
            assert code == 2 and out == ""
            assert err.startswith("usage error: --") and err.count("\n") == 1


def test_ell_below_one_is_one_usage_error():
    # whatever the weight, so that a weight of any length, or an empty one,
    # does not give a length or level error first
    for ell in (0, -1, -3):
        for weight in ("3", "3,0", "", "-1"):
            for cmd, rest in (
                ("maxweights", []),
                ("classify", ["--beta", "1"]),
                ("gdim", ["--beta", "1"]),
            ):
                code, out, err = capture([cmd, f"--ell={ell}", f"--weight={weight}", *rest])
                assert (code, out) == (2, "")
                assert err == f"usage error: --ell: must be at least 1, got {ell}\n"


def test_small_characteristics_are_accepted_only_when_prime():
    block = ["classify", "--ell", "2", "--weight", "3,0,0", "--beta", "1,1,1"]
    for char in (0, 2, 3, 5, 7):
        assert capture([*block, "--char", str(char)]) == (0, "Tame\n", "")
    for char in (4, 6, 9):
        assert capture([*block, "--char", str(char)]) == (1, "", f"error: char_p = {char} is not prime\n")
    assert capture([*block, "--char", "1"]) == (1, "", "error: char_p must be 0 or a prime\n")


def test_huge_characteristic_is_one_error_line():
    # in a child process, so that a primality test that never ends fails on
    # the timeout instead of hanging the suite
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(klrblocks.__file__))}
    block = ["classify", "--ell", "2", "--weight", "3,0,0", "--beta", "1,1,1"]
    for char in ("1" + "0" * 400, "1000000000000000003"):
        proc = subprocess.run(
            [sys.executable, "-m", "klrblocks.cli", *block, "--char", char],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert proc.stderr.endswith(f"exceeds the limit MAX_CHAR = {MAX_CHAR}\n")


def test_tall_block_classifies_in_closed_form():
    # in a child process, so that a dominance step linear in beta's height
    # fails on the timeout instead of hanging the suite
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(klrblocks.__file__))}
    block = ["classify", "--ell", "3", "--weight", "3,0,0,0", "--beta", "0,1000000000,0,0"]
    proc = subprocess.run(
        [sys.executable, "-m", "klrblocks.cli", *block],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "Zero\n", "")


def test_class_walk_is_bounded():
    # Λ0+Λ2+...+Λ14 at ell 16 has 43,263 members
    weight = ",".join("1" if i % 2 == 0 and i < 16 else "0" for i in range(17))
    code, out, err = capture(["quiver", "--ell", "16", "--weight", weight])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(" exceeds the limit MAX_CLASS_MEMBERS = 20000\n")


def test_class_walk_answers_at_its_limit_and_refuses_one_past(monkeypatch):
    # Λ0+Λ3+Λ6 at ell 6 has 12 members: with the limit at 12 both calls
    # answer, at 11 both refuse, and so do the commands, in one line
    base = LevelKDominant((1, 0, 0, 1, 0, 0, 1))
    argv = ["--ell", "6", "--weight", "1,0,0,1,0,0,1"]
    monkeypatch.setattr(maxweights, "MAX_CLASS_MEMBERS", 12)
    assert len(max_plus(base)) == len(build_quiver(base).vertices) == 12
    assert capture(["maxweights", *argv])[0] == capture(["quiver", *argv])[0] == 0
    monkeypatch.setattr(maxweights, "MAX_CLASS_MEMBERS", 11)
    for call in (max_plus, build_quiver):
        with pytest.raises(LimitError, match="exceeds the limit MAX_CLASS_MEMBERS = 11$"):
            call(base)
    for cmd in ("maxweights", "quiver"):
        code, out, err = capture([cmd, *argv])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(" exceeds the limit MAX_CLASS_MEMBERS = 11\n")


# the stdout of each class command in each format, from the oracles: the
# composition class with the solver's X, and the quivers that test every
# label on its interval
ORACLE_OUTPUT = {
    "maxweights": lambda base, fmt: oracles.maxweights_output(
        base, oracles.solver_max_plus(base), fmt
    ),
    "quiver": lambda base, fmt: oracles.quiver_output(oracles.label_bfs_quiver(base), fmt),
    "tquiver": lambda base, fmt: oracles.quiver_output(oracles.label_t_subquiver(base), fmt),
}
CLASS_FORMATS = {"maxweights": ("text", "json"), "quiver": ("text", "json", "dot"),
                 "tquiver": ("text", "json", "dot")}


def assert_class_command_matches_oracle(cmd: str, base: LevelKDominant) -> None:
    weight = ",".join(map(str, base.coeffs))
    for fmt in CLASS_FORMATS[cmd]:
        argv = [cmd, "--ell", str(len(base.coeffs) - 1), "--weight", weight, "--format", fmt]
        assert capture(argv) == (0, ORACLE_OUTPUT[cmd](base, fmt), "")


@settings(max_examples=100, deadline=None)
@given(dominant_weights(max_e=9, levels=(2, 5)))
def test_class_commands_print_what_the_field_by_field_renderers_print(base):
    for cmd in CLASS_FORMATS:
        assert_class_command_matches_oracle(cmd, base)


@pytest.mark.parametrize(("cmd", "coeffs"), [
    # 273 members and 1,430 arrows, so each crosses a 256-item chunk boundary
    ("maxweights", (5,) + (0,) * 10),
    ("quiver", (5,) + (0,) * 10),
    # 289 vertices, 288 arrows and 288 tagged vertices; the whole class of
    # this weight is far too large for the oracles, so only tquiver runs here
    ("tquiver", (1,) * 18),
    # one vertex and no tags, so its JSON ends with "tags": {}
    ("tquiver", (1, 1)),
])
def test_class_commands_print_what_the_renderers_print_across_chunks(cmd, coeffs):
    assert_class_command_matches_oracle(cmd, LevelKDominant(coeffs))


def test_level_limit_is_one_error_line():
    # Each shape of the lattice holds one abacus section per charge, so the
    # level bounds its size; when shapes were level-tuples, level 100,000
    # filled about 16 GB before the shape limit fired, and level 10^9 first
    # built a 10^9-entry charge list.  In a child process, so that such a
    # build fails on the timeout instead of exhausting memory in the suite.
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(klrblocks.__file__))}
    for level in (MAX_LEVEL + 1, 10**9):
        argv = ["gdim", "--ell", "1", "--weight", f"{level},0", "--beta", "1,0"]
        proc = subprocess.run(
            [sys.executable, "-m", "klrblocks.cli", *argv],
            capture_output=True, text=True, timeout=10, env=env,
        )
        expected = f"error: level {level} exceeds the limit MAX_LEVEL = {MAX_LEVEL}\n"
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", expected)
        started = time.perf_counter()
        assert capture(argv) == (1, "", expected)
        assert time.perf_counter() - started < 0.5


def test_empty_residue_sequences():
    # beta = 0 has one idempotent, e() of the empty sequence; empty text is
    # read as no values only where none are expected
    gdim = ["gdim", "--ell", "1", "--weight", "1,0"]
    assert capture(gdim + ["--beta", "0,0", "--nu=", "--nup="]) == (0, "1\n", "")
    code, out, err = capture(gdim + ["--beta", "1,0", "--nu=", "--nup="])
    assert (code, out) == (2, "") and "--nu" in err
    code, out, err = capture(["decomp", "--cartan", ""])
    assert (code, out) == (2, "") and "--cartan" in err


def test_huge_beta_is_worked_out_from_the_shapes_built():
    # The field width of the packed degree functions grows with |beta|
    # (level**|beta| * |beta|! bits); it is worked out from the largest
    # shape the walk built, here one node, so this zero block answers at
    # once instead of computing (10^9)!.  In a child process, so that such a
    # computation fails on the timeout instead of exhausting memory.
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(klrblocks.__file__))}
    argv = ["gdim", "--ell", "1", "--weight", "1,0", "--beta", "1000000000,0"]
    proc = subprocess.run(
        [sys.executable, "-m", "klrblocks.cli", *argv],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")
    started = time.perf_counter()
    assert capture(argv) == (0, "0\n", "")
    assert time.perf_counter() - started < 0.5


def test_tall_level_one_block_answers():
    # |beta| = 20, but its content lattice has only 1,036 shapes
    block = ["--ell", "9", "--weight", "1" + ",0" * 9, "--beta", ",".join(["2"] * 10)]
    code, out, err = capture(["gdim", *block, "--format", "json"])
    assert (code, err) == (0, "")
    # at q = 1: the sum of (f^lambda)^2, by the hook length formula, over the
    # partitions of 20 with two nodes of each residue mod 10
    expected = 0
    for lam in partitions_of(20):
        cols = [sum(1 for row in lam if row > c) for c in range(lam[0])]
        contents = [(c - r) % 10 for r, row in enumerate(lam) for c in range(row)]
        if all(contents.count(i) == 2 for i in range(10)):
            hooks = math.prod(
                row - c + cols[c] - r - 1 for r, row in enumerate(lam) for c in range(row)
            )
            expected += (math.factorial(20) // hooks) ** 2
    assert json.loads(out)["at_one"] == expected


def test_e_is_bounded():
    # a weight of MAX_E coefficients is accepted, one more is refused
    LevelKDominant((3,) + (0,) * (MAX_E - 1))
    with pytest.raises(LimitError, match=f"^e = {MAX_E + 1} exceeds the limit MAX_E = {MAX_E}$") as got:
        LevelKDominant((3,) + (0,) * MAX_E)
    assert got.value.args == (f"e = {MAX_E + 1}", "MAX_E", MAX_E)
    assert str(pickle.loads(pickle.dumps(got.value))) == str(got.value)
    zeros = ",0" * (MAX_E - 1)
    block = ["--ell", str(MAX_E - 1), "--weight", "3" + zeros, "--beta", "0" + zeros]
    assert capture(["classify", *block]) == (0, "Finite\n", "")
    for cmd in (["maxweights"], ["classify", "--beta", "0,0" + zeros]):
        code, out, err = capture([*cmd, "--ell", str(MAX_E), "--weight", "1,0" + zeros])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"e = {MAX_E + 1} exceeds the limit" in err


def test_graph_edges_are_bounded():
    # decomp --gamma 100000,1,1 was killed while it allocated a 100,001 x
    # 100,001 Cartan matrix; at the limit brauer --what all prints the whole
    # 1,000 x 1,000 matrix
    code, out, err = capture(["brauer", "--gamma", f"{MAX_EDGES - 1},1,1", "--what", "all"])
    assert (code, err) == (0, "") and f"  edges: {MAX_EDGES}\n" in out
    # a line of n edges: 8 invariant lines, n + 1 Cartan lines, 7n + 2 quiver lines
    assert out.count("\n") == 11 + 8 * MAX_EDGES
    for cmd, s in (("brauer", MAX_EDGES), ("decomp", 100_000)):
        expected = f"error: the edge count {s + 1} exceeds the limit MAX_EDGES = {MAX_EDGES}\n"
        assert capture([cmd, "--gamma", f"{s},1,1"]) == (1, "", expected)


def test_decomp_depth_is_bounded():
    # gamma(999, 1, 1) has trace 2,000; its search once ended at Python's
    # recursion limit ("maximum recursion depth exceeded")
    expected = (f"error: decomposition search of trace {2 * MAX_EDGES} exceeds the limit "
                f"MAX_SEARCH_DEPTH = {MAX_SEARCH_DEPTH}\n")
    assert capture(["decomp", "--gamma", f"{MAX_EDGES - 1},1,1"]) == (1, "", expected)


def test_lattice_shapes_are_bounded():
    # 6Λ0 at e = 2 has 379,858 shapes of content <= (6, 6)
    code, out, err = capture(["gdim", "--ell", "1", "--weight", "6,0", "--beta", "6,6"])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(" exceeds the limit MAX_LATTICE_SHAPES = 20000\n")


def test_candidate_rows_are_bounded():
    # 7x7 with every entry 100 has about 19.5M candidate rows
    cartan = ";".join([",".join(["100"] * 7)] * 7)
    code, out, err = capture(["decomp", "--cartan", cartan])
    assert code == 1 and out == ""
    assert err == "error: decomposition search exceeds the limit MAX_CANDIDATE_ROWS = 10000\n"



def test_large_diagonals_are_refused_at_once():
    # Each column once scanned every value from isqrt(min diagonal) down to 0,
    # so this matrix (bound 10,000) ran 111 s before its 10,001st row was
    # refused.  In a child process, so that a slow scan fails on the timeout.
    argv = ["decomp", "--cartan", "100000000,0;0,100000000"]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(klrblocks.__file__))}
    proc = subprocess.run(
        [sys.executable, "-m", "klrblocks.cli", *argv],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert proc.stderr.endswith(" exceeds the limit MAX_CANDIDATE_ROWS = 10000\n")


# the most characters a refusal line may take, its newline included
MAX_REFUSAL_LINE = 160


def test_a_long_vector_is_elided_in_a_refusal(monkeypatch):
    # at e = 512 the whole weight or beta took 1,601 bytes of the line; its
    # first entries, an ellipsis and its length keep the limit in view
    ones = "1" + ",1" * 511
    code, out, err = capture(["tquiver", "--ell", "511", "--weight", ones])
    assert (code, out) == (1, "") and len(err) <= MAX_REFUSAL_LINE
    assert err == ("error: the class of (1, 1, 1, 1, 1, 1, 1, 1, … 512 entries) "
                   "exceeds the limit MAX_CLASS_MEMBERS = 20000\n")
    monkeypatch.setattr(tableaux, "MAX_LATTICE_SHAPES", 10)
    code, out, err = capture(["gdim", "--ell", "511", "--weight", "1" + ",0" * 511, "--beta", ones])
    assert (code, out) == (1, "") and len(err) <= MAX_REFUSAL_LINE
    assert err == ("error: the count of shapes of content <= beta = (1, 1, 1, 1, 1, 1, 1, 1, "
                   "… 512 entries) exceeds the limit MAX_LATTICE_SHAPES = 10\n")
    # a vector that prints in at most 48 characters is quoted whole
    code, out, err = capture(["gdim", "--ell", "1", "--weight", "2,0", "--beta", "3,3"])
    assert err == ("error: the count of shapes of content <= beta = (3, 3) "
                   "exceeds the limit MAX_LATTICE_SHAPES = 10\n")
    # few but large entries are elided too: whole, this beta took 187 bytes
    large = ",".join(["1000000000"] * 8)
    code, out, err = capture(["gdim", "--ell", "7", "--weight", "1" + ",0" * 7, "--beta", large])
    assert (code, out) == (1, "") and len(err) <= MAX_REFUSAL_LINE
    assert err == ("error: the count of shapes of content <= beta = (1000000000, 1000000000, "
                   "… 8 entries) exceeds the limit MAX_LATTICE_SHAPES = 10\n")
    code, out, err = capture(["maxweights", "--ell", "7", "--weight", ",".join(["9" * 200] * 8)])
    assert (code, out) == (1, "") and len(err) <= MAX_REFUSAL_LINE
    assert err == f"error: the class of ({'9' * 23}… 8 entries) exceeds the limit MAX_CLASS_MEMBERS = 20000\n"


# Every module-level MAX_* limit of the package: the value the test sets,
# an argv that needs exactly that much of it and one that needs more.  A
# limit whose real value costs a second or megabytes to reach is set low
# here, so no test runs an input at the real limit.
LIMITS = {
    "MAX_E": (MAX_E,
              ["classify", "--ell", "511", "--weight", "3" + ",0" * 511, "--beta", "0" + ",0" * 511],
              ["classify", "--ell", "512", "--weight", "3" + ",0" * 512, "--beta", "0" + ",0" * 512]),
    # 3-weights at e = 7 have classes of C(9, 3)/7 = 12 members, 4-weights 30
    "MAX_CLASS_MEMBERS": (12,
                          ["quiver", "--ell", "6", "--weight", "1,0,0,1,0,0,1"],
                          ["quiver", "--ell", "6", "--weight", "2,0,0,1,0,0,1"]),
    "MAX_LATTICE_SHAPES": (34,
                           ["gdim", "--ell", "1", "--weight", "2,0", "--beta", "2,2"],
                           ["gdim", "--ell", "1", "--weight", "2,0", "--beta", "3,3"]),
    "MAX_LEVEL": (MAX_LEVEL,
                  ["gdim", "--ell", "1", "--weight", f"{MAX_LEVEL},0", "--beta", "1,0"],
                  ["gdim", "--ell", "1", "--weight", f"{MAX_LEVEL + 1},0", "--beta", "1,0"]),
    "MAX_EDGES": (MAX_EDGES,
                  ["brauer", "--gamma", f"{MAX_EDGES - 1},1,1", "--what", "invariants"],
                  ["brauer", "--gamma", f"{MAX_EDGES},1,1", "--what", "invariants"]),
    # gamma(1, 1, 3) is searched in 105 nodes, gamma(2, 1, 3) in 1,860
    "MAX_SEARCH_NODES": (105,
                         ["decomp", "--gamma", "1,1,3"], ["decomp", "--gamma", "2,1,3"]),
    # C = [[4, 2], [2, 4]] has 7 candidate rows, [[9, 3], [3, 9]] has 11
    "MAX_CANDIDATE_ROWS": (7,
                           ["decomp", "--cartan", "4,2;2,4"], ["decomp", "--cartan", "9,3;3,9"]),
    "MAX_SEARCH_DEPTH": (MAX_SEARCH_DEPTH,
                         ["decomp", "--cartan", f"1,0;0,{MAX_SEARCH_DEPTH - 1}"],
                         ["decomp", "--cartan", f"1,0;0,{MAX_SEARCH_DEPTH}"]),
    # the limit is set to a prime, so that the input at it is a valid char
    "MAX_CHAR": (7,
                 ["classify", "--ell", "2", "--weight", "3,0,0", "--beta", "1,1,1", "--char", "7"],
                 ["classify", "--ell", "2", "--weight", "3,0,0", "--beta", "1,1,1", "--char", "11"]),
}


def limit_modules() -> dict:
    """Each module-level MAX_* limit of the package, by name, with its module."""
    modules = {}
    for info in pkgutil.iter_modules(klrblocks.__path__):
        module = importlib.import_module(f"klrblocks.{info.name}")
        modules.update({name: module for name in vars(module) if name.startswith("MAX_")})
    return modules


def test_every_limit_answers_at_its_value_and_refuses_past_it(monkeypatch):
    modules = limit_modules()
    assert sorted(modules) == sorted(LIMITS)

    for name, (value, at, past) in LIMITS.items():
        assert isinstance(getattr(modules[name], name), int)
        for limit, argv, refused in ((value, at, False), (value, past, True), (value - 1, at, True)):
            monkeypatch.setattr(modules[name], name, limit)
            # a lattice cached under a higher limit would answer again
            tableaux._degree_table.cache_clear()
            code, out, err = capture(argv)
            if refused:
                assert (code, out) == (1, ""), (name, argv)
                assert err.startswith("error: ")
                assert err.endswith(f" exceeds the limit {name} = {limit}\n")
                assert err.count("\n") == 1 and len(err) <= MAX_REFUSAL_LINE
            else:
                assert (code, err) == (0, ""), (name, argv)
        monkeypatch.undo()


# The table of functions the benchmark's tracer wraps, read from its file.
TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")
# wrapped functions no subcommand calls any more
DEAD_WRAPS = {"maxweights.equiv_class", "maxweights.solve_x", "maxweights.p_lambda_set"}
# one argv per subcommand (gdim twice: a total and a pair) and the wrapped
# functions it must reach
REACHED = [
    (["maxweights", "--ell", "2", "--weight", "2,1,0"], {"maxweights.max_plus"}),
    (["quiver", "--ell", "2", "--weight", "2,1,0"], {"quiver.build_quiver"}),
    (["tquiver", "--ell", "2", "--weight", "2,1,0"], {"quiver.t_subquiver"}),
    (["classify", "--ell", "2", "--weight", "2,1,0", "--beta", "1,0,0"],
     {"classify.classify", "weyl.orbit_representative", "classify.script_sets"}),
    (["gdim", "--ell", "1", "--weight", "2,1", "--beta", "1,1"], {"tableaux.graded_dim_total"}),
    (["gdim", "--ell", "1", "--weight", "2,1", "--beta", "1,1", "--nu", "0,1", "--nup", "1,0"],
     {"tableaux.graded_dim"}),
    (["brauer", "--gamma", "1,1,2"],
     {"brauer.build", "brauer.derived_invariants", "brauer.quiver_presentation"}),
    (["decomp", "--gamma", "1,1,2"], {"brauer.build", "brauer.decomp_search"}),
]


def test_every_traced_function_is_reached_through_its_module(monkeypatch):
    """Each function in the tracer's table is replaced, in every klrblocks
    module that binds it by name (a static method on its class), by a
    counting wrapper, as the tracer installs its spans.  Each subcommand run
    through `cli.run` must call the wrappers of the functions it reaches: a
    function bound when a module is imported (a default argument, say) would
    go round the wrapper, and its span would read 0."""
    spec = importlib.util.spec_from_file_location("traced_table", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = [m for n, m in sys.modules.items() if n == "klrblocks" or n.startswith("klrblocks.")]
    calls = Counter()

    def counting(span, fn):
        def counted(*args, **kwargs):
            calls[span] += 1
            return fn(*args, **kwargs)
        return counted

    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"klrblocks.{layer}")
        for name in names:
            span = f"{layer}.{name.rsplit('.', 1)[-1]}"
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(module, cls_name)
                monkeypatch.setattr(cls, attr, staticmethod(counting(span, cls.__dict__[attr].__func__)))
                continue
            original = getattr(module, name)
            wrapped = counting(span, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, wrapped)
    spans = {f"{layer}.{name.rsplit('.', 1)[-1]}" for layer, names in tracing.TRACED.items() for name in names}
    assert set().union(*(reached for _, reached in REACHED)) == spans - DEAD_WRAPS - {"cli.run"}
    for argv, reached in REACHED:
        calls.clear()
        code = klrblocks.cli.run(argv, io.StringIO(), io.StringIO())
        assert code == 0, argv
        assert {span for span in reached | {"cli.run"} if not calls[span]} == set(), argv


def test_negative_cartan_entries_are_refused():
    # A negative entry in the last column once let no candidate prefix grow
    # to a full row, so the row walk visited all 2^(n-1) prefixes before it
    # answered "unique: no" (2 s at n = 18).  In a child process, so that
    # such a walk fails on the timeout instead of hanging the suite.
    n = 30
    rows = [["1"] * n for _ in range(n)]
    rows[n - 2][n - 1] = rows[n - 1][n - 2] = "-1"
    argv = ["decomp", "--cartan", ";".join(",".join(row) for row in rows)]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(klrblocks.__file__))}
    proc = subprocess.run(
        [sys.executable, "-m", "klrblocks.cli", *argv],
        capture_output=True, text=True, timeout=10, env=env,
    )
    expected = (1, "", "error: Cartan matrix entries must be nonnegative\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == expected
    started = time.perf_counter()
    assert capture(argv) == expected
    assert time.perf_counter() - started < 0.5


# --- fuzz: every argv ends in exit 0, 1 or 2 with at most one stderr line ---

GRAPH = "<graph file>"  # replaced by a temporary path; its JSON rides along
LINE_BREAK_TEXT = st.builds(
    "{}{}{}".format,
    st.text(max_size=2),
    st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x1e", "\u2028"]),
    st.text(max_size=2),
)
MALFORMED_TEXT = st.sampled_from(
    ["", ",", "x", "1,,2", "1.5", "1;2", "-1", "1,-2,3", "0,0,0,0,0,0,0,0,0"]
) | st.text(max_size=5) | LINE_BREAK_TEXT
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-1, 3) | st.floats(-3, 3) | st.text(max_size=3)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
SMALL_INTS = st.integers(-1, 3)
# graph multiplicities stay <= 2: then no decomp_search on a graph drawn here
# visits more than 10,776 nodes (about 0.01 s), while a triangle with a pendant
# edge at multiplicity 3 visits 586,032 (about 0.6 s).  --gamma draws m up to
# 3: its largest search, gamma(3,5,3), visits 38,495 nodes (about 0.05 s).
GRAPHS = st.fixed_dictionaries(
    {
        "vertices": st.lists(
            st.fixed_dictionaries(
                {"id": SMALL_INTS | JSON_VALUES, "mult": st.integers(0, 2) | JSON_SCALARS}
            ),
            max_size=4,
        )
        | JSON_VALUES,
        "edges": st.lists(st.lists(SMALL_INTS, min_size=2, max_size=2) | JSON_VALUES, max_size=4)
        | JSON_VALUES,
    },
    optional={
        "rotation": st.dictionaries(
            st.sampled_from(["0", "1", "2", "3", "x"]), st.lists(SMALL_INTS, max_size=4)
        )
        | JSON_VALUES
    },
) | JSON_VALUES


def csv(values) -> str:
    return ",".join(str(v) for v in values)


@st.composite
def vector_text(draw, values) -> str:
    """The given vector three times in four, otherwise malformed text."""
    return csv(values) if draw(st.integers(0, 3)) else draw(MALFORMED_TEXT)


@st.composite
def bounded_vector(draw, length: int, total: int, top: int) -> list[int]:
    out = []
    for _ in range(length):
        out.append(draw(st.integers(0, min(top, total))))
        total -= out[-1]
    return out


@st.composite
def weight_argv(draw, cmd: str) -> list[str]:
    ell = draw(st.integers(1, 4))
    e = ell + 1
    ell_text = str(ell) if draw(st.integers(0, 9)) else draw(st.sampled_from(["0", "-1", "x"]))
    weight = draw(bounded_vector(e, 3 if cmd == "gdim" else 4, 2))
    argv = [cmd, f"--ell={ell_text}", f"--weight={draw(vector_text(weight))}"]
    if cmd in ("classify", "gdim"):
        m = draw(st.integers(-1, 1))
        beta = draw(bounded_vector(e, 8 - e * max(m, 0), 3))
        argv.append(f"--beta={draw(vector_text(beta))}")
        if m:
            argv.append(f"--mdelta={m}")
        final = [b + m for b in beta]
    if cmd == "classify":
        argv.append(f"--char={draw(st.sampled_from([0, 2, 3, 4, -1]))}")
        t = draw(st.sampled_from(["other", "two", "minustwo", "signell", "bogus"]))
        argv.append(f"--t={t}")
    if cmd == "gdim":
        residues = [i for i, c in enumerate(final) for _ in range(max(c, 0))]
        for opt in draw(st.sampled_from([(), ("nu", "nup"), ("nu",)])):
            argv.append(f"--{opt}={draw(vector_text(draw(st.permutations(residues))))}")
    return argv


@st.composite
def graph_argv(draw, cmd: str):
    sources = ["graph", "graph", "graph", "gamma", "missing", "none"]
    source = draw(st.sampled_from(sources + ["cartan"] if cmd == "decomp" else sources))
    argv, graph = [cmd], None
    if source == "gamma":
        gamma = [draw(st.integers(0, 3)), draw(st.integers(0, 6)), draw(st.integers(0, 3))]
        argv.append(f"--gamma={draw(vector_text(gamma))}")
    elif source == "graph":
        argv += ["--graph", GRAPH]
        graph = draw(GRAPHS)
    elif source == "missing":
        # a path that does not exist, sometimes holding a line break
        argv += ["--graph", GRAPH + draw(st.sampled_from(["", "x"]) | LINE_BREAK_TEXT)]
    elif source == "cartan":
        n = draw(st.integers(1, 3))
        rows = [draw(bounded_vector(n, 12, 3)) for _ in range(n)]
        argv.append(f"--cartan={';'.join(draw(vector_text(r)) for r in rows)}")
    if cmd == "brauer":
        argv.append(f"--what={draw(st.sampled_from(['invariants', 'cartan', 'quiver', 'all']))}")
    return argv, graph


@st.composite
def cli_cases(draw):
    # the two graph subcommands twice each: their input has the most shapes
    cmd = draw(st.sampled_from(
        ["maxweights", "quiver", "tquiver", "classify", "gdim"] + ["brauer", "decomp"] * 2
    ))
    if cmd in ("brauer", "decomp"):
        argv, graph = draw(graph_argv(cmd))
    else:
        argv, graph = draw(weight_argv(cmd)), None
    formats = {"maxweights": "text json", "quiver": "text json dot", "tquiver": "text json dot"}
    argv.append(f"--format={draw(st.sampled_from(formats.get(cmd, 'text json').split()))}")
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(LINE_BREAK_TEXT))  # an unrecognized argument
    return argv, graph


@settings(max_examples=300, deadline=None)
@given(cli_cases())
def test_cli_fuzz_exits_cleanly(case):
    argv, graph = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.json")
        if graph is not None:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(graph, fh)
        argv = [a.replace(GRAPH, path, 1) if a.startswith(GRAPH) else a for a in argv]
        parse_err = io.StringIO()
        # an exception escaping run() is the traceback main() would print
        with contextlib.redirect_stderr(parse_err):
            code, out, err = capture(argv)
    assert code in (0, 1, 2) and "Traceback" not in parse_err.getvalue() + err
    assert parse_err.getvalue() == ""  # parse rejections go to err as well
    if code:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n")
        assert len(err.splitlines()) == 1
    else:
        assert err == ""


# every spelling --t takes: the values of TClass and their aliases
T_SPELLINGS = ("other", "signell", "sign", "two", "minustwo", "2", "-2")


@st.composite
def t_spellings(draw):
    """A spelling of a t class, or a bogus one, each letter in either case."""
    word = draw(st.sampled_from((*T_SPELLINGS, None)))
    if word is None:
        word = draw(st.text("twoinusgelr2- İΣ", max_size=9))
    return "".join([c.upper() if draw(st.booleans()) else c for c in word])


@settings(max_examples=300, deadline=None)
@given(dominant_weights(max_e=9, levels=(3, 5)), st.data())
def test_classify_prints_what_the_oracle_prints(base, data):
    # the oracle reads argv with argparse, checks signs with generators,
    # always adds --mdelta, reads --t through TClass(...) and writes lists
    e = len(base.coeffs)
    entries = st.integers(0, 3) | st.sampled_from([100, 10**9])
    beta = data.draw(st.lists(entries, min_size=e, max_size=e))
    t = data.draw(t_spellings())
    argv = [
        "--ell", str(e - 1),
        "--weight", ",".join(map(str, base.coeffs)),
        "--beta", ",".join(map(str, beta)),
        "--mdelta", str(data.draw(st.integers(-3, 3))),
        "--char", str(data.draw(st.sampled_from([0, 2, 3, 4, 5, 7]))),
        *(["--t", t] if data.draw(st.booleans()) else [f"--t={t}"]),
        "--format", data.draw(st.sampled_from(["text", "json"])),
    ]
    assert capture(["classify", *argv]) == oracles.classify_output(argv)


def test_t_class_is_checked_once_per_query(monkeypatch):
    calls = []
    check_rank = FieldParams.check_rank
    monkeypatch.setattr(
        FieldParams, "check_rank", lambda self, ell: calls.append(ell) or check_rank(self, ell)
    )
    two = "usage error: t classes 'two'/'minustwo' only apply for ell = 1\n"
    signell = "usage error: t class 'signell' only applies for ell >= 2\n"
    # a level-3 and a level-2 base at each rank: a bad --t is a usage error at any level
    for block, message in (
        (["--ell", "2", "--weight", "3,0,0", "--beta", "1,1,1", "--t", "two"], two),
        (["--ell", "2", "--weight", "2,0,0", "--beta", "1,1,1", "--t", "two"], two),
        (["--ell", "1", "--weight", "3,0", "--beta", "1,1", "--t", "signell"], signell),
        (["--ell", "1", "--weight", "1,1", "--beta", "1,1", "--t", "signell"], signell),
        (["--ell", "2", "--weight", "3,0,0", "--beta", "1,1,1"], None),
    ):
        calls.clear()
        expected = (2, "", message) if message else (0, "Tame\n", "")
        assert capture(["classify", *block]) == expected
        assert len(calls) == 1
    with pytest.raises(TClassRankError, match="only apply for ell = 1"):
        classify(LevelKDominant((2, 0, 0)), RootVector((1, 1, 1)), FieldParams(t_class=TClass.TWO))


# --- the option table against the argparse parser it replaced ---

ORACLE = build_parser()
# per subcommand: (option, "int", "text" or its choices, required), written out
# here rather than read from the table under test
WEIGHT_OPTS = [("ell", "int", True), ("weight", "text", True)]
BETA_OPTS = [("beta", "text", True), ("mdelta", "int", False)]
GRAPH_OPTS = [("graph", "text", False), ("gamma", "text", False)]
TEXT_JSON = [("format", ("text", "json"), False)]
WITH_DOT = [("format", ("text", "json", "dot"), False)]
OPTIONS = {
    "maxweights": WEIGHT_OPTS + TEXT_JSON,
    "quiver": WEIGHT_OPTS + WITH_DOT,
    "tquiver": WEIGHT_OPTS + WITH_DOT,
    "classify": WEIGHT_OPTS + BETA_OPTS + [("char", "int", False), ("t", "text", False)]
    + TEXT_JSON,
    "gdim": WEIGHT_OPTS + BETA_OPTS + [("nu", "text", False), ("nup", "text", False)]
    + TEXT_JSON,
    "brauer": GRAPH_OPTS + [("what", ("invariants", "cartan", "quiver", "all"), False)]
    + TEXT_JSON,
    "decomp": [("cartan", "text", False)] + GRAPH_OPTS + TEXT_JSON,
}
# text argparse reads as a value: anything not starting with "-", and negative numbers
OPTION_TEXT = st.text(max_size=6).filter(lambda t: not t.startswith("-")) | st.sampled_from(
    ["-1", "-12", "-1.5", "-.5", "-"]
)
NOT_INTS = st.sampled_from(["x", "1.5", "", "two", "1,2", "0x1", "-"])
CHOICE_TEXTS = ["xml", "JSON", " text", "q", "", "dot", "all", "text"]
UNKNOWN_OPTIONS = st.sampled_from(
    [["--bogus"], ["--cap", "5"], ["--max-height=3"], ["-x"], ["--stats"], ["--help-me"]]
)


def option_value(kind):
    if kind == "int":
        return st.integers(-20, 20).map(str)
    return OPTION_TEXT if kind == "text" else st.sampled_from(kind)


@st.composite
def well_formed(draw):
    """A subcommand and its options, each [flag, value, joined by "="], shuffled;
    an optional option is given zero, one or two times, a required one once or twice."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    given = []
    for name, kind, required in OPTIONS[command]:
        for _ in range(draw(st.integers(1 if required else 0, 2))):
            given.append([f"--{name}", draw(option_value(kind)), draw(st.booleans())])
    return command, draw(st.permutations(given))


def tokens(given) -> list[str]:
    out = []
    for flag, value, joined in given:
        out += [f"{flag}={value}"] if joined else [flag, value]
    return out


def table_namespace(argv) -> dict:
    ns = vars(_parse(argv))
    del ns["func"]
    return ns


def oracle_namespace(argv) -> dict:
    ns = vars(ORACLE.parse_args(argv))
    del ns["command"]
    return ns


def rejection(parse, argv) -> str:
    """The UsageError text, up to a list of choices (whose quoting varies
    between Python versions)."""
    with pytest.raises(UsageError) as info:
        parse(argv)
    return str(info.value).split(" (choose from ")[0]


@settings(max_examples=300, deadline=None)
@given(well_formed())
def test_table_parses_like_argparse(case):
    command, given = case
    argv = [command, *tokens(given)]
    assert table_namespace(argv) == oracle_namespace(argv)


@pytest.mark.parametrize("command", list(OPTIONS))
def test_every_option_and_choice_reads_like_argparse(command):
    block = [f"--{name}=1" for name, _, required in OPTIONS[command] if required]
    for name, kind, _ in OPTIONS[command]:
        for value in CHOICE_TEXTS if isinstance(kind, tuple) else ["3", "-1", "x", ""]:
            argv = [command, *block, f"--{name}", value]
            try:
                expected = oracle_namespace(argv)
            except UsageError:
                assert rejection(_parse, argv) == rejection(ORACLE.parse_args, argv)
            else:
                assert table_namespace(argv) == expected


@st.composite
def malformed(draw):
    """A well-formed command line with one fault of the given kind."""
    command, given = draw(well_formed())
    opts = OPTIONS[command]
    ints = [name for name, kind, _ in opts if kind == "int"]
    required = [name for name, _, req in opts if req]
    kinds = ["unknown option", "bad choice", "unknown command", "missing command"]
    kinds += ["no value"] * bool(given) + ["non-int"] * bool(ints) + ["missing"] * bool(required)
    kind = draw(st.sampled_from(kinds))
    at = draw(st.integers(0, len(given)))
    if kind == "unknown option":
        return kind, [command, *tokens(given[:at]), *draw(UNKNOWN_OPTIONS), *tokens(given[at:])]
    if kind == "missing":
        names = {f"--{name}" for name in draw(st.sets(st.sampled_from(required), min_size=1))}
        return kind, [command, *tokens(g for g in given if g[0] not in names)]
    if kind == "no value":
        at = min(at, len(given) - 1)
        return kind, [command, *tokens(given[:at]), given[at][0], *tokens(given[at + 1:])]
    if kind == "unknown command":
        return kind, [draw(st.sampled_from(["nonsense", "Classify", "classify2", "help", ""]))]
    if kind == "missing command":
        return kind, []
    if kind == "non-int":
        fault = [f"--{draw(st.sampled_from(ints))}", draw(NOT_INTS), draw(st.booleans())]
    else:
        name, choices = draw(st.sampled_from([(n, k) for n, k, _ in opts if isinstance(k, tuple)]))
        bad = draw(st.sampled_from([text for text in CHOICE_TEXTS if text not in choices]))
        fault = [f"--{name}", bad, draw(st.booleans())]
    return kind, [command, *tokens(given[:at] + [fault] + given[at:])]


@settings(max_examples=300, deadline=None)
@given(malformed())
def test_table_rejects_like_argparse(case):
    kind, argv = case
    assert rejection(_parse, argv) == rejection(ORACLE.parse_args, argv), kind
    code, out, err = capture(argv)
    assert code == 2 and out == "", kind
    assert err.startswith("usage error: ") and len(err.splitlines()) == 1 and err.endswith("\n")


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=6) | st.sampled_from(["-1", "- 1", "-1 ", "-1\n", "-x", "-", ""]))
def test_option_values_are_read_like_argparse(token):
    """Whether a token is the value of the option before it, or an option."""
    argv = ["maxweights", "--weight", "2,0", "--ell", token]
    try:
        expected = oracle_namespace(argv)
    except UsageError:
        expected = None
    if expected is None:
        message = rejection(_parse, argv)
        # argparse also reads "-h…" and "-…=…" as options when they hold a
        # space; the table takes them as a value, which --ell then refuses
        if not (token.startswith("-") and " " in token):
            assert message == rejection(ORACLE.parse_args, argv)
    else:
        assert table_namespace(argv) == expected


def test_option_names_are_exact():
    argv = ["classify", "--ell", "2", "--wei", "3,0,0", "--beta", "1,1,1"]
    assert oracle_namespace(argv)["weight"] == "3,0,0"  # argparse took the prefix
    message = "usage error: the following arguments are required: --weight\n"
    assert capture(argv) == (2, "", message)
    argv = ["classify", "--ell", "2", "--weight", "3,0,0", "--beta", "1,1,1", "--form", "json"]
    assert capture(argv) == (2, "", "usage error: unrecognized arguments: --form json\n")


def test_both_option_forms_and_the_last_repeat_wins():
    block = ["classify", "--ell=2", "--weight", "3,0,0"]
    assert capture([*block, "--beta", "0,1,0", "--beta=1,1,1"]) == (0, "Tame\n", "")
    assert capture([*block, "--beta=1,1,1", "--beta", "0,1,0"]) == (0, "Zero\n", "")
    assert capture([*block, "--beta=1,1,1", "--format", "json", "--format=text"]) == (
        0, "Tame\n", ""
    )
    assert capture([*block, "--beta", "1,1,1", "--mdelta", "-1"]) == (0, "Finite\n", "")


def test_top_level_help_lists_every_subcommand():
    for flag in ("--help", "-h"):
        code, out, err = capture([flag])
        assert (code, err) == (0, "") and out.startswith("usage: klrblocks")
        listed = [line.split()[0] for line in out.splitlines() if line.startswith("  ")]
        assert listed == list(OPTIONS) == list(COMMANDS)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_subcommand_help_names_every_option(command):
    code, out, err = capture([command, "--help"])
    assert (code, err) == (0, "") and out.startswith(f"usage: klrblocks {command}")
    assert capture([command, "-h"]) == (code, out, err)
    rows = {line.split()[0]: line for line in out.splitlines() if line.startswith("  --")}
    _, _, opts = COMMANDS[command]
    assert list(rows) == [f"--{name}" for name, *_ in opts]
    for name, _, default, choices, text in opts:
        row = rows[f"--{name}"]
        assert text in row
        assert "{" + ",".join(choices) + "}" in row if choices else name.upper() in row
        assert ("(required)" if default is _REQUIRED else f"(default: {default})") in row


def test_help_stops_the_parse_where_argparse_did():
    # a fault before --help is reported, one after it is not
    code, out, err = capture(["classify", "--help", "--ell", "x"])
    assert (code, err) == (0, "") and out.startswith("usage: klrblocks classify")
    message = "usage error: argument --ell: invalid int value: 'x'\n"
    assert capture(["classify", "--ell", "x", "--help"]) == (2, "", message)


@pytest.mark.parametrize("token", ["--gamma= ", "--gamma=1 2", "--graph= x", "--help= ", "-h= "])
def test_option_with_spaced_value_is_not_a_value(token):
    """A token naming an option before its "=" is an option even when it holds
    a space, so the option before it has no value."""
    argv = ["decomp", "--graph", token]
    assert rejection(_parse, argv) == rejection(ORACLE.parse_args, argv)
