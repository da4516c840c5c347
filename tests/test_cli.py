from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import klrblocks
from klrblocks.brauer import MAX_EDGES, MAX_SEARCH_DEPTH
from klrblocks.cartan import RootVector
from klrblocks.classify import FieldParams, TClass, TClassRankError, classify
from klrblocks.cli import _REQUIRED, _TABLES, COMMANDS, UsageError, _parse, run
from klrblocks import maxweights
from klrblocks.maxweights import MAX_E, ClassTooLargeError, LevelKDominant, max_plus
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
        assert "like 0" in proc.stderr


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
    assert "more than 20000 members" in err


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
        with pytest.raises(ClassTooLargeError, match="more than 11 members"):
            call(base)
    for cmd in ("maxweights", "quiver"):
        code, out, err = capture([cmd, *argv])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "more than 11 members" in err


@settings(max_examples=100, deadline=None)
@given(dominant_weights(max_e=9, levels=(2, 5)))
def test_class_commands_print_what_the_field_by_field_renderers_print(base):
    # the records come from the oracles too: the composition class with the
    # solver's X, and the quivers that test every label on its interval
    weight = ",".join(map(str, base.coeffs))
    expected = {
        "maxweights": lambda fmt: oracles.maxweights_output(base, oracles.solver_max_plus(base), fmt),
        "quiver": lambda fmt: oracles.quiver_output(oracles.label_bfs_quiver(base), fmt),
        "tquiver": lambda fmt: oracles.quiver_output(oracles.label_t_subquiver(base), fmt),
    }
    for cmd, formats in (("maxweights", ("text", "json")), ("quiver", ("text", "json", "dot")),
                         ("tquiver", ("text", "json", "dot"))):
        for fmt in formats:
            argv = [cmd, "--ell", str(len(base.coeffs) - 1), "--weight", weight, "--format", fmt]
            assert capture(argv) == (0, expected[cmd](fmt), "")


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
    with pytest.raises(ValueError, match="exceeds the limit"):
        LevelKDominant((3,) + (0,) * MAX_E)
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
        expected = f"error: {s + 1} edges exceed the limit MAX_EDGES = {MAX_EDGES}\n"
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
    assert "more than 20000 shapes" in err


def test_candidate_rows_are_bounded():
    # 7x7 with every entry 100 has about 19.5M candidate rows
    cartan = ";".join([",".join(["100"] * 7)] * 7)
    code, out, err = capture(["decomp", "--cartan", cartan])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "candidate rows" in err and err.count("\n") == 1



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
    assert "candidate rows" in proc.stderr


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
