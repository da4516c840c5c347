from __future__ import annotations

import io
import json

from klrblocks.cli import quiver_from_json_dict, run


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
