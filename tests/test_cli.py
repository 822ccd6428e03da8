import hashlib
import json
import sys
from fractions import Fraction

import pytest

from alphabound import bounds, cli
from alphabound.bounds import c_bound
from alphabound.cli import _step_dict, main
from alphabound.families import (attach_cliques, chain_blocks,
                                 cycle_with_pendants, random_connected,
                                 star_graph)
from alphabound.graphcore import degree_profile, load_graph, write_edge_list
from alphabound.witness import CertificationError, peel_witness


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_coeffs_text(capsys):
    code, out, err = run(capsys, "coeffs", "--delta", "4")
    assert code == 0 and err == ""
    assert out.splitlines() == ["c[1] = 5/8", "c[2] = 3/8",
                                "c[3] = 1/4", "c[4] = 1/4"]


def test_coeffs_json(capsys):
    code, out, _ = run(capsys, "coeffs", "--delta", "3", "--json")
    data = json.loads(out)
    assert data == {"kind": "c", "delta": 3, "values": ["2/3", "1/3", "1/3"]}


def test_coeffs_decimal_format(capsys):
    code, out, _ = run(capsys, "coeffs", "--delta", "3", "--format", "decimal:4")
    assert out.splitlines()[0] == "c[1] = 0.6667"


def test_coeffs_d_kind(capsys):
    code, out, _ = run(capsys, "coeffs", "--delta", "4", "--kind", "d")
    assert out.splitlines()[0] == "d[1] = 1 - 1/e"


def test_coeffs_clipped(capsys):
    code, out, _ = run(capsys, "coeffs", "--delta", "4", "--kind", "clipped",
                       "--c-delta", "2/9")
    assert out.splitlines() == ["c[1] = 17/27", "c[2] = 10/27",
                                "c[3] = 7/27", "c[4] = 2/9"]


def test_coeffs_bad_tail(capsys):
    code, _, err = run(capsys, "coeffs", "--delta", "4", "--kind", "clipped",
                       "--c-delta", "1/2")
    assert code == 2
    assert err.startswith("error:")


def gen_gstar(tmp_path, capsys):
    path = tmp_path / "gstar.txt"
    code, out, err = run(capsys, "gen", "pendant-cycle", "--cycle", "10",
                         "-o", str(path))
    assert code == 0
    return str(path)


def test_gen_writes_edge_list(tmp_path, capsys):
    path = gen_gstar(tmp_path, capsys)
    text = open(path).read()
    assert text.startswith("# gen pendant-cycle cycle=10\n")
    assert len([l for l in text.splitlines() if not l.startswith("#")]) == 21


def test_gen_to_stdout(capsys):
    code, out, _ = run(capsys, "gen", "chain", "--delta", "3", "--blocks", "2")
    assert code == 0
    assert "# gen chain delta=3 blocks=2" in out


def test_gen_random_deterministic(capsys):
    _, out1, _ = run(capsys, "gen", "random", "--vertices", "15",
                     "--delta", "4", "--seed", "9")
    _, out2, _ = run(capsys, "gen", "random", "--vertices", "15",
                     "--delta", "4", "--seed", "9")
    assert out1 == out2


def test_gen_missing_params(capsys):
    code, _, err = run(capsys, "gen", "chain", "--delta", "3")
    assert code == 2 and "chain needs" in err


def test_bound_table(tmp_path, capsys):
    path = gen_gstar(tmp_path, capsys)
    code, out, _ = run(capsys, "bound", path)
    assert code == 0
    assert "75/8" in out
    assert "9.375000000000" in out
    assert "best: euler" in out
    # deterministic output
    code2, out2, _ = run(capsys, "bound", path)
    assert out2 == out


def test_bound_with_truncations(tmp_path, capsys):
    path = gen_gstar(tmp_path, capsys)
    code, out, _ = run(capsys, "bound", path, "--delta-range", "6..7")
    assert "truncated[6]" in out and "1373/144" in out
    assert "truncated[7]" in out


def test_bound_json(tmp_path, capsys):
    path = gen_gstar(tmp_path, capsys)
    code, out, _ = run(capsys, "bound", path, "--json")
    data = json.loads(out)
    assert data["delta"] == 4
    assert data["bounds"]["weighted"]["exact"] == "75/8"
    assert data["degree_classes"] == {"1": 11, "3": 9, "4": 1}


def test_bound_profiles_once_and_builds_no_neighbour_sets(tmp_path, capsys, monkeypatch):
    path = tmp_path / "rc.txt"
    path.write_text(write_edge_list(random_connected(300, 4, 1)))
    loaded, calls = [], []
    monkeypatch.setattr(cli, "load_graph", lambda f: loaded.append(load_graph(f)) or loaded[-1])
    for module in (cli, bounds):
        original = module.degree_profile
        monkeypatch.setattr(module, "degree_profile",
                            lambda g, original=original: calls.append(g) or original(g))
    code, out, _ = run(capsys, "bound", str(path), "--json")
    assert code == 0 and len(calls) == 1
    g, = loaded
    assert g._nbr is None
    profile = degree_profile(g)
    assert json.loads(out)["degree_classes"] == {
        str(i): profile.count(i) for i in range(1, profile.delta_max + 1) if profile.count(i)}


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no limit on int digits")
def test_large_degree_exact_values_print(tmp_path, capsys):
    # from degree 1560 on the exact weighted bound has more than the 4300
    # digits that str(int) prints by default
    g = star_graph(1600)
    path = tmp_path / "star.txt"
    path.write_text(write_edge_list(g))
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "bound", str(path), "--json")
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit    # lifted for the call only
    sys.set_int_max_str_digits(0)
    try:
        assert Fraction(json.loads(out)["bounds"]["weighted"]["exact"]) == c_bound(g)
    finally:
        sys.set_int_max_str_digits(limit)
    for argv in (["witness", str(path)], ["verify", str(path)],
                 ["coeffs", "--delta", "1560"]):
        code, _, err = run(capsys, *argv)
        assert code == 0 and err == ""


def test_long_label_still_refused(tmp_path, capsys):
    # the digit limit is lifted for output only in effect: parsing still
    # refuses labels longer than Python's default limit
    path = tmp_path / "long.txt"
    path.write_text("0 1\n1 1" + "0" * 5000 + "\n")
    code, _, err = run(capsys, "bound", str(path))
    assert code == 2 and err.endswith("line 2: vertex labels must be integers\n")


def test_bound_missing_file(capsys):
    code, _, err = run(capsys, "bound", "/no/such/file")
    assert code == 2 and err.startswith("error:")


def test_bound_out_of_class(tmp_path, capsys):
    path = tmp_path / "c8.txt"
    path.write_text("".join(f"{i} {(i + 1) % 8}\n" for i in range(8)))
    code, _, err = run(capsys, "bound", str(path))
    assert code == 2 and "not in class" in err


def test_witness_output(tmp_path, capsys):
    path = gen_gstar(tmp_path, capsys)
    trace = tmp_path / "trace.json"
    code, out, _ = run(capsys, "witness", path, "--trace", str(trace))
    assert code == 0
    assert "independent set of size 11" in out
    assert "75/8" in out
    payload = json.loads(trace.read_text())
    assert payload["certified_bound"] == "75/8"
    assert payload["steps"][0]["type"] == "peel"
    assert payload["steps"][0]["vertex"] == 10
    assert payload["steps"][0]["share"] == "7/8"


def test_witness_trace_has_one_line_per_step(tmp_path, capsys):
    path = gen_gstar(tmp_path, capsys)
    trace = tmp_path / "trace.json"
    code, _, _ = run(capsys, "witness", path, "--trace", str(trace))
    assert code == 0
    result = peel_witness(load_graph(path))
    expected = {
        "graph": path,
        "independent_set": list(result.independent_set),
        "certified_bound": str(result.certified_bound),
        "steps": [_step_dict(s) for s in result.trace],
    }
    text = trace.read_text()
    assert json.loads(text) == expected
    lines = text.splitlines()
    # the top-level keys open the file and "]}" closes it
    assert len(lines) == len(result.trace) + 2
    assert lines[-1] == "]}"
    for line, step in zip(lines[1:-1], expected["steps"]):
        assert json.loads(line.rstrip(",")) == step


# sha256 of json.dumps(payload, sort_keys=True) for the payload of
# "witness graph.txt --trace trace.json", recorded before the peel moved to
# an integer ledger; a faster peel must reproduce every pick and share
PINNED_TRACES = {
    "cycle_with_pendants(50)": (lambda: cycle_with_pendants(50),
        "c12193f6b0fe0e8d9cb7878ad849067117434245880199994614e961f3b3f825"),
    "random_connected(120,4,0)": (lambda: random_connected(120, 4, 0),
        "749b9b1cd62f467695f66e23ce317b642c12aa5615b2594b8bf11074a7bd990b"),
    "random_connected(120,4,1)": (lambda: random_connected(120, 4, 1),
        "31733b8cf8beea32ed33fc38c5d31f357b213dc1d63c3ef127ead9fe5120d02b"),
    "random_connected(120,4,2)": (lambda: random_connected(120, 4, 2),
        "8148c329b86541fdd773c27a9be6ccb78968a5cbee9b7dd76dc8747a45f9bff7"),
    "chain_blocks(4,5)": (lambda: chain_blocks(4, 5),
        "d972c26ad40436befa5757b510f3750d9ef2a8f5b28ef09585708cf89b3ccb98"),
    "attach_cliques(5,5,2)": (lambda: attach_cliques(5, 5, 2),
        "41475c8572d0ddc19450d99cdae0360721ed2d1326dd05791657832ecfe7d949"),
}


@pytest.mark.parametrize("name", sorted(PINNED_TRACES))
def test_witness_trace_matches_pinned_digest(name, tmp_path, capsys, monkeypatch):
    build, digest = PINNED_TRACES[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graph.txt").write_text(write_edge_list(build()))
    code, _, _ = run(capsys, "witness", "graph.txt", "--trace", "trace.json")
    assert code == 0
    payload = json.loads((tmp_path / "trace.json").read_text())
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_certification_failure_exit_code(tmp_path, capsys, monkeypatch):
    path = gen_gstar(tmp_path, capsys)

    def broken(g):
        raise CertificationError("weight accounting mismatch")

    monkeypatch.setattr(cli, "peel_witness", broken)
    code, out, err = run(capsys, "witness", path)
    assert code == 3
    assert out == ""
    assert err == "error: certification failed: weight accounting mismatch\n"


def test_witness_json(tmp_path, capsys):
    path = gen_gstar(tmp_path, capsys)
    code, out, _ = run(capsys, "witness", path, "--json")
    data = json.loads(out)
    assert data["size"] == 11
    assert data["bound"] == "75/8"
    assert len(data["independent_set"]) == 11


def test_exact_output(tmp_path, capsys):
    path = gen_gstar(tmp_path, capsys)
    code, out, _ = run(capsys, "exact", path)
    assert code == 0
    assert out.splitlines()[0] == "alpha = 11"
    code, out, _ = run(capsys, "exact", path, "--json")
    assert json.loads(out)["alpha"] == 11


def test_exact_budget_exceeded(tmp_path, capsys):
    path = tmp_path / "r40.txt"
    run(capsys, "gen", "random", "--vertices", "40", "--delta", "6",
        "--seed", "3", "-o", str(path))
    code, _, err = run(capsys, "exact", str(path), "--budget", "2")
    assert code == 1
    assert "budget exceeded" in err


def test_exact_budget_env(tmp_path, capsys, monkeypatch):
    path = tmp_path / "r40.txt"
    run(capsys, "gen", "random", "--vertices", "40", "--delta", "6",
        "--seed", "3", "-o", str(path))
    monkeypatch.setenv("ALPHABOUND_BUDGET", "2")
    code, _, err = run(capsys, "exact", str(path))
    assert code == 1 and "budget exceeded" in err
    monkeypatch.setenv("ALPHABOUND_BUDGET", "banana")
    code, _, err = run(capsys, "exact", str(path))
    assert code == 2 and "must be an integer" in err


def test_verify_ok(tmp_path, capsys):
    path = gen_gstar(tmp_path, capsys)
    code, out, _ = run(capsys, "verify", path, "--delta-range", "5..6")
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out
    assert "alpha = 11" in out


def test_verify_json(tmp_path, capsys):
    path = gen_gstar(tmp_path, capsys)
    code, out, _ = run(capsys, "verify", path, "--json")
    data = json.loads(out)
    assert data["ok"] is True
    assert data["alpha"] == 11
    assert all(c["ok"] for c in data["checks"])


def test_verify_complete_graph(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "complete graph on 4 vertices; bounds do not apply" in err


def test_verify_disconnected(tmp_path, capsys):
    path = tmp_path / "disc.txt"
    path.write_text("0 1\n1 2\n3 4\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "graph not connected" in err


def test_verify_skips_exact_above_threshold(tmp_path, capsys):
    path = gen_gstar(tmp_path, capsys)
    code, out, _ = run(capsys, "verify", path, "--exact-threshold", "5")
    assert code == 0
    assert "alpha" not in out.splitlines()[1]


def test_table(capsys):
    code, out, _ = run(capsys, "table", "--delta", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split()[:2] == ["i", "c"]
    assert len(lines) == 6
    assert "19/30" in lines[1]


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--delta", "4", "--json")
    rows = json.loads(out)
    assert [r["i"] for r in rows] == [1, 2, 3, 4]
    assert rows[0]["c"] == "5/8"


def test_dimacs_input_accepted(tmp_path, capsys):
    path = tmp_path / "star.col"
    path.write_text("c star\np edge 4 3\ne 1 2\ne 1 3\ne 1 4\n")
    code, out, _ = run(capsys, "bound", str(path))
    assert code == 0 and "7/3" in out
