import argparse
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from alphabound import bounds, cli
from alphabound.bounds import c_bound
from alphabound.cli import _step_dict, main
from alphabound.exact import DEFAULT_BUDGET
from alphabound.families import (attach_cliques, chain_blocks,
                                 cycle_with_pendants, petersen_graph,
                                 random_connected, star_graph)
from alphabound.graphcore import Graph, degree_profile, load_graph, write_edge_list
from alphabound.witness import (BaseStep, CertificationError, WitnessResult,
                                peel_witness)


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


def run_to_exit(capsys, *argv):
    """Like run, but also through argparse's own exits."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# sha256 of stdout for one member of every family, recorded before the
# families were given one table in cli.py
GEN_PINNED = {
    ("regular-blocks", "--delta", "3", "--template-size", "4"):
        "cfbab16bd2f2e169e10a91a2239920e7405cc95f0f957d13e2ce77de4ebb4460",
    ("chain", "--delta", "3", "--blocks", "3"):
        "f43f73e8fd48c10fd06d0c4cbee225b40e74f5d7e7a12b508624a226b7c3bdae",
    ("attach", "--delta", "4", "--blocks", "3", "--clique", "2"):
        "f0ff0ef0b0773df5cd0abe662a298c0d185aeb39a9313c2fd68e76d5e9bc3cb5",
    ("pendant-cycle", "--cycle", "5"):
        "802fbe0ca3e01f06c8f44e986e2ec40173f4e65a68bbb3732ec6e163318bebf0",
    ("random", "--vertices", "12", "--delta", "4", "--seed", "3"):
        "edc2309c9b9ff6aedc9f9d74f888be6de8ed02a0be3e6183decbd8c385defa8e",
}


@pytest.mark.parametrize("argv", sorted(GEN_PINNED))
def test_gen_output_pinned(argv, capsys):
    code, out, err = run_to_exit(capsys, "gen", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GEN_PINNED[argv]


# exit code and last stderr line of each refused invocation
OPTION_ERRORS = {
    ("gen", "regular-blocks", "--delta", "3"):
        (2, "error: regular-blocks needs --delta and --template-size"),
    ("gen", "chain", "--blocks", "3"):
        (2, "error: chain needs --delta and --blocks"),
    ("gen", "attach", "--delta", "4", "--blocks", "3"):
        (2, "error: attach needs --delta, --blocks and --clique"),
    ("gen", "pendant-cycle"):
        (2, "error: pendant-cycle needs --cycle"),
    ("gen", "random", "--delta", "4"):
        (2, "error: random needs --vertices and --delta"),
    ("bound", "missing.txt", "--delta-range", "7..5"):
        (2, "alphabound bound: error: argument --delta-range: "
            "empty range: '7..5'"),
    ("bound", "missing.txt", "--delta-range", "5..100000000000"):
        (2, "alphabound bound: error: argument --delta-range: "
            "range too long: '5..100000000000' (at most 1000 values)"),
    ("verify", "missing.txt", "--delta-range", "a..b"):
        (2, "alphabound verify: error: argument --delta-range: "
            "not a range: 'a..b' (expected A..B)"),
    ("bound", "missing.txt", "--delta-range", "100000000..100000000"):
        (2, "alphabound bound: error: argument --delta-range: "
            "degree too large: 100000000 (at most 1600)"),
    ("verify", "missing.txt", "--delta-range", "50000000"):
        (2, "alphabound verify: error: argument --delta-range: "
            "degree too large: 50000000 (at most 1600)"),
    ("coeffs", "--delta", "20000"):
        (2, "alphabound coeffs: error: argument --delta: "
            "degree too large: 20000 (at most 1600)"),
    ("table", "--delta", "100000000"):
        (2, "alphabound table: error: argument --delta: "
            "degree too large: 100000000 (at most 1600)"),
    ("table", "--delta", "5", "--digits", "100000000"):
        (2, "alphabound table: error: argument --digits: "
            "digit count too large: 100000000 (at most 1000)"),
    # below 1 too, before either sequence is built
    ("table", "--delta", "5", "--digits", "0"):
        (2, "alphabound table: error: argument --digits: digit count must be positive"),
    ("table", "--delta", "5", "--digits", "-2"):
        (2, "alphabound table: error: argument --digits: digit count must be positive"),
    ("coeffs", "--delta", "5", "--format", "decimal:100000000"):
        (2, "alphabound coeffs: error: argument --format: "
            "digit count too large: 100000000 (at most 1000)"),
    ("coeffs", "--delta", "x"):
        (2, "alphabound coeffs: error: argument --delta: invalid int value: 'x'"),
    # integer options take ASCII digits only, as graph files do
    ("coeffs", "--delta", "\u0664"):
        (2, "alphabound coeffs: error: argument --delta: invalid int value: '\u0664'"),
    ("coeffs", "--delta", "1_0"):
        (2, "alphabound coeffs: error: argument --delta: invalid int value: '1_0'"),
    ("coeffs", "--delta", "+3"):
        (2, "alphabound coeffs: error: argument --delta: invalid int value: '+3'"),
    ("bound", "missing.txt", "--delta-range", "1_0..12"):
        (2, "alphabound bound: error: argument --delta-range: "
            "not a range: '1_0..12' (expected A..B)"),
    ("coeffs", "--delta", "4", "--format", "decimal:1_0"):
        (2, "alphabound coeffs: error: argument --format: "
            "bad digit count in 'decimal:1_0'"),
    ("gen", "pendant-cycle", "--cycle", "1_0"):
        (2, "alphabound gen: error: argument --cycle: invalid int value: '1_0'"),
    ("exact", "missing.txt", "--budget", "+5"):
        (2, "alphabound exact: error: argument --budget: invalid int value: '+5'"),
    ("verify", "missing.txt", "--exact-threshold", "\u0663"):
        (2, "alphabound verify: error: argument --exact-threshold: "
            "invalid int value: '\u0663'"),
    ("coeffs", "--delta", "4", "--format", "decimal:0"):
        (2, "alphabound coeffs: error: argument --format: "
            "digit count must be positive"),
    ("coeffs", "--delta", "4", "--format", "decimal:x"):
        (2, "alphabound coeffs: error: argument --format: "
            "bad digit count in 'decimal:x'"),
    ("coeffs", "--delta", "4", "--format", "hex"):
        (2, "alphabound coeffs: error: argument --format: "
            "unknown format 'hex'; use rational or decimal[:N]"),
    ("coeffs", "--delta", "4", "--kind", "clipped", "--c-delta", "x"):
        (2, "error: not a rational number: 'x'"),
    # a tail value only the clipped kind reads is refused, not ignored
    ("coeffs", "--delta", "5", "--kind", "c", "--c-delta", "1/9"):
        (2, "error: --c-delta needs --kind clipped"),
    ("coeffs", "--delta", "5", "--kind", "d", "--c-delta", "1/9"):
        (2, "error: --c-delta needs --kind clipped"),
    ("coeffs", "--delta", "5", "--c-delta", "1/9"):
        (2, "error: --c-delta needs --kind clipped"),
}


@pytest.mark.parametrize("argv", sorted(OPTION_ERRORS))
def test_option_errors_pinned(argv, capsys):
    code, out, err = run_to_exit(capsys, *argv)
    assert out == "" and "Traceback" not in err
    assert (code, err.splitlines()[-1]) == OPTION_ERRORS[argv]


def test_delta_range_limit():
    assert len(cli._parse_range("5..1004")) == 1000
    for text in ("5..1005", "5..100000000000"):
        # refused before a tuple of the values is built
        tracemalloc.start()
        try:
            with pytest.raises(argparse.ArgumentTypeError, match="at most 1000 values"):
                cli._parse_range(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def test_size_caps_refuse_before_allocating():
    assert cli._parse_range("1599..1600") == (1599, 1600)
    assert cli._parse_format("decimal:1000") == ("decimal", 1000)
    degree = cli._bounded_int(cli.MAX_DELTA, "degree")
    assert degree("1600") == 1600
    refusals = [
        (cli._parse_range, "100000000..100000000", "degree too large"),
        (cli._parse_range, "1601", "degree too large"),
        (cli._parse_format, "decimal:100000000", "digit count too large"),
        (degree, "20000", "degree too large"),
        (cli._bounded_int(cli.MAX_DIGITS, "digit count"), "1001", "digit count too large"),
    ]
    for parse, text, message in refusals:
        tracemalloc.start()
        try:
            with pytest.raises(argparse.ArgumentTypeError, match=message):
                parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, text


# stderr of gen requests refused by size; chain's C(delta, 2) edges per
# block are more than any cap on a single option bounds
GEN_TOO_LARGE = {
    ("pendant-cycle", "--cycle", "100000000"):
        "error: pendant-cycle --cycle 100000000 too large: 200000001 vertices"
        " and 200000001 edges (at most 4000000 in all)\n",
    ("random", "--vertices", "100000000", "--delta", "4"):
        "error: random --vertices 100000000 --delta 4 --seed 0 too large:"
        " 100000000 vertices and 200000000 edges (at most 4000000 in all)\n",
    ("chain", "--delta", "100000", "--blocks", "2"):
        "error: chain --delta 100000 --blocks 2 too large: 200000 vertices"
        " and 9999900001 edges (at most 4000000 in all)\n",
}


@pytest.mark.parametrize("argv", sorted(GEN_TOO_LARGE))
def test_gen_refuses_oversize_before_building(argv, capsys):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "gen", *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", GEN_TOO_LARGE[argv])
    assert peak < 1e6


def test_gen_negative_values_keep_the_family_refusal(capsys):
    # the family refuses negative values before any size is worked out
    code, out, err = run(capsys, "gen", "chain", "--delta", "-100000", "--blocks", "2")
    assert (code, out, err) == (2, "", "error: block degree must be at least 3\n")


# stderr of gen requests over the size cap that their family refuses: the
# family's own message, not the size message
GEN_REFUSED_OVER_CAP = {
    ("chain", "--delta", "2", "--blocks", "10000000"):
        "error: block degree must be at least 3\n",
    ("attach", "--delta", "3", "--blocks", "10000000", "--clique", "5"):
        "error: attachment clique parameter must be in 1..1\n",
    ("regular-blocks", "--delta", "3", "--template-size", "10000001"):
        "error: no 3-regular graph on 10000001 vertices: k*delta must be even\n",
    ("random", "--vertices", "100000000", "--delta", "2"):
        "error: maximum degree must be at least 3\n",
}


@pytest.mark.parametrize("argv", sorted(GEN_REFUSED_OVER_CAP))
def test_gen_family_refusal_comes_before_the_size_cap(argv, capsys):
    assert run(capsys, "gen", *argv) == (2, "", GEN_REFUSED_OVER_CAP[argv])


@pytest.mark.parametrize("family, values", [
    ("regular-blocks", (3, 4)), ("regular-blocks", (4, 7)), ("regular-blocks", (5, 6)),
    ("chain", (3, 1)), ("chain", (3, 4)), ("chain", (5, 3)),
    ("attach", (4, 2, 1)), ("attach", (5, 3, 2)), ("attach", (6, 3, 4)),
    ("pendant-cycle", (3,)), ("pendant-cycle", (10,)),
    ("random", (12, 4, 3)), ("random", (50, 6, 1)), ("random", (30, 3, 0)),
])
def test_gen_size_forms_match_built_graphs(family, values):
    _, _, build, size = cli.GENERATORS[family]
    g = build(*values)
    n, m = size(*values)
    assert g.n == n
    assert g.m <= m if family == "random" else g.m == m


def test_gen_cap_admits_the_large_benchmark_inputs():
    # the 10**6-vertex bound input and a 10**5-vertex random member
    for family, values in (("pendant-cycle", (500000,)), ("random", (100000, 4, 0))):
        assert sum(cli.GENERATORS[family][3](*values)) <= cli.MAX_GEN_SIZE


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


@pytest.mark.parametrize("data, line", [
    (b"0 1\n0 2\n0 3 \xff\n", 3),
    (b"0 1\r\n0 2\r\n\xc3(\r\n", 3),        # CRLF, a cut two-byte sequence
    (b"0 1\r0 2\r0 3\r1 \xe2\x82\n", 4),    # bare CR, a cut three-byte one
    (b"\xff", 1),
], ids=["lf", "crlf", "bare-cr", "one-byte"])
def test_undecodable_input_names_file_and_line(data, line, tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    assert run(capsys, "bound", str(path)) == (
        2, "", f"error: {path}: line {line}: not UTF-8 text\n")


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
        # through the writer's encoding: tuples become lists, fractions strings
        "steps": [json.loads(json.dumps(_step_dict(s), default=cli._json_default))
                  for s in result.trace],
    }
    text = trace.read_text()
    assert json.loads(text) == expected
    lines = text.splitlines()
    # the top-level keys open the file and "]}" closes it
    assert len(lines) == len(result.trace) + 2
    assert lines[-1] == "]}"
    for line, step in zip(lines[1:-1], expected["steps"]):
        assert json.loads(line.rstrip(",")) == step


def test_trace_step_keys_pinned(tmp_path, capsys):
    # a leaf on a hub joined to a 6-cycle, a K4 and the Petersen graph: one
    # peel step leaves one piece of each base kind
    edges = [(0, 1), (1, 2), (1, 8), (1, 12)]
    edges += [(2 + i, 2 + (i + 1) % 6) for i in range(6)]
    edges += [(8 + a, 8 + b) for a in range(4) for b in range(a + 1, 4)]
    edges += [(12 + u, 12 + w) for u, w in petersen_graph().edges()]
    path = tmp_path / "mixed.txt"
    path.write_text(write_edge_list(Graph(22, edges)))
    trace = tmp_path / "trace.json"
    assert run(capsys, "witness", str(path), "--trace", str(trace))[0] == 0
    steps = json.loads(trace.read_text())["steps"]
    assert [step["type"] for step in steps] == ["peel", "cycle", "complete", "coloring"]
    base = {"type", "vertices", "taken", "target", "owed"}
    assert {step["type"]: set(step) for step in steps} == {
        "peel": {"type", "vertex", "degree", "neighbors", "isolated", "components",
                 "share", "isolated_share", "handoff_shares", "target", "owed"},
        "complete": base, "cycle": base, "coloring": base}


def test_trace_refuses_values_json_cannot_write(tmp_path, capsys, monkeypatch):
    path = gen_gstar(tmp_path, capsys)
    step = BaseStep("complete", (0,), frozenset({0}), Fraction(1), Fraction(1))
    monkeypatch.setattr(cli, "peel_witness",
                        lambda g: WitnessResult((0,), Fraction(1), (step,)))
    with pytest.raises(TypeError, match="type frozenset is not JSON serializable"):
        main(["witness", path, "--trace", str(tmp_path / "trace.json")])


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


class ClosedPipe:
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_quietly(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["coeffs", "--delta", "4"]) == 1
    assert capsys.readouterr().err == ""


CLI = [sys.executable, "-m", "alphabound.cli"]
CLI_ENV = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))


def test_closed_pipe_exits_quietly():
    # 2.8 MB of output, so the writer is still writing when the reader
    # closes, and stderr is read through interpreter exit
    proc = subprocess.Popen([*CLI, "coeffs", "--delta", "1000"], env=CLI_ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_closed_pipe_exits_quietly_with_buffered_stdout():
    # a few bytes that sit in the buffer until the end, written to a pipe
    # whose reader closed before the run began
    env = {k: v for k, v in CLI_ENV.items() if k != "PYTHONUNBUFFERED"}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([*CLI, "coeffs", "--delta", "4"], env=env,
                              stdout=write, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


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
    # --budget is the one way to set the budget; the environment is not read
    path = gen_gstar(tmp_path, capsys)
    for value in ("2", "banana"):
        monkeypatch.setenv("ALPHABOUND_BUDGET", value)
        code, out, err = run(capsys, "exact", path)
        assert (code, err) == (0, "") and out.startswith("alpha = 11\n")
    for command in ("exact", "verify"):
        assert cli.build_parser().parse_args([command, path]).budget == DEFAULT_BUDGET


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
    assert "not in class: graph is the complete graph on 4 vertices" in err


def test_verify_disconnected(tmp_path, capsys):
    path = tmp_path / "disc.txt"
    path.write_text(OUT_OF_CLASS["two-stars"][0])
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "not in class: graph not connected" in err


def test_verify_makes_three_connectivity_passes(tmp_path, capsys, monkeypatch):
    path = gen_gstar(tmp_path, capsys)
    calls = []
    is_connected = Graph.is_connected
    monkeypatch.setattr(Graph, "is_connected", lambda g: calls.append(g) or is_connected(g))
    code, _, _ = run(capsys, "verify", path)
    # the class checks of bound_report, c_bound (inside the peel) and
    # clipped_weights
    assert code == 0 and len(calls) == 3


# name: (file text, the class check's message, which every command prints)
OUT_OF_CLASS = {
    "empty": ("", "not in class: empty graph"),
    "k4": ("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",
           "not in class: graph is the complete graph on 4 vertices"),
    "disconnected": ("0 1\n1 2\n3 4\n", "not in class: maximum degree 2 < 3"),
    "p4": ("0 1\n1 2\n2 3\n", "not in class: maximum degree 2 < 3"),
    "two-stars": ("0 1\n0 2\n0 3\n4 5\n4 6\n4 7\n",
                  "not in class: graph not connected"),
}


@pytest.mark.parametrize("name", OUT_OF_CLASS)
@pytest.mark.parametrize("command", ["verify", "bound", "witness"])
def test_out_of_class_messages_pinned(command, name, tmp_path, capsys):
    text, message = OUT_OF_CLASS[name]
    path = tmp_path / f"{name}.txt"
    path.write_text(text)
    assert run(capsys, command, str(path)) == (2, "", f"error: {message}\n")


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


# sha256 of stdout, recorded before the gap column was rendered from the
# signed difference; rows 37 and 39 have c < d
TABLE_PINNED = {
    ("--delta", "40", "--digits", "30"):
        "843ba203a6c0f4680a4e29d06e98d8a96638ff984b29ba67cf9201968c3237b9",
    ("--delta", "40", "--json"):
        "36d4753df343184c9a84f850b0b91fb60d62f1be64d8d83c05c59d22502c5d6a",
}


@pytest.mark.parametrize("argv", sorted(TABLE_PINNED))
def test_table_output_pinned(argv, capsys):
    code, out, err = run(capsys, "table", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_PINNED[argv]


def test_dimacs_input_accepted(tmp_path, capsys):
    path = tmp_path / "star.col"
    path.write_text("c star\np edge 4 3\ne 1 2\ne 1 3\ne 1 4\n")
    code, out, _ = run(capsys, "bound", str(path))
    assert code == 0 and "7/3" in out


def test_dimacs_header_count_beyond_file_refused(tmp_path, capsys):
    path = tmp_path / "huge.col"
    path.write_text("p edge 1000000000000 0\n")
    code, out, err = run(capsys, "exact", str(path))
    assert code == 2 and out == ""
    assert str(path) in err and "line 1: more vertices than the file has characters" in err


def test_dimacs_without_header_names_a_line(tmp_path, capsys):
    path = tmp_path / "comments.col"
    path.write_text("c a comment\nc and another\nc and a third\n")
    code, out, err = run(capsys, "bound", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}: line 3: missing 'p edge' header\n"
