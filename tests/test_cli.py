import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from test_witness import members_in_any_numbering

from alphabound import bounds, cli, cli_nograph, families, trace
from alphabound.bounds import c_bound
from alphabound.cli import main
from alphabound.exact import DEFAULT_BUDGET
from alphabound.families import (attach_cliques, chain_blocks, complete_graph,
                                 cycle_with_pendants, petersen_graph,
                                 random_connected, star_graph)
from alphabound.graphcore import Graph, degree_profile, load_graph, write_edge_list
from alphabound.witness import (BaseStep, CertificationError, WitnessResult,
                                peel_witness)


def run(capsys, *argv):
    """Exit code, stdout and stderr of one invocation, also through
    argparse's own exits."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
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


# argv: (exit code, sha256 of stdout or "" for none, last line of stderr
# or "" for none).  Only argparse's refusals, whose last line names the
# subcommand, print usage lines before it; every other stderr is that one
# line.  A change to an invocation's output changes its row here
PINNED = {
    # one member of every family, recorded before the families were given
    # one table in cli.py
    ("gen", "regular-blocks", "--delta", "3", "--template-size", "4"):
        (0, "cfbab16bd2f2e169e10a91a2239920e7405cc95f0f957d13e2ce77de4ebb4460", ""),
    ("gen", "chain", "--delta", "3", "--blocks", "3"):
        (0, "f43f73e8fd48c10fd06d0c4cbee225b40e74f5d7e7a12b508624a226b7c3bdae", ""),
    ("gen", "attach", "--delta", "4", "--blocks", "3", "--clique", "2"):
        (0, "f0ff0ef0b0773df5cd0abe662a298c0d185aeb39a9313c2fd68e76d5e9bc3cb5", ""),
    ("gen", "pendant-cycle", "--cycle", "5"):
        (0, "802fbe0ca3e01f06c8f44e986e2ec40173f4e65a68bbb3732ec6e163318bebf0", ""),
    ("gen", "random", "--vertices", "12", "--delta", "4", "--seed", "3"):
        (0, "edc2309c9b9ff6aedc9f9d74f888be6de8ed02a0be3e6183decbd8c385defa8e", ""),
    # larger than every random_connected member the other tests pin
    ("gen", "random", "--vertices", "3000", "--delta", "5", "--seed", "7"):
        (0, "298501986bffc297f1dfb06f2a711a6c203570753095a8245bc06b25d28b6158", ""),
    ("gen", "regular-blocks", "--delta", "3"):
        (2, "", "error: regular-blocks needs --delta and --template-size"),
    ("gen", "chain", "--blocks", "3"):
        (2, "", "error: chain needs --delta and --blocks"),
    ("gen", "chain", "--delta", "3"):
        (2, "", "error: chain needs --delta and --blocks"),
    ("gen", "attach", "--delta", "4", "--blocks", "3"):
        (2, "", "error: attach needs --delta, --blocks and --clique"),
    ("gen", "pendant-cycle"):
        (2, "", "error: pendant-cycle needs --cycle"),
    ("gen", "random", "--delta", "4"):
        (2, "", "error: random needs --vertices and --delta"),
    # an option the family does not take is refused, not ignored
    ("gen", "pendant-cycle", "--cycle", "5", "--delta", "4"):
        (2, "", "error: pendant-cycle does not take --delta"),
    ("gen", "chain", "--delta", "4", "--blocks", "2", "--seed", "5"):
        (2, "", "error: chain does not take --seed"),
    ("gen", "random", "--vertices", "6", "--delta", "3", "--cycle", "9"):
        (2, "", "error: random does not take --cycle"),
    # sizes the families refuse
    ("gen", "regular-blocks", "--delta", "2", "--template-size", "5"):
        (2, "", "error: template degree must be at least 3"),
    ("gen", "chain", "--delta", "3", "--blocks", "0"):
        (2, "", "error: need at least one block"),
    ("gen", "pendant-cycle", "--cycle", "2"):
        (2, "", "error: cycle needs at least three vertices"),
    # refused by size; chain's C(delta, 2) edges per block are more than
    # any cap on a single option bounds
    ("gen", "pendant-cycle", "--cycle", "100000000"):
        (2, "", "error: pendant-cycle --cycle 100000000 too large: 200000001 vertices"
                " and 200000001 edges (at most 4000000 in all)"),
    ("gen", "random", "--vertices", "100000000", "--delta", "4"):
        (2, "", "error: random --vertices 100000000 --delta 4 --seed 0 too large:"
                " 100000000 vertices and 200000000 edges (at most 4000000 in all)"),
    ("gen", "chain", "--delta", "100000", "--blocks", "2"):
        (2, "", "error: chain --delta 100000 --blocks 2 too large: 200000 vertices"
                " and 9999900001 edges (at most 4000000 in all)"),
    # the smallest pendant cycle over the cap, refused before the output
    # path is opened
    ("gen", "pendant-cycle", "--cycle", "1000000", "-o", "/nonexistent/dir/x.txt"):
        (2, "", "error: pendant-cycle --cycle 1000000 too large: 2000001 vertices"
                " and 2000001 edges (at most 4000000 in all)"),
    # over the size cap, but refused by the family: its own message, not
    # the size message
    ("gen", "chain", "--delta", "2", "--blocks", "10000000"):
        (2, "", "error: block degree must be at least 3"),
    ("gen", "attach", "--delta", "3", "--blocks", "10000000", "--clique", "5"):
        (2, "", "error: attachment clique parameter must be in 1..1"),
    ("gen", "regular-blocks", "--delta", "3", "--template-size", "10000001"):
        (2, "", "error: no 3-regular graph on 10000001 vertices: k*delta must be even"),
    ("gen", "random", "--vertices", "100000000", "--delta", "2"):
        (2, "", "error: maximum degree must be at least 3"),
    # an empty output path is a path, refused when opened, not stdout
    ("gen", "pendant-cycle", "--cycle", "3", "-o", ""):
        (2, "", "error: [Errno 2] No such file or directory: ''"),
    # and an empty trace path is refused before the peel, which would
    # refuse the empty graph read from the null device
    ("witness", os.devnull, "--trace", ""):
        (2, "", "error: [Errno 2] No such file or directory: ''"),
    # a trace onto the graph file would overwrite the input: refused after
    # the open, before the graph is read
    ("witness", os.devnull, "--trace", os.devnull):
        (2, "", f"error: --trace {os.devnull!r} is the graph file"),
    # the trace path is opened before the graph is read, so it is refused first
    ("witness", "/nonexistent/g.txt", "--trace", "/nonexistent/dir/t.json"):
        (2, "", "error: [Errno 2] No such file or directory: '/nonexistent/dir/t.json'"),
    ("bound", "missing.txt", "--delta-range", "7..5"):
        (2, "", "alphabound bound: error: argument --delta-range: "
                "empty range: '7..5'"),
    ("bound", "missing.txt", "--delta-range", "5..100000000000"):
        (2, "", "alphabound bound: error: argument --delta-range: "
                "range too long: '5..100000000000' (at most 1000 values)"),
    ("verify", "missing.txt", "--delta-range", "a..b"):
        (2, "", "alphabound verify: error: argument --delta-range: "
                "not a range: 'a..b' (expected A..B)"),
    ("bound", "missing.txt", "--delta-range", "100000000..100000000"):
        (2, "", "alphabound bound: error: argument --delta-range: "
                "degree too large: 100000000 (at most 1600)"),
    ("bound", "missing.txt", "--delta-range", "1599..1601"):
        (2, "", "alphabound bound: error: argument --delta-range: "
                "degree too large: 1601 (at most 1600)"),
    ("verify", "missing.txt", "--delta-range", "50000000"):
        (2, "", "alphabound verify: error: argument --delta-range: "
                "degree too large: 50000000 (at most 1600)"),
    ("coeffs", "--delta", "1601"):
        (2, "", "alphabound coeffs: error: argument --delta: "
                "degree too large: 1601 (at most 1600)"),
    ("coeffs", "--delta", "20000"):
        (2, "", "alphabound coeffs: error: argument --delta: "
                "degree too large: 20000 (at most 1600)"),
    ("table", "--delta", "100000000"):
        (2, "", "alphabound table: error: argument --delta: "
                "degree too large: 100000000 (at most 1600)"),
    ("table", "--delta", "5", "--digits", "1001"):
        (2, "", "alphabound table: error: argument --digits: "
                "digit count too large: 1001 (at most 1000)"),
    ("table", "--delta", "5", "--digits", "100000000"):
        (2, "", "alphabound table: error: argument --digits: "
                "digit count too large: 100000000 (at most 1000)"),
    # below 1 too, before either sequence is built
    ("table", "--delta", "5", "--digits", "0"):
        (2, "", "alphabound table: error: argument --digits: digit count must be positive"),
    ("table", "--delta", "5", "--digits", "-2"):
        (2, "", "alphabound table: error: argument --digits: digit count must be positive"),
    ("coeffs", "--delta", "5", "--format", "decimal:100000000"):
        (2, "", "alphabound coeffs: error: argument --format: "
                "digit count too large: 100000000 (at most 1000)"),
    ("coeffs", "--delta", "x"):
        (2, "", "alphabound coeffs: error: argument --delta: invalid int value: 'x'"),
    # integer options take ASCII digits only, as graph files do
    ("coeffs", "--delta", "\u0664"):
        (2, "", "alphabound coeffs: error: argument --delta: invalid int value: '\u0664'"),
    ("coeffs", "--delta", "1_0"):
        (2, "", "alphabound coeffs: error: argument --delta: invalid int value: '1_0'"),
    ("coeffs", "--delta", "+3"):
        (2, "", "alphabound coeffs: error: argument --delta: invalid int value: '+3'"),
    ("bound", "missing.txt", "--delta-range", "1_0..12"):
        (2, "", "alphabound bound: error: argument --delta-range: "
                "not a range: '1_0..12' (expected A..B)"),
    ("coeffs", "--delta", "4", "--format", "decimal:1_0"):
        (2, "", "alphabound coeffs: error: argument --format: "
                "bad digit count in 'decimal:1_0'"),
    ("gen", "pendant-cycle", "--cycle", "1_0"):
        (2, "", "alphabound gen: error: argument --cycle: invalid int value: '1_0'"),
    ("gen", "pendant-cycle", "--cycle", "+5"):
        (2, "", "alphabound gen: error: argument --cycle: invalid int value: '+5'"),
    ("exact", "missing.txt", "--budget", "+5"):
        (2, "", "alphabound exact: error: argument --budget: invalid int value: '+5'"),
    # a budget below 1 is refused before the graph is read, and also when
    # verify would not run the exact solver
    ("exact", "missing.txt", "--budget", "0"):
        (2, "", "alphabound exact: error: argument --budget: budget must be positive"),
    ("verify", "missing.txt", "--budget", "0", "--exact-threshold", "0"):
        (2, "", "alphabound verify: error: argument --budget: budget must be positive"),
    ("verify", "missing.txt", "--exact-threshold", "x"):
        (2, "", "alphabound verify: error: argument --exact-threshold: "
                "invalid int value: 'x'"),
    ("verify", "missing.txt", "--exact-threshold", "\u0663"):
        (2, "", "alphabound verify: error: argument --exact-threshold: "
                "invalid int value: '\u0663'"),
    ("coeffs", "--delta", "4", "--format", "decimal:0"):
        (2, "", "alphabound coeffs: error: argument --format: "
                "digit count must be positive"),
    ("coeffs", "--delta", "4", "--format", "decimal:x"):
        (2, "", "alphabound coeffs: error: argument --format: "
                "bad digit count in 'decimal:x'"),
    ("coeffs", "--delta", "4", "--format", "hex"):
        (2, "", "alphabound coeffs: error: argument --format: "
                "unknown format 'hex'; use rational or decimal[:N]"),
    ("coeffs", "--delta", "4", "--kind", "clipped", "--c-delta", "x"):
        (2, "", "error: not a rational number: 'x'"),
    # the tail is A or A/B in the number tokens graph files use
    ("coeffs", "--delta", "4", "--kind", "clipped", "--c-delta", "\u0662/\u0669"):
        (2, "", "error: not a rational number: '\u0662/\u0669'"),
    ("coeffs", "--delta", "4", "--kind", "clipped", "--c-delta", "1_0/99"):
        (2, "", "error: not a rational number: '1_0/99'"),
    ("coeffs", "--delta", "4", "--kind", "clipped", "--c-delta", "+2/9"):
        (2, "", "error: not a rational number: '+2/9'"),
    # the denominator is at least 1
    ("coeffs", "--delta", "6", "--kind", "clipped", "--c-delta", "1/0"):
        (2, "", "error: not a rational number: '1/0'"),
    ("coeffs", "--delta", "6", "--kind", "clipped", "--c-delta", "2/-9"):
        (2, "", "error: not a rational number: '2/-9'"),
    ("coeffs", "--delta", "4", "--kind", "clipped", "--c-delta", "0.2"):
        (2, "", "error: not a rational number: '0.2'"),
    # an empty tail is refused, not read as no tail
    ("coeffs", "--delta", "4", "--kind", "clipped", "--c-delta", ""):
        (2, "", "error: not a rational number: ''"),
    # a tail above 2/(2*delta + 1) is refused
    ("coeffs", "--delta", "4", "--kind", "clipped", "--c-delta", "1/2"):
        (2, "", "error: tail value must satisfy 0 < value <= 2/9"),
    ("coeffs", "--delta", "6", "--kind", "clipped", "--c-delta", "1/2"):
        (2, "", "error: tail value must satisfy 0 < value <= 2/13"),
    # a tail value only the clipped kind reads is refused, not ignored
    ("coeffs", "--delta", "5", "--kind", "c", "--c-delta", "1/9"):
        (2, "", "error: --c-delta needs --kind clipped"),
    ("coeffs", "--delta", "5", "--kind", "d", "--c-delta", "1/9"):
        (2, "", "error: --c-delta needs --kind clipped"),
    ("coeffs", "--delta", "5", "--c-delta", "1/9"):
        (2, "", "error: --c-delta needs --kind clipped"),
    # rational is the default format
    ("coeffs", "--delta", "4"):
        (0, "59f2c3ce5ea6ec6d2936734d86de494d36d2b12248e5f907f96113104832611d", ""),
    ("coeffs", "--delta", "4", "--format", "rational"):
        (0, "59f2c3ce5ea6ec6d2936734d86de494d36d2b12248e5f907f96113104832611d", ""),
    ("coeffs", "--delta", "6", "--kind", "c", "--format", "rational"):
        (0, "f35480be322f181389978c3d7a0a56193b868b3f5b9b6d3cd2c22a93e18bdaa3", ""),
    ("coeffs", "--delta", "6", "--kind", "c", "--format", "decimal:20"):
        (0, "efc8dbb87d69dc4dde70fd673da6e17feb1b24470b8c61beea1c92581b80311d", ""),
    ("coeffs", "--delta", "6", "--kind", "d", "--format", "rational"):
        (0, "b4b979140bcabe2ffddc8f0ab62494d77d1f3f517760cd08fddc9caa3551bcdc", ""),
    ("coeffs", "--delta", "6", "--kind", "d", "--format", "decimal:20"):
        (0, "5f5d28b7d0f87ba5dd6a05fc18f04a79ec175b0678534175a79359b1016e7363", ""),
    ("coeffs", "--delta", "6", "--kind", "clipped", "--format", "rational"):
        (0, "5cda34d1ff7ba655d3495bd85a228cb37f1edc16fd1d3e79e71ea5e8a31d6023", ""),
    ("coeffs", "--delta", "6", "--kind", "clipped", "--format", "decimal:20"):
        (0, "9a6a2dd0ef95f5e2dfeb92cac79ed97aa4fa770001aa076c3f54b9c2e59b9138", ""),
    ("coeffs", "--delta", "6", "--kind", "clipped", "--c-delta", "1/7"):
        (0, "7f9d989bb3e9d46cfaa21e8c2df06b87fa8644ab00d6c966be70fb2e47c993b0", ""),
    ("coeffs", "--kind", "d", "--delta", "200", "--format", "decimal:60"):
        (0, "4d40508bab0ec38f9c38a75680657e31d20b079765b56a33c00768c200bbff7b", ""),
    ("table", "--delta", "6"):
        (0, "14e8ed48c62e6ab93732bb1e8a798e2c417510c1c20beb64324de9186a401c2b", ""),
    # the next two were recorded before the gap column was rendered from
    # the signed difference; rows 37 and 39 have c < d
    ("table", "--delta", "40", "--digits", "30"):
        (0, "843ba203a6c0f4680a4e29d06e98d8a96638ff984b29ba67cf9201968c3237b9", ""),
    ("table", "--delta", "40", "--json"):
        (0, "36d4753df343184c9a84f850b0b91fb60d62f1be64d8d83c05c59d22502c5d6a", ""),
    ("table", "--delta", "60", "--digits", "40"):
        (0, "42fdca57b0e2c97b288d4aac845e13fe99d8a42435392fc24be581426b9df53f", ""),
    ("table", "--delta", "60", "--json"):
        (0, "2565b3b914a433a939cee12c1aed2055b3b9a892f05221d2f8552d027f598304", ""),
}


def check_pinned(argv, code, out, err):
    """Assert one invocation's exit code, stdout and stderr against its row."""
    want_code, want_out, want_err = PINNED[argv]
    where = " ".join(argv)
    assert code == want_code, where
    assert (hashlib.sha256(out.encode()).hexdigest() if out else "") == want_out, where
    if want_err.startswith("alphabound "):
        assert err.startswith("usage: alphabound ") and "Traceback" not in err, where
        assert err.endswith(f"\n{want_err}\n"), where
    else:
        assert err == (want_err and f"{want_err}\n"), where


@pytest.mark.parametrize("argv", sorted(PINNED))
def test_invocation_pinned(argv, capsys):
    check_pinned(argv, *run(capsys, *argv))


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
    assert cli_nograph._parse_format("decimal:1000") == ("decimal", 1000)
    degree = cli._int_type("degree", cli.MAX_DELTA)
    assert degree("1600") == 1600
    refusals = [
        (cli._parse_range, "100000000..100000000", "degree too large"),
        (cli._parse_range, "1601", "degree too large"),
        (cli_nograph._parse_format, "decimal:100000000", "digit count too large"),
        (degree, "20000", "degree too large"),
        (cli._int_type("digit count", cli_nograph.MAX_DIGITS), "1001", "digit count too large"),
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


# the gen rows refused by size, whose message ends "(at most N in all)"
@pytest.mark.parametrize("argv", sorted(
    argv for argv, (_, _, err) in PINNED.items() if err.endswith(" in all)")))
def test_gen_refuses_oversize_before_building(argv, capsys):
    tracemalloc.start()
    try:
        result = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    check_pinned(argv, *result)
    assert peak < 1e6, " ".join(argv)


def test_gen_negative_values_keep_the_family_refusal(capsys):
    # the family refuses negative values before any size is worked out
    code, out, err = run(capsys, "gen", "chain", "--delta", "-100000", "--blocks", "2")
    assert (code, out, err) == (2, "", "error: block degree must be at least 3\n")


@pytest.mark.parametrize("family, values", [
    ("regular-blocks", (3, 4)), ("regular-blocks", (4, 7)), ("regular-blocks", (5, 6)),
    ("chain", (3, 1)), ("chain", (3, 4)), ("chain", (5, 3)),
    ("attach", (4, 2, 1)), ("attach", (5, 3, 2)), ("attach", (6, 3, 4)),
    ("pendant-cycle", (3,)), ("pendant-cycle", (10,)),
    ("random", (12, 4, 3)), ("random", (50, 6, 1)), ("random", (30, 3, 0)),
])
def test_gen_size_forms_match_built_graphs(family, values):
    _, _, build, size = cli_nograph.GENERATORS[family]
    g = build(*values)
    n, m = size(*values)
    assert g.n == n
    assert g.m <= m if family == "random" else g.m == m


def test_gen_cap_admits_the_large_benchmark_inputs():
    # the 10**6-vertex bound input and a 10**5-vertex random member
    for family, values in (("pendant-cycle", (500000,)), ("random", (100000, 4, 0))):
        assert sum(cli_nograph.GENERATORS[family][3](*values)) <= cli_nograph.MAX_GEN_SIZE


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


def expand_trace(payload: dict) -> dict:
    """The version-1 payload of a version-2 trace, from the file alone: a
    peel record's ``components`` become the sorted vertex lists that
    ``trace.pieces`` gives the records it names."""
    assert payload["version"] == 2
    settled = trace.pieces(payload["steps"])
    steps = [{**r, "components": [settled[j] for j in r["components"]]}
             if r["type"] == "peel" else r for r in payload["steps"]]
    return {**{k: v for k, v in payload.items() if k != "version"}, "steps": steps}


def in_memory_payload(graph: str, result) -> dict:
    """The version-1 payload of a witness result: ``trace.records`` with
    every component as its vertex list, through JSON (tuples become lists,
    fractions strings)."""
    steps = trace.records(result.trace)
    for record, step in zip(steps, result.trace):
        if record["type"] == "peel":
            record["components"] = step.components
    return json.loads(json.dumps({
        "graph": graph,
        "independent_set": result.independent_set,
        "certified_bound": result.certified_bound,
        "steps": steps,
    }, default=str))


def test_witness_trace_has_one_line_per_step(tmp_path, capsys):
    path = gen_gstar(tmp_path, capsys)
    trace = tmp_path / "trace.json"
    code, _, _ = run(capsys, "witness", path, "--trace", str(trace))
    assert code == 0
    result = peel_witness(load_graph(path))
    text = trace.read_text()
    payload = json.loads(text)
    assert expand_trace(payload) == in_memory_payload(path, result)
    lines = text.splitlines()
    # the other top-level keys open the file and "]}" closes it
    assert len(lines) == len(result.trace) + 2
    assert json.loads(lines[0] + "]}") == {**payload, "steps": []}
    assert lines[-1] == "]}"
    for line, step in zip(lines[1:-1], payload["steps"]):
        assert json.loads(line.rstrip(",")) == step


@given(members_in_any_numbering())
@settings(max_examples=100, deadline=None)
def test_trace_names_each_component_by_its_step(g):
    """The written trace expands to the in-memory one, and its component
    indices form the pre-order tree of the steps: each step after the
    first is named once, after its parent, one index per handoff."""
    with tempfile.TemporaryDirectory() as tmp:
        graph, trace = os.path.join(tmp, "graph.txt"), os.path.join(tmp, "trace.json")
        Path(graph).write_text(write_edge_list(g))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["witness", graph, "--trace", trace]) == 0
        payload = json.loads(Path(trace).read_text())
    assert expand_trace(payload) == in_memory_payload(graph, peel_witness(g))
    named = []
    for i, step in enumerate(payload["steps"]):
        if step["type"] == "peel":
            assert len(step["components"]) == len(step["handoff_shares"])
            assert all(j > i for j in step["components"])
            named += step["components"]
    assert sorted(named) == list(range(1, len(payload["steps"])))


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
    payload = json.loads(trace.read_text())
    assert set(payload) == {"certified_bound", "graph", "independent_set", "steps", "version"}
    steps = payload["steps"]
    assert [step["type"] for step in steps] == ["peel", "cycle", "complete", "coloring"]
    base = {"type", "vertices", "taken", "target", "owed"}
    assert {step["type"]: set(step) for step in steps} == {
        "peel": {"type", "vertex", "degree", "neighbors", "isolated", "components",
                 "share", "isolated_share", "handoff_shares", "target", "owed"},
        "complete": base, "cycle": base, "coloring": base}


def test_trace_refuses_values_json_cannot_write(tmp_path, capsys, monkeypatch):
    path = gen_gstar(tmp_path, capsys)
    step = BaseStep("complete", (0,), frozenset({0}), Fraction(1), Fraction(1))
    result = WitnessResult((0,), Fraction(1), (step,))
    monkeypatch.setattr(cli, "peel_witness", lambda g: result)
    with pytest.raises(TypeError, match="type frozenset is not JSON serializable"):
        main(["witness", path, "--trace", str(tmp_path / "trace.json")])
    # every record is encoded before the file is written: no half a trace
    assert not (tmp_path / "trace.json").exists()
    with open(tmp_path / "direct.json", "w") as fh, pytest.raises(
            TypeError, match="type frozenset is not JSON serializable"):
        trace.write(fh, path, result)
    assert (tmp_path / "direct.json").read_text() == ""


# the commands that write a file: argv, with GRAPH and FILE for the paths,
# and the first work each does, which no refusal of FILE may reach
WRITERS = {
    "witness": (("witness", "GRAPH", "--trace", "FILE"), (cli, "load_graph")),
    "gen": (("gen", "pendant-cycle", "--cycle", "3", "-o", "FILE"),
            (families, "cycle_with_pendants")),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_each_writer_keeps_the_output_rule(writer, tmp_path, capsys, monkeypatch):
    """Both commands open their file through one rule: before any work,
    without truncating it, removing it if they created it and then failed,
    and cutting a regular file, never a device, to what they wrote."""
    template, (module, work) = WRITERS[writer]
    gstar = gen_gstar(tmp_path, capsys)

    def argv(path, graph=gstar):
        return [{"GRAPH": graph, "FILE": str(path)}.get(a, a) for a in template]

    def no_work(*_):
        raise AssertionError("work ran before the output file was opened")

    missing = str(tmp_path / "missing" / "out")
    with monkeypatch.context() as patch:
        patch.setattr(module, work, no_work)
        assert run(capsys, *argv(missing)) == (
            2, "", f"error: [Errno 2] No such file or directory: {missing!r}\n")

    def refuse(*_):
        raise ValueError("refused after the open")

    # a run that fails after the open: witness on K4, gen with a builder
    # that refuses
    k4 = tmp_path / "k4.txt"
    k4.write_text(write_edge_list(complete_graph(4)))
    target = tmp_path / "out"
    with monkeypatch.context() as patch:
        if writer == "witness":
            error = "error: not in class: graph is the complete graph on 4 vertices\n"
        else:
            error = "error: refused after the open\n"
            patch.setattr(module, work, refuse)
        assert run(capsys, *argv(target, graph=str(k4))) == (2, "", error)
        assert not target.exists()
        # a file already at the path is left as it was
        target.write_text("kept")
        assert run(capsys, *argv(target, graph=str(k4))) == (2, "", error)
        assert target.read_text() == "kept"

    # an output shorter than the file it replaces leaves none of its bytes
    fresh = tmp_path / "fresh"
    assert run(capsys, *argv(fresh))[0] == 0
    target.write_text("x" * 100_000)
    assert run(capsys, *argv(target))[0] == 0
    assert target.read_bytes() == fresh.read_bytes()
    if writer == "witness":
        assert json.loads(target.read_text())["version"] == trace.VERSION
    else:
        assert target.read_text().startswith("# gen pendant-cycle cycle=3\n")
    # a device is written but never truncated
    code, out, err = run(capsys, *argv(os.devnull))
    assert (code, err) == (0, "")
    assert out.endswith(f" written to {os.devnull}\n") if writer == "witness" else out == ""


def test_trace_into_missing_directory_fails_cleanly(tmp_path, capsys, monkeypatch):
    path = gen_gstar(tmp_path, capsys)
    target = str(tmp_path / "missing" / "t.json")

    def no_read(*_):
        raise AssertionError("the graph was read before the trace file was opened")

    monkeypatch.setattr(cli, "load_graph", no_read)
    assert run(capsys, "witness", path, "--trace", target) == (
        2, "", f"error: [Errno 2] No such file or directory: {target!r}\n")


def test_refused_witness_leaves_no_trace_file(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    path.write_text(write_edge_list(complete_graph(4)))
    target = tmp_path / "t.json"
    assert run(capsys, "witness", str(path), "--trace", str(target)) == (
        2, "", "error: not in class: graph is the complete graph on 4 vertices\n")
    assert not target.exists()
    # a file already at the path is left as it was, and a trace shorter
    # than the file it replaces leaves none of its bytes
    target.write_text("kept")
    assert run(capsys, "witness", str(path), "--trace", str(target))[0] == 2
    assert target.read_text() == "kept"
    gstar = gen_gstar(tmp_path, capsys)
    target.write_text("x" * 100_000)
    assert run(capsys, "witness", gstar, "--trace", str(target))[0] == 0
    assert json.loads(target.read_text())["version"] == trace.VERSION
    # a device is written but never truncated
    code, out, err = run(capsys, "witness", gstar, "--trace", os.devnull)
    assert (code, err) == (0, "") and out.endswith(f" written to {os.devnull}\n")


@pytest.mark.parametrize("link", ["same path", "symlink", "hard link"])
def test_trace_onto_the_graph_file_leaves_it_unchanged(link, tmp_path, capsys, monkeypatch):
    graph = Path(gen_gstar(tmp_path, capsys))
    before = graph.read_bytes()
    target = graph if link == "same path" else tmp_path / "trace.json"
    if link == "symlink":
        target.symlink_to(graph)
    elif link == "hard link":
        os.link(graph, target)

    def no_read(*_):
        raise AssertionError("the graph was read before the refusal")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "load_graph", no_read)
        assert run(capsys, "witness", str(graph), "--trace", str(target)) == (
            2, "", f"error: --trace {str(target)!r} is the graph file\n")
    assert graph.read_bytes() == before and target.exists()
    code, out, err = run(capsys, "witness", str(graph))
    assert (code, err) == (0, "") and "independent set of size 11" in out


def test_gen_refuses_unwritable_output_before_building(tmp_path, capsys):
    # the largest pendant cycle under the cap, which would take seconds
    # and hundreds of MB to build and render
    target = str(tmp_path / "missing" / "x.txt")
    tracemalloc.start()
    try:
        result = run(capsys, "gen", "pendant-cycle", "--cycle", "999999", "-o", target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (2, "", f"error: [Errno 2] No such file or directory: {target!r}\n")
    assert peak < 1e6


# sha256 of json.dumps(payload, sort_keys=True) for the payload of
# "witness graph.txt --trace trace.json": first of its version-1 form,
# recorded before the peel moved to an integer ledger (a faster peel must
# reproduce every pick and share), then of the version-2 file itself
PINNED_TRACES = {
    "cycle_with_pendants(50)": (lambda: cycle_with_pendants(50),
        "c12193f6b0fe0e8d9cb7878ad849067117434245880199994614e961f3b3f825",
        "0a81610e666fb290c163aeec687368efed0a52573ce51cda3800f7b7d0b404c4"),
    "random_connected(120,4,0)": (lambda: random_connected(120, 4, 0),
        "749b9b1cd62f467695f66e23ce317b642c12aa5615b2594b8bf11074a7bd990b",
        "41a38ecaba677a719c2f1442280a4e98589eefd95cebde9f715a35d29e4b8a0a"),
    "random_connected(120,4,1)": (lambda: random_connected(120, 4, 1),
        "31733b8cf8beea32ed33fc38c5d31f357b213dc1d63c3ef127ead9fe5120d02b",
        "1ea5a272b845f39ad441c85c01f730484702a710dcbe717f79007ff10f6d4791"),
    "random_connected(120,4,2)": (lambda: random_connected(120, 4, 2),
        "8148c329b86541fdd773c27a9be6ccb78968a5cbee9b7dd76dc8747a45f9bff7",
        "5e039088745a4e7248c8aa2cf5b9df0f727c270c0a9907fdca5eea7ee4f36577"),
    "chain_blocks(4,5)": (lambda: chain_blocks(4, 5),
        "d972c26ad40436befa5757b510f3750d9ef2a8f5b28ef09585708cf89b3ccb98",
        "cbc1bdb51158420e7f88c6f0104b550f1bd0eb458e94587b3377900b4c13e8b0"),
    "attach_cliques(5,5,2)": (lambda: attach_cliques(5, 5, 2),
        "41475c8572d0ddc19450d99cdae0360721ed2d1326dd05791657832ecfe7d949",
        "c97912b3aabd8b26f1d887a78c9bbeb34a6ceab736667ac69cf8a71f6ad3c404"),
}


@pytest.mark.parametrize("name", sorted(PINNED_TRACES))
def test_witness_trace_matches_pinned_digest(name, tmp_path, capsys, monkeypatch):
    build, v1_digest, v2_digest = PINNED_TRACES[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graph.txt").write_text(write_edge_list(build()))
    code, _, _ = run(capsys, "witness", "graph.txt", "--trace", "trace.json")
    assert code == 0
    payload = json.loads((tmp_path / "trace.json").read_text())
    for form, pinned in [(payload, v2_digest), (expand_trace(payload), v1_digest)]:
        text = json.dumps(form, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == pinned


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
