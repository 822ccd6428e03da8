"""Searches whose depth would grow with n run on explicit worklists: they
pass at a small recursion limit, and the library never changes the limit."""

import ast
import tracemalloc
from pathlib import Path

import alphabound
from alphabound import cli
from alphabound.bounds import c_bound
from alphabound.exact import exact_alpha
from alphabound.families import chain_blocks, cycle_with_pendants
from alphabound.graphcore import is_independent, write_edge_list
from alphabound.witness import enumerate_maximal_cliques, peel_witness


def test_peel_depth_does_not_grow_with_n(shallow_stack):
    g = cycle_with_pendants(300)
    res = peel_witness(g)
    assert is_independent(g, res.independent_set)
    assert len(res.independent_set) >= c_bound(g)


def test_exact_depth_does_not_grow_with_n(shallow_stack):
    # the pendants and the second pendant on vertex 0
    assert exact_alpha(cycle_with_pendants(300)).alpha == 301


def test_clique_depth_does_not_grow_with_n(shallow_stack):
    # two copies of K_300 joined by one edge: one search level per vertex
    cliques = enumerate_maximal_cliques(chain_blocks(300, 2))
    assert cliques == [tuple(range(300)), (0, 300), tuple(range(300, 600))]


def test_verify_depth_does_not_grow_with_n(shallow_stack, tmp_path, capsys):
    path = tmp_path / "chain.txt"
    path.write_text(write_edge_list(chain_blocks(300, 2)))
    assert cli.main(["verify", str(path)]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_peel_memory_stays_small():
    # the pending pieces are all the peel keeps between steps
    g = cycle_with_pendants(600)
    tracemalloc.start()
    try:
        peel_witness(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_library_never_sets_the_recursion_limit():
    calls = []
    for path in sorted(Path(alphabound.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name == "setrecursionlimit":
                    calls.append(f"{path.name}:{node.lineno}")
    assert calls == []
