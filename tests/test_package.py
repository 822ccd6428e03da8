import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import alphabound

SUBMODULES = ("bounds", "cli", "coeffs", "exact", "families", "graphcore", "witness")


def test_all_is_sorted_and_unique():
    assert alphabound.__all__ == sorted(set(alphabound.__all__))


def test_all_lists_every_public_name():
    # the package resolves its public names on first access (PEP 562):
    # resolve every one, then compare __all__ with what the package holds
    # and with what dir() lists.  Each name is the object every submodule
    # holding it holds; submodules resolve too, and nothing else does
    modules = [getattr(alphabound, name) for name in SUBMODULES]
    assert [module.__name__ for module in modules] == [f"alphabound.{name}" for name in SUBMODULES]
    for name in alphabound.__all__:
        value = getattr(alphabound, name)
        homes = [vars(module)[name] for module in modules if name in vars(module)]
        assert homes and all(home is value for home in homes), name
    public = {name for name, value in vars(alphabound).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(alphabound.__all__) == public
    listed = {name for name in dir(alphabound) if not name.startswith("_")
              and not isinstance(getattr(alphabound, name), types.ModuleType)}
    assert set(alphabound.__all__) == listed
    assert set(SUBMODULES) <= set(dir(alphabound))
    for name in ("MAX_GEN_SIZE", "_number", "lru_cache", "Fraction"):
        assert not hasattr(alphabound, name), name


def test_all_entries_resolve():
    assert [name for name in alphabound.__all__ if not hasattr(alphabound, name)] == []


def test_cli_start_up_leaves_out_dataclasses():
    # dataclasses pulls in inspect, dis, ast and tokenize and execs the
    # methods of every decorated class: about 25 ms of each CLI job.  The
    # snapshot leaves out whatever site imported before the package did.
    code = ("import sys; before = set(sys.modules); import alphabound.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(Path(alphabound.__file__).resolve().parents[1]))
    added = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    assert "alphabound.cli" in added
    assert "dataclasses" not in added


# modules each command must not import: with no bytecode written, every
# CLI job compiles each module it imports from source
LEFT_OUT = {
    ("exact", "GRAPH"): ("alphabound.coeffs", "alphabound.bounds", "alphabound.witness",
                         "alphabound.families", "fractions"),
    ("bound", "GRAPH"): ("alphabound.witness", "alphabound.families"),
    ("witness", "GRAPH"): ("alphabound.families", "alphabound.exact"),
    ("verify", "GRAPH"): ("alphabound.families",),
    ("verify", "GRAPH", "--exact-threshold", "0"): ("alphabound.families", "alphabound.exact"),
    ("gen", "pendant-cycle", "--cycle", "5"): ("alphabound.coeffs", "alphabound.bounds",
                                               "alphabound.witness"),
    ("coeffs", "--delta", "5"): ("alphabound.bounds", "alphabound.witness",
                                 "alphabound.exact", "alphabound.families"),
    ("table", "--delta", "5"): ("alphabound.bounds", "alphabound.witness",
                                "alphabound.exact", "alphabound.families"),
}

# and the module that does each command's work, which it must import
RUNS = {"exact": "alphabound.exact", "bound": "alphabound.bounds",
        "witness": "alphabound.witness", "verify": "alphabound.witness",
        "gen": "alphabound.families", "coeffs": "alphabound.coeffs",
        "table": "alphabound.coeffs"}


@pytest.mark.parametrize("argv", sorted(LEFT_OUT), ids=" ".join)
def test_each_command_imports_only_what_it_runs(argv, tmp_path):
    from alphabound.families import cycle_with_pendants
    from alphabound.graphcore import write_edge_list
    graph = tmp_path / "graph.txt"
    graph.write_text(write_edge_list(cycle_with_pendants(6)))
    env = dict(os.environ, PYTHONPATH=str(Path(alphabound.__file__).resolve().parents[1]))
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "alphabound.cli",
         *(str(graph) if arg == "GRAPH" else arg for arg in argv)],
        env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    # each "import time:" line ends in "| name", indented by nesting
    imported = {line.rpartition("|")[2].strip() for line in run.stderr.splitlines()
                if line.startswith("import time:")}
    assert RUNS[argv[0]] in imported
    assert sorted(imported & set(LEFT_OUT[argv])) == []


def test_tracer_patch_points_resolve(monkeypatch):
    # perfbench/traced.py wraps library names on cli, bounds and witness,
    # which cli resolves through the package on first access.  Recording the
    # patches installs none of them, and fails if a name no longer resolves
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    for name in ("traced", "check", "corpus"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import traced
    tracer = traced.Tracer()
    traced._instrument(tracer)
    assert len(tracer._patches) == 15
    cli = alphabound.cli
    for module, attr, original, _ in tracer._patches:
        assert getattr(module, attr) is original, attr
        if module is cli:
            assert original is getattr(alphabound, attr), attr
    assert not hasattr(cli, "no_such_name")
