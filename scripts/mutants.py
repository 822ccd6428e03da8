#!/usr/bin/env python3
"""Mutation gate: break one guarded line at a time and check that the tests
named beside it notice.

    python3 scripts/mutants.py [NAME ...]

Each mutant is a (file, old text, new text, tests) entry below.  It is
applied to a fresh copy of ``src/`` and ``tests/`` in a temporary
directory, never to the checkout, and its tests run there under pytest
with a fixed hypothesis seed.  Before any mutant, the unmutated copy must
pass every named test.

A mutant is killed when one of its tests fails.  It survives if all of
them pass; a run that breaks instead (an import error, a test id not
found, a run stopped after TIMEOUT_S seconds) is not a kill either.  Its
old text must occur exactly once in its file.  If it does not, the
guarded line has moved, and the entry must move with it.

Names on the command line run only those mutants.  Prints one line per
mutant and exits 1 unless every one is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300         # one pytest run is stopped after this many seconds


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


CUT_VERTEX_TESTS = (
    "tests/test_witness.py::test_cut_vertex_matches_reference",
    "tests/test_witness.py::test_cut_vertex_matches_networkx",
)

CLIQUE_TESTS = ("tests/test_witness.py::test_maximal_cliques_match_brute_force",)

SHARE_TESTS = ("tests/test_witness.py::test_witness_share_identity_exact",)

EXACT_TESTS = ("tests/test_exact.py::test_matches_naive_enumeration",)

MUTANTS = [
    Mutant("cut-vertex-root", "src/alphabound/witness.py",
           "if root_children > 1:", "if root_children > 2:", CUT_VERTEX_TESTS),
    Mutant("cut-vertex-lowpoint", "src/alphabound/witness.py",
           "elif low[v] >= disc[p]:", "elif low[v] > disc[p]:", CUT_VERTEX_TESTS),
    Mutant("split-triple-restore", "src/alphabound/witness.py",
           "            alive.update((x, y))\n", "",
           ("tests/test_numbering.py::test_brooks_and_peel_on_the_inner_first_ring",)),
    Mutant("greedy-size-check", "src/alphabound/witness.py",
           '_check(len(order) == size, "coloring piece is not connected")', "pass",
           ("tests/test_graph.py::test_breadth_first_users_match_networkx",)),
    Mutant("clique-weight-cap", "src/alphabound/witness.py",
           "if w[v] * (2 * g.degree(v) + 1) > 2 * scale:",
           "if w[v] * (2 * g.degree(v) + 1) >= 2 * scale:",
           ("tests/test_witness.py::test_clipped_weights_pass_on_class_members",)),
    Mutant("bfs-ignores-within", "src/alphabound/graphcore.py",
           "if w not in seen and (within is None or w in within):",
           "if w not in seen:",
           ("tests/test_graph.py::test_breadth_first_users_match_networkx",)),
    Mutant("number-underscore", "src/alphabound/graphcore.py",
           "(token.isdigit() or",
           '(token.replace("_", "").isdigit() or',
           ("tests/test_graph.py::test_parse_error_messages_unchanged",)),
    Mutant("clique-x-not-grown", "src/alphabound/witness.py",
           "        x.add(w)\n", "", CLIQUE_TESTS),
    Mutant("clique-x-not-narrowed", "src/alphabound/witness.py",
           "enter(r | {w}, p & nbr[w], x & nbr[w])",
           "enter(r | {w}, p & nbr[w], set(x))", CLIQUE_TESTS),
    Mutant("clique-empty-root", "src/alphabound/witness.py",
           "if g.n:", "if True:",
           ("tests/test_witness.py::test_maximal_cliques_known",)),
    Mutant("handoff-current-degree", "src/alphabound/witness.py",
           "weight[before[y]] - weight[deg[y]]", "weight[deg[y]] - weight[deg[y]]",
           SHARE_TESTS),
    Mutant("handoff-correction-dropped", "src/alphabound/witness.py",
           "\n                    + sum([weight[before[y]] - weight[deg[y]] "
           "for y in seeds if y in part])", "", SHARE_TESTS),
    Mutant("handoff-correction-unscoped", "src/alphabound/witness.py",
           "for y in seeds if y in part]", "for y in seeds]",
           ("tests/test_witness.py::test_witness_ledger_recomputed_independently",)),
    Mutant("peel-pick-any-upward", "src/alphabound/witness.py",
           "if deg[w] == dmax:", "if deg[w] > dmin:",
           ("tests/test_witness.py::test_peel_steps_match_public_calls_and_reference",)),
    Mutant("components-one-seed-short", "src/alphabound/graphcore.py",
           "if not pending:", "if len(pending) <= 1:",
           ("tests/test_graph.py::test_seeded_components_match_unseeded",)),
    Mutant("isolated-current-degree", "src/alphabound/witness.py",
           "weight[before[y]] for y in isolated", "weight[deg[y]] for y in isolated",
           SHARE_TESTS),
    Mutant("chain-first-vertex-free", "src/alphabound/families.py",
           "v == 0 or v % delta", "v % delta",
           ("tests/test_families.py::test_chain_blocks_matches_reference",)),
    Mutant("e-enclosure-start", "src/alphabound/coeffs.py",
           "k, f, p = 1, 1, 2", "k, f, p = 1, 1, 1",
           ("tests/test_coeffs.py::test_e_enclosure_contains_e",)),
    Mutant("class-degree-at-least", "src/alphabound/graphcore.py",
           "return require_in_class(g) == delta", "return require_in_class(g) >= delta",
           ("tests/test_graph.py::test_is_in_class_matches_networkx",)),
    Mutant("tree-parent-kept-at-cap", "src/alphabound/families.py",
           "if deg[u] == delta:", "if False:",
           ("tests/test_families.py::test_random_connected_output_pinned",)),
    Mutant("tree-rank-off-by-one", "src/alphabound/families.py",
           "tree[pos + step] <= r", "tree[pos + step] < r",
           ("tests/test_families.py::test_random_connected_matches_list_reference",)),
    Mutant("table-gap-signed", "src/alphabound/cli.py",
           '.lstrip("-")', "",
           ("tests/test_cli.py::test_table_output_pinned",)),
    Mutant("pick-step-from-last-vertex", "src/alphabound/witness.py",
           "via[v] if v in via else (v, w)", "(v, w)",
           ("tests/test_witness.py::test_peel_steps_match_public_calls_and_reference",)),
    Mutant("sign-zero-positive", "src/alphabound/coeffs.py",
           "(lo > 0) - (hi < 0)", "(lo >= 0) - (hi < 0)",
           ("tests/test_coeffs.py::test_euler_linear_comparisons_follow_the_sign",
            "tests/test_coeffs.py::test_euler_linear_sign_consistent_with_float")),
    Mutant("exact-cover-prunes-one-early", "src/alphabound/exact.py",
           "size + len(cliques) <= best_size", "size + len(cliques) - 1 <= best_size",
           EXACT_TESTS),
    Mutant("exact-cover-joins-any-earlier", "src/alphabound/exact.py",
           "if idx < first and not cliques[idx] & ~cm:", "if idx < first:",
           EXACT_TESTS),
    Mutant("exact-simplicial-first-neighbour", "src/alphabound/exact.py",
           "cc ^= ul\n                if cm", "cc = 0\n                if cm",
           EXACT_TESTS),
    Mutant("exact-branch-last-max-degree", "src/alphabound/exact.py",
           "if d > bd:", "if d >= bd:",
           ("tests/test_exact.py::test_search_order_pinned",)),
]


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)


def run_tests(tree: Path, tests) -> int | None:
    """pytest's exit code: 0 if every test passed, 1 if some failed, and
    anything else if the run itself broke (a test id not found, an import
    error); None if it was stopped after TIMEOUT_S seconds."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *tests],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        every_test = list(dict.fromkeys(t for m in chosen for t in m.tests))
        if run_tests(base, every_test) != 0:
            print("the unmutated tree fails the named tests", file=sys.stderr)
            return 1
        bad = 0
        for m in chosen:
            tree = Path(tmp) / m.name
            copy_tree(tree)
            target = tree / m.path
            text = target.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                verdict = "no longer applies"
            else:
                target.write_text(text.replace(m.old, m.new), encoding="utf-8")
                code = run_tests(tree, m.tests)
                verdict = {0: "SURVIVED", 1: "killed", None: "broke the run (timeout)"}.get(
                    code, f"broke the run (exit {code})")
            bad += verdict != "killed"
            print(f"{m.name}: {verdict}")
            shutil.rmtree(tree)
    print(f"{bad} of {len(chosen)} mutants not killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
