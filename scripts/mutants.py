#!/usr/bin/env python3
"""Mutation gate: break one guarded line at a time and check that the tests
named beside it notice.

    python3 scripts/mutants.py [NAME ...]

Each mutant is a (file, old text, new text, tests) entry below.  It is
applied to a fresh copy of ``src/``, ``tests/`` and the exact-solver
records ``perfbench/golden.json`` in a temporary directory, never to the
checkout, and its tests run there under pytest with a fixed hypothesis
seed.  Before any mutant, the unmutated copy must pass every named test;
if it does not, the end of pytest's output is printed.

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
TAIL_LINES = 40         # lines of a failing unmutated run's output shown
GOLDEN = "perfbench/golden.json"    # records tests/test_exact.py reads


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

PEEL_TRACE_TESTS = ("tests/test_witness.py::test_peel_trace_matches_reference",)

TRACE_DIGEST_TESTS = ("tests/test_cli.py::test_witness_trace_matches_pinned_digest",)

GOLDEN_TEST = "tests/test_exact.py::test_alpha_of_every_golden_random_member"

EXACT_TESTS = ("tests/test_exact.py::test_matches_naive_enumeration", GOLDEN_TEST)

FOLD_TESTS = ("tests/test_exact.py::test_best_sets_independent_in_input_numbering",)

PARSE_TESTS = ("tests/test_graph.py::test_parse_error_messages_unchanged",)

BULK_TESTS = ("tests/test_graph.py::test_bulk_and_line_parsers_agree",)

PINNED_TESTS = ("tests/test_cli.py::test_invocation_pinned",)

OUTPUT_TESTS = ("tests/test_cli.py::test_each_writer_keeps_the_output_rule",)

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
    Mutant("largest-class-smallest", "src/alphabound/witness.py",
           "return max(classes.values(),", "return min(classes.values(),",
           ("tests/test_witness.py::test_largest_colour_class_meets_n_over_delta",)),
    Mutant("cycle-alternation-wraps", "src/alphabound/witness.py",
           "(k if k % 2 == 0 else k - 1)", "k", PEEL_TRACE_TESTS),
    Mutant("clique-x-not-grown", "src/alphabound/witness.py",
           "        x.add(w)\n", "", CLIQUE_TESTS),
    Mutant("clique-x-not-narrowed", "src/alphabound/witness.py",
           "enter(r | {w}, p & nbr[w], x & nbr[w])",
           "enter(r | {w}, p & nbr[w], set(x))", CLIQUE_TESTS),
    Mutant("clique-empty-root", "src/alphabound/witness.py",
           "if g.n:", "if True:",
           ("tests/test_witness.py::test_maximal_cliques_known",)),
    Mutant("isolated-keeps-a-neighbour", "src/alphabound/witness.py",
           "lost[y] == deg[y]", "lost[y] == deg[y] - 1", PEEL_TRACE_TESTS),
    Mutant("degree-drops-by-one", "src/alphabound/witness.py",
           "deg[y] -= lost[y]", "deg[y] -= 1", PEEL_TRACE_TESTS),
    Mutant("seeds-include-isolated", "src/alphabound/witness.py",
           "[y for y in lost if lost[y] < deg[y]]", "list(lost)", PEEL_TRACE_TESTS),
    Mutant("peel-pick-any-upward", "src/alphabound/witness.py",
           "if deg[w] == dmax:", "if deg[w] > dmin:", PEEL_TRACE_TESTS),
    Mutant("select-largest-source", "src/alphabound/witness.py",
           "chain(sources, queue)", "chain(reversed([*sources]), queue)",
           PEEL_TRACE_TESTS),
    Mutant("components-one-seed-short", "src/alphabound/graphcore.py",
           "if not pending:", "if len(pending) <= 1:",
           ("tests/test_graph.py::test_components_from_meeting_seeds_match_reference",)),
    Mutant("isolated-share-after-drop", "src/alphabound/witness.py",
           "weight[deg[y]] for y in isolated", "weight[deg[y] - lost[y]] for y in isolated",
           PEEL_TRACE_TESTS),
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
           '.lstrip("-")', "", PINNED_TESTS),
    Mutant("pick-step-from-last-vertex", "src/alphabound/witness.py",
           "via[v] if v in via else (v, w)", "(v, w)", PEEL_TRACE_TESTS),
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
           "cc ^= ul\n                    if cc", "cc = 0\n                    if cc",
           EXACT_TESTS),
    Mutant("exact-branch-last-max-degree", "src/alphabound/exact.py",
           "if d > bd:", "if d >= bd:",
           ("tests/test_exact.py::test_search_order_pinned",)),
    Mutant("exact-fold-adjacent-pair", "src/alphabound/exact.py",
           "if cm.bit_count() == 2 and not nbr[(cm & -cm).bit_length() - 1] & cm:",
           "if cm.bit_count() == 2:", (*FOLD_TESTS, GOLDEN_TEST)),
    Mutant("exact-unfold-takes-v", "src/alphabound/exact.py",
           "1 << (w if chosen", "1 << (v if chosen", FOLD_TESTS),
    Mutant("exact-fold-skips-old-neighbours", "src/alphabound/exact.py",
           "nbr[w] | (old & around(gained))", "nbr[w]",
           ("tests/test_exact.py::test_same_search_as_reference", GOLDEN_TEST)),
    Mutant("exact-trail-entry-unrestored", "src/alphabound/exact.py",
           "reversed(trail[mark:])", "reversed(trail[mark + 1:])",
           ("tests/test_exact.py::test_same_search_as_reference", GOLDEN_TEST)),
    *[Mutant(f"peel-check-{case}-off", "src/alphabound/witness.py",
             f"_check({cond},", "_check(True,",
             (f"tests/test_witness.py::test_peel_checks_refuse_scaled_weights[{case}]",))
      for case, cond in [("owed", "owed <= target"), ("complete", "owed <= scale"),
                         ("share", "share <= scale"),
                         ("regular", "len(taken) * scale >= target"),
                         ("whole", "owed.denominator == 1")]],
    Mutant("trace-child-index-off-by-one", "src/alphabound/trace.py",
           "children.append(i)", "children.append(i + 1)", TRACE_DIGEST_TESTS),
    Mutant("trace-piece-drops-isolated", "src/alphabound/trace.py",
           '*r["isolated"],', "", TRACE_DIGEST_TESTS),
    Mutant("limit-positive-zero", "src/alphabound/cli.py",
           "value < 1", "value < 0", PINNED_TESTS),
    Mutant("trace-empty-path-omitted", "src/alphabound/cli.py",
           "_output(args.trace) if args.trace is not None",
           "_output(args.trace) if args.trace", PINNED_TESTS),
    Mutant("output-empty-path-stdout", "src/alphabound/cli.py",
           "_output(args.output) if args.output is not None",
           "_output(args.output) if args.output", PINNED_TESTS),
    Mutant("output-device-truncated", "src/alphabound/cli.py",
           "if stat.S_ISREG(os.fstat(file.fileno()).st_mode):", "if True:", OUTPUT_TESTS),
    Mutant("output-created-kept", "src/alphabound/cli.py",
           "os.remove(path)", "pass", OUTPUT_TESTS),
    Mutant("output-existing-removed", "src/alphabound/cli.py",
           "created = not os.path.lexists(path)", "created = True", OUTPUT_TESTS),
    Mutant("output-not-cut", "src/alphabound/cli.py",
           "file.truncate()", "pass", OUTPUT_TESTS),
    Mutant("witness-reads-before-open", "src/alphabound/cli.py",
           "    with (_output(args.trace) if args.trace is not None\n"
           "          else contextlib.nullcontext()) as trace_file:\n"
           "        result = _cli.peel_witness(load_graph(args.graph))\n",
           "    g = load_graph(args.graph)\n"
           "    with (_output(args.trace) if args.trace is not None\n"
           "          else contextlib.nullcontext()) as trace_file:\n"
           "        result = _cli.peel_witness(g)\n", OUTPUT_TESTS),
    Mutant("gen-builds-before-open", "src/alphabound/cli.py",
           "    with (_output(args.output) if args.output is not None\n"
           "          else contextlib.nullcontext(sys.stdout)) as out:\n"
           "        out.write(write_edge_list(build(*values), header=header))\n",
           "    text = write_edge_list(build(*values), header=header)\n"
           "    with (_output(args.output) if args.output is not None\n"
           "          else contextlib.nullcontext(sys.stdout)) as out:\n"
           "        out.write(text)\n", OUTPUT_TESTS),
    Mutant("limit-cap-inclusive", "src/alphabound/cli.py",
           "value > cap", "value >= cap",
           ("tests/test_cli.py::test_size_caps_refuse_before_allocating",)),
    Mutant("edge-negative-first-only", "src/alphabound/graphcore.py",
           "if u < 0 or v < 0:", "if u < 0:", PARSE_TESTS),
    Mutant("dimacs-range-from-zero", "src/alphabound/graphcore.py",
           "1 <= u", "0 <= u", PARSE_TESTS),
    Mutant("dimacs-duplicate-header", "src/alphabound/graphcore.py",
           "if n is not None:", "if False:", PARSE_TESTS),
    Mutant("sniff-no-comment-lines", "src/alphabound/graphcore.py",
           '("p", "c", "e")', '("p", "e")', PARSE_TESTS),
    Mutant("number-digit-cap", "src/alphabound/graphcore.py",
           "<= _MAX_DIGITS", "<= 2 * _MAX_DIGITS",
           ("tests/test_graph.py::test_long_numbers_refused_whatever_the_digit_limit",)),
    Mutant("bulk-layout-takes-signs", "src/alphabound/graphcore.py",
           'b"0123456789")', 'b"0123456789+-")', BULK_TESTS),
    Mutant("bulk-token-count-unchecked", "src/alphabound/graphcore.py",
           "len(tokens) != 2 * lines or ", "", BULK_TESTS),
    Mutant("bulk-prefix-token-unchecked", "src/alphabound/graphcore.py",
           "tokens[::3].count(prefix.strip()) != lines", "False", BULK_TESTS),
    Mutant("bulk-digit-cap", "src/alphabound/graphcore.py",
           "default=0) > _MAX_DIGITS", "default=0) > 2 * _MAX_DIGITS", BULK_TESTS),
    Mutant("bulk-int-refusal-raised", "src/alphabound/graphcore.py",
           "except ValueError:  # over a digit limit", "except ZeroDivisionError:  #",
           BULK_TESTS),
    Mutant("bulk-self-loops-kept", "src/alphabound/graphcore.py",
           "if any(map(eq, nums[::2], nums[1::2])):", "if False:", BULK_TESTS),
    Mutant("bulk-dimacs-range-low", "src/alphabound/graphcore.py",
           "1 <= min(nums)", "0 <= min(nums)", BULK_TESTS),
    Mutant("bulk-dimacs-range-high", "src/alphabound/graphcore.py",
           "max(nums) <= n", "max(nums) <= n + 1", BULK_TESTS),
    Mutant("bulk-comment-head-any-break", "src/alphabound/graphcore.py",
           'text[:start].replace("\\n", "").isprintable()', "True", BULK_TESTS),
    Mutant("bulk-dimacs-head-any-break", "src/alphabound/graphcore.py",
           "and head.isprintable()", "", BULK_TESTS),
    Mutant("utf8-line-no-stand-in", "src/alphabound/graphcore.py",
           '.decode("utf-8") + "?"', '.decode("utf-8")',
           ("tests/test_cli.py::test_undecodable_input_names_file_and_line",)),
]


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    (dest / GOLDEN).parent.mkdir()
    shutil.copyfile(ROOT / GOLDEN, dest / GOLDEN)


def run_tests(tree: Path, tests) -> tuple[int | None, str]:
    """pytest's exit code and its output.  The code is 0 if every test
    passed, 1 if some failed, and anything else if the run itself broke (a
    test id not found, an import error); None if it was stopped after
    TIMEOUT_S seconds."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *tests],
            cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"stopped after {TIMEOUT_S} s"
    return proc.returncode, proc.stdout


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
        code, output = run_tests(base, every_test)
        if code != 0:
            print("the unmutated tree fails the named tests", file=sys.stderr)
            print(*output.splitlines()[-TAIL_LINES:], sep="\n", file=sys.stderr)
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
                code, _ = run_tests(tree, m.tests)
                verdict = {0: "SURVIVED", 1: "killed", None: "broke the run (timeout)"}.get(
                    code, f"broke the run (exit {code})")
            bad += verdict != "killed"
            print(f"{m.name}: {verdict}")
            shutil.rmtree(tree)
    print(f"{bad} of {len(chosen)} mutants not killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
