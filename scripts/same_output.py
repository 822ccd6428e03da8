#!/usr/bin/env python3
"""Check that two source trees give the same CLI output on the benchmark corpora.

    python3 scripts/same_output.py PARENT_SRC CHANGE_SRC [--seed N]

PARENT_SRC and CHANGE_SRC are directories holding an ``alphabound`` package,
such as the ``src`` of two checkouts.  Each tree builds the seed-N corpora of
the four benchmark workloads with ``perfbench/corpus.py`` and its own
``alphabound.families``, and the two sets of files must be byte-identical.
Every job then runs as ``python -m alphabound.cli`` under both trees, on the
same files, and the exit code, stdout, stderr and the bytes of the
``--trace`` file are compared; a run still going after five minutes
is stopped and counts as differing.  When both stdouts, or both traces, are
JSON objects, a differing one is reported with the top-level keys that
differ, e.g. ``stdout (nodes, optimal_set) differ`` or ``trace (steps,
version) differ``.  Every ``--help`` is compared the same way, and only
here, since argparse lays help out differently from one Python version to
the next.  The other invocations outside the workloads (``gen``,
``coeffs``, ``table`` and the refused options) are pinned instead in the
``PINNED`` table of ``tests/test_cli.py``, where a change to one shows as
an edit of its row.
Prints the number of differing jobs and invocations and exits 1 if any of
them or any corpus differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# run with one tree's alphabound: write every workload's corpus under a
# directory and print, per workload, its digest, command, options and files
BUILD = """
import json, sys
from pathlib import Path
import corpus
from alphabound import families
seed, out = int(sys.argv[1]), Path(sys.argv[2])
golden = corpus.load_golden()
result = {}
for wl in corpus.WORKLOADS.values():
    jobs = corpus.select(wl, seed, golden)
    files = corpus.write(jobs, families, out / wl.name)
    result[wl.name] = {"digest": files.digest, "command": wl.command,
                       "options": list(wl.options),
                       "jobs": [[j.key, str(files.paths[j.index])] for j in jobs]}
print(json.dumps(result))
"""


# the help of every command; no workload runs them
HELP_INVOCATIONS = [["--help"], *[[command, "--help"] for command in
                    ("coeffs", "bound", "witness", "exact", "gen", "verify", "table")]]


TIMEOUT_S = 300         # one CLI run is stopped after this many seconds


def tree_env(src: Path, *extra: Path) -> dict:
    # no __pycache__ in either tree: a cached tree starts every later run
    # faster, which would fake or hide a start-up difference between them
    return dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (src, *extra))),
                PYTHONDONTWRITEBYTECODE="1")


def build_corpora(src: Path, seed: int, out: Path) -> dict:
    proc = subprocess.run([sys.executable, "-c", BUILD, str(seed), str(out)],
                          env=tree_env(src, PERFBENCH), capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


def run_job(src: Path, argv: list[str], trace: Path) -> dict:
    try:
        proc = subprocess.run([sys.executable, "-m", "alphabound.cli", *argv],
                              env=tree_env(src), capture_output=True, timeout=TIMEOUT_S)
        result = {"exit code": proc.returncode, "stdout": proc.stdout,
                  "stderr": proc.stderr}
    except subprocess.TimeoutExpired:
        result = {"time": f"over {TIMEOUT_S} s"}
    result["trace"] = None
    if trace.exists():
        result["trace"] = trace.read_bytes()
        trace.unlink()
    return result


def json_keys_differing(parent: bytes | None, change: bytes | None) -> list[str]:
    """The top-level keys whose values differ, when both outputs are JSON
    objects; else an empty list."""
    try:
        a, b = json.loads(parent), json.loads(change)
    except (TypeError, ValueError):
        return []
    if not isinstance(a, dict) or not isinstance(b, dict):
        return []
    return [k for k in {**a, **b} if k not in a or k not in b or a[k] != b[k]]


def differing_fields(trees: dict, argv: list[str], trace: Path) -> list[str]:
    parent, change = (run_job(src, argv, trace) for src in trees.values())
    # a run that timed out differs, even from another that timed out
    fields = [f for f in {**parent, **change}
              if f == "time" or parent.get(f) != change.get(f)]
    out = []
    for f in fields:
        keys = json_keys_differing(parent.get(f), change.get(f))
        out.append(f"{f} ({', '.join(keys)})" if keys else f)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_src", type=Path)
    p.add_argument("change_src", type=Path)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    trees = {"parent": args.parent_src.resolve(), "change": args.change_src.resolve()}
    for name, src in trees.items():
        if not (src / "alphabound" / "__init__.py").is_file():
            p.error(f"{name} tree {src} holds no alphabound package")

    with tempfile.TemporaryDirectory(prefix="same_output-") as tmp:
        work = Path(tmp)
        corpora = {name: build_corpora(src, args.seed, work / name)
                   for name, src in trees.items()}
        trace = work / "trace.json"
        differing = total = corpus_diffs = 0
        for name, wl in corpora["parent"].items():
            if wl["digest"] != corpora["change"][name]["digest"]:
                corpus_diffs += 1
                print(f"{name}: the trees write different corpora")
            options = [o.replace("{trace}", str(trace)) for o in wl["options"]]
            # both trees read the parent's files, so paths in outputs agree
            for key, path in wl["jobs"]:
                total += 1
                fields = differing_fields(trees, [wl["command"], path, *options], trace)
                if fields:
                    differing += 1
                    print(f"{name} {key}: {', '.join(fields)} differ")
        others = 0
        for cli_args in HELP_INVOCATIONS:
            fields = differing_fields(trees, cli_args, trace)
            if fields:
                others += 1
                print(f"alphabound {' '.join(cli_args)}: {', '.join(fields)} differ")
    print(f"{differing} of {total} jobs differ (seed {args.seed})")
    print(f"{others} of {len(HELP_INVOCATIONS)} other invocations differ")
    return 1 if differing or corpus_diffs or others else 0


if __name__ == "__main__":
    sys.exit(main())
