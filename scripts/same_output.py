#!/usr/bin/env python3
"""Check that two source trees give the same CLI output on the benchmark corpora.

    python3 scripts/same_output.py PARENT_SRC CHANGE_SRC [--seed N]

PARENT_SRC and CHANGE_SRC are directories holding an ``alphabound`` package,
such as the ``src`` of two checkouts.  Each tree builds the seed-N corpora of
the four benchmark workloads with ``perfbench/corpus.py`` and its own
``alphabound.families``, and the two sets of files must be byte-identical.
Every job then runs as ``python -m alphabound.cli`` under both trees, on the
same files, and the exit code, stdout, stderr and the sha256 of the
``--trace`` file are compared.  A fixed list of invocations outside the
workloads (``gen`` for every family, refused options, ``coeffs``, ``table``
and every ``--help``) is compared the same way.  Prints the number of
differing jobs and invocations and exits 1 if any of them or any corpus
differs.
"""

from __future__ import annotations

import argparse
import hashlib
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


# commands no workload runs; none of them reads a graph file
OTHER_INVOCATIONS = [
    ["gen", "regular-blocks", "--delta", "3", "--template-size", "4"],
    ["gen", "chain", "--delta", "3", "--blocks", "3"],
    ["gen", "attach", "--delta", "4", "--blocks", "3", "--clique", "2"],
    ["gen", "pendant-cycle", "--cycle", "5"],
    ["gen", "random", "--vertices", "12", "--delta", "4", "--seed", "3"],
    ["gen", "regular-blocks", "--delta", "3"],
    ["gen", "chain", "--blocks", "3"],
    ["gen", "attach", "--delta", "4", "--blocks", "3"],
    ["gen", "pendant-cycle"],
    ["gen", "random", "--delta", "4"],
    ["bound", "missing.txt", "--delta-range", "7..5"],
    ["verify", "missing.txt", "--delta-range", "a..b"],
    ["coeffs", "--delta", "4", "--format", "decimal:0"],
    ["coeffs", "--delta", "4", "--format", "decimal:x"],
    ["coeffs", "--delta", "4", "--format", "hex"],
    ["coeffs", "--delta", "4", "--kind", "clipped", "--c-delta", "x"],
    ["coeffs", "--delta", "6", "--kind", "clipped", "--c-delta", "1/7"],
    ["coeffs", "--delta", "6", "--kind", "clipped", "--c-delta", "1/2"],
    *[["coeffs", "--delta", "6", "--kind", kind, "--format", fmt]
      for kind in ("c", "d", "clipped") for fmt in ("rational", "decimal:20")],
    ["table", "--delta", "6"],
    ["--help"],
    *[[command, "--help"] for command in
      ("coeffs", "bound", "witness", "exact", "gen", "verify", "table")],
]


def tree_env(src: Path, *extra: Path) -> dict:
    # no __pycache__ in either tree: a cached tree starts every later run
    # faster, which would fake or hide a start-up difference between them
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (src, *extra))),
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("ALPHABOUND_BUDGET", None)
    return env


def build_corpora(src: Path, seed: int, out: Path) -> dict:
    proc = subprocess.run([sys.executable, "-c", BUILD, str(seed), str(out)],
                          env=tree_env(src, PERFBENCH), capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


def run_job(src: Path, argv: list[str], trace: Path) -> dict:
    proc = subprocess.run([sys.executable, "-m", "alphabound.cli", *argv],
                          env=tree_env(src), capture_output=True)
    digest = None
    if trace.exists():
        digest = hashlib.sha256(trace.read_bytes()).hexdigest()
        trace.unlink()
    return {"exit code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr, "trace sha256": digest}


def differing_fields(trees: dict, argv: list[str], trace: Path) -> list[str]:
    parent, change = (run_job(src, argv, trace) for src in trees.values())
    return [f for f in parent if parent[f] != change[f]]


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
        for cli_args in OTHER_INVOCATIONS:
            fields = differing_fields(trees, cli_args, trace)
            if fields:
                others += 1
                print(f"alphabound {' '.join(cli_args)}: {', '.join(fields)} differ")
    print(f"{differing} of {total} jobs differ (seed {args.seed})")
    print(f"{others} of {len(OTHER_INVOCATIONS)} other invocations differ")
    return 1 if differing or corpus_diffs or others else 0


if __name__ == "__main__":
    sys.exit(main())
