#!/usr/bin/env python3
"""Ladders: the parse layer in-process, and each command's start-up as a CLI job.

    python3 scripts/ladder.py --label NAME --out FILE [--src DIR]
    python3 scripts/ladder.py --series startup --label NAME [--label NAME2]
        --out FILE [--src DIR [--src DIR2]]

The parse series (the default) times ``parse_graph`` on growing files.  Each
rung parses one file text, built before timing: ``circulant_graph(n,
[1, 2])`` with n vertices, or ``cycle_with_pendants(n // 2)`` with n + 1,
written as a dense edge list (``write_edge_list``), with sparse labels
under a ``#`` header line (as ``perfbench/corpus.py`` writes them), or as
DIMACS (``write_dimacs``), for n = 10^4, 4*10^4, 1.6*10^5 and 6.4*10^5.  A
rung records the best wall time of three parses and the tracemalloc peak of
one more.  A rung whose first parse takes longer than CAP_S seconds is
recorded as skipped, and so is every larger rung of its series.  It
measures one tree per run.

The start-up series runs each of the seven commands on a small file that
``gen`` writes, STARTUP_SAMPLES times, as fresh ``python -m alphabound.cli``
processes with ``PYTHONDONTWRITEBYTECODE=1`` on a copy of each tree's
package without ``__pycache__``, so every job compiles the package's
modules it imports, as a benchmark job does.  A sample is the job's CPU
time, user plus system, from ``RUSAGE_CHILDREN``.  Given two trees, it
alternates them sample by sample, the first tree first on even samples and
second on odd ones, and records both trees' samples.

The rungs are stored in the JSON object in FILE under each tree's label;
other keys are kept, so one file can hold the rungs of several runs.
``--src`` names the directory holding the ``alphabound`` package to
measure, such as another checkout's ``src``, once per ``--label``; by
default it is this checkout's.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (10_000, 40_000, 160_000, 640_000)
SAMPLES = 3
CAP_S = 10.0
STARTUP_SAMPLES = 31
# each command's arguments after the command, GRAPH for the small file
STARTUP_JOBS = (("bound", "GRAPH"), ("witness", "GRAPH"), ("exact", "GRAPH"),
                ("verify", "GRAPH"), ("coeffs", "--delta", "5"), ("table", "--delta", "5"),
                ("gen", "pendant-cycle", "--cycle", "10"))


def texts(family: str, n: int) -> tuple[int, int, dict[str, str]]:
    """The vertex and edge counts of one family's graph of size n, and its
    file text in each format.  The graph itself is dropped before timing."""
    from alphabound.families import circulant_graph, cycle_with_pendants
    from alphabound.graphcore import write_dimacs, write_edge_list
    g = circulant_graph(n, [1, 2]) if family == "circulant" else cycle_with_pendants(n // 2)
    labels = sorted(random.Random(n).sample(range(1 << 30), g.n))
    sparse = f"# sparse labels, n={g.n}\n" + "".join(
        f"{labels[u]} {labels[v]}\n" for u, v in g.edges())
    return g.n, g.m, {"edges": write_edge_list(g), "sparse": sparse,
                      "dimacs": write_dimacs(g)}


def measure(parse, text: str) -> dict:
    times = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        parse(text)
        times.append(time.perf_counter() - start)
        if times[0] > CAP_S:
            return {"skipped": f"first parse took {times[0]:.1f} s, over the {CAP_S:g} s cap"}
    tracemalloc.start()
    try:
        parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    best = min(times)
    return {"best_s": round(best, 4), "mb_per_s": round(len(text) / best / 1e6, 2),
            "peak_mb": round(peak / 1e6, 2)}


def parse_rungs() -> list[dict]:
    from alphabound.graphcore import parse_graph
    rungs, over = [], set()
    for n in SIZES:
        for family in ("circulant", "cycle_with_pendants"):
            vertices, edges, by_format = texts(family, n)
            for fmt, text in by_format.items():
                rung = {"family": family, "format": fmt, "n": vertices, "m": edges,
                        "mb": round(len(text) / 1e6, 3)}
                if (family, fmt) in over:
                    rung["skipped"] = "a smaller rung of this series was over the cap"
                else:
                    rung.update(measure(parse_graph, text))
                    if "skipped" in rung:
                        over.add((family, fmt))
                rungs.append(rung)
                print(json.dumps(rung), flush=True)
    return rungs


def job_cpu_s(argv: list[str], env: dict) -> float:
    """The user plus system CPU time of one CLI job run to completion."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def startup_rungs(trees: dict[str, str]) -> dict[str, list[dict]]:
    """Each tree's rungs, one per command, its samples in milliseconds."""
    with tempfile.TemporaryDirectory(prefix="ladder-") as tmp:
        envs = {}
        for i, (label, src) in enumerate(trees.items()):
            copy = Path(tmp, f"tree{i}")
            shutil.copytree(Path(src, "alphabound"), copy / "alphabound",
                            ignore=shutil.ignore_patterns("__pycache__"))
            envs[label] = dict(os.environ, PYTHONPATH=str(copy),
                               PYTHONDONTWRITEBYTECODE="1")
        cli = [sys.executable, "-m", "alphabound.cli"]
        graph = str(Path(tmp, "graph.txt"))
        first = next(iter(envs.values()))
        subprocess.run([*cli, "gen", "pendant-cycle", "--cycle", "10", "-o", graph],
                       env=first, check=True)
        samples = {(label, job): [] for label in trees for job in STARTUP_JOBS}
        for k in range(STARTUP_SAMPLES):
            for job in STARTUP_JOBS:
                argv = [*cli, *(graph if a == "GRAPH" else a for a in job)]
                for label in (list(trees) if k % 2 == 0 else list(trees)[::-1]):
                    samples[label, job].append(job_cpu_s(argv, envs[label]))
    rungs = {label: [] for label in trees}
    for (label, job), times in samples.items():
        ms = [round(t * 1e3, 1) for t in times]
        q1, median, q3 = statistics.quantiles(ms, n=4)
        rung = {"command": " ".join(job), "q1_ms": round(q1, 1), "median_ms": round(median, 1),
                "q3_ms": round(q3, 1), "cpu_ms": ms}
        rungs[label].append(rung)
        print(json.dumps({"tree": label, **{k: v for k, v in rung.items() if k != "cpu_ms"}}),
              flush=True)
    return rungs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--series", choices=("parse", "startup"), default="parse")
    p.add_argument("--label", action="append", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--src", action="append")
    args = p.parse_args(argv)
    srcs = args.src or [str(ROOT / "src")]
    most = 2 if args.series == "startup" else 1
    if len(srcs) != len(args.label) or len(srcs) > most:
        p.error(f"the {args.series} series takes up to {most} trees, one --src per --label")
    if len(set(args.label)) != len(args.label):
        p.error("each tree needs its own label")
    machine = {"python": platform.python_version(), "machine": platform.machine(),
               "cpus": os.cpu_count()}
    if args.series == "parse":
        sys.path.insert(0, srcs[0])
        entries = {args.label[0]: {**machine, "samples": SAMPLES, "cap_s": CAP_S,
                                   "rungs": parse_rungs()}}
    else:
        trees = dict(zip(args.label, srcs))
        entries = {label: {**machine, "series": "startup", "samples": STARTUP_SAMPLES,
                           "alternated_with": [other for other in trees if other != label],
                           "rungs": rungs}
                   for label, rungs in startup_rungs(trees).items()}
    out = Path(args.out)
    runs = json.loads(out.read_text()) if out.exists() else {}
    runs.update(entries)
    out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
