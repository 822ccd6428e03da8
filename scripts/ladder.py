#!/usr/bin/env python3
"""Parse-layer ladder: ``parse_graph`` timed in-process on growing files.

    python3 scripts/ladder.py --label NAME --out FILE [--src DIR]

Each rung parses one file text, built before timing: ``circulant_graph(n,
[1, 2])`` with n vertices, or ``cycle_with_pendants(n // 2)`` with n + 1,
written as a dense edge list (``write_edge_list``), with sparse labels
under a ``#`` header line (as ``perfbench/corpus.py`` writes them), or as
DIMACS (``write_dimacs``), for n = 10^4, 4*10^4, 1.6*10^5 and 6.4*10^5.  A
rung records the best wall time of three parses and the tracemalloc peak of
one more.  A rung whose first parse takes longer than CAP_S seconds is
recorded as skipped, and so is every larger rung of its series.

The rungs are stored in the JSON object in FILE under the key NAME; other
keys are kept, so one file can hold the rungs of two trees.  ``--src``
names the directory holding the ``alphabound`` package to measure, such as
another checkout's ``src``; by default it is this checkout's.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (10_000, 40_000, 160_000, 640_000)
SAMPLES = 3
CAP_S = 10.0


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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--src", default=str(ROOT / "src"))
    args = p.parse_args(argv)
    sys.path.insert(0, args.src)
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
    out = Path(args.out)
    runs = json.loads(out.read_text()) if out.exists() else {}
    runs[args.label] = {
        "python": platform.python_version(), "machine": platform.machine(),
        "cpus": os.cpu_count(), "samples": SAMPLES, "cap_s": CAP_S, "rungs": rungs}
    out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
