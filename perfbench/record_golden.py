"""Record golden.json: the values the CLI prints for every pool member.

Run from the repository root with ``python3 perfbench/record_golden.py``.
It imports the library from ``src/`` and stores, per pool key, the graph's
n and m plus what each workload's command prints that does not depend on
labels or format: the witness bound strings, alpha and the exact solver's
node count, the bound table, and the verify checks.  Recording takes a few
minutes, mostly in the exact solver.  Only re-record when a change to the
program's output is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from alphabound import cli, families  # noqa: E402
from alphabound.bounds import c_bound  # noqa: E402
from alphabound.coeffs import render_decimal  # noqa: E402
from alphabound.exact import BudgetExceeded, exact_alpha  # noqa: E402

import corpus  # noqa: E402

RECORD_BUDGET = 200_000


def _cli_json(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")
    return json.loads(buf.getvalue())


def record(command: str, options: tuple[str, ...], g, path: Path) -> dict:
    if command == "witness":
        bound = c_bound(g)
        return {"bound": str(bound), "bound_decimal": render_decimal(bound, 12)}
    if command == "exact":
        try:
            r = exact_alpha(g, budget=RECORD_BUDGET)
            return {"alpha": r.alpha, "nodes": r.nodes_explored}
        except BudgetExceeded:
            return {"alpha": None, "nodes": -1}
    path.write_text(corpus.render(g, "edges", 0), encoding="utf-8")
    out = _cli_json([command, str(path), *options])
    if command == "bound":
        return {"bounds": out["bounds"], "best": out["best"]}
    size = str(out["witness_size"])
    return {"alpha": out["alpha"],
            "checks": [[c["name"], c["detail"].replace(size, "{size}", 1)
                        if c["detail"].startswith(size + " ") else c["detail"]]
                       for c in out["checks"]]}


def main() -> int:
    golden: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.txt"
        for wl in corpus.WORKLOADS.values():
            keys = sorted({k for slot in wl.slots for k in slot.pool})
            for key in keys:
                g = corpus.build(families, key)
                rec = golden.setdefault(key, {"n": g.n, "m": g.m})
                rec[wl.command] = record(wl.command, wl.options, g, path)
                # the slots select on these two properties
                if wl.command == "exact":
                    rec["nodes"] = rec["exact"]["nodes"]
            print(f"{wl.name}: {len(keys)} members", file=sys.stderr)
    with open(corpus.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
