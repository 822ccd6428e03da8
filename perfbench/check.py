"""Checks on CLI output that share no code with the library under test.

The graph is re-read from the file text with this module's own parser, and
the weighted bound is recomputed with its own backward recursion
(c_delta = 1/delta, i*c_i + c_{i+1} = 1).  Strings the checks cannot derive
(decimal renderings, the Euler bound, alpha) are compared with the values in
``golden.json``.  Each check returns a list of problems; empty means pass.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction


class Facts:
    """What the checks need from one graph file."""

    def __init__(self, text: str):
        rows = [line.split("#", 1)[0].split() for line in text.splitlines()]
        rows = [r for r in rows if r]
        if rows and rows[0][0] == "p":
            n = int(rows[0][2])
            pairs = [(int(r[1]) - 1, int(r[2]) - 1) for r in rows[1:]]
        else:
            raw = [(int(a), int(b)) for a, b in rows]
            ids = sorted({x for pair in raw for x in pair})
            rank = {x: i for i, x in enumerate(ids)}
            n = len(ids)
            pairs = [(rank[a], rank[b]) for a, b in raw]
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in pairs:
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.m = sum(len(a) for a in adj) // 2
        self.classes = Counter(len(a) for a in adj)
        self.delta = max(self.classes)
        self.weighted = weighted_bound(self.classes)
        self.adj = adj

    def independence_problems(self, vertices) -> list[str]:
        vs = list(vertices)
        chosen = set(vs)
        if len(chosen) != len(vs):
            return ["set lists a vertex twice"]
        if any(not isinstance(v, int) or not 0 <= v < self.n for v in vs):
            return ["set names a vertex out of range"]
        for v in vs:
            if self.adj[v] & chosen:
                return [f"set is not independent at vertex {v}"]
        return []


def weighted_bound(classes: Counter) -> Fraction:
    """sum over degrees i of c_i * |V_i|, for the maximum degree present."""
    delta = max(classes)
    c = [Fraction(0)] * (delta + 1)
    c[delta] = Fraction(1, delta)
    for i in range(delta - 1, 0, -1):
        c[i] = (1 - c[i + 1]) / i
    return sum((c[i] * k for i, k in classes.items() if i > 0), Fraction(0))


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def check_witness(out: dict, facts: Facts, golden: dict, trace: dict) -> list[str]:
    problems = facts.independence_problems(out["independent_set"])
    size = out["size"]
    _expect(problems, "size", size, len(out["independent_set"]))
    bound = Fraction(out["bound"])
    _expect(problems, "certified bound", bound, facts.weighted)
    if size < bound:
        problems.append(f"size {size} below certified bound {bound}")
    _expect(problems, "bound", out["bound"], golden["bound"])
    _expect(problems, "bound_decimal", out["bound_decimal"], golden["bound_decimal"])
    _expect(problems, "trace certified_bound", trace["certified_bound"], out["bound"])
    _expect(problems, "trace independent_set", trace["independent_set"],
            out["independent_set"])
    _expect(problems, "trace steps", len(trace["steps"]), out["steps"])
    return problems


def check_exact(out: dict, facts: Facts, golden: dict) -> list[str]:
    problems = facts.independence_problems(out["optimal_set"])
    _expect(problems, "alpha", out["alpha"], golden["alpha"])
    _expect(problems, "optimal set size", len(out["optimal_set"]), out["alpha"])
    return problems


def check_bound(out: dict, facts: Facts, golden: dict) -> list[str]:
    problems: list[str] = []
    _expect(problems, "n", out["n"], facts.n)
    _expect(problems, "m", out["m"], facts.m)
    _expect(problems, "delta", out["delta"], facts.delta)
    _expect(problems, "degree classes", out["degree_classes"],
            {str(i): k for i, k in sorted(facts.classes.items())})
    _expect(problems, "weighted bound", out["bounds"]["weighted"]["exact"],
            str(facts.weighted))
    _expect(problems, "bounds", out["bounds"], golden["bounds"])
    _expect(problems, "best", out["best"], golden["best"])
    return problems


def check_verify(out: dict, facts: Facts, golden: dict) -> list[str]:
    problems: list[str] = []
    _expect(problems, "ok", out["ok"], True)
    _expect(problems, "alpha", out["alpha"], golden["alpha"])
    _expect(problems, "delta", out["delta"], facts.delta)
    size = out["witness_size"]
    if size < facts.weighted:
        problems.append(f"witness size {size} below weighted bound {facts.weighted}")
    got = [(c["name"], c["ok"], c["detail"]) for c in out["checks"]]
    want = [(name, True, detail.format(size=size))
            for name, detail in golden["checks"]]
    _expect(problems, "checks", got, want)
    return problems


def check_output(command: str, out: dict, facts: Facts, golden: dict,
                 trace: dict | None = None) -> list[str]:
    """Problems with one job's JSON output; a missing key counts as one."""
    try:
        if command == "witness":
            return check_witness(out, facts, golden, trace)
        if command == "exact":
            return check_exact(out, facts, golden)
        if command == "bound":
            return check_bound(out, facts, golden)
        return check_verify(out, facts, golden)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed output: {exc!r}"]
