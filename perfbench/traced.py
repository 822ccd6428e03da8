"""Traced run: per-layer metrics from in-process calls.

The per-layer metrics span layers that only some workloads reach, so the
traced run takes the traced slots of all four workloads, whichever
``--workload`` names.  Each job calls ``alphabound.cli.main`` in-process with
the arguments the end-to-end run passes to the subprocess.  The public
functions that ``cli``, ``bounds`` and ``witness`` look up at call time are
replaced, in this process only, by wrappers that record a span (name, start,
end, parent, job) and count calls.  Verify jobs also call
``brooks_coloring`` on their graph, because the peel reaches the Brooks
colouring through a private helper.

Rounds alternate a traced pass and an untraced pass over the same jobs;
``trace.overhead_ratio`` compares their job times.  Spans stay in memory and
are written to ``spans.jsonl`` in the work directory when the run ends.

Counters are cross-checked against the trace ``peel_witness`` returns: one
``select_peel_vertex`` call per ``PeelStep``, and base cases by kind equal to
this module's own classification of the pieces that ``components_within``
hands back to the peel recursion.  A disagreement fails the job.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import check
import corpus

STARTUP_SAMPLES = 5
LAST_ROUND_START_S = 60


class Tracer:
    def __init__(self):
        self.spans: list[list] = []         # [name, start, end, parent, job]
        self.stack: list[int] = []
        self.job = None
        self.data: dict = defaultdict(lambda: defaultdict(list))
        self._patches: list[tuple] = []

    def open(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else None, self.job])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def patch(self, module, attr: str, name: str, hook=None) -> None:
        """Replace ``module.attr`` with a wrapper recording span ``name``;
        ``hook(job_data, result, error, args, caller)`` sees every call."""
        fn = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            caller = sys._getframe(1).f_code.co_name
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if hook:
                    hook(tracer.data[tracer.job], None, exc, args, caller)
                raise
            finally:
                tracer.close(idx)
            if hook:
                hook(tracer.data[tracer.job], result, None, args, caller)
            return result

        self._patches.append((module, attr, fn, traced))

    def install(self, on: bool) -> None:
        for module, attr, original, traced in self._patches:
            setattr(module, attr, traced if on else original)


def _instrument(tracer: Tracer):
    from alphabound import bounds, cli, witness
    from alphabound.exact import BudgetExceeded

    def on_load(d, g, exc, args, caller):
        if g is not None and "graph" not in d:
            d["graph"] = g
            d["bytes"] = os.path.getsize(args[0])

    def on_peel(d, result, exc, args, caller):
        if result is not None:
            d["witness"].append(result)

    def on_components(d, comps, exc, args, caller):
        if caller == "rec" and comps is not None:
            d["pieces"].extend(comps)

    def on_exact(d, result, exc, args, caller):
        if result is not None:
            d["nodes"].append(result.nodes_explored)
        elif isinstance(exc, BudgetExceeded):
            d["nodes"].append(exc.nodes)
            d["budget_exceeded"].append(1)

    def on_cliques(d, result, exc, args, caller):
        if result is not None:
            d["cliques"].append(len(result))

    for module in (cli, bounds, witness):
        tracer.patch(module, "require_in_class", "graphcore.require_in_class")
    for module in (cli, bounds):
        tracer.patch(module, "degree_profile", "graphcore.degree_profile")
    tracer.patch(cli, "load_graph", "graphcore.load_graph", on_load)
    tracer.patch(cli, "bound_report", "bounds.bound_report")
    tracer.patch(cli, "render_decimal", "coeffs.render_decimal")
    tracer.patch(cli, "peel_witness", "witness.peel_witness", on_peel)
    tracer.patch(cli, "check_clique_weighting", "witness.check_clique_weighting")
    tracer.patch(cli, "clipped_weights", "witness.clipped_weights")
    tracer.patch(cli, "exact_alpha", "exact.exact_alpha", on_exact)
    tracer.patch(witness, "select_peel_vertex", "witness.select_peel_vertex")
    tracer.patch(witness, "components_within", "graphcore.components_within",
                 on_components)
    tracer.patch(witness, "enumerate_maximal_cliques",
                 "witness.enumerate_maximal_cliques", on_cliques)


def classify(g, piece) -> str:
    """What the peel recursion does with ``piece``: a base case by kind, or
    'peel'."""
    members = set(piece)
    degs = [sum(1 for w in g.adj[v] if w in members) for v in piece]
    if all(d == len(members) - 1 for d in degs):
        return "complete"
    if min(degs) == max(degs):
        return "cycle" if degs[0] == 2 else "coloring"
    return "peel"


def cross_check(g, result, pieces, select_calls: int) -> tuple[dict, list[str]]:
    """Counters for one witness job, and their disagreements with its trace."""
    from alphabound.witness import PeelStep
    kinds = Counter(classify(g, p) for p in [range(g.n), *pieces])
    steps = [s for s in result.trace if isinstance(s, PeelStep)]
    trace_kinds = Counter(s.kind for s in result.trace if not isinstance(s, PeelStep))
    entries = sum(len(c) for s in steps for c in s.components)
    counters = {"peel_steps": len(steps), "select_calls": select_calls,
                "entries": entries, **{k: kinds[k] for k in ("complete", "cycle", "coloring")}}
    problems = []
    if select_calls != len(steps):
        problems.append(f"select_peel_vertex calls {select_calls} != {len(steps)} PeelSteps")
    if kinds["peel"] != len(steps):
        problems.append(f"pieces needing a peel {kinds['peel']} != {len(steps)} PeelSteps")
    for kind in ("complete", "cycle", "coloring"):
        if kinds[kind] != trace_kinds[kind]:
            problems.append(f"base {kind}: counted {kinds[kind]}, trace has {trace_kinds[kind]}")
    if entries != sum(len(p) for p in pieces):
        problems.append("component entries differ from the pieces handed back")
    return counters, problems


def loglog_slope(points: list[tuple[int, float]]) -> float:
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def startup_seconds(src: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(STARTUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import alphabound.cli"],
                       env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run(families, named: corpus.Workload, seed: int, seconds: float, work: Path) -> dict:
    from alphabound import cli
    from alphabound.graphcore import load_graph
    from alphabound.witness import brooks_coloring

    golden = corpus.load_golden()
    jobs: list[tuple[corpus.Workload, corpus.Job, Path, str]] = []
    for wl in corpus.WORKLOADS.values():
        picked = [j for j in corpus.select(wl, seed, golden) if j.traced]
        files = corpus.write(picked, families, work / f"corpus-{wl.name}")
        jobs += [(wl, j, files.paths[j.index], files.texts[j.index]) for j in picked]
    trace_path = work / "trace.json"
    facts = {i: check.Facts(text) for i, (_, _, _, text) in enumerate(jobs)}

    tracer = Tracer()
    _instrument(tracer)
    startup = startup_seconds(Path(cli.__file__).resolve().parent.parent)

    def one_pass(traced: bool, round_no: int):
        tracer.install(traced)
        walls, problems = [], defaultdict(list)
        for i, (wl, job, path, _) in enumerate(jobs):
            tracer.job = f"{round_no}/{i}" if traced else None
            argv = [wl.command, str(path),
                    *(o.replace("{trace}", str(trace_path)) for o in wl.options)]
            buf = io.StringIO()
            start = time.perf_counter()
            root = tracer.open("cli.main") if traced else None
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            except Exception as exc:        # an escaped error fails the job
                code = repr(exc)
            finally:
                if traced:
                    tracer.close(root)
            if wl.command == "verify":
                g = load_graph(path)
                probe = tracer.open("witness.brooks_coloring") if traced else None
                brooks_coloring(g)
                if traced:
                    tracer.close(probe)
            walls.append(time.perf_counter() - start)
            if code != 0:
                problems[i].append(f"exit {code}")
                continue
            try:
                out = json.loads(buf.getvalue())
                trace = json.loads(trace_path.read_bytes()) if wl.command == "witness" else None
            except (OSError, ValueError) as exc:
                problems[i].append(f"unreadable output: {exc}")
                continue
            problems[i] += check.check_output(wl.command, out, facts[i],
                                              golden[job.key][wl.command], trace)
        tracer.install(False)
        return sum(walls), problems

    rounds, traced_walls, plain_walls, failed, attempted, problems = [], [], [], 0, 0, []
    start = time.perf_counter()
    while not rounds or (time.perf_counter() - start < seconds
                         and time.perf_counter() - start < LAST_ROUND_START_S):
        round_no = len(rounds)
        first = len(tracer.spans)
        wall, traced_problems = one_pass(True, round_no)
        traced_walls.append(wall)
        wall, plain_problems = one_pass(False, round_no)
        plain_walls.append(wall)
        metrics, report, round_problems = layer_metrics(
            tracer, tracer.spans[first:], jobs, round_no)
        rounds.append(metrics)
        for i, (wl, job, _, _) in enumerate(jobs):
            found = traced_problems[i] + plain_problems[i] + round_problems[i]
            attempted += 2
            failed += bool(traced_problems[i] + round_problems[i]) + bool(plain_problems[i])
            problems += [f"{job.key} ({wl.name}): {p}" for p in found]

    with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
        for name, s, e, parent, job in tracer.spans:
            fh.write(json.dumps({"name": name, "start": s, "end": e,
                                 "parent": parent, "job": job}) + "\n")
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"traced run: {len(jobs)} jobs from all four workloads (named: {named.name}), "
          f"{len(rounds)} round(s), {len(tracer.spans)} spans")
    for line in report:
        print(line)
    final = {k: statistics.median(r[k][0] for r in rounds) for k in rounds[0]}
    final["cli.startup_s"] = startup
    final["trace.overhead_ratio"] = statistics.median(
        t / p for t, p in zip(traced_walls, plain_walls))
    units = {k: v[1] for k, v in rounds[0].items()}
    units.update({"cli.startup_s": "s", "trace.overhead_ratio": "ratio"})
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": final[k], "unit": units[k]} for k in sorted(final)}}


def layer_metrics(tracer: Tracer, spans: list[list], jobs, round_no: int):
    """Per-layer metrics of one traced pass as name -> (value, unit), the
    lines reporting the ladder fits, and the cross-check problems by job."""
    workload_of = {f"{round_no}/{i}": wl.name for i, (wl, _, _, _) in enumerate(jobs)}
    total = defaultdict(float)
    count = Counter()
    self_time = []
    children = defaultdict(float)
    base = len(tracer.spans) - len(spans)
    for name, s, e, parent, job in spans:
        wl = workload_of[job]
        total[name, wl] += e - s
        count[name, wl] += 1
        if parent is not None:
            children[parent] += e - s
    for offset, (name, s, e, parent, job) in enumerate(spans):
        if name == "cli.main":
            self_time.append(e - s - children[base + offset])

    def t(name, *wls):
        return sum(total[name, w] for w in wls)

    def c(name, *wls):
        return sum(count[name, w] for w in wls)

    W, E, B, V = "witness-sparse", "exact-sparse", "bound-large", "verify-regular"
    n_bound = sum(1 for wl, _, _, _ in jobs if wl.name == B)
    problems = defaultdict(list)
    sums = Counter()
    peel_points, brooks_points, report = [], [], []
    nodes = exceeded = cliques = loaded = 0
    for i, (wl, job, _, _) in enumerate(jobs):
        d = tracer.data.pop(f"{round_no}/{i}", {})
        g = d.get("graph")
        job_spans = [sp for sp in spans if sp[4] == f"{round_no}/{i}"]
        if wl.name == W and d.get("witness"):
            selects = sum(1 for sp in job_spans if sp[0] == "witness.select_peel_vertex")
            counters, found = cross_check(g, d["witness"][0], d["pieces"], selects)
            problems[i] += found
            sums.update(counters)
            if job.ladder:
                peel = sum(sp[2] - sp[1] for sp in job_spans if sp[0] == "witness.peel_witness")
                peel_points.append((g.n, peel))
                report.append(f"peel ladder point: n={g.n} m={g.m} peel_witness={peel:.4f}s")
        if wl.name == V and job.ladder and g is not None:
            brooks = sum(sp[2] - sp[1] for sp in job_spans if sp[0] == "witness.brooks_coloring")
            brooks_points.append((g.n, brooks))
            report.append(f"brooks ladder point: n={g.n} m={g.m} brooks_coloring={brooks:.4f}s")
        nodes += sum(d.get("nodes", []))
        exceeded += len(d.get("budget_exceeded", []))
        cliques += sum(d.get("cliques", []))
        if wl.name == B:
            loaded += d.get("bytes", 0)
    peel_slope = loglog_slope(peel_points)
    brooks_slope = loglog_slope(brooks_points)
    report.append(f"witness.peel_slope {peel_slope:.3f} over {len(peel_points)} points")
    report.append(f"witness.brooks_slope {brooks_slope:.3f} over {len(brooks_points)} points")
    exact_s = t("exact.exact_alpha", E)
    metrics = {
        "cli.self_s": (statistics.fmean(self_time), "s"),
        "graphcore.load_graph_s": (t("graphcore.load_graph", B), "s"),
        "graphcore.parse_mb_per_s": (loaded / 1e6 / t("graphcore.load_graph", B), "MB/s"),
        "graphcore.require_in_class_calls": (c("graphcore.require_in_class", B) / n_bound, "count"),
        "graphcore.degree_profile_calls": (c("graphcore.degree_profile", B) / n_bound, "count"),
        "graphcore.components_within_calls": (c("graphcore.components_within", W, V), "count"),
        "graphcore.components_within_s": (t("graphcore.components_within", W, V), "s"),
        "bounds.bound_report_s": (t("bounds.bound_report", B), "s"),
        "coeffs.render_decimal_calls": (c("coeffs.render_decimal", B), "count"),
        "coeffs.render_decimal_s": (t("coeffs.render_decimal", B), "s"),
        "witness.peel_witness_s": (t("witness.peel_witness", W), "s"),
        "witness.select_peel_vertex_s": (t("witness.select_peel_vertex", W), "s"),
        "witness.select_peel_vertex_calls": (sums["select_calls"], "count"),
        "witness.peel_steps": (sums["peel_steps"], "count"),
        "witness.base_complete": (sums["complete"], "count"),
        "witness.base_cycle": (sums["cycle"], "count"),
        "witness.base_coloring": (sums["coloring"], "count"),
        "witness.peel_slope": (peel_slope, "exponent"),
        "witness.trace_component_entries": (sums["entries"], "count"),
        "witness.brooks_coloring_s": (t("witness.brooks_coloring", V), "s"),
        "witness.brooks_slope": (brooks_slope, "exponent"),
        "witness.enumerate_maximal_cliques_s": (t("witness.enumerate_maximal_cliques", V), "s"),
        "witness.maximal_cliques": (cliques, "count"),
        "exact.exact_alpha_s": (exact_s, "s"),
        "exact.nodes": (nodes, "count"),
        "exact.us_per_node": (exact_s / nodes * 1e6, "us"),
        "exact.budget_exceeded": (exceeded, "count"),
    }
    return metrics, report, problems
