"""Benchmark for the alphabound CLI on four seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload witness-sparse --seed 1 --seconds 20 --trace 0

``--trace 0`` measures end to end.  One client runs the workload's corpus
through ``python -m alphabound.cli``, one subprocess per graph file, in a
closed loop: pass after pass until ``--seconds`` have gone by and the
workload's minimum number of passes is done.  Every output is checked by
``check.py``.  ``--trace 1`` runs ``traced.py`` instead, which calls the same
functions in-process and reports the per-layer metrics.

Set-up (building and writing the corpus from the seed, then one warm-up
job) runs three times and reports the median.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it record the environment and the corpus digest.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import corpus  # noqa: E402

SETUP_REPEATS = 3
JOB_TIMEOUT_S = 100
# A shared host can run Python at very different speeds from one second to
# the next: on a shared 2-vCPU x86_64 host a fixed loop took 0.054 s to
# 0.14 s within one minute, as other tenants loaded the machine.  So each
# end-to-end time is scaled by the speed of a reference workload measured
# right before and right after it, to the speed at which the reference takes
# this long.
REFERENCE_NOMINAL_S = 0.004
# no pass starts after this, so a run ends well inside its 180 s limit
LAST_PASS_START_S = 90


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout


def spawn(argv: list[str], env: dict, out_path: Path, err_path: Path):
    """Run one process to completion; return (wall seconds, exit code or
    None on timeout, peak RSS in KiB)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    signal.alarm(JOB_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    except JobTimeout:
        os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        return time.perf_counter() - start, None, usage.ru_maxrss
    finally:
        signal.alarm(0)
    return time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss


def reference_s() -> float:
    """Median time of five runs of a fixed pure-Python workload that, like
    the CLI, mixes interpreter loops with parsing and allocation."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        table = {}
        for i in range(10_000):
            table[i & 255] = i
        words = " ".join(str(i * 7919 % 4999) for i in range(4000)).split()
        sorted({(int(a), int(b)) for a, b in zip(words, words[1:])})
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def at_nominal_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between references ``before`` and ``after``,
    scaled to nominal machine speed."""
    return seconds * REFERENCE_NOMINAL_S * 2 / (before + after)


def tail_percentile(samples: int) -> int:
    """Highest of 99, 95, 90, ..., 50 that leaves at least ten of
    ``samples`` beyond it."""
    for p in (99, *range(95, 49, -5)):
        if samples - math.ceil(p * samples / 100) >= 10:
            return p
    return 50


def percentile(values: list[float], p: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def load_families(traced: bool):
    """``alphabound.families`` from this checkout.  The end-to-end run
    loads it without the package ``__init__``, so the process that checks
    outputs never imports the witness code."""
    if traced:
        sys.path.insert(0, str(SRC))
    else:
        pkg = types.ModuleType("alphabound")
        pkg.__path__ = [str(SRC / "alphabound")]
        sys.modules["alphabound"] = pkg
    return importlib.import_module("alphabound.families")


@dataclass
class Runner:
    """Runs and checks the jobs of one workload through the CLI."""

    workload: corpus.Workload
    golden: dict
    work: Path
    env: dict = field(init=False)
    facts: dict = field(default_factory=dict)

    def __post_init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("ALPHABOUND_BUDGET", None)

    def argv(self, path: Path) -> list[str]:
        trace = str(self.work / "trace.json")
        return [sys.executable, "-m", "alphabound.cli", self.workload.command,
                str(path), *(o.replace("{trace}", trace) for o in self.workload.options)]

    def run(self, job: corpus.Job, files: corpus.Corpus):
        """(wall seconds, peak RSS KiB, bytes written, problems)."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        wall, code, rss = spawn(self.argv(files.paths[job.index]), self.env,
                                out_path, err_path)
        written = out_path.stat().st_size
        if code != 0:
            err = err_path.read_text(errors="replace").strip().splitlines()
            return wall, rss, written, [f"exit {code}: {err[-1] if err else ''}"]
        trace = None
        try:
            out = json.loads(out_path.read_bytes())
            if self.workload.command == "witness":
                trace_path = self.work / "trace.json"
                written += trace_path.stat().st_size
                trace = json.loads(trace_path.read_bytes())
                trace_path.unlink()
        except (OSError, ValueError) as exc:
            return wall, rss, written, [f"unreadable output: {exc}"]
        if job.index not in self.facts:
            self.facts[job.index] = check.Facts(files.texts[job.index])
        problems = check.check_output(self.workload.command, out, self.facts[job.index],
                                      self.golden[job.key][self.workload.command], trace)
        return wall, rss, written, problems


def set_up(runner: Runner, seed: int, families) -> tuple[corpus.Corpus, list[float], list[str]]:
    """Build, write and warm up SETUP_REPEATS times; check that every
    repetition wrote byte-identical files and that the next seed picks other
    random members."""
    wl = runner.workload
    times, digests, problems = [], [], []
    files = None
    for rep in range(SETUP_REPEATS):
        directory = runner.work / f"corpus{rep}"
        before = reference_s()
        start = time.perf_counter()
        jobs = corpus.select(wl, seed, runner.golden)
        files = corpus.write(jobs, families, directory)
        warm = min(jobs, key=lambda j: runner.golden[j.key]["n"])
        _, code, _ = spawn(runner.argv(files.paths[warm.index]), runner.env,
                           runner.work / "stdout", runner.work / "stderr")
        times.append(at_nominal_speed(time.perf_counter() - start, before, reference_s()))
        digests.append(files.digest)
        if code != 0:
            problems.append(f"warm-up job exited {code}")
        if rep:
            shutil.rmtree(runner.work / f"corpus{rep - 1}")
    if len(set(digests)) != 1:
        problems.append(f"same seed wrote different files: {digests}")
    random_members = [j.key for j in files.jobs if j.key.startswith("rc:")]
    other = [j.key for j in corpus.select(wl, seed + 1, runner.golden)
             if j.key.startswith("rc:")]
    if random_members and random_members == other:
        problems.append("seeds differing by one picked the same random members")
    return files, times, problems


def run_end_to_end(wl: corpus.Workload, seed: int, seconds: float, work: Path) -> dict:
    families = load_families(traced=False)
    runner = Runner(wl, corpus.load_golden(), work)
    files, setup_times, problems = set_up(runner, seed, families)
    print(f"corpus: {len(files.jobs)} files, sha256 {files.digest}")

    samples, walls, rates, written, peak_kib, failed = [], [], [], [], 0, 0
    start = time.perf_counter()
    before = reference_s()
    while len(rates) < wl.min_passes or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > LAST_PASS_START_S:
            break
        busy = vertices = out_bytes = 0
        for job in files.jobs:
            wall, rss, nbytes, job_problems = runner.run(job, files)
            after = reference_s()
            samples.append(at_nominal_speed(wall, before, after))
            walls.append(wall)
            before = after
            busy += samples[-1]
            vertices += runner.golden[job.key]["n"]
            out_bytes += nbytes
            peak_kib = max(peak_kib, rss)
            if job_problems:
                failed += 1
                problems.append(f"{job.key} ({job.fmt}): {'; '.join(job_problems)}")
        # client think time (the checks between jobs) is not part of a pass
        rates.append(vertices / busy)
        written.append(out_bytes)

    tail_p = tail_percentile(len(files.jobs) * wl.min_passes)
    attempted = len(samples)
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"passes: {len(rates)} ({', '.join(f'{r:.1f}' for r in rates)} vertices/s); "
          f"job samples: {attempted}; tail: p{tail_p} "
          f"({attempted - math.ceil(tail_p * attempted / 100)} samples beyond)")
    print(f"failed_ratio: {failed / attempted} ({failed} of {attempted} jobs)")
    print(f"unscaled wall time: job p50 {statistics.median(walls):.4f} s, "
          f"p{tail_p} {percentile(walls, tail_p):.4f} s, "
          f"{sum(runner.golden[j.key]['n'] for j in files.jobs) * len(rates) / sum(walls):.1f} vertices/s")
    metrics = {
        "vertices_per_s": (statistics.median(rates), "1/s"),
        "job_p50_s": (statistics.median(samples), "s"),
        "job_tail_s": (percentile(samples, tail_p), "s"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
        "output_mb": (statistics.median(written) / 1e6, "MB"),
    }
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "alphabound" / "cli.py").is_file():
        print(f"error: no alphabound sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    wl = corpus.WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print(f"environment: python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"{platform.machine()}, workload {wl.name}, seed {args.seed}, "
          f"seconds {args.seconds}, trace {args.trace}")
    try:
        if args.trace:
            import traced
            result = traced.run(load_families(traced=True), wl, args.seed,
                                args.seconds, work)
        else:
            result = run_end_to_end(wl, args.seed, args.seconds, work)
    finally:
        for leftover in work.glob("corpus*"):
            shutil.rmtree(leftover)
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
