"""Seeded corpora for the four workloads.

Every graph in a corpus is a *pool member*: a constructor from
``alphabound.families`` with fixed arguments, named by a key such as
``rc:400:12`` (``random_connected(400, 4, 12)``).  ``golden.json`` holds the
values the CLI printed for every pool member when the benchmark was defined,
plus the properties the slots select on (edge count, exact-solver nodes).

The workload seed picks the members slot by slot, and for every file the
order of its edge lines and its vertex labels.  The file format is fixed by
position, so every run holds the same mix of edge-list, DIMACS and
sparse-label files.  Sparse labels are order-preserving, so a member's
internal vertex numbering, and with it every deterministic result, is the
same in all three formats.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
FORMATS = ("edges", "dimacs", "sparse")


def build(families, key: str):
    """The graph a pool key names, built with ``alphabound.families``."""
    kind, *rest = key.split(":")
    a = [int(x) for x in rest]
    if kind == "rc":
        return families.random_connected(a[0], 4, a[1])
    if kind == "cwp":
        return families.cycle_with_pendants(a[0])
    if kind == "chain":
        return families.chain_blocks(a[0], a[1])
    if kind == "attach":
        return families.attach_cliques(a[0], a[1], a[2])
    if kind == "circ":
        return families.circulant_graph(a[0], [1, 2])
    if kind == "rb":
        return families.regular_blocks(a[0], families.regular_template(a[0], a[1]))
    raise ValueError(f"unknown pool key {key!r}")


@dataclass(frozen=True)
class Slot:
    """``pick`` distinct members (all when None) drawn from ``pool`` among
    those whose golden record passes ``keep``.  The first ``traced`` of them
    also run in the traced pass; ladder slots give the points of a log-log
    scaling fit."""

    pool: tuple[str, ...]
    pick: int | None = 1
    keep: Callable[[dict], bool] = lambda rec: True
    traced: int = 0
    ladder: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    options: tuple[str, ...]
    slots: tuple[Slot, ...]
    min_passes: int


def _grid(template: str, values) -> tuple[str, ...]:
    return tuple(template.format(v) for v in values)


def _rc(ns, seeds=range(40)) -> tuple[str, ...]:
    return tuple(f"rc:{n}:{s}" for n in ns for s in seeds)


def _density(lo: float, hi: float):
    return lambda rec: lo <= rec["m"] / rec["n"] < hi


def _nodes(lo: int, hi: int):
    return lambda rec: lo <= rec["nodes"] <= hi


EXACT_BUDGET = 100_000

WORKLOADS = {w.name: w for w in (
    Workload(
        "witness-sparse",
        "peel recursion and trace emission do almost all the work; exact and Brooks almost none",
        "witness", ("--json", "--trace", "{trace}"),
        (
            Slot(_grid("cwp:{}", range(98, 103)), traced=1, ladder=True),
            Slot(_grid("cwp:{}", range(198, 203)), traced=1, ladder=True),
            Slot(_grid("cwp:{}", range(398, 403)), traced=1, ladder=True),
            Slot(_grid("cwp:{}", range(798, 803)), traced=1, ladder=True),
            Slot(_rc([100]), pick=5),
            Slot(_rc([200]), pick=2),
            Slot(_rc([400]), keep=_density(1.25, 1.7), traced=1),
            Slot(_grid("chain:4:{}", range(398, 403))),
            Slot(_grid("attach:5:{}:2", range(23, 28)), traced=1),
        ),
        min_passes=3),
    Workload(
        "exact-sparse",
        "exact_alpha dominates with deterministic node counts; the witness never runs",
        "exact", ("--json", "--budget", str(EXACT_BUDGET)),
        (
            # The sizes are fixed, so every run holds the same vertex count.
            # The costliest tier is taken whole, and ten jobs are cheaper than
            # all of it, so the median job is always the same member of it.
            Slot(_rc([60]), keep=_nodes(1, 100)),
            Slot(_rc([90]), keep=_nodes(1, 100)),
            *(Slot(_rc([n]), keep=_nodes(101, 500), traced=n in (60, 110))
              for n in range(60, 111, 10)),
            Slot(_rc(range(60, 111, 10)), pick=None, keep=_nodes(1001, 2000), traced=2),
            Slot(_grid("chain:4:{}", range(24, 28))),
            Slot(_grid("cwp:{}", range(50, 55)), traced=1),
        ),
        min_passes=3),
    Workload(
        "bound-large",
        "parsing, bound_report and decimal rendering at n=10k-40k; witness and exact are bypassed",
        "bound", ("--json", "--delta-range", "5..12"),
        (
            # an odd number of files, so the median lands among the samples of
            # one file rather than between two sizes
            Slot(_grid("chain:4:{}", range(2490, 2511, 5)), traced=1),
            Slot(_grid("rb:3:{}", range(6660, 6681, 4))),
            Slot(_grid("cwp:{}", range(14990, 15011, 5)), traced=1),
            Slot(_grid("circ:{}", range(39950, 40051, 25)), traced=1),
            Slot(_grid("rb:4:{}", range(9990, 10011, 5)), traced=1),
        ),
        min_passes=7),
    Workload(
        "verify-regular",
        "regular members send the peel straight to the Brooks colouring, and the clique check enumerates maximal cliques",
        "verify", ("--json",),
        (
            Slot(_grid("circ:{}", range(296, 305, 2)), traced=1, ladder=True),
            Slot(_grid("circ:{}", range(596, 605, 2)), traced=1, ladder=True),
            Slot(_grid("circ:{}", range(896, 905, 2)), traced=1, ladder=True),
            Slot(_grid("circ:{}", range(1196, 1205, 2)), traced=1, ladder=True),
            Slot(_grid("rb:3:{}", range(96, 105, 2))),
            Slot(_grid("rb:4:{}", range(98, 103))),
            Slot(_grid("rb:4:{}", range(198, 203))),
            Slot(_grid("rb:5:{}", range(58, 63, 2)), traced=1),
            Slot(_grid("rb:6:{}", range(48, 53))),
        ),
        min_passes=5),
)}


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Job:
    """One CLI invocation: a pool member written in one format."""

    index: int
    workload: str
    key: str
    fmt: str
    shuffle_seed: int
    traced: bool
    ladder: bool


def select(workload: Workload, seed: int, golden: dict) -> list[Job]:
    """The seeded job list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload.name}/{seed}")
    jobs: list[Job] = []
    for slot_no, slot in enumerate(workload.slots):
        pool = [k for k in slot.pool if slot.keep(golden[k])]
        pick = len(pool) if slot.pick is None else slot.pick
        if not 0 < pick <= len(pool):
            raise ValueError(f"{workload.name}: slot {slot_no} has {len(pool)} "
                             f"members, needs {pick}")
        for i, key in enumerate(rng.sample(pool, pick)):
            fmt = FORMATS[len(jobs) % len(FORMATS)]
            jobs.append(Job(len(jobs), workload.name, key, fmt,
                            rng.randrange(1 << 32), i < slot.traced, slot.ladder))
    return jobs


def render(g, fmt: str, shuffle_seed: int) -> str:
    """File text for graph ``g``: edge lines in seeded order, endpoints in
    seeded orientation, labels order-preserving."""
    rng = random.Random(shuffle_seed)
    edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in g.edges()]
    rng.shuffle(edges)
    if fmt == "dimacs":
        lines = [f"p edge {g.n} {g.m}"]
        lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    elif fmt == "sparse":
        labels = sorted(rng.sample(range(1 << 30), g.n))
        lines = [f"# sparse labels, n={g.n}"]
        lines += [f"{labels[u]} {labels[v]}" for u, v in edges]
    else:
        lines = [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


@dataclass
class Corpus:
    jobs: list[Job]
    texts: dict[int, str]           # job index -> file text
    paths: dict[int, Path]
    digest: str                     # sha256 over every file, in job order


def write(jobs: list[Job], families, directory: Path) -> Corpus:
    """Build and write every job's file under ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    texts, paths = {}, {}
    whole = hashlib.sha256()
    graphs: dict[str, object] = {}
    for job in jobs:
        if job.key not in graphs:
            graphs[job.key] = build(families, job.key)
        text = render(graphs[job.key], job.fmt, job.shuffle_seed)
        path = directory / f"{job.index:03d}-{job.key.replace(':', '_')}.{job.fmt}.txt"
        data = text.encode()
        path.write_bytes(data)
        whole.update(hashlib.sha256(data).digest())
        texts[job.index] = text
        paths[job.index] = path
    return Corpus(jobs, texts, paths, whole.hexdigest())
