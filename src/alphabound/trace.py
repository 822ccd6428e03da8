"""The witness trace file, version 2: its writer and its reader.

A trace is the peel's steps in pre-order.  Each record is a step's fields,
with ``kind`` written as ``type`` and a peel step typed ``"peel"``; a peel
record's ``components`` are the indices of the steps that settle them.
:func:`write` puts the other top-level keys on the first line, then one
record per line, and closes with ``]}``; exact values are strings such as
``"7/8"``.  :func:`pieces` recovers from the records alone the vertices
each step settles.
"""

from __future__ import annotations

import json
from fractions import Fraction

VERSION = 2


def records(steps) -> list[dict]:
    """The steps' records as written.  Each step after the first is the
    next child of the nearest peel step still short of children."""
    out = []
    parents = []    # (children, count) of peel records still short, innermost last
    for i, step in enumerate(steps):
        if parents:
            children, count = parents[-1]
            children.append(i)
            if len(children) == count:
                parents.pop()
        fields = step._asdict()
        fields["type"] = fields.pop("kind", "peel")
        if "components" in fields:
            count = len(fields["components"])
            fields["components"] = []
            if count:
                parents.append((fields["components"], count))
        out.append(fields)
    return out


def _json_default(value):
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write(file, graph: str, result) -> None:
    """Write the trace of the witness ``result`` for the graph file named
    ``graph`` to the open text file ``file``.  Every record is encoded
    before the first byte is written, so a value JSON cannot encode leaves
    the file as it was."""
    head = json.dumps({
        "graph": graph,
        "independent_set": list(result.independent_set),
        "certified_bound": str(result.certified_bound),
        "version": VERSION,
    }, sort_keys=True)
    steps = ",\n".join(json.dumps(r, sort_keys=True, default=_json_default)
                       for r in records(result.trace))
    file.write(head[:-1] + ', "steps": [\n')
    file.write(steps)
    file.write("\n]}\n")


def pieces(records) -> list[list[int]]:
    """The sorted vertices each record settles, from the last record back:
    a base record's are its ``vertices``, and a peel record's are its
    ``vertex``, ``neighbors``, ``isolated`` and those of the records its
    ``components`` name."""
    settled = [None] * len(records)
    for i in reversed(range(len(records))):
        r = records[i]
        if r["type"] != "peel":
            settled[i] = sorted(r["vertices"])
            continue
        settled[i] = sorted([r["vertex"], *r["neighbors"], *r["isolated"],
                             *(v for j in r["components"] for v in settled[j])])
    return settled
