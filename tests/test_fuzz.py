"""Black-box fuzz of the commands that read a graph file, run through
``cli.main`` on small graphs (n <= 10) written as edge lists, with dense,
1-based or sparse vertex numbers, or as DIMACS files: class members, near
misses (K_{Δ+1}, disconnected, Δ < 3, duplicate edges, a DIMACS header
counting one vertex too few or too many) and corrupted bytes."""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from alphabound.cli import main

COMMANDS = ("bound", "witness", "verify", "exact")
CLASS_COMMANDS = ("bound", "witness", "verify")     # refuse out-of-class graphs


@st.composite
def edge_sets(draw):
    """Edges on 0..n-1 with n <= 10: random, complete, or random within
    two parts with no edge between them."""
    shape = draw(st.sampled_from(("random", "complete", "two-parts")))
    if shape == "complete":
        k = draw(st.integers(1, 6))
        return [(u, v) for u in range(k) for v in range(u + 1, k)]
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, k in zip(pairs, keep) if k]
    if shape == "two-parts":
        cut = draw(st.integers(0, n))
        edges = [(u, v) for u, v in edges if (u < cut) == (v < cut)]
    return edges


@st.composite
def graph_files(draw):
    edges = draw(edge_sets())
    form = draw(st.sampled_from(("dense", "one-based", "sparse", "dimacs")))
    if form == "one-based":
        edges = [(u + 1, v + 1) for u, v in edges]
    elif form == "sparse":      # sparse vertex numbers, in the same order
        names = sorted(draw(st.sets(st.integers(0, 99), min_size=10, max_size=10)))
        edges = [(names[u], names[v]) for u, v in edges]
    if edges:                   # repeat some edges, either way round
        again = draw(st.lists(st.sampled_from(edges), max_size=3))
        edges += [(v, u) if draw(st.booleans()) else (u, v) for u, v in again]
    edges = draw(st.permutations(edges))
    if form == "dimacs":
        n = max(max(e) for e in edges) + 1 if edges else 0
        lines = [f"p edge {n + draw(st.integers(-1, 1))} {len(edges)}",
                 *(f"e {u + 1} {v + 1}" for u, v in edges)]
        lines.insert(draw(st.integers(0, len(lines))), "c a comment")
    else:
        lines = [f"{u} {v}" for u, v in edges]
    data = "".join(line + "\n" for line in lines).encode()
    if draw(st.integers(0, 7)) == 0:       # corrupt: insert a few bytes
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]
    return data


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(data=graph_files())
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_commands_on_small_files(data, tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    results = {command: run([command, str(path)]) for command in COMMANDS}
    for code, _, err in results.values():
        assert code in (0, 1, 2, 3) and "Traceback" not in err
        if code == 2:           # a refused file names the line at fault
            assert err.startswith((f"error: {path}: line ", "error: not in class: ")), err
    refusals = {(results[c][0], results[c][2]) for c in CLASS_COMMANDS}
    if any(code == 2 for code, _ in refusals):
        # one input contract: the same refusal from every command
        assert len(refusals) == 1
    if results["bound"][0] == 0:           # a class member
        assert results["verify"][0] == 0, results["verify"][1]
