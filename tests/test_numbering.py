"""Results that are graph invariants do not depend on the vertex numbering,
and neither do the costs of the Brooks colouring and of clique enumeration."""

import io
import json
import random
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from test_graph import reference_components
from test_witness import CountingGraph, CountingSet, _regular_member

from alphabound import cli
from alphabound.bounds import bound_report, c_bound
from alphabound.exact import exact_alpha
from alphabound.families import (chain_blocks, circulant_graph,
                                 cycle_with_pendants, petersen_graph,
                                 random_connected, regular_blocks,
                                 regular_template)
from alphabound.graphcore import Graph, is_independent, write_dimacs
from alphabound.witness import (brooks_coloring, enumerate_maximal_cliques,
                                peel_witness)


def gadget_ring(k: int, inner_first: bool) -> Graph:
    """k copies of K4 minus an edge, chained in a ring from outer vertex to
    outer vertex: 3-regular, two-connected, n = 4k.  With ``inner_first``
    the two inner vertices of every gadget are numbered before any outer
    vertex, so the split-triple search fails at each of the first n/2
    vertices before it succeeds."""
    edges = []
    for i in range(k):
        if inner_first:
            b, c, a, d = 2 * i, 2 * i + 1, 2 * k + 2 * i, 2 * k + 2 * i + 1
            after = 2 * k + 2 * ((i + 1) % k)
        else:
            a, b, c, d = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
            after = 4 * ((i + 1) % k)
        edges += [(a, b), (a, c), (b, c), (b, d), (c, d), (d, after)]
    return Graph(4 * k, edges)


def test_brooks_and_peel_on_the_inner_first_ring():
    g = gadget_ring(50, inner_first=True)
    # cubic and two-connected, so the colouring takes the split-triple path
    assert min(map(len, g.adj)) == g.max_degree() == 3 and g.is_connected()
    assert all(len(reference_components(g, set(range(g.n)) - {v})) == 1
               for v in range(g.n))
    colors = brooks_coloring(g)
    assert all(colors[u] != colors[v] for u, v in g.edges())
    assert set(colors.values()) <= {0, 1, 2}
    res = peel_witness(g)
    assert len(res.independent_set) >= res.certified_bound == c_bound(g)


def _best_of_three(g: Graph) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        brooks_coloring(g)
        best = min(best, time.perf_counter() - start)
    return best


def test_brooks_cost_does_not_depend_on_the_numbering():
    # a split-triple attempt that fails costs only its search, which here
    # reaches two vertices; a copy of the piece per attempt made the
    # inner-first numbering quadratic, over 10 times the natural one here
    natural = _best_of_three(gadget_ring(4000, inner_first=False))
    inner_first = _best_of_three(gadget_ring(4000, inner_first=True))
    assert inner_first < 4 * natural


class_members = st.one_of(
    st.integers(3, 5).flatmap(lambda delta: st.builds(
        random_connected, st.integers(delta + 2, 24), st.just(delta),
        st.integers(0, 10_000))),
    st.builds(_regular_member, st.integers(3, 5), st.integers(6, 9)),
    st.builds(chain_blocks, st.integers(3, 4), st.integers(2, 3)),
    st.builds(cycle_with_pendants, st.integers(3, 10)),
    st.builds(circulant_graph, st.integers(7, 20), st.just((1, 2))),
    st.just(petersen_graph()),
    st.just(gadget_ring(4, inner_first=False)),
)


@st.composite
def relabelled(draw):
    g = draw(class_members)
    perm = draw(st.permutations(range(g.n)))
    return g, perm, Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@given(relabelled())
@settings(max_examples=150, deadline=None)
def test_invariants_survive_relabelling(case):
    g, perm, h = case
    assert bound_report(h) == bound_report(g)
    assert exact_alpha(h).alpha == exact_alpha(g).alpha
    res = peel_witness(h)
    assert is_independent(h, res.independent_set)
    assert len(res.independent_set) >= c_bound(h)
    colors = brooks_coloring(h)
    assert all(colors[u] != colors[v] for u, v in h.edges())
    assert max(colors.values()) < h.max_degree()
    assert ({frozenset(perm[v] for v in c) for c in enumerate_maximal_cliques(g)}
            == set(map(frozenset, enumerate_maximal_cliques(h))))


def _verify_json(g: Graph) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.dimacs"
        path.write_text(write_dimacs(g), encoding="ascii")
        out = io.StringIO()
        with redirect_stdout(out):
            cli.main(["verify", str(path), "--json"])
    return json.loads(out.getvalue())


def _verdict(report: dict):
    # the witness size is left out: which set the peel finds depends on
    # the numbering, since ties go to the smaller index
    checks = report["checks"]
    clique = next(c["detail"] for c in checks if c["name"].startswith("clipped weighting"))
    return report["ok"], report["alpha"], [c["name"] for c in checks], clique


@given(relabelled())
@settings(max_examples=100, deadline=None)
def test_verify_verdict_survives_relabelling(case):
    g, _, h = case
    verdict = _verdict(_verify_json(g))
    assert verdict[0] is True and verdict[3].startswith("total ")
    assert _verdict(_verify_json(h)) == verdict


def _pivot_intersections(g: Graph) -> int:
    counted = CountingGraph(g.n, g.edges())
    before = CountingSet.calls
    enumerate_maximal_cliques(counted)
    return CountingSet.calls - before


def test_clique_cost_does_not_depend_on_the_numbering():
    # the search starts at the root, so no vertex order is built from the
    # numbering; each top-level branch costs about its degree either way
    for g in (circulant_graph(2000, [1, 2]),
              regular_blocks(4, regular_template(4, 200))):
        natural = _pivot_intersections(g)
        for seed in range(5):
            perm = list(range(g.n))
            random.Random(seed).shuffle(perm)
            h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert _pivot_intersections(h) <= 2 * natural
