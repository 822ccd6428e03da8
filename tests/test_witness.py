import hashlib
import random
from fractions import Fraction as F
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_graph import reference_components

from alphabound import witness
from alphabound.bounds import c_bound
from alphabound.coeffs import c_sequence
from alphabound.exact import exact_alpha
from alphabound.families import (attach_cliques, chain_blocks, circulant_graph,
                                 complete_graph, cycle_graph,
                                 cycle_with_pendants, path_graph,
                                 petersen_graph, random_connected,
                                 regular_blocks, regular_template, star_graph)
from alphabound.graphcore import Graph, components_within, is_independent
from alphabound.witness import (BaseStep, CertificationError, PeelStep,
                                WeightCheck, _find_cut_vertex,
                                brooks_coloring, c_weights,
                                check_clique_weighting, clipped_weights,
                                enumerate_maximal_cliques, peel_witness)


# --- peel vertex selection ---------------------------------------------------

def reference_select(g, active):
    """The pick as a search from all minimum-degree vertices at once, run
    until it dequeues a maximum-degree vertex, then walked back."""
    vset = set(active)
    verts = sorted(vset)
    nbr = g.neighbor_sets()
    deg = {v: len(nbr[v] & vset) for v in verts}
    dmin, dmax = min(deg.values()), max(deg.values())
    parent = {v: -1 for v in verts if deg[v] == dmin}
    queue = list(parent)
    for v in queue:
        if deg[v] == dmax:
            break
        for w in g.adj[v]:
            if w in vset and w not in parent:
                parent[w] = v
                queue.append(w)
    while parent[v] != -1:
        v = parent[v]
    return v


def distance_select(g, active):
    """The pick from the other end: a layered search backwards from the
    maximum-degree vertices, expanding only vertices of degree above the
    minimum, gives the smallest minimum-degree vertex in the first layer
    that reaches one."""
    vset = set(active)
    nbr = g.neighbor_sets()
    deg = {v: len(nbr[v] & vset) for v in vset}
    dmin, dmax = min(deg.values()), max(deg.values())
    layer = {v for v in vset if deg[v] == dmax}
    seen = set(layer)
    while layer:
        reached = [v for v in layer if deg[v] == dmin]
        if reached:
            return min(reached)
        # no vertex of this layer has the minimum degree: expand them all
        layer = {w for v in layer for w in nbr[v] & vset} - seen
        seen |= layer
    return None


small_members = st.one_of(
    st.integers(3, 6).flatmap(lambda delta: st.builds(
        random_connected, st.integers(delta + 1, 40), st.just(delta),
        st.integers(0, 10_000))),
    st.builds(cycle_with_pendants, st.integers(3, 20)),
    st.builds(chain_blocks, st.integers(3, 5), st.integers(2, 5)),
    st.builds(attach_cliques, st.just(5), st.integers(2, 4), st.integers(1, 3)),
)


@st.composite
def members_in_any_numbering(draw):
    g = draw(small_members)
    if draw(st.booleans()):
        perm = draw(st.permutations(range(g.n)))
        g = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    return g


def reference_peel(g):
    """The peel's trace rebuilt from its rules alone, on frozensets and
    Fraction sums: a piece owed its parent's handoff is settled by a base
    case or split around the reference pick, and every weight is read at
    the piece's own degrees.  A base case's taken set is left empty, since
    any independent set of the piece that meets its weight will do."""
    cs = c_sequence(g.max_degree())
    nbr = g.neighbor_sets()
    trace = []
    work = [(frozenset(range(g.n)), c_bound(g))]
    while work:
        piece, owed = work.pop()
        deg = {v: len(nbr[v] & piece) for v in piece}

        def weigh(vertices):
            return sum((cs[deg[v]] for v in vertices), F(0))

        target = weigh(piece)
        dmin, dmax = min(deg.values()), max(deg.values())
        if dmin == len(piece) - 1 or dmin == dmax:
            kind = ("complete" if dmin == len(piece) - 1
                    else "cycle" if dmin == 2 else "coloring")
            trace.append(BaseStep(kind, tuple(sorted(piece)), (), target, owed))
            continue
        u = reference_select(g, piece)
        neighbors = tuple(sorted(nbr[u] & piece))
        parts = reference_components(g, piece - {u, *neighbors})
        isolated = tuple(sorted(v for c in parts if len(c) == 1 for v in c))
        comps = tuple(tuple(sorted(c)) for c in parts if len(c) > 1)
        handoffs = tuple(map(weigh, comps))
        trace.append(PeelStep(u, deg[u], neighbors, isolated, comps,
                              weigh((u, *neighbors)), weigh(isolated),
                              handoffs, target, owed))
        work += reversed([(frozenset(c), h) for c, h in zip(comps, handoffs)])
    return trace


@given(members_in_any_numbering())
@settings(max_examples=150, deadline=None)
def test_peel_trace_matches_reference(g):
    """Every step of the peel's trace equals the reference peel's: the
    pick, which the backward search finds too, its neighbours, the
    isolated vertices, the components in order, and every share, target
    and owed value.  A base case may take any independent set of its piece
    that meets its weight."""
    r = peel_witness(g)
    for step, ref in zip(r.trace, reference_peel(g), strict=True):
        assert type(step) is type(ref)
        if isinstance(step, PeelStep):
            assert step == ref
            piece = {step.vertex, *step.neighbors, *step.isolated,
                     *chain.from_iterable(step.components)}
            assert distance_select(g, piece) == step.vertex
            continue
        assert step._replace(taken=()) == ref
        assert set(step.taken) <= set(step.vertices)
        assert is_independent(g, step.taken)
        assert len(step.taken) >= (step.owed if step.kind == "complete" else step.target)
    assert is_independent(g, r.independent_set)
    assert F(len(r.independent_set)) >= r.certified_bound == c_bound(g)


# --- the witness itself ------------------------------------------------------

def test_witness_on_star():
    r = peel_witness(star_graph(3))
    assert r.independent_set == (1, 2, 3)
    assert r.certified_bound == F(7, 3)
    (step,) = r.trace
    assert isinstance(step, PeelStep)
    assert step.vertex == 1
    assert step.share == 1          # c1 + c3 = 2/3 + 1/3
    assert step.isolated == (2, 3)
    assert step.components == ()


def test_witness_on_pendant_cycle():
    g = cycle_with_pendants(10)
    r = peel_witness(g)
    assert len(r.independent_set) == 11
    assert is_independent(g, r.independent_set)
    first = r.trace[0]
    assert first.vertex == 10
    assert first.share == F(7, 8)    # c1 + c4 = 5/8 + 1/4
    assert first.isolated == (20,)   # the doubled pendant at vertex 0
    # every peel step pays at most one vertex for the deleted neighborhood
    for step in r.trace:
        if isinstance(step, PeelStep):
            assert step.share <= 1


def test_witness_complete_base_case():
    # two triangles joined by an edge: the second triangle survives the
    # first peel as a complete component owed exactly 1
    g = chain_blocks(3, 2)
    r = peel_witness(g)
    assert len(r.independent_set) == 2
    kinds = [s.kind for s in r.trace if isinstance(s, BaseStep)]
    assert kinds == ["complete"]
    base = next(s for s in r.trace if isinstance(s, BaseStep))
    assert base.owed == 1
    assert len(base.taken) == 1


def test_witness_cycle_base_case():
    # C6 with a tail: peeling the tail leaves the bare cycle
    g = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                  (0, 6), (6, 7), (6, 8)])
    r = peel_witness(g)
    kinds = [s.kind for s in r.trace if isinstance(s, BaseStep)]
    assert "cycle" in kinds
    base = next(s for s in r.trace if isinstance(s, BaseStep) and s.kind == "cycle")
    assert len(base.taken) == 3      # floor(6/2) alternating vertices
    assert len(r.independent_set) >= 5


def test_witness_coloring_base_case_regular_graph():
    # regular inputs skip peeling entirely
    for g in (petersen_graph(), circulant_graph(9, (1, 2))):
        r = peel_witness(g)
        assert [s.kind for s in r.trace] == ["coloring"]
        assert F(len(r.independent_set)) >= c_bound(g)
        assert is_independent(g, r.independent_set)


def test_witness_on_chains_and_attachments():
    for delta in (3, 4, 5):
        for k in (2, 3, 4):
            g = chain_blocks(delta, k)
            r = peel_witness(g)
            assert len(r.independent_set) == k == exact_alpha(g).alpha
    g = attach_cliques(4, 3, 2)
    r = peel_witness(g)
    assert F(len(r.independent_set)) >= c_bound(g)
    assert len(r.independent_set) == exact_alpha(g).alpha


def test_witness_requires_class_membership():
    with pytest.raises(ValueError, match="not in class"):
        peel_witness(complete_graph(4))
    with pytest.raises(ValueError, match="not in class"):
        peel_witness(cycle_graph(8))


@pytest.mark.parametrize("build, factor, message", [
    (lambda: cycle_with_pendants(10), F(1, 2), "piece owed more than its own weight"),
    (lambda: cycle_with_pendants(10), F(11, 10),
     "complete component owed more than one vertex"),
    (lambda: chain_blocks(4, 3), F(11, 10), "peel share exceeds one"),
    (petersen_graph, F(2), "regular base case fell short of its weight"),
    (lambda: cycle_with_pendants(10), F(2), "bound is not a whole number of ledger units"),
], ids=["owed", "complete", "share", "regular", "whole"])
def test_peel_checks_refuse_scaled_weights(monkeypatch, build, factor, message):
    # the peel weighs vertices with every coefficient scaled while the bound
    # it owes stays c_bound(g), so one of its certification checks must fail
    monkeypatch.setattr(witness, "c_sequence",
                        lambda delta: [factor * c for c in c_sequence(delta)])
    with pytest.raises(CertificationError, match=message):
        peel_witness(build())


# --- coloring ---------------------------------------------------------------

def assert_proper(g, colors, max_colors):
    assert set(colors) == set(range(g.n))
    for u, v in g.edges():
        assert colors[u] != colors[v]
    assert max(colors.values()) < max_colors


def test_brooks_coloring_regular_graphs():
    for g in (petersen_graph(), circulant_graph(9, (1, 2)),
              circulant_graph(12, (1, 2, 3))):
        assert_proper(g, brooks_coloring(g), g.max_degree())


def test_brooks_coloring_nonregular():
    g = cycle_with_pendants(6)
    assert_proper(g, brooks_coloring(g), 4)


def hub_graph():
    # two K5-minus-an-edge blocks wired through a shared degree-4 hub:
    # 4-regular, connected, cut vertex at 0
    def block(base):
        vs = list(range(base, base + 5))
        edges = [(a, b) for a, b in combinations(vs, 2)
                 if (a, b) != (vs[0], vs[1])]
        return edges + [(0, vs[0]), (0, vs[1])]
    return Graph(11, block(1) + block(6))


def test_brooks_coloring_regular_with_cut_vertex():
    g = hub_graph()
    assert all(g.degree(v) == 4 for v in range(11))
    assert_proper(g, brooks_coloring(g), 4)
    r = peel_witness(g)  # exercises the cut-vertex branch inside the witness
    assert F(len(r.independent_set)) >= c_bound(g)


def test_brooks_coloring_validation():
    with pytest.raises(ValueError, match="not in class: empty graph"):
        brooks_coloring(Graph(0))
    with pytest.raises(ValueError, match="not in class: maximum degree 1 < 3"):
        brooks_coloring(Graph(5, [(0, 1), (2, 3)]))
    # two disjoint stars K_{1,3}: maximum degree 3, so connectivity is reached
    with pytest.raises(ValueError, match="not in class: graph not connected"):
        brooks_coloring(Graph(8, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)]))
    with pytest.raises(ValueError, match="not in class: maximum degree 2 < 3"):
        brooks_coloring(cycle_graph(5))
    with pytest.raises(ValueError, match="not in class: graph is the complete graph"):
        brooks_coloring(complete_graph(5))


def test_largest_colour_class_meets_n_over_delta():
    for g in (petersen_graph(), circulant_graph(10, (1, 2)),
              cycle_with_pendants(8)):
        s = witness._largest_class(brooks_coloring(g))
        assert is_independent(g, s)
        assert len(s) * g.max_degree() >= g.n


@given(st.integers(3, 5), st.integers(0, 1500))
@settings(max_examples=100, deadline=None)
def test_brooks_coloring_random(delta, seed):
    g = random_connected(delta + 2 + seed % 7, delta, seed)
    assert_proper(g, brooks_coloring(g), g.max_degree())


# sha256 of repr(sorted(brooks_coloring(g).items())).  The cut-vertex and
# split-triple searches must keep their picks, or the colours would change:
# circulants take the split-triple path, the blow-ups run the cut-vertex
# search and find none, the pendant cycle colours greedily, the hub cuts
PINNED_COLORINGS = [
    (lambda: circulant_graph(9, [1, 2]),
     "a4e1503126157bc413634a124a74f740148947329d4c29b1c27c01783fa10d00"),
    (lambda: circulant_graph(50, [1, 2]),
     "2c5880c22665b97c6e6e58f6fa9e179e617952e525c750eb0aaaae4c3f5e5ba2"),
    (lambda: circulant_graph(301, [1, 2]),
     "55f648bd39eb9c2f626fb379206bd6aaf01dbde6c376ce01d2f3c7d2d7e11cfd"),
    (lambda: circulant_graph(1000, [1, 2]),
     "a6e7ce26231c3ca8cfd1667a9a940dc896261ac75660ca381ad7dbd46726e03f"),
    (lambda: regular_blocks(3, regular_template(3, 8)),
     "adaedaa7a9d6cf5c6a70fa27482ef8234b2f874f04fb5ab1b2751be68f1dd275"),
    (lambda: regular_blocks(4, regular_template(4, 7)),
     "dff4633dd88e19465c674d73124a0cedaa40fb41a4ba0d1e421871ac9bf524fe"),
    (lambda: regular_blocks(5, regular_template(5, 8)),
     "1eb208fee14d3ebbd72d61b5fe144d5a382172153f8aca873cb0e5df4ea6b478"),
    (lambda: regular_blocks(6, regular_template(6, 9)),
     "f22db067bf28804c490c20c7ea951a455d5da174c021a6309ed130bf88913fc0"),
    (lambda: cycle_with_pendants(20),
     "6321dc667f6ad17bd34e96f8b94a2a0dd5fdb6e8ff6e406d7cb3ea26e1adc3cd"),
    (hub_graph,
     "5510db8730e684f3ba18771ac9c63e1cef902fc7e7b5dbb43a9d639cc39db094"),
]


@pytest.mark.parametrize("build, digest", PINNED_COLORINGS)
def test_brooks_coloring_pinned(build, digest):
    colors = brooks_coloring(build())
    assert hashlib.sha256(repr(sorted(colors.items())).encode()).hexdigest() == digest


def test_brooks_depth_does_not_grow_with_n(shallow_stack):
    # a recursive search would be about n frames deep here
    g = circulant_graph(5000, [1, 2])
    assert_proper(g, brooks_coloring(g), 4)


def brute_cut_vertex(g, piece):
    # the reference: one component count per vertex, smallest vertex first
    pset = frozenset(piece)
    for v in sorted(pset):
        if len(reference_components(g, pset - {v})) > 1:
            return v
    return None


def _regular_member(delta, k):
    k += (k * delta) % 2        # an odd degree needs an even template
    return regular_blocks(delta, regular_template(delta, k))


graphs_for_search = st.one_of(
    st.integers(3, 6).flatmap(lambda delta: st.builds(
        random_connected, st.integers(delta + 1, 40), st.just(delta),
        st.integers(0, 10_000))),
    st.integers(3, 6).flatmap(lambda delta: st.builds(
        _regular_member, st.just(delta), st.integers(delta + 1, delta + 6))),
)


@given(graphs_for_search, st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_cut_vertex_matches_reference(g, seed):
    everything = set(range(g.n))
    assert _find_cut_vertex(g, range(g.n), everything) == brute_cut_vertex(g, range(g.n))
    # induced pieces: the components left after deleting a few vertices
    rng = random.Random(seed)
    removed = set(rng.sample(range(g.n), rng.randint(1, max(1, g.n // 4))))
    alive = everything - removed
    for comp in components_within(g, alive, alive):
        piece = sorted(comp)
        assert _find_cut_vertex(g, piece, alive) == brute_cut_vertex(g, piece)


@pytest.mark.parametrize("g", [
    *(random_connected(n, delta, seed) for n, delta, seed in
      ((150, 3, 0), (300, 3, 1), (300, 4, 2), (200, 5, 3))),
    chain_blocks(3, 60), chain_blocks(5, 40), chain_blocks(8, 30),
    attach_cliques(4, 30, 2), attach_cliques(6, 20, 3),
], ids=lambda g: f"n{g.n}m{g.m}")
def test_cut_vertex_matches_networkx(g):
    """Members of a few hundred vertices, above what the brute-force
    reference can afford, and the pieces left after deleting vertices."""
    nx = pytest.importorskip("networkx")
    G = nx.Graph(list(g.edges()))
    rng = random.Random(g.n)
    removed = set(rng.sample(range(g.n), g.n // 10))
    alive = set(range(g.n)) - removed
    pieces = [(range(g.n), set(range(g.n))),
              *((sorted(c), alive) for c in components_within(g, alive, alive))]
    for piece, members in pieces:
        expected = min(nx.articulation_points(G.subgraph(piece)), default=None)
        assert _find_cut_vertex(g, piece, members) == expected


# --- clique weightings -------------------------------------------------------

def test_c_weights_values():
    g = star_graph(3)
    w = c_weights(g)
    assert w[0] == F(1, 3) and w[1] == F(2, 3)
    assert sum(w) == F(7, 3)
    assert len(w) == 4


def test_clipped_weights_pass_on_class_members():
    for g in (star_graph(3), cycle_with_pendants(9), chain_blocks(4, 3),
              petersen_graph(), circulant_graph(9, (1, 2))):
        res = check_clique_weighting(g, clipped_weights(g))
        assert res.ok, (res.violating_vertex, res.violating_clique)
        assert res.total <= exact_alpha(g).alpha


def test_c_weights_fail_vertex_cap_on_regular():
    # a degree-delta vertex carries 1/delta > 2/(2*delta+1)
    for g in (petersen_graph(), circulant_graph(9, (1, 2))):
        res = check_clique_weighting(g, c_weights(g))
        assert not res.ok
        assert res.violating_vertex == 0
        assert res.violating_clique is None


def test_check_clique_weighting_clique_violation():
    g = complete_graph(3)
    res = check_clique_weighting(g, [F(2, 5), F(2, 5), F(2, 5)])
    assert not res.ok
    assert res.violating_clique == (0, 1, 2)
    assert res.violating_vertex is None


def test_check_clique_weighting_validation():
    g = path_graph(3)
    with pytest.raises(ValueError, match="negative weight at vertex 1"):
        check_clique_weighting(g, [F(0), F(-1), F(0)])
    with pytest.raises(ValueError, match="expected 3 weights"):
        check_clique_weighting(g, [F(0)])


def fraction_clique_check(g, weights):
    """The clique-weighting check as it ran on Fraction sums before the
    integer ledger: the reference the ledger version must match."""
    w = tuple(F(x) for x in weights)
    if len(w) != g.n:
        raise ValueError(f"expected {g.n} weights, got {len(w)}")
    for v, wv in enumerate(w):
        if wv < 0:
            raise ValueError(f"negative weight at vertex {v}")
    total = sum(w, F(0))
    for v in range(g.n):
        if w[v] > F(2, 2 * g.degree(v) + 1):
            return WeightCheck(False, total, violating_vertex=v)
    for clique in enumerate_maximal_cliques(g):
        if sum((w[v] for v in clique), F(0)) > 1:
            return WeightCheck(False, total, violating_clique=clique)
    return WeightCheck(True, total)


@st.composite
def weighted_graphs(draw):
    """A small random or complete graph with weights of every accepted
    type, some exactly at a vertex cap or on a clique summing to exactly 1,
    and now and then a negative weight or a wrong count."""
    if draw(st.booleans()):
        g = complete_graph(draw(st.integers(1, 6)))
    else:
        n = draw(st.integers(0, 8))
        g = Graph(n, [e for e in combinations(range(n), 2) if draw(st.booleans())])
    w = []
    for v in range(g.n):
        cap = F(2, 2 * g.degree(v) + 1)
        w.append(draw(st.one_of(
            st.fractions(0, 1, max_denominator=12),
            st.builds(F, st.integers(0, 10**6), st.sampled_from([1000003, 2**61 - 1])),
            st.integers(0, 1),
            st.floats(0, 1),
            st.builds("{}/{}".format, st.integers(0, 7), st.integers(1, 9)),
            st.sampled_from([cap, str(cap)]))))
    if g.n and draw(st.booleans()):
        clique = draw(st.sampled_from(enumerate_maximal_cliques(g)))
        rest = sum(F(w[v]) for v in clique[1:])
        if rest <= 1:
            w[clique[0]] = 1 - rest
    mistake = draw(st.sampled_from([None] * 5 + ["negative", "short", "long"]))
    if mistake == "negative" and g.n:
        w[draw(st.integers(0, g.n - 1))] = draw(st.sampled_from([-1, F(-1, 7), -0.5, "-1/3"]))
    elif mistake == "short" and g.n:
        w.pop()
    elif mistake == "long":
        w.append(F(0))
    return g, w


def clique_check_outcome(check, g, w):
    try:
        res = check(g, w)
    except ValueError as exc:
        return str(exc)
    return res.ok, res.total, res.violating_vertex, res.violating_clique


@given(weighted_graphs())
@settings(max_examples=300, deadline=None)
def test_ledger_clique_check_matches_fraction_sums(case):
    g, w = case
    assert (clique_check_outcome(check_clique_weighting, g, w)
            == clique_check_outcome(fraction_clique_check, g, w))


# --- maximal cliques ---------------------------------------------------------

def brute_maximal_cliques(g):
    out = []
    for r in range(1, g.n + 1):
        for c in combinations(range(g.n), r):
            if all(g.has_edge(u, v) for u, v in combinations(c, 2)):
                if all(any(not g.has_edge(w, v) for v in c)
                       for w in range(g.n) if w not in c):
                    out.append(tuple(c))
    return sorted(out)


def test_maximal_cliques_known():
    assert enumerate_maximal_cliques(complete_graph(4)) == [(0, 1, 2, 3)]
    assert enumerate_maximal_cliques(path_graph(3)) == [(0, 1), (1, 2)]
    assert enumerate_maximal_cliques(Graph(3, [(0, 1)])) == [(0, 1), (2,)]
    assert enumerate_maximal_cliques(Graph(1)) == [(0,)]
    assert enumerate_maximal_cliques(Graph(0)) == []


@given(st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_maximal_cliques_match_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.5]
    g = Graph(n, edges)
    assert enumerate_maximal_cliques(g) == brute_maximal_cliques(g)


def test_maximal_cliques_pinned():
    graphs = [random_connected(60, d, s) for d in range(3, 6) for s in range(5)]
    graphs += [attach_cliques(6, 10, 3), regular_blocks(5, regular_template(5, 12))]
    outs = [enumerate_maximal_cliques(g) for g in graphs]
    assert hashlib.sha256(repr(outs).encode()).hexdigest() == \
        "c585a7d3ec7f19baeb4baab3f9573b17a97db0462f7ebc5fced8b27b2b24e26c"


@given(st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_maximal_cliques_match_networkx(seed):
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    n = rng.randint(0, 40)
    p = rng.choice([0.1, 0.3, 0.6, 0.9])
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    ref = nx.Graph(edges)
    ref.add_nodes_from(range(n))
    expected = sorted(tuple(sorted(c)) for c in nx.find_cliques(ref))
    assert enumerate_maximal_cliques(Graph(n, edges)) == expected


class CountingSet(frozenset):
    """Neighbour set that counts the intersections it is the left side of."""
    calls = 0

    def __and__(self, other):
        CountingSet.calls += 1
        return frozenset.__and__(self, other)


class CountingGraph(Graph):
    def neighbor_sets(self):
        if self._nbr is None:
            self._nbr = tuple(map(CountingSet, self.adj))
        return self._nbr


def test_clique_pivot_stops_at_an_unbeatable_vertex(monkeypatch):
    # two K_200 joined by one edge: choosing each pivot by intersecting the
    # neighbour set of every member of p and x with p costs about k**3
    g = chain_blocks(200, 2)
    counted = CountingGraph(g.n, g.edges())
    monkeypatch.setattr(CountingSet, "calls", 0)
    cliques = enumerate_maximal_cliques(counted)
    assert cliques == enumerate_maximal_cliques(g)
    assert len(cliques) == 3
    assert CountingSet.calls <= 1600


def test_cliques_deterministic():
    g = petersen_graph()
    assert enumerate_maximal_cliques(g) == enumerate_maximal_cliques(g)
    assert enumerate_maximal_cliques(g) == sorted((u, v) for u, v in g.edges())
