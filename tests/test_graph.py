import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphabound import graphcore
from alphabound.families import circulant_graph, complete_graph, random_connected
from alphabound.graphcore import (Graph, ParseError, _bfs, components_within,
                                  degree_profile, is_in_class, load_graph,
                                  parse_dimacs, parse_edge_list, parse_graph,
                                  require_in_class, write_dimacs,
                                  write_edge_list)
from alphabound.witness import CertificationError, _greedy_from_root


def small_graphs():
    """Hypothesis strategy: graphs on up to 9 vertices from random edge sets."""
    def build(n, picks):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [p for p, keep in zip(pairs, picks) if keep]
        return Graph(n, edges)
    return st.integers(1, 9).flatmap(
        lambda n: st.builds(build, st.just(n),
                            st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                                     max_size=n * (n - 1) // 2)))


def test_construction_and_adjacency():
    g = Graph(4, [(0, 1), (1, 0), (2, 3), (1, 3)])  # duplicate collapses
    assert g.n == 4 and g.m == 3
    assert g.adj[1] == (0, 3)
    assert g.adj[3] == (1, 2)
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert list(g.edges()) == [(0, 1), (1, 3), (2, 3)]
    assert g.degree(1) == 2


def test_construction_validation():
    with pytest.raises(ValueError):
        Graph(-1)
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_degree_extremes():
    g = Graph(3, [(0, 1)])
    assert g.max_degree() == 1
    assert min(map(len, g.adj)) == 0
    assert repr(g) == "Graph(n=3, m=1)"
    assert Graph(0).max_degree() == 0


def test_connectivity_and_completeness():
    assert Graph(1).is_connected()
    assert Graph(1).is_complete()
    assert not Graph(2).is_connected()
    k4 = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert k4.is_complete() and k4.is_connected()
    assert not Graph(3, [(0, 1), (1, 2)]).is_complete()


def test_degree_profile_counts():
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    p = degree_profile(g)
    assert p.delta_max == 3 and p.delta_min == 1
    assert p.count(1) == 3 and p.count(2) == 1 and p.count(3) == 1
    assert p.count(0) == 0 and p.count(99) == 0
    assert sum(p.counts) == g.n


def test_degree_profile_empty():
    with pytest.raises(ValueError, match="empty graph"):
        degree_profile(Graph(0))


def test_is_in_class():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert is_in_class(star, 3)
    assert not is_in_class(star, 4)           # wrong max degree
    k4 = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert not is_in_class(k4, 3)              # complete graph excluded
    assert not is_in_class(Graph(5, [(0, 1), (0, 2), (0, 3)]), 3)  # disconnected
    with pytest.raises(ValueError, match=r"delta >= 3"):
        is_in_class(star, 2)


def test_require_in_class_messages():
    with pytest.raises(ValueError, match="empty graph"):
        require_in_class(Graph(0))
    with pytest.raises(ValueError, match=r"^not in class: maximum degree 2 < 3$"):
        require_in_class(Graph(3, [(0, 1), (1, 2)]))
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert require_in_class(star) == 3
    with pytest.raises(ValueError, match="not connected"):
        require_in_class(Graph(5, [(0, 1), (0, 2), (0, 3)]))
    k4 = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    with pytest.raises(ValueError, match="complete graph on 4"):
        require_in_class(k4)


def disjoint_union(g, h):
    return Graph(g.n + h.n, [*g.edges(), *((u + g.n, v + g.n) for u, v in h.edges())])


@st.composite
def class_cases(draw):
    """A graph and a degree: small graphs, complete graphs K_{d+1} and
    disjoint unions, against their own maximum degree or any other."""
    g = draw(st.one_of(small_graphs(), st.integers(1, 8).map(complete_graph),
                       st.builds(disjoint_union, small_graphs(), small_graphs())))
    delta = draw(st.one_of(st.just(g.max_degree()), st.integers(0, 9)))
    return g, delta


@given(class_cases())
@settings(max_examples=300, deadline=None)
def test_is_in_class_matches_networkx(case):
    nx = pytest.importorskip("networkx")
    g, delta = case
    if delta < 3:
        with pytest.raises(ValueError, match=r"^class defined only for delta >= 3$"):
            is_in_class(g, delta)
        return
    h = nx.Graph(g.edges())
    h.add_nodes_from(range(g.n))
    expected = (g.n > 0 and nx.is_connected(h)
                and max(d for _, d in h.degree()) == delta
                and h.number_of_edges() != g.n * (g.n - 1) // 2)
    assert is_in_class(g, delta) is expected


def test_components():
    g = Graph(6, [(0, 1), (1, 2), (3, 4)])
    everything = frozenset(range(6))
    comps = components_within(g, everything, everything)
    assert comps == [frozenset({0, 1, 2}), frozenset({3, 4}), frozenset({5})]
    active = frozenset({0, 2, 3, 4, 5})
    assert components_within(g, active, active) == [
        frozenset({0}), frozenset({2}), frozenset({3, 4}), frozenset({5})]
    active = {0, 2, 3, 4}
    assert components_within(g, active, active) == [
        frozenset({0}), frozenset({2}), frozenset({3, 4})]


@st.composite
def graphs_with_active_sets(draw):
    """Sparse graphs on up to 12 vertices, where search orders differ most,
    and a vertex subset drawn as the vertices left after a deletion."""
    n = draw(st.integers(1, 12))
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=2 * n))
    g = Graph(n, [(u, v) for u, v in pairs if u != v])
    return g, frozenset(range(n)) - draw(st.sets(ends))


@given(graphs_with_active_sets())
@settings(max_examples=200, deadline=None)
def test_breadth_first_users_match_networkx(case):
    """One oracle for every caller of the breadth-first helper."""
    nx = pytest.importorskip("networkx")
    g, active = case
    G = nx.Graph(list(g.edges()))
    G.add_nodes_from(range(g.n))
    assert g.is_connected() == nx.is_connected(G)
    expected = sorted(map(frozenset, nx.connected_components(G.subgraph(active))), key=min)
    assert components_within(g, active, active) == expected
    for comp in expected:
        root = max(comp)
        order = list(_bfs(g, (root,), comp))
        dist = nx.single_source_shortest_path_length(G.subgraph(comp), root)
        assert order[0] == root and set(order) == comp and len(order) == len(comp)
        assert [dist[v] for v in order] == sorted(dist[v] for v in order)
        assert all(set(g.adj[v]) & set(order[:i]) for i, v in enumerate(order) if i)
    if len(expected) > 1:
        with pytest.raises(CertificationError, match="not connected"):
            _greedy_from_root(g, min(active), active, len(active), g.n, {})


def reference_components(g, active):
    """Components by a full search from the smallest unseen vertex of each."""
    seen = set()
    out = []
    for s in sorted(active):
        if s not in seen:
            comp = frozenset(_bfs(g, (s,), active))
            seen |= comp
            out.append(comp)
    return out


@given(graphs_with_active_sets(), st.data())
@settings(max_examples=200, deadline=None)
def test_components_from_meeting_seeds_match_reference(case, data):
    """Seeds that meet every component give the components of a full
    search, whichever seeds they are and however many."""
    g, active = case
    expected = reference_components(g, active)
    assert components_within(g, active, active) == expected
    seeds = {data.draw(st.sampled_from(sorted(c))) for c in expected}
    if active:
        seeds |= data.draw(st.sets(st.sampled_from(sorted(active))))
    assert components_within(g, active, seeds) == expected


# --- parsing ----------------------------------------------------------------

def test_parse_edge_list_basic():
    g = parse_edge_list("# comment\n0 1\n1 2\n\n2 0 # trailing\n")
    assert g.n == 3 and g.m == 3


def test_parse_edge_list_sparse_labels():
    g = parse_edge_list("30 10\n20 30\n")
    assert g.n == 3 and g.m == 2
    # renumbered in increasing order: 10, 20, 30 become 0, 1, 2
    assert g.adj == ((2,), (2,), (0, 1))


def test_parse_edge_list_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse_edge_list("0 1 2\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("0 1\nx y\n")
    with pytest.raises(ParseError, match="self-loop"):
        parse_edge_list("3 3\n")
    with pytest.raises(ParseError, match="negative"):
        parse_edge_list("-1 2\n")


def test_parse_dimacs():
    g = parse_dimacs("c header\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    assert g.n == 4 and g.m == 3
    assert g.adj[0] == (1,)             # DIMACS vertex k is vertex k-1


@pytest.mark.parametrize("text,msg", [
    ("e 1 2\n", "before"),
    ("p edge 3 1\np edge 3 1\ne 1 2\n", "duplicate"),
    ("p edge 3 1\ne 1 4\n", "out of range"),
    ("p edge 3 1\ne 1 1\n", "self-loop"),
    ("p edge 3 1\nq what\n", "unrecognized"),
    ("c only comments\n", "missing"),
    ("p edge x 1\n", "header"),
])
def test_parse_dimacs_errors(text, msg):
    with pytest.raises(ParseError, match=msg):
        parse_dimacs(text)


def test_parse_graph_sniffs_format():
    assert parse_graph("p edge 2 1\ne 1 2\n").m == 1
    assert parse_graph("0 1\n").m == 1


def test_load_graph_prefixes_path(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 1\n")
    with pytest.raises(ParseError, match="bad.txt"):
        load_graph(p)
    with pytest.raises(ParseError, match="no-such-file"):
        load_graph(tmp_path / "no-such-file")


def test_writers_roundtrip():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    out = write_edge_list(g, header="test")
    assert out == "# test\n0 1\n1 2\n2 3\n"
    g2 = parse_edge_list(write_edge_list(Graph(3, [(0, 2)])))
    assert g2.m == 1
    # a parsed graph is written with its dense vertex numbers
    assert write_edge_list(parse_edge_list("10 20\n20 30\n")) == "0 1\n1 2\n"
    assert write_edge_list(parse_dimacs("p edge 3 1\ne 3 2\n")) == "1 2\n"
    d = write_dimacs(g)
    g3 = parse_dimacs(d)
    assert g3.n == g.n and g3.m == g.m and g3 == g


@given(small_graphs())
@settings(max_examples=100, deadline=None)
def test_profile_identities(g):
    p = degree_profile(g)
    assert sum(p.counts) == g.n
    assert sum(i * p.count(i) for i in range(p.delta_max + 1)) == 2 * g.m


@given(small_graphs())
@settings(max_examples=100, deadline=None)
def test_components_partition(g):
    everything = frozenset(range(g.n))
    comps = components_within(g, everything, everything)
    seen = sorted(v for c in comps for v in c)
    assert seen == list(range(g.n))
    # no edges between different components
    idx = {v: i for i, c in enumerate(comps) for v in c}
    for u, v in g.edges():
        assert idx[u] == idx[v]


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_dimacs_roundtrip(g):
    assert parse_dimacs(write_dimacs(g)) == g


# --- the adjacency build against the pair-set build it replaced --------------

def reference_build(n, edges):
    """The earlier constructor: one global set of pairs, sorted once."""
    pairs = {(u, v) if u < v else (v, u) for u, v in edges}
    lists = [[] for _ in range(n)]
    for u, v in sorted(pairs):
        lists[u].append(v)
        lists[v].append(u)
    return tuple(tuple(a) for a in lists), len(pairs)


@st.composite
def edge_multisets(draw):
    """Edges on 1..12 vertices, drawn with repeats and in both orientations;
    vertices no edge touches stay isolated."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                          max_size=40))
    edges = pairs + draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return n, [(v, u) if f else (u, v) for (u, v), f in zip(edges, flips)]


@given(edge_multisets())
@settings(max_examples=200, deadline=None)
def test_build_matches_pair_set_reference(case):
    n, edges = case
    g = Graph(n, edges)
    adj, m = reference_build(n, edges)
    assert g.adj == adj and g.m == m
    assert list(g.edges()) == sorted({(min(e), max(e)) for e in edges})
    assert g._nbr is None                      # nothing above built the sets
    for u in range(n):
        assert g.neighbor_sets()[u] == frozenset(adj[u])
        for v in range(n):
            assert g.has_edge(u, v) == (v in adj[u])
    counts = [0] * (max(map(len, adj)) + 1)
    for a in adj:
        counts[len(a)] += 1
    p = degree_profile(g)
    assert p.counts == tuple(counts)
    assert (p.delta_max, p.delta_min) == (len(counts) - 1, min(map(len, adj)))


def test_neighbor_sets_built_once_on_first_use():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g._nbr is None
    assert not g.has_edge(0, 2)
    sets = g._nbr
    assert sets == (frozenset({1}), frozenset({0, 2}), frozenset({1, 3}), frozenset({2}))
    assert g.neighbor_sets() is sets


# Every message below is the text the parsers and the constructor gave
# before the adjacency build changed; line numbers included.  The missing
# DIMACS header now names the last line, and the cases from the empty file
# on were added later.
PARSE_MESSAGES = [
    (parse_edge_list, "0 1\n1 2 3\n", "line 2: expected two vertex tokens, got 3"),
    (parse_edge_list, "0 1\n\n  # note\n7\n", "line 4: expected two vertex tokens, got 1"),
    (parse_edge_list, "0 1\nx 2\n", "line 2: vertex labels must be integers"),
    (parse_edge_list, "0 1\n1 2.5\n", "line 2: vertex labels must be integers"),
    (parse_edge_list, "0 -1\n", "line 1: negative vertex label"),
    (parse_edge_list, "0 1\r\n3 3\n", "line 2: self-loop at 3"),
    (parse_edge_list, "0 1 # ok\n1 2 3 # three\n", "line 2: expected two vertex tokens, got 3"),
    (parse_edge_list, "0 1\x0b1 2\n2\n", "line 3: expected two vertex tokens, got 1"),
    (parse_dimacs, "p edge 3 2\ne 1 2\ne 2 5\n", "line 3: vertex out of range 1..3"),
    (parse_dimacs, "p edge 3 2\ne 0 2\n", "line 2: vertex out of range 1..3"),
    (parse_dimacs, "p edge 3 2\ne 2 2\n", "line 2: self-loop at 2"),
    (parse_dimacs, "p edge 3 2\ne 1\n", "line 2: expected 'e u v'"),
    (parse_dimacs, "p edge 3 2\ne 1 x\n", "line 2: vertex labels must be integers"),
    (parse_dimacs, "p edge 4 3\np edge 4 3\n", "line 2: duplicate header"),
    (parse_dimacs, "e 1 2\n", "line 1: edge before 'p edge' header"),
    (parse_dimacs, "p edge x 3\n", "line 1: bad header counts"),
    (parse_dimacs, "p edge 3 y\n", "line 1: bad header counts"),
    (parse_dimacs, "p edge -2 0\n", "line 1: negative vertex count"),
    (parse_dimacs, "p col 3 3\n", "line 1: expected 'p edge n m'"),
    (parse_dimacs, "p edge 3\n", "line 1: expected 'p edge n m'"),
    (parse_dimacs, "p edge 3 1\nq 1 2\n", "line 2: unrecognized line type 'q'"),
    (parse_dimacs, "c only a comment\n", "line 1: missing 'p edge' header"),
    (parse_graph, "\n  # head\n\np edge 2 1\ne 1 3\n", "line 2: unrecognized line type '#'"),
    (parse_graph, "# head\n0 1\n1 1\n", "line 3: self-loop at 1"),
    # the format sniff reads past a long head of blank and comment lines
    (parse_graph, " \n" * 3000 + "e 1 2\n", "line 3001: edge before 'p edge' header"),
    (parse_graph, "#" + "x" * 9000 + "\r\n0 1\n1 1\n", "line 3: self-loop at 1"),
    # a line cut at the end of the sniffed prefix reads "e", in whole "ex 1"
    (parse_graph, "\n" * 4095 + "ex 1\n", "line 4096: vertex labels must be integers"),
    (parse_dimacs, "", "line 1: missing 'p edge' header"),
    (parse_graph, "c one\nc two\n\nc four\n", "line 4: missing 'p edge' header"),
    # int() reads the first three as 10, 3 and 3, so a malformed file would
    # be read as another graph; only ASCII digits after an optional minus
    # sign are vertex numbers and header counts
    *((parse, text.format(token), message)
      for token in ("1_0", "+3", "\u0663", "\u00b3")
      for parse, text, message in (
          (parse_edge_list, "0 1\n1 {}\n", "line 2: vertex labels must be integers"),
          (parse_dimacs, "p edge 3 1\ne 1 {}\n", "line 2: vertex labels must be integers"),
          (parse_dimacs, "p edge {} 1\n", "line 1: bad header counts"),
          (parse_dimacs, "p edge 3 {}\n", "line 1: bad header counts"))),
]

CONSTRUCTOR_MESSAGES = [
    ((-1, ()), "vertex count must be nonnegative"),
    ((3, [(0, 3)]), "edge (0, 3) out of range for n=3"),
    ((3, [(-1, 2)]), "edge (-1, 2) out of range for n=3"),
    ((3, [(1, 1)]), "self-loop at vertex 1"),
    ((3, [(1, 1), (0, 5)]), "self-loop at vertex 1"),
    ((3, [(0, 5), (1, 1)]), "edge (0, 5) out of range for n=3"),
]


@pytest.mark.parametrize("parse, text, message", PARSE_MESSAGES,
                         ids=[f"{p.__name__}-{i}" for i, (p, _, _) in enumerate(PARSE_MESSAGES)])
def test_parse_error_messages_unchanged(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize("args, message", CONSTRUCTOR_MESSAGES)
def test_constructor_messages_unchanged(args, message):
    with pytest.raises(ValueError) as info:
        Graph(*args)
    assert str(info.value) == message


BIG = "1" + "0" * 5000
LONG_NUMBERS = [
    (parse_edge_list, f"0 1\n1 {BIG}\n", "line 2: vertex labels must be integers"),
    (parse_dimacs, f"p edge 3 1\ne 1 {BIG}\n", "line 2: vertex labels must be integers"),
    # the long number is the edge count: were it read as the vertex count,
    # the graph would allocate that many lists
    (parse_dimacs, f"p edge 3 {BIG}\n", "line 1: bad header counts"),
]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no limit on int digits")
@pytest.mark.parametrize("parse, text, message", LONG_NUMBERS,
                         ids=["edge-list", "dimacs-edge", "dimacs-header"])
@pytest.mark.parametrize("limit", [None, 0], ids=["default-limit", "no-limit"])
def test_long_numbers_refused_whatever_the_digit_limit(parse, text, message, limit):
    # under Python's default limit int() refuses these; the parsers refuse
    # them too where a caller (the CLI) has lifted it
    default = sys.get_int_max_str_digits()
    if limit is not None:
        sys.set_int_max_str_digits(limit)
    try:
        with pytest.raises(ParseError) as info:
            parse(text)
        # long words in comments stay harmless
        assert parse_edge_list(f"0 1 # {BIG}\n").m == 1
        assert parse_dimacs(f"c {BIG}\np edge 2 1\ne 1 2\n").m == 1
    finally:
        sys.set_int_max_str_digits(default)
    assert str(info.value) == message


def test_format_sniff_past_a_long_head():
    g = parse_graph("c note\n" * 2000 + "p edge 3 2\ne 1 2\ne 3 2\n")
    assert g.adj == ((1,), (0, 2), (1,))
    g = parse_graph("#\n" * 5000 + "4 9\n9 2\n")
    assert g.adj == ((2,), (2,), (0, 1))


def test_parse_peak_memory():
    # the pair-set build with per-vertex frozensets peaked at 47.7 MB here;
    # the per-vertex build without them at 22.7 MB (tracemalloc, Python 3.11)
    text = write_edge_list(circulant_graph(40000, [1, 2]))
    tracemalloc.start()
    try:
        g = parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 40000 and g.m == 80000
    assert peak < 30e6


@pytest.mark.parametrize("count", ["1" + "0" * 12, "9" * 4300],
                         ids=["10^12", "4300-digits"])
def test_dimacs_header_count_refused_before_allocation(count):
    # a header may not promise more vertices than the file has characters;
    # the refusal comes before Graph would build one list per vertex
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as info:
            parse_dimacs(f"p edge {count} 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == "line 1: more vertices than the file has characters"
    assert peak < 1e6


def test_dimacs_header_count_up_to_file_length():
    assert parse_dimacs("p edge 12 0\n").n == 12          # 12 characters
    with pytest.raises(ParseError, match="line 2: more vertices"):
        parse_dimacs("c x\np edge 17 0\n")                 # 16 characters


# --- bulk reading -------------------------------------------------------------
# Files in the layout gen and the writers produce are read in bulk passes;
# every other text goes to the line parsers, which define the grammar and
# every message.  Either way a file gives the same graph or the same error.

PERTURBATIONS = (
    "none", "tab", "two spaces", "crlf", "blank line", "# comment", "c line",
    "no final newline", "leading zeros", "4300 digits", "4301 digits",
    "self-loop", "-1", "+3", "\u0663", "vertex 0", "vertex n+1", "header n",
    # three that keep the layout in part: a number left out, a digit before
    # the line's first token, the first line ended by \x0b
    "number left out", "digit first", "vertical tab")


@st.composite
def written_files(draw, kind):
    """A class member written canonically as a dense edge list, with sparse
    labels under a ``#`` header line, or as DIMACS, in any edge order and
    orientation, then changed by the perturbation ``kind``."""
    g = random_connected(draw(st.integers(6, 12)), draw(st.integers(3, 4)),
                         draw(st.integers(0, 999)))
    edges = [(u, v) if draw(st.booleans()) else (v, u)
             for u, v in draw(st.permutations(list(g.edges())))]
    form = draw(st.sampled_from(("dense", "sparse", "dimacs")))
    if form == "sparse":
        names = sorted(draw(st.sets(st.integers(0, 10 ** 6), min_size=g.n, max_size=g.n)))
        head, lines = [f"# sparse labels, n={g.n}"], [f"{names[u]} {names[v]}" for u, v in edges]
    elif form == "dimacs":
        head, lines = [f"p edge {g.n} {g.m}"], [f"e {u + 1} {v + 1}" for u, v in edges]
    else:
        head, lines = [], [f"{u} {v}" for u, v in edges]
    i = draw(st.integers(0, len(lines) - 1))        # the line changed
    words = lines[i].split(" ")
    j = len(words) - draw(st.integers(1, 2))        # the number changed
    if kind == "leading zeros":
        words[j] = "00" + words[j]
    elif kind in ("4300 digits", "4301 digits"):
        fill = draw(st.sampled_from("09"))      # the same number, or a huge one
        words[j] = words[j].rjust(int(kind[:4]), fill)
    elif kind == "self-loop":
        words[-1] = words[-2]
    elif kind in ("-1", "+3", "\u0663", "vertex 0", "vertex n+1"):
        words[j] = {"vertex 0": "0", "vertex n+1": str(g.n + 1)}.get(kind, kind)
    elif kind == "number left out":
        words[j] = ""
    elif kind == "digit first":
        words[0] = "7" + words[0]
    lines[i] = " ".join(words)
    if kind in ("tab", "two spaces"):
        lines[i] = lines[i].replace(" ", "\t" if kind == "tab" else "  ", 1)
    elif kind == "crlf":
        lines[i] += "\r"
    elif kind in ("blank line", "# comment", "c line"):
        lines.insert(i, {"blank line": "", "# comment": "# note", "c line": "c note"}[kind])
    elif kind == "header n" and form == "dimacs":
        head = [f"p edge {10 ** 6} {g.m}"]      # more than the file's characters
    text = "".join(line + "\n" for line in head + lines)
    if kind == "vertical tab":
        text = text.replace("\n", "\x0b", 1)
    elif kind == "no final newline":
        text = text[:-1]
    return text


def outcome(text):
    try:
        g = parse_graph(text)
    except ParseError as exc:
        return str(exc)
    return g.n, g.adj


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no limit on int digits")
@pytest.mark.parametrize("limit", [None, 0, 640],
                         ids=["default-limit", "no-limit", "lowest-limit"])
@pytest.mark.parametrize("kind", PERTURBATIONS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_bulk_and_line_parsers_agree(kind, limit, data):
    # parse each text as shipped and with the bulk reader off
    text = data.draw(written_files(kind))
    default = sys.get_int_max_str_digits()
    if limit is not None:
        sys.set_int_max_str_digits(limit)
    try:
        shipped = outcome(text)
        with mock.patch.object(graphcore, "_bulk_numbers", lambda body, prefix: None):
            by_lines = outcome(text)
    finally:
        sys.set_int_max_str_digits(default)
    assert shipped == by_lines


def test_canonical_files_never_reach_the_line_parsers(monkeypatch):
    def refuse(text):
        raise AssertionError("a canonical file reached the line parser")

    monkeypatch.setattr(graphcore, "_edge_list_lines", refuse)
    monkeypatch.setattr(graphcore, "_dimacs_lines", refuse)
    g = random_connected(200, 4, 1)
    labels = range(7, 7 * g.n + 7, 7)
    sparse = f"# sparse labels, n={g.n}\n" + "".join(
        f"{labels[v]} {labels[u]}\n" for u, v in g.edges())
    for text in (write_edge_list(g), write_edge_list(g, header="gen random"),
                 write_dimacs(g), sparse):
        assert parse_graph(text) == g
