import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphabound.bounds import c_bound
from alphabound.exact import exact_alpha
from alphabound.families import (attach_cliques, chain_blocks, circulant_graph,
                                 complete_graph, cycle_graph,
                                 cycle_with_pendants, path_graph,
                                 petersen_graph, random_connected,
                                 regular_blocks, regular_template, star_graph)
from alphabound.graphcore import Graph, degree_profile, is_in_class, require_in_class


def test_basic_generators():
    assert complete_graph(4).m == 6
    assert cycle_graph(5).m == 5
    assert path_graph(4).m == 3
    assert star_graph(6).max_degree() == 6
    g = petersen_graph()
    assert g.n == 10 and g.m == 15
    assert all(g.degree(v) == 3 for v in range(10))
    assert g.is_connected()


def test_generator_validation():
    with pytest.raises(ValueError):
        complete_graph(0)
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        path_graph(0)
    with pytest.raises(ValueError):
        star_graph(-1)


def test_circulant():
    g = circulant_graph(9, (1, 2))
    assert all(g.degree(v) == 4 for v in range(9))
    with pytest.raises(ValueError, match="offsets"):
        circulant_graph(6, (4,))
    with pytest.raises(ValueError, match="at least three vertices"):
        circulant_graph(2, ())
    # offset n/2 contributes one edge per vertex pair, not two
    g = circulant_graph(6, (3,))
    assert g.m == 3


def test_regular_template():
    t = regular_template(3, 4)
    assert t == complete_graph(4)
    t = regular_template(4, 7)
    assert all(t.degree(v) == 4 for v in range(7))
    t = regular_template(5, 8)
    assert all(t.degree(v) == 5 for v in range(8))
    with pytest.raises(ValueError, match="must be even"):
        regular_template(3, 5)
    with pytest.raises(ValueError, match="delta"):
        regular_template(4, 3)


@pytest.mark.parametrize("delta,k", [(3, 4), (3, 6), (4, 5), (4, 6), (5, 6)])
def test_regular_blocks(delta, k):
    template = regular_template(delta, k)
    g = regular_blocks(delta, template)
    assert g.n == k * delta
    assert all(g.degree(v) == delta for v in range(g.n))
    assert g.is_connected()
    assert is_in_class(g, delta)
    # independence number equals the template order: one vertex per block
    assert exact_alpha(g).alpha == k
    assert c_bound(g) == k


def test_regular_blocks_validation():
    with pytest.raises(ValueError, match="block degree must be at least 3"):
        regular_blocks(2, cycle_graph(4))
    with pytest.raises(ValueError, match="regular"):
        regular_blocks(3, path_graph(4))
    with pytest.raises(ValueError, match="connected"):
        regular_blocks(3, circulant_graph(6, (3,)).__class__(
            8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)]))


@pytest.mark.parametrize("delta", [3, 4, 5, 6])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_chain_blocks_profile(delta, k):
    g = chain_blocks(delta, k)
    assert g.n == k * delta
    assert require_in_class(g) == delta
    p = degree_profile(g)
    assert p.count(delta) == 2 * k - 2
    assert p.count(delta - 1) == k * delta - (2 * k - 2)
    assert exact_alpha(g).alpha == k


def test_chain_single_block_is_complete():
    assert chain_blocks(4, 1) == complete_graph(4)


# reference copies of the straightforward generators: chain_blocks
# rescanning for the attachment vertex, circulant_graph collecting a pair set

def reference_chain_blocks(delta, k):
    edges = []
    deg = [0] * (k * delta)
    def add(u, v):
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
    for a, b in combinations(range(delta), 2):
        add(a, b)
    for block in range(1, k):
        x = next(v for v in range(block * delta) if deg[v] == delta - 1)
        base = block * delta
        for a, b in combinations(range(base, base + delta), 2):
            add(a, b)
        add(x, base)
    return Graph(k * delta, edges)


def reference_circulant_graph(n, offsets):
    offs = sorted(set(offsets))
    edges = set()
    for i in range(n):
        for o in offs:
            edges.add((i, (i + o) % n))
    return Graph(n, edges)


@pytest.mark.parametrize("delta", range(3, 7))
def test_chain_blocks_matches_reference(delta):
    for k in range(1, 61):
        assert chain_blocks(delta, k) == reference_chain_blocks(delta, k), k


def test_circulant_graph_matches_reference():
    for n in range(3, 81):
        valid = range(1, n // 2 + 1)
        for size in range(3):
            for offs in combinations(valid, size):
                assert circulant_graph(n, offs) == \
                    reference_circulant_graph(n, offs), (n, offs)


@pytest.mark.parametrize("delta,k,j", [(4, 2, 1), (4, 2, 2), (5, 3, 1),
                                       (5, 2, 3), (6, 2, 2)])
def test_attach_cliques_profile(delta, k, j):
    g = attach_cliques(delta, k, j)
    t = k * delta - (2 * k - 2)       # number of attachment anchors
    p = degree_profile(g)
    assert g.n == k * delta + t * (j + 1)
    # every anchor rises to degree delta; each attached clique puts one
    # vertex in class j+1 and j vertices in class j
    assert p.count(delta) == k * delta
    assert p.count(j + 1) == t
    assert p.count(j) == j * t
    assert require_in_class(g) == delta
    assert exact_alpha(g).alpha == k + t
    assert c_bound(g) == k + t


def test_attach_cliques_validation():
    with pytest.raises(ValueError, match="parameter must be in"):
        attach_cliques(4, 2, 3)
    with pytest.raises(ValueError, match="parameter must be in"):
        attach_cliques(4, 2, 0)
    with pytest.raises(ValueError, match="two blocks"):
        attach_cliques(4, 1, 1)


def test_cycle_with_pendants_profile():
    g = cycle_with_pendants(10)
    assert g.n == 21
    p = degree_profile(g)
    assert p.count(1) == 11
    assert p.count(2) == 0           # the whole point of the extra pendant
    assert p.count(3) == 9
    assert p.count(4) == 1
    assert exact_alpha(g).alpha == 11


@pytest.mark.parametrize("n", [3, 4, 7, 13])
def test_cycle_with_pendants_never_degree_two(n):
    g = cycle_with_pendants(n)
    assert degree_profile(g).count(2) == 0
    assert exact_alpha(g).alpha == n + 1


def test_random_connected_deterministic_and_in_class():
    for seed in range(40):
        g1 = random_connected(12, 5, seed)
        g2 = random_connected(12, 5, seed)
        assert g1 == g2
        assert is_in_class(g1, 5)


def test_random_connected_avoids_complete_graph():
    # n = delta+1 forces the generator to dodge the excluded clique
    for seed in range(20):
        g = random_connected(4, 3, seed)
        assert is_in_class(g, 3)
        assert not g.is_complete()


def test_random_connected_output_pinned():
    # the benchmark corpora and their golden values are built from these
    # graphs; n = delta+1 and delta+2 run the retry past K_{delta+1}
    h = hashlib.sha256()
    for delta in range(3, 7):
        for n in (delta + 1, delta + 2, 10, 40, 100):
            for seed in range(25):
                h.update(repr(random_connected(n, delta, seed).adj).encode())
    assert h.hexdigest() == "4ed108e4933c9cfcaceca5ddd9a4fbeacf01e440710cd1ebb233ecf87dea502d"


def reference_random_connected(n, delta, seed):
    """random_connected as it was with a list of open parents, which
    ``parents.remove`` scans: the reference for the Fenwick-tree draw."""
    rng = random.Random(seed)
    max_m = n * delta // 2
    for _ in range(1000):
        deg = [0] * n
        edges = set()

        def addable(u, v):
            return (u != v and deg[u] < delta and deg[v] < delta
                    and (min(u, v), max(u, v)) not in edges)

        def add(u, v):
            edges.add((min(u, v), max(u, v)))
            deg[u] += 1
            deg[v] += 1

        order = list(range(n))
        rng.shuffle(order)
        parents = order[:1]
        for v in order[1:]:
            u = rng.choice(parents)
            add(u, v)
            if deg[u] == delta:
                parents.remove(u)
            parents.append(v)
        m_target = rng.randint(n - 1, max_m)
        for _ in range(10 * max_m):
            if len(edges) >= m_target:
                break
            u, v = rng.randrange(n), rng.randrange(n)
            if addable(u, v):
                add(u, v)
        u = max(range(n), key=lambda t: (deg[t], -t))
        while deg[u] < delta:
            cands = [v for v in range(n) if addable(u, v)]
            if not cands:
                break
            add(u, rng.choice(cands))
        g = Graph(n, edges)
        if is_in_class(g, delta):
            return g
    raise ValueError("no graph")


def test_random_connected_matches_list_reference():
    # sizes on both sides of each power of two, where the Fenwick descent
    # changes its number of steps; 1080 graphs
    for delta in range(3, 9):
        for n in (delta + 1, delta + 2, 15, 16, 17, 63, 64, 65, 300):
            for seed in range(20):
                assert (random_connected(n, delta, seed)
                        == reference_random_connected(n, delta, seed)), (n, delta, seed)


def test_random_connected_validation():
    with pytest.raises(ValueError, match="delta \\+ 1"):
        random_connected(3, 3, 0)
    with pytest.raises(ValueError, match="at least 3"):
        random_connected(5, 2, 0)


@given(st.integers(3, 6), st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_random_connected_properties(delta, seed):
    n = delta + 1 + seed % 10
    g = random_connected(n, delta, seed)
    assert g.n == n
    assert g.max_degree() == delta
    assert g.is_connected()
    assert not (g.n == delta + 1 and g.is_complete())
