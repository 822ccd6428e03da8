"""Exact solver against the brute-force oracle and structured instances."""

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphabound.exact import (BudgetExceeded, ExactResult, _adjacency_masks,
                              _mask_to_set, exact_alpha)
from alphabound.families import (attach_cliques, chain_blocks, complete_graph,
                                 cycle_graph, path_graph, petersen_graph,
                                 random_connected, star_graph)
from alphabound.graphcore import Graph, is_independent


def naive_alpha(g):
    """Size of the largest independent vertex subset, found by trying every
    subset from n vertices down; shares no code with the solver."""
    return next(k for k in range(g.n, -1, -1)
                if any(is_independent(g, s) for s in combinations(range(g.n), k)))


def random_graph(n, p, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


def test_known_values():
    assert exact_alpha(petersen_graph()).alpha == 4
    assert exact_alpha(cycle_graph(5)).alpha == 2
    assert exact_alpha(cycle_graph(8)).alpha == 4
    assert exact_alpha(star_graph(5)).alpha == 5
    assert exact_alpha(complete_graph(7)).alpha == 1
    assert exact_alpha(Graph(6)).alpha == 6
    for n in range(1, 9):
        assert exact_alpha(path_graph(n)).alpha == (n + 1) // 2


def test_result_set_is_certified():
    g = petersen_graph()
    r = exact_alpha(g)
    assert len(r.optimal_set) == r.alpha == 4
    assert is_independent(g, r.optimal_set)
    assert r.nodes_explored >= 1


@given(st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_matches_naive_enumeration(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    g = random_graph(n, rng.choice([0.1, 0.3, 0.5, 0.8]), seed)
    assert exact_alpha(g).alpha == naive_alpha(g)


def test_budget_exhaustion():
    g = random_connected(40, 6, seed=3)
    with pytest.raises(BudgetExceeded, match="budget exceeded") as ei:
        exact_alpha(g, budget=5)
    exc = ei.value
    assert exc.budget == 5
    assert exc.nodes == 5
    assert is_independent(g, exc.best_set)
    assert exc.best_size == len(exc.best_set)
    # best-so-far never beats the true optimum
    assert exc.best_size <= exact_alpha(g).alpha


def test_budget_validation():
    with pytest.raises(ValueError, match="positive"):
        exact_alpha(Graph(2), budget=0)
    with pytest.raises(ValueError, match="positive"):
        exact_alpha(Graph(0), budget=0)


def test_clique_trees_solved_without_branching():
    # simplicial vertices dissolve block constructions at the reduction step
    for g in (chain_blocks(4, 5), attach_cliques(4, 3, 2), star_graph(6)):
        r = exact_alpha(g)
        assert r.nodes_explored <= g.n


def test_is_independent_validation():
    g = path_graph(3)
    assert is_independent(g, [0, 2])
    assert not is_independent(g, [0, 1])
    assert is_independent(g, [])
    with pytest.raises(ValueError, match="out of range"):
        is_independent(g, [7])


def test_empty_graph():
    r = exact_alpha(Graph(0))
    assert r.alpha == 0 and r.optimal_set == frozenset()


def digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_search_order_pinned():
    # optimal sets and node counts depend on the order the search visits nodes
    rows = []
    for n in (30, 45, 60):
        for s in range(5):
            r = exact_alpha(random_connected(n, 4, s))
            rows.append((n, s, r.alpha, r.nodes_explored, sorted(r.optimal_set)))
    assert digest(rows) == \
        "2e7829c7e1eb46d12f9689c41130e27de05552923133efcb0df073a8fecf2157"


def test_best_so_far_pinned():
    g = random_connected(90, 4, 9)      # 1533 nodes to solve
    rows = []
    for b in (10, 100, 1000, 2000):
        try:
            r = exact_alpha(g, budget=b)
            rows.append((b, r.alpha, sorted(r.optimal_set), r.nodes_explored))
        except BudgetExceeded as exc:
            rows.append((b, exc.best_size, sorted(exc.best_set), exc.nodes))
    assert digest(rows) == \
        "e38ee99700b832ea67aeafe97fd60d3391ae73ded5408b8cc06ed58b8fb79ced"


def test_deep_best_so_far_pinned():
    # a residual deep enough that the reduction and the cover see hundreds
    # of search levels before the budget runs out
    with pytest.raises(BudgetExceeded) as ei:
        exact_alpha(random_connected(150, 4, 1), budget=5000)
    exc = ei.value
    assert digest((exc.best_size, sorted(exc.best_set), exc.nodes)) == \
        "e52a4453b2bc28dfa94fd129d74dbb17b4cc2bdd557f1487f87442173188cb94"


def reference_alpha(g, budget):
    """The same search without its shortcuts: the reduction rescans the
    whole residual after every pick, and the cover tests each vertex against
    every clique so far.  exact_alpha must visit the same nodes in the same
    order."""
    n = g.n
    if n == 0:
        return ExactResult(0, frozenset(), 0)
    nbr = _adjacency_masks(g)
    best_size = best_mask = nodes = 0

    def cover_bound(mask):
        cliques = []
        mm = mask
        while mm:
            low = mm & -mm
            v = low.bit_length() - 1
            mm ^= low
            for idx, cm in enumerate(cliques):
                if cm & ~nbr[v] == 0:
                    cliques[idx] = cm | low
                    break
            else:
                cliques.append(low)
        return len(cliques)

    stack = [((1 << n) - 1, 0, 0)]
    while stack:
        if nodes >= budget:
            raise BudgetExceeded(budget, best_size, _mask_to_set(best_mask), nodes)
        mask, size, chosen = stack.pop()
        nodes += 1
        while True:
            picked = bv = bd = -1
            mm = mask
            while mm and picked < 0:
                low = mm & -mm
                v = low.bit_length() - 1
                mm ^= low
                cm = nbr[v] & mask
                d = cm.bit_count()
                if d > bd:
                    bv, bd = v, d
                cc = cm
                while cc:
                    ul = cc & -cc
                    u = ul.bit_length() - 1
                    cc ^= ul
                    if cm & ~(nbr[u] | ul):
                        break
                else:
                    picked = v
            if picked < 0:
                break
            bit = 1 << picked
            size += 1
            chosen |= bit
            mask &= ~(bit | nbr[picked])
        if not mask:
            if size > best_size:
                best_size = size
                best_mask = chosen
            continue
        if size + cover_bound(mask) <= best_size:
            continue
        bit = 1 << bv
        stack.append((mask & ~bit, size, chosen))
        stack.append((mask & ~(bit | nbr[bv]), size + 1, chosen | bit))
    return ExactResult(best_size, _mask_to_set(best_mask), nodes)


def outcome(solver, g, budget):
    try:
        r = solver(g, budget=budget)
    except BudgetExceeded as exc:
        return ("budget", exc.best_size, sorted(exc.best_set), exc.nodes)
    return ("solved", r.alpha, sorted(r.optimal_set), r.nodes_explored)


@st.composite
def mixed_graphs(draw):
    """A random graph on up to 40 vertices, with some isolated vertices and
    disjoint cliques, under a random labelling."""
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    sizes = draw(st.lists(st.integers(1, 5), max_size=4))
    n = draw(st.integers(0, 40 - sum(sizes)))
    p = draw(st.floats(0.1, 0.8))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    start = n
    for k in sizes:
        edges += [(u, v) for u in range(start, start + k)
                  for v in range(u + 1, start + k)]
        start += k
    label = list(range(start))
    rng.shuffle(label)
    return Graph(start, [(label[u], label[v]) for u, v in edges])


@given(mixed_graphs())
@settings(max_examples=150, deadline=None)
def test_same_search_as_reference(g):
    for budget in (1, 7, 50, float("inf")):
        assert outcome(exact_alpha, g, budget) == \
            outcome(reference_alpha, g, budget)


@given(st.integers(60, 110), st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_same_search_as_reference_connected(n, seed):
    # the largest budget stands in for an unlimited one: a search that ends
    # under it gives the unlimited result, and one that does not compares
    # its best set so far
    g = random_connected(n, 4, seed)
    for budget in (1, 7, 50, 3000):
        assert outcome(exact_alpha, g, budget) == \
            outcome(reference_alpha, g, budget)
