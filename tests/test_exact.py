"""Exact solver against the brute-force oracle and structured instances."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphabound.exact import (BudgetExceeded, exact_alpha, is_independent,
                              naive_alpha)
from alphabound.families import (attach_cliques, chain_blocks, complete_graph,
                                 cycle_graph, path_graph, petersen_graph,
                                 random_connected, star_graph)
from alphabound.graphcore import Graph


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
    assert exact_alpha(g).alpha == naive_alpha(g).alpha


def test_naive_counts_all_subsets():
    r = naive_alpha(cycle_graph(5))
    assert r.alpha == 2
    assert r.nodes_explored == 2 ** 5
    with pytest.raises(ValueError, match="refusing"):
        naive_alpha(Graph(23))


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
