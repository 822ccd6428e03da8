"""Exact solver against the brute-force oracle and structured instances."""

import hashlib
import json
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphabound.exact import BudgetExceeded, ExactResult, exact_alpha
from alphabound.families import (attach_cliques, chain_blocks, complete_graph,
                                 cycle_graph, path_graph, petersen_graph,
                                 random_connected, star_graph)
from alphabound.graphcore import Graph, is_independent

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"


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
        "9cc22f371c6fa41d5f57954f3426b9f6dd60976e2f9649a3382c08341e63a3df"


def test_best_so_far_pinned():
    g = random_connected(90, 4, 9)      # 105 nodes to solve
    rows = []
    for b in (10, 100, 1000, 2000):
        try:
            r = exact_alpha(g, budget=b)
            rows.append((b, r.alpha, sorted(r.optimal_set), r.nodes_explored))
        except BudgetExceeded as exc:
            rows.append((b, exc.best_size, sorted(exc.best_set), exc.nodes))
    assert digest(rows) == \
        "391cd1daa4a0309fc68223249b15ad688d3d640b5cc2c39ee76f72bcd874ed4d"


def test_deep_best_so_far_pinned():
    # the budget runs out deep in the search, with folds on the trail,
    # before the search finds alpha = 63
    with pytest.raises(BudgetExceeded) as ei:
        exact_alpha(random_connected(150, 4, 1), budget=2000)
    exc = ei.value
    assert digest((exc.best_size, sorted(exc.best_set), exc.nodes)) == \
        "bc6ea1aef8e484207bb505a4536c6b964e621ce10f71773a4826229cd9760b64"


def reference_alpha(g, budget):
    """The same search written plainly: each node copies its residual as a
    dict of neighbour sets, and every rule rescans the whole residual.  The
    rules, in order: take the lowest simplicial vertex; else fold the lowest
    vertex v of degree 2, whose neighbours u < w are then not adjacent, by
    merging w into u; else prune by the greedy clique cover and branch on
    the lowest vertex of maximum degree, in-branch first.  A leaf's set is
    unfolded newest fold first.  exact_alpha must visit the same nodes in
    the same order."""
    if g.n == 0:
        return ExactResult(0, frozenset(), 0)
    best_size, best_set, nodes = 0, frozenset(), 0

    def without(res, drop):
        return {v: ns - drop for v, ns in res.items() if v not in drop}

    def simplicial(res, v):
        return all(b in res[a] for a, b in combinations(res[v], 2))

    def cover_size(res):
        cliques = []
        for v in sorted(res):
            for clique in cliques:
                if clique <= res[v]:
                    clique.add(v)
                    break
            else:
                cliques.append({v})
        return len(cliques)

    stack = [({v: set(g.adj[v]) for v in range(g.n)}, 0, frozenset(), ())]
    while stack:
        if nodes >= budget:
            raise BudgetExceeded(budget, best_size, best_set, nodes)
        res, size, chosen, folds = stack.pop()
        nodes += 1
        while True:
            picks = [v for v in sorted(res) if simplicial(res, v)]
            if picks:
                v = picks[0]
                res = without(res, res[v] | {v})
                size += 1
                chosen |= {v}
                continue
            twos = [v for v in sorted(res) if len(res[v]) == 2]
            if not twos:
                break
            v = twos[0]
            u, w = sorted(res[v])
            merged = (res[u] | res[w]) - {v, w}
            res = without(res, {v, w})
            for x in merged:
                res[x].add(u)
            res[u] = merged
            folds += ((u, v, w),)
            size += 1
        if not res:
            if size > best_size:
                for u, v, w in reversed(folds):
                    chosen |= {w} if u in chosen else {v}
                best_size, best_set = size, chosen
            continue
        if size + cover_size(res) <= best_size:
            continue
        bv = min(res, key=lambda v: (-len(res[v]), v))
        stack.append((without(res, {bv}), size, chosen, folds))
        stack.append((without(res, res[bv] | {bv}), size + 1, chosen | {bv}, folds))
    return ExactResult(best_size, best_set, nodes)


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


def test_alpha_of_every_golden_random_member():
    # alpha as recorded for the benchmark's random_connected(n, 4, s) pool
    # members ("rc:n:s"); the file is only read
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    members = [(key, rec["exact"]["alpha"]) for key, rec in golden.items()
               if key.startswith("rc:") and "exact" in rec]
    assert len(members) == 240
    for key, alpha in members:
        _, n, seed = key.split(":")
        assert exact_alpha(random_connected(int(n), 4, int(seed))).alpha == alpha, key


def test_sparse_members_at_150_within_10k_nodes():
    for seed in range(10):
        g = random_connected(150, 4, seed)
        r = exact_alpha(g, budget=10_000)
        assert len(r.optimal_set) == r.alpha and is_independent(g, r.optimal_set)


@st.composite
def fold_graphs(draw):
    """A path, a cycle or a mixed graph under a random labelling."""
    kind = draw(st.sampled_from(["path", "cycle", "mixed"]))
    if kind == "mixed":
        return draw(mixed_graphs())
    g = (path_graph if kind == "path" else cycle_graph)(draw(st.integers(3, 30)))
    label = draw(st.permutations(range(g.n)))
    return Graph(g.n, [(label[u], label[v]) for u in range(g.n) for v in g.adj[u] if u < v])


@given(fold_graphs())
@settings(max_examples=60, deadline=None)
def test_best_sets_independent_in_input_numbering(g):
    for budget in range(1, 51):
        try:
            r = exact_alpha(g, budget=budget)
            found, size = r.optimal_set, r.alpha
        except BudgetExceeded as exc:
            found, size = exc.best_set, exc.best_size
        assert len(found) == size and is_independent(g, found)
