"""Exact independence-number oracle.

Branch and bound over bitmask residuals: take a simplicial vertex whenever
one exists (its closed neighborhood is a clique, so some maximum independent
set contains it), prune with a greedy clique cover, and otherwise branch on
a residual vertex of maximum degree, in-branch first.  Deterministic node
counts; a node budget turns runaway instances into a clean error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphcore import Graph

DEFAULT_BUDGET = 10 ** 8


@dataclass(frozen=True)
class ExactResult:
    alpha: int
    optimal_set: frozenset
    nodes_explored: int


class BudgetExceeded(RuntimeError):
    """Node budget exhausted.  ``best_set`` is a valid independent set of
    size ``best_size`` but is not proven maximum."""

    def __init__(self, budget: int, best_size: int, best_set: frozenset, nodes: int):
        super().__init__(f"budget exceeded ({budget} nodes)")
        self.budget = budget
        self.best_size = best_size
        self.best_set = best_set
        self.nodes = nodes


def _mask_to_set(mask: int) -> frozenset:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def _adjacency_masks(g: Graph) -> list[int]:
    """Each vertex's neighbourhood as a bitmask."""
    return [sum(1 << v for v in nbrs) for nbrs in g.adj]


def exact_alpha(g: Graph, budget: int = DEFAULT_BUDGET) -> ExactResult:
    n = g.n
    if n == 0:
        return ExactResult(0, frozenset(), 0)
    if budget < 1:
        raise ValueError("budget must be positive")
    nbr = _adjacency_masks(g)

    best_size = 0
    best_mask = 0
    nodes = 0

    def cover_bound(mask: int) -> int:
        # greedy clique cover: alpha takes at most one vertex per clique
        cliques: list[int] = []
        mm = mask
        while mm:
            low = mm & -mm
            v = low.bit_length() - 1
            mm ^= low
            for idx, cm in enumerate(cliques):
                if cm & ~nbr[v] == 0:       # v adjacent to every member
                    cliques[idx] = cm | low
                    break
            else:
                cliques.append(low)
        return len(cliques)

    # depth-first worklist of (mask, size, chosen); the in-branch is pushed
    # last so it is searched first
    stack = [((1 << n) - 1, 0, 0)]
    while stack:
        if nodes >= budget:
            raise BudgetExceeded(budget, best_size, _mask_to_set(best_mask), nodes)
        mask, size, chosen = stack.pop()
        nodes += 1
        # reduction: repeatedly take the lowest simplicial vertex.  A scan
        # that finds none has seen every residual vertex, and its maximum
        # residual degree (ties to the smallest index) names the branch vertex
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


def naive_alpha(g: Graph) -> ExactResult:
    """Enumerate all 2**n subsets; integrity oracle for small n only."""
    n = g.n
    if n > 22:
        raise ValueError("naive enumeration is exponential; refusing n > 22")
    nbr = _adjacency_masks(g)
    best_size, best_mask = 0, 0
    for s in range(1 << n):
        if s.bit_count() <= best_size:
            continue
        mm = s
        ok = True
        while mm:
            low = mm & -mm
            v = low.bit_length() - 1
            mm ^= low
            if nbr[v] & s:
                ok = False
                break
        if ok:
            best_size, best_mask = s.bit_count(), s
    return ExactResult(best_size, _mask_to_set(best_mask), 1 << n)


def is_independent(g: Graph, s: Iterable[int]) -> bool:
    vs = frozenset(s)
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        if not vs.isdisjoint(g.adj[v]):
            return False
    return True
