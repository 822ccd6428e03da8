"""Exact independence-number oracle.

Branch and bound over bitmask residuals: take a simplicial vertex whenever
one exists (its closed neighborhood is a clique, so some maximum independent
set contains it), prune with a greedy clique cover, and otherwise branch on
a residual vertex of maximum degree, in-branch first.  Deterministic node
counts; a node budget turns runaway instances into a clean error.

Removing vertices can make a vertex simplicial only if one of its neighbours
went, so each search node carries a mask of the residual vertices whose
status is unknown; every other residual vertex is known not to be
simplicial.  The reduction scans only that mask, and the lowest simplicial
vertex is always in it.  One pass over the final residual then builds the
cover, in which a vertex can only join a clique holding one of its
neighbours, and names the branch vertex.
"""

from __future__ import annotations

from typing import NamedTuple

# BudgetExceeded, DEFAULT_BUDGET and is_independent are re-exported here
from .graphcore import (DEFAULT_BUDGET, BudgetExceeded, Graph,  # noqa: F401
                        is_independent)


class ExactResult(NamedTuple):
    alpha: int
    optimal_set: frozenset
    nodes_explored: int


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
    if budget < 1:
        raise ValueError("budget must be positive")
    n = g.n
    if n == 0:
        return ExactResult(0, frozenset(), 0)
    nbr = _adjacency_masks(g)
    owner = [0] * n     # each vertex's clique in the current cover pass

    best_size = 0
    best_mask = 0
    nodes = 0

    def around(removed: int) -> int:
        # the vertices whose simplicial status removing `removed` can change
        out = 0
        while removed:
            low = removed & -removed
            out |= nbr[low.bit_length() - 1]
            removed ^= low
        return out

    # depth-first worklist of (mask, unknown, size, chosen); the in-branch
    # is pushed last so it is searched first
    full = (1 << n) - 1
    stack = [(full, full, 0, 0)]
    while stack:
        if nodes >= budget:
            raise BudgetExceeded(budget, best_size, _mask_to_set(best_mask), nodes)
        mask, unknown, size, chosen = stack.pop()
        nodes += 1
        # reduction: repeatedly take the lowest simplicial vertex, which is
        # the lowest simplicial one in `unknown`
        while unknown:
            low = unknown & -unknown
            cm = nbr[low.bit_length() - 1] & mask
            cc = cm
            while cc:
                ul = cc & -cc
                cc ^= ul
                if cm & ~(nbr[ul.bit_length() - 1] | ul):
                    unknown ^= low          # not simplicial
                    break
            else:
                size += 1
                chosen |= low
                mask ^= cm | low
                unknown = (unknown | around(cm | low)) & mask
        if not mask:
            if size > best_size:
                best_size = size
                best_mask = chosen
            continue
        # greedy clique cover (alpha takes at most one vertex per clique): v
        # joins the first clique, in creation order, inside N(v), and only
        # the clique of a neighbour placed before v can be one.  The same
        # pass names the branch vertex: maximum residual degree, ties to the
        # smallest index
        cliques: list[int] = []
        bv = bd = -1
        mm = mask
        while mm:
            low = mm & -mm
            v = low.bit_length() - 1
            mm ^= low
            cm = nbr[v] & mask
            d = cm.bit_count()
            if d > bd:
                bv, bd = v, d
            first = len(cliques)
            cc = cm & (low - 1)
            while cc:
                ul = cc & -cc
                cc ^= ul
                idx = owner[ul.bit_length() - 1]
                if idx < first and not cliques[idx] & ~cm:
                    first = idx
            if first == len(cliques):
                cliques.append(low)
            else:
                cliques[first] |= low
            owner[v] = first
        if size + len(cliques) <= best_size:
            continue
        bit = 1 << bv
        taken = (nbr[bv] & mask) | bit
        stack.append((mask ^ bit, taken ^ bit, size, chosen))
        stack.append((mask ^ taken, around(taken) & (mask ^ taken),
                      size + 1, chosen | bit))
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

