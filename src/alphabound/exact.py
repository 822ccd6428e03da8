"""Exact independence-number oracle.

Branch and bound over bitmask residuals.  At each search node the rules run
in this order:

1. Take the lowest simplicial vertex (its closed neighbourhood is a clique,
   so some maximum independent set contains it); repeat.
2. When none is left, fold the lowest vertex v of degree 2.  Its neighbours
   u < w are then not adjacent, else v would be simplicial.  w merges into
   u, which keeps the id u and becomes adjacent to N(u) ∪ N(w) − {v, w};
   v and w leave, and α(G) = α(G′) + 1 (Chen, Kanj & Jia, J. Algorithms 41,
   2001).  Go back to rule 1.
3. Prune with a greedy clique cover, and otherwise branch on a residual
   vertex of maximum degree, ties to the smallest index, in-branch first.

A set found in the folded graph is unfolded newest fold first: if u is in
it, w joins, else v does.  So optimal and best-so-far sets are independent
in the input graph.  Deterministic node counts; a node budget turns runaway
instances into a clean error.

The neighbour masks are changed in place, as in Akiba & Iwata's
branch-and-reduce solver (TCS 609, 2016): each change pushes (vertex, old
mask) onto an undo trail, and a fold pushes (u, old mask, v, w).  Each
search node carries the trail length at its push and undoes everything
above it when it is popped.

Removing or merging vertices can change a vertex's status only if its
neighbourhood, or an edge inside it, changed, so each search node carries a
mask of the residual vertices whose status is unknown; every other residual
vertex is known to be neither simplicial nor of degree 2.  The reduction
scans only that mask, and the lowest simplicial vertex is always in it.  One
pass over the final residual then builds the cover, in which a vertex can
only join a clique holding one of its neighbours, and names the branch
vertex.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphcore import DEFAULT_BUDGET, BudgetExceeded, Graph


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
    nbr = _adjacency_masks(g)   # changed in place by folds, undone from `trail`
    owner = [0] * n     # each vertex's clique in the current cover pass
    # the changes to `nbr` on the current search path, oldest first: a
    # (vertex, old mask) pair, or (u, old mask, v, w) for a fold
    trail: list[tuple] = []

    best_size = 0
    best_mask = 0
    nodes = 0

    def around(removed: int) -> int:
        # the vertices whose status removing `removed` can change
        out = 0
        while removed:
            low = removed & -removed
            out |= nbr[low.bit_length() - 1]
            removed ^= low
        return out

    def unfold(chosen: int) -> int:
        # newest fold first: the merged u stands for u and w, else v joins
        for entry in reversed(trail):
            if len(entry) == 4:
                u, _, v, w = entry
                chosen |= 1 << (w if chosen >> u & 1 else v)
        return chosen

    # depth-first worklist of (mask, unknown, size, chosen, mark), mark the
    # trail length at the push; the in-branch is pushed last so it is
    # searched first
    full = (1 << n) - 1
    stack = [(full, full, 0, 0, 0)]
    while stack:
        if nodes >= budget:
            raise BudgetExceeded(budget, best_size, _mask_to_set(best_mask), nodes)
        mask, unknown, size, chosen, mark = stack.pop()
        nodes += 1
        if len(trail) > mark:
            for entry in reversed(trail[mark:]):
                nbr[entry[0]] = entry[1]
            del trail[mark:]
        twos = 0    # vertices found foldable when last scanned
        while True:
            # simplicial reduction: repeatedly take the lowest simplicial
            # vertex, which is the lowest simplicial one in `unknown`
            while unknown:
                low = unknown & -unknown
                unknown ^= low
                cm = nbr[low.bit_length() - 1] & mask
                if cm.bit_count() == 2 and not nbr[(cm & -cm).bit_length() - 1] & cm:
                    twos |= low     # degree 2, neighbours not adjacent
                    continue
                twos &= ~low
                cc = cm
                # each non-adjacent pair in N(low) is caught from its lower member
                while cc:
                    ul = cc & -cc
                    cc ^= ul
                    if cc & ~nbr[ul.bit_length() - 1]:
                        break       # not simplicial
                else:
                    size += 1
                    chosen |= low
                    mask ^= cm | low
                    unknown = (unknown | around(cm | low)) & mask
            twos &= mask
            if not twos:
                break
            # fold the lowest foldable v: w merges into u < w, and the pair
            # counts one vertex of the set
            vbit = twos & -twos
            cm = nbr[vbit.bit_length() - 1] & mask
            ubit = cm & -cm
            wbit = cm ^ ubit
            u = ubit.bit_length() - 1
            w = wbit.bit_length() - 1
            mask ^= vbit | wbit
            old = nbr[u]
            trail.append((u, old, vbit.bit_length() - 1, w))
            nbr[u] = (old | nbr[w]) & mask
            xs = gained = nbr[w] & mask & ~old
            while xs:
                low = xs & -xs
                xs ^= low
                x = low.bit_length() - 1
                trail.append((x, nbr[x]))
                nbr[x] ^= wbit | ubit
            size += 1
            # the neighbourhoods of u and of w's neighbours changed; an old
            # neighbour of u keeps its own, which gains an edge only if it
            # holds a vertex that gained u
            unknown = (ubit | nbr[w] | (old & around(gained))) & mask
        if not mask:
            if size > best_size:
                best_size = size
                best_mask = unfold(chosen)
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
        mark = len(trail)
        stack.append((mask ^ bit, taken ^ bit, size, chosen, mark))
        stack.append((mask ^ taken, around(taken) & (mask ^ taken),
                      size + 1, chosen | bit, mark))
    return ExactResult(best_size, _mask_to_set(best_mask), nodes)
