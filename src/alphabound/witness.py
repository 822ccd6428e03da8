"""Witness construction and weight-based certification.

``peel_witness`` turns the degree-weighted bound into an explicit
independent set.  It repeatedly picks a minimum-degree vertex whose
closed neighborhood can be bought for weight at most 1 (there is always
a neighbor of strictly larger degree on a shortest path toward the
maximum-degree class), deletes the closed neighborhood, and puts the
surviving components on a depth-first worklist with the weight they are
owed, so the stack depth does not grow with the graph.  Regular pieces
are finished off directly: cycles by alternation, everything else
through a constructive Brooks coloring.  Complete pieces deliver a
single vertex, which is enough because the weight handed to a clique
that lost an edge to the deleted neighborhood never exceeds 1.

Throughout the peel the ORIGINAL graph's coefficient sequence is
used; degrees only drop as vertices are deleted, and the coefficients
grow as degrees drop, so every child component's internal target covers
what its parent owes it.  Each step's accounting is an exact identity,
kept in integer multiples of 1/D for D the lcm of the coefficient
denominators, and is re-checked at runtime; any violation raises
``CertificationError`` rather than returning an uncertified set.

The clique-weighting check (a sufficient condition due to T. Kelly and
L. Postle) is independent of the peeling machinery: a nonnegative
weighting with w(v) <= 2/(2 d(v) + 1) everywhere and total at most 1 on
every maximal clique certifies that the weights sum to at most the
independence number.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, compress
from math import lcm
from typing import AbstractSet, Iterable, NamedTuple, Optional, Sequence

from .bounds import c_bound
from .coeffs import c_sequence, clipped_sequence
# CertificationError is re-exported here
from .graphcore import (CertificationError, Graph, _bfs, components_within,
                        is_independent, require_in_class)


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise CertificationError(msg)


# ---------------------------------------------------------------------------
# peel vertex selection

def select_peel_vertex(g: Graph, active: Optional[Iterable[int]] = None,
                       state: Optional[tuple] = None) -> int:
    """Minimum-degree vertex (within ``active``) chosen so that one of its
    neighbors has strictly larger degree: run a breadth-first search from
    all minimum-degree vertices at once until it reaches a maximum-degree
    vertex.  The source that vertex's search path starts at is the pick.

    The peel passes its own ``state``, (deg, alive, dmin, dmax), for the
    sorted connected piece ``active``: deg[v] is v's degree inside the
    piece, ``alive`` holds the piece and none of its other neighbors, and
    dmin and dmax are the piece's extreme degrees.  No vertex set, degree
    table or connectivity search is then built for the piece."""
    if state is None:
        vset = set(range(g.n) if active is None else active)
        if not vset:
            raise ValueError("empty vertex set")
        active = sorted(vset)
        if len(_bfs(g, active[:1], vset)) != len(vset):
            raise ValueError("active set must induce a connected graph")
        nbr = g.neighbor_sets()
        deg = {v: len(nbr[v] & vset) for v in active}
        state = deg, vset, min(deg.values()), max(deg.values())
    deg, alive, dmin, dmax = state
    if dmin == dmax:
        raise ValueError("no peel vertex in regular graph")
    # the sources are the piece's minimum-degree vertices, dequeued in
    # sorted order ahead of the vertices they discover; a discovered vertex
    # has degree above dmin, and the first of degree dmax ends the search,
    # so a source with such a neighbor ends it in the first layer
    sources = compress(active, map(dmin.__eq__, map(deg.__getitem__, active)))
    # each discovered vertex maps to the source its path starts at and the
    # first step of that path; no source is ever discovered
    via: dict[int, tuple[int, int]] = {}
    queue: list[int] = []
    target = None
    adj = g.adj
    for v in chain(sources, queue):     # queue grows as the search runs
        for w in adj[v]:
            if w in alive and deg[w] > dmin and w not in via:
                via[w] = via[v] if v in via else (v, w)
                if deg[w] == dmax:
                    target = w
                    break
                queue.append(w)
        if target is not None:
            break
    _check(target is not None, "search never reached the maximum degree class")
    u, w = via[target]
    # the vertex w after u on the path is not a minimum-degree vertex, or
    # it would itself have been a search source at distance zero
    _check(deg[w] > dmin, "peel path neighbor fails the degree condition")
    return u


# ---------------------------------------------------------------------------
# trace records

class PeelStep(NamedTuple):
    vertex: int
    degree: int
    neighbors: tuple[int, ...]
    isolated: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    share: Fraction            # weight of the deleted closed neighborhood
    isolated_share: Fraction
    handoff_shares: tuple[Fraction, ...]
    target: Fraction           # weight of the whole piece before the step
    owed: Fraction


class BaseStep(NamedTuple):
    kind: str                  # "complete" | "cycle" | "coloring"
    vertices: tuple[int, ...]
    taken: tuple[int, ...]
    target: Fraction
    owed: Fraction


class WitnessResult(NamedTuple):
    independent_set: tuple[int, ...]
    certified_bound: Fraction
    trace: tuple


# ---------------------------------------------------------------------------
# the peeling worklist

def _ledger(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """Exact weights as integer multiples of 1/scale, scale the lcm of
    their denominators: returns (scale, [v * scale for v in values])."""
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def peel_witness(g: Graph) -> WitnessResult:
    """Independent set at least as large as the degree-weighted bound,
    together with the step-by-step accounting that certifies it."""
    bound = c_bound(g)          # runs the class check
    trace: list = []
    # weight[d] = c_d * scale on the integer ledger; no vertex of a piece
    # has degree 0, so weight[0] is never read
    scale, weight = _ledger([Fraction(0), *c_sequence(g.max_degree())])
    # deg[v] is v's degree inside its current piece.  A vertex stays alive
    # until a peel step deletes it.  Pieces are components of the alive set,
    # so `w in alive` is the in-piece test for any neighbor w of a piece
    # vertex; a base case may drop vertices of its own finished piece.
    deg = [g.degree(v) for v in range(g.n)]
    alive = set(range(g.n))

    chosen: set[int] = set()
    # perfbench/traced.py finds the peel by this closure's name, "rec".  It
    # counts one call of the module global select_peel_vertex per PeelStep,
    # and takes the pieces handed on from the one components_within call a
    # step makes here, which must return every component the step hands on.
    def rec(piece: tuple[int, ...], owed: int) -> list[tuple[tuple[int, ...], int]]:
        """Settle one sorted piece; return its (component, handoff) pairs."""
        degs = list(map(deg.__getitem__, piece))
        k = len(piece)
        target = sum(map(weight.__getitem__, degs))
        dmin = min(degs)
        dmax = max(degs)
        if dmin == k - 1:
            # complete piece: one vertex, owed at most 1 since some vertex
            # lost an outside neighbor (the peel never owes a clique its
            # full internal weight)
            _check(owed <= scale, "complete component owed more than one vertex")
            trace.append(BaseStep("complete", piece, piece[:1],
                                  Fraction(target, scale), Fraction(owed, scale)))
            chosen.add(piece[0])
            return []
        _check(owed <= target, "piece owed more than its own weight")
        if dmin == dmax:
            if dmin == 2:
                taken = _alternate_cycle(g, piece, alive)
                kind = "cycle"
            else:
                taken = set(_largest_class(_color_regular(g, piece, dmin, alive)))
                kind = "coloring"
            _check(len(taken) * scale >= target,
                   "regular base case fell short of its weight")
            trace.append(BaseStep(kind, piece, tuple(sorted(taken)),
                                  Fraction(target, scale), Fraction(owed, scale)))
            chosen.update(taken)
            return []
        u = select_peel_vertex(g, piece, (deg, alive, dmin, dmax))
        nbrs = tuple(w for w in g.adj[u] if w in alive)
        share = weight[deg[u]] + sum([weight[deg[w]] for w in nbrs])
        _check(share <= scale, "peel share exceeds one")
        closed = (u, *nbrs)
        alive.difference_update(closed)
        # delete N[u]: only the surviving neighbors of deleted vertices lose
        # degree; keep their degrees in the parent piece for the handoffs
        before: dict[int, int] = {}
        for x in closed:
            for y in g.adj[x]:
                if y in alive:
                    before.setdefault(y, deg[y])
                    deg[y] -= 1
        isolated = sorted(y for y in before if deg[y] == 0)
        iso_share = sum([weight[before[y]] for y in isolated])
        # every surviving component touches N[u] (the piece was connected),
        # so the non-isolated vertices that lost degree meet each of them
        seeds = [y for y in before if deg[y]]
        parts = components_within(g, set(piece).difference(closed, isolated), seeds)
        comps = [tuple(sorted(c)) for c in parts]
        # each handoff sums its whole component at current degrees, then
        # restores the parent-piece degree of the seeds inside it
        handoffs = [sum(map(weight.__getitem__, map(deg.__getitem__, c)))
                    + sum([weight[before[y]] - weight[deg[y]] for y in seeds if y in part])
                    for c, part in zip(comps, parts)]
        _check(target == share + iso_share + sum(handoffs),
               "weight accounting mismatch")
        trace.append(PeelStep(u, deg[u], nbrs, tuple(isolated), tuple(comps),
                              Fraction(share, scale), Fraction(iso_share, scale),
                              tuple(Fraction(h, scale) for h in handoffs),
                              Fraction(target, scale), Fraction(owed, scale)))
        chosen.add(u)
        chosen.update(isolated)
        return list(zip(comps, handoffs))

    owed = bound * scale
    _check(owed.denominator == 1, "bound is not a whole number of ledger units")
    # depth-first worklist: a piece's components are settled in order, each
    # before the next, so the trace keeps the pre-order of the steps
    work = [(tuple(range(g.n)), owed.numerator)]
    while work:
        work += reversed(rec(*work.pop()))
    ind = tuple(sorted(chosen))
    _check(is_independent(g, ind), "witness set is not independent")
    _check(Fraction(len(ind)) >= bound, "witness smaller than the bound")
    return WitnessResult(ind, bound, tuple(trace))


def _alternate_cycle(g: Graph, piece: Sequence[int], alive: set[int]) -> set[int]:
    """Every other vertex of a sorted cycle piece, floor(k/2) in all."""
    prev, cur = None, piece[0]
    order = [cur]
    for _ in range(len(piece) - 1):
        nxt = next(w for w in g.adj[cur] if w in alive and w != prev)
        order.append(nxt)
        prev, cur = cur, nxt
    k = len(order)
    return set(order[0:(k if k % 2 == 0 else k - 1):2])


# ---------------------------------------------------------------------------
# constructive Brooks coloring

def _first_free(used: set[int], palette: int) -> int:
    for c in range(palette):
        if c not in used:
            return c
    raise CertificationError("greedy coloring ran out of colors")


def _greedy_from_root(g: Graph, root: int, within: AbstractSet[int], size: int,
                      palette: int, colors: dict[int, int]) -> dict[int, int]:
    """Colour greedily into ``colors`` the ``size`` vertices that a search
    from ``root`` through ``within`` must reach, and return it.  ``colors``
    holds only those vertices or precoloured vertices next to them."""
    # reverse breadth-first order: every vertex except the root still has
    # its tree parent uncolored when its turn comes, so at most palette-1
    # neighbor colors are in use; the root itself must see < palette
    # distinct neighbor colors for other reasons (fewer neighbors, or two
    # neighbors sharing a color)
    order = _bfs(g, (root,), within)
    _check(len(order) == size, "coloring piece is not connected")
    for v in reversed(order):
        used = {colors[w] for w in g.adj[v] if w in colors}
        colors[v] = _first_free(used, palette)
    return colors


def _find_cut_vertex(g: Graph, piece: Sequence[int], alive: set[int]) -> Optional[int]:
    """Smallest cut vertex of the connected sorted piece, or None.

    Hopcroft-Tarjan lowpoints from one depth-first search, run on an
    explicit stack so the depth does not grow with the piece: a non-root
    vertex is a cut vertex iff some child's subtree has no back edge above
    it, and the root iff it has two or more children."""
    root = piece[0]
    disc = {root: 0}            # discovery index
    low = {root: 0}             # lowest discovery index reachable by a back edge
    cuts = []
    root_children = 0
    stack = [(root, iter(g.adj[root]))]
    while stack:
        v, nbrs = stack[-1]
        for w in nbrs:
            if w not in alive:
                continue
            if w in disc:
                # includes the tree edge to v's parent, which cannot lower
                # low[v] below the parent's index and so never hides a cut
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                disc[w] = low[w] = len(disc)
                stack.append((w, iter(g.adj[w])))
                break
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                if p == root:
                    root_children += 1
                elif low[v] >= disc[p]:
                    cuts.append(p)
    _check(len(disc) == len(piece), "coloring piece is not connected")
    if root_children > 1:
        cuts.append(root)
    return min(cuts, default=None)


def _find_split_triple(g: Graph, piece: Sequence[int], alive: set[int]):
    """v adjacent to non-adjacent x and y whose removal keeps the sorted
    piece connected; exists in any two-connected regular non-complete graph
    of degree >= 3.  Leaves x and y out of ``alive``."""
    for v in piece:
        nbrs = [w for w in g.adj[v] if w in alive]
        for x, y in combinations(nbrs, 2):
            if g.has_edge(x, y):
                continue
            # a failed attempt costs only its search: no copy of the piece
            alive.difference_update((x, y))
            if len(_bfs(g, (v,), alive)) == len(piece) - 2:
                return v, x, y
            alive.update((x, y))
    raise CertificationError("no split triple in a two-connected regular piece")


def _color_regular(g: Graph, piece: Sequence[int], d: int,
                   alive: set[int]) -> dict[int, int]:
    """Proper coloring with d colors of the connected sorted piece, which
    is d-regular and not complete."""
    _check(d >= 3, "regular coloring base needs degree at least 3")
    cut = _find_cut_vertex(g, piece, alive)
    if cut is not None:
        colors: dict[int, int] = {}
        # each part of the piece without the cut vertex holds a neighbor of it
        seeds = [w for w in g.adj[cut] if w in alive]
        for comp in components_within(g, set(piece) - {cut}, seeds):
            # the search from the cut vertex through comp reaches both
            part = _greedy_from_root(g, cut, comp, len(comp) + 1, d, {})
            # permute so the cut vertex is color 0 in every part, then glue
            swap = part[cut]
            for v, c in part.items():
                colors[v] = 0 if c == swap else (swap if c == 0 else c)
        return colors
    v, x, y = _find_split_triple(g, piece, alive)
    return _greedy_from_root(g, v, alive, len(piece) - 2, d, {x: 0, y: 0})


def _largest_class(colors: dict[int, int]) -> list[int]:
    """Largest colour class, ties to the class with the smaller least vertex."""
    classes: dict[int, list[int]] = {}
    for v, c in colors.items():
        classes.setdefault(c, []).append(v)
    return max(classes.values(), key=lambda vs: (len(vs), -min(vs)))


def brooks_coloring(g: Graph) -> dict[int, int]:
    """Proper coloring with max_degree(g) colors (connected, max degree
    at least 3, not complete)."""
    dmax = require_in_class(g)
    alive = set(range(g.n))
    low = next((v for v in range(g.n) if g.degree(v) < dmax), None)
    colors = (_color_regular(g, range(g.n), dmax, alive) if low is None
              else _greedy_from_root(g, low, alive, g.n, dmax, {}))
    for u, w in g.edges():
        _check(colors[u] != colors[w], "coloring is not proper")
    _check(max(colors.values()) < dmax, "coloring used too many colors")
    return colors


def brooks_independent_set(g: Graph) -> tuple[int, ...]:
    """Largest color class of a Brooks coloring: at least n/max_degree
    vertices."""
    best = _largest_class(brooks_coloring(g))
    _check(len(best) * g.max_degree() >= g.n,
           "largest color class smaller than n over max degree")
    return tuple(sorted(best))


# ---------------------------------------------------------------------------
# clique weightings

class WeightCheck(NamedTuple):
    ok: bool
    total: Fraction
    violating_vertex: Optional[int] = None
    violating_clique: Optional[tuple[int, ...]] = None


def c_weights(g: Graph) -> tuple[Fraction, ...]:
    """Each vertex weighted by the coefficient for its degree."""
    cs = c_sequence(require_in_class(g))
    return tuple(cs[g.degree(v)] for v in range(g.n))


def clipped_weights(g: Graph) -> tuple[Fraction, ...]:
    """Like c_weights but from the min-clipped sequence, whose entries obey
    the per-vertex cap 2/(2i+1) by construction."""
    cs = clipped_sequence(require_in_class(g))
    return tuple(cs[g.degree(v)] for v in range(g.n))


def check_clique_weighting(g: Graph, weights) -> WeightCheck:
    """Test the two clique-weighting conditions: w(v) <= 2/(2 d(v)+1) at
    every vertex, and total weight at most 1 on every maximal clique.
    For nonnegative weights the maximal cliques suffice, since dropping
    vertices never raises a clique's total.  Any sequence of rationals
    will do; both conditions are tested on the integer ledger."""
    w = [Fraction(x) for x in weights]
    if len(w) != g.n:
        raise ValueError(f"expected {g.n} weights, got {len(w)}")
    for v, wv in enumerate(w):
        if wv < 0:
            raise ValueError(f"negative weight at vertex {v}")
    scale, w = _ledger(w)
    total = Fraction(sum(w), scale)
    for v in range(g.n):
        if w[v] * (2 * g.degree(v) + 1) > 2 * scale:
            return WeightCheck(False, total, violating_vertex=v)
    for clique in enumerate_maximal_cliques(g):
        if sum([w[v] for v in clique]) > scale:
            return WeightCheck(False, total, violating_clique=clique)
    return WeightCheck(True, total)


def enumerate_maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """All maximal cliques, each exactly once, in sorted order.
    One Bron-Kerbosch search with the Tomita pivot, started at the root:
    each child of the root branches on a set of at most max-degree
    neighbours, so bounded degree needs no degeneracy ordering."""
    out: list[tuple[int, ...]] = []
    nbr = g.neighbor_sets()
    # depth-first worklist of (r, p, x, candidates left to branch on)
    stack: list = []

    def enter(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            out.append(tuple(sorted(r)))
            return
        # Tomita pivot, the most neighbours in p; no vertex can beat one of
        # x that sees all of p or one of p that sees the rest of p
        most = -1
        for t in chain(x, p):
            k = len(nbr[t] & p)
            if k > most:
                pivot, most = t, k
                if k == len(p) - (t in p):
                    break
        stack.append((r, p, x, iter(sorted(p - nbr[pivot]))))

    # the root would report the empty clique of a graph with no vertices
    if g.n:
        enter(set(), set(range(g.n)), set())
    while stack:
        r, p, x, todo = stack[-1]
        w = next(todo, None)
        if w is None:
            stack.pop()
            continue
        # the child gets its own sets, built before w moves from p to x
        enter(r | {w}, p & nbr[w], x & nbr[w])
        p.remove(w)
        x.add(w)
    return sorted(out)
