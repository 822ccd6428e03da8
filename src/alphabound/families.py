"""Graph generators: named small graphs, the extremal families on which the
degree-weighted bound is tight, and seeded random instances for property
tests.

The three tight families:

* ``regular_blocks`` -- replace every vertex of a connected delta-regular
  template by a clique K_delta and every template edge by one matching edge
  between the two cliques; the result is delta-regular with independence
  number equal to the template order.
* ``chain_blocks`` -- start from K_delta and repeatedly attach a fresh
  K_delta by a single edge at a vertex of degree delta-1; only degrees
  delta-1 and delta occur and the independence number is the block count.
* ``attach_cliques`` -- additionally hang a K_{j+1} off every remaining
  degree-(delta-1) vertex, populating degree classes j and j+1.

``cycle_with_pendants`` builds the cycle-with-pendant-edges example whose
degree-1 class is one larger than its cycle, and ``random_connected`` yields
seeded connected graphs of maximum degree exactly delta.

Each family ``gen`` builds has a ``_<family>_size`` function that makes
the family's argument checks, raising its ``ValueError``, and returns the
vertex and edge counts it would build, so that a request can be refused
before anything is allocated.  The builders check their arguments through
it.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterable

from .graphcore import Graph, is_in_class


# ---------------------------------------------------------------------------
# named small graphs

def complete_graph(k: int) -> Graph:
    if k < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph(k, combinations(range(k), 2))


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def star_graph(leaves: int) -> Graph:
    """Center 0 joined to ``leaves`` outer vertices."""
    if leaves < 0:
        raise ValueError("leaf count must be nonnegative")
    return Graph(leaves + 1, ((0, i) for i in range(1, leaves + 1)))


def petersen_graph() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))              # outer cycle
        edges.append((5 + i, 5 + (i + 2) % 5))      # inner pentagram
        edges.append((i, 5 + i))                    # spokes
    return Graph(10, edges)


def circulant_graph(n: int, offsets: Iterable[int]) -> Graph:
    offs = sorted(set(offsets))
    if n < 3:
        raise ValueError("circulant needs at least three vertices")
    if any(not 1 <= o <= n // 2 for o in offs):
        raise ValueError("offsets must lie in 1..n//2")
    # Graph drops the repeated pairs of an offset n/2
    return Graph(n, ((i, (i + o) % n) for i in range(n) for o in offs))


def _regular_size(delta: int, k: int) -> tuple[int, int]:
    """Counts of ``regular_blocks(delta, regular_template(delta, k))``."""
    if delta < 3:
        raise ValueError("template degree must be at least 3")
    if k < delta + 1:
        raise ValueError("need k >= delta + 1 vertices")
    if delta % 2 == 1 and k % 2 == 1:
        raise ValueError(
            f"no {delta}-regular graph on {k} vertices: k*delta must be even")
    return k * delta, k * delta * (delta - 1) // 2 + k * delta // 2


def regular_template(delta: int, k: int) -> Graph:
    """A connected delta-regular graph on k vertices (circulant), for use
    as the ``regular_blocks`` template."""
    _regular_size(delta, k)
    offs = list(range(1, delta // 2 + 1))
    if delta % 2 == 1:
        offs.append(k // 2)
    return circulant_graph(k, offs)


# ---------------------------------------------------------------------------
# tight families

def regular_blocks(delta: int, template: Graph) -> Graph:
    """Blow each template vertex up into a K_delta; template edges become a
    matching between the cliques."""
    if delta < 3:
        raise ValueError("block degree must be at least 3")
    if template.n == 0 or any(template.degree(v) != delta
                              for v in range(template.n)):
        raise ValueError(f"template must be {delta}-regular")
    if not template.is_connected():
        raise ValueError("template must be connected")
    edges = []
    for x in range(template.n):
        base = x * delta
        edges.extend((base + a, base + b) for a, b in combinations(range(delta), 2))
    # the external edge for template edge xy leaves the port of x indexed by
    # y's position in x's sorted adjacency; ports are therefore distinct and
    # the external edges form a matching
    for x, y in template.edges():
        px = x * delta + template.adj[x].index(y)
        py = y * delta + template.adj[y].index(x)
        edges.append((px, py))
    return Graph(template.n * delta, edges)


def _chain_size(delta: int, k: int) -> tuple[int, int]:
    """Counts of ``chain_blocks(delta, k)``."""
    if delta < 3:
        raise ValueError("block degree must be at least 3")
    if k < 1:
        raise ValueError("need at least one block")
    return k * delta, k * delta * (delta - 1) // 2 + k - 1


def chain_blocks(delta: int, k: int) -> Graph:
    """k copies of K_delta, each new copy hung by one edge off the
    lowest-indexed vertex that still has degree delta-1."""
    _chain_size(delta, k)
    # the vertices of degree delta-1, in increasing order: all but a later
    # block's first, whose own hanging edge gives it degree delta; each new
    # block takes the lowest one left
    free = (v for v in range(k * delta) if v == 0 or v % delta)
    edges: list[tuple[int, int]] = []
    for block in range(k):
        base = block * delta
        edges.extend(combinations(range(base, base + delta), 2))
        if block:
            edges.append((next(free), base))
    return Graph(k * delta, edges)


def _attach_size(delta: int, k: int, j: int) -> tuple[int, int]:
    """Counts of ``attach_cliques(delta, k, j)``."""
    if not 1 <= j <= delta - 2:
        raise ValueError(f"attachment clique parameter must be in 1..{delta - 2}")
    if k < 2:
        raise ValueError("need at least two blocks")
    n, m = _chain_size(delta, k)
    anchors = k * delta - 2 * (k - 1)       # the chain's degree-(delta-1) vertices
    return n + anchors * (j + 1), m + anchors * (j * (j + 1) // 2 + 1)


def attach_cliques(delta: int, k: int, j: int) -> Graph:
    """``chain_blocks(delta, k)`` with a K_{j+1} hung off every vertex of
    degree delta-1, one attachment edge each."""
    _attach_size(delta, k, j)
    base = chain_blocks(delta, k)
    edges = list(base.edges())
    n = base.n
    anchors = [v for v in range(base.n) if base.degree(v) == delta - 1]
    for x in anchors:
        edges.extend((n + a, n + b) for a, b in combinations(range(j + 1), 2))
        edges.append((x, n))
        n += j + 1
    return Graph(n, edges)


def _pendant_cycle_size(n: int) -> tuple[int, int]:
    """Counts of ``cycle_with_pendants(n)``."""
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return 2 * n + 1, 2 * n + 1


def cycle_with_pendants(n: int) -> Graph:
    """Cycle 0..n-1 with a pendant on every cycle vertex plus a second
    pendant on vertex 0, so that no vertex has degree 2."""
    _pendant_cycle_size(n)
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    edges.append((0, 2 * n))
    return Graph(2 * n + 1, edges)


# ---------------------------------------------------------------------------
# random instances

_ATTEMPTS = 1000                # fresh tries before random_connected gives up


def _random_size(n: int, delta: int) -> tuple[int, int]:
    """Counts of ``random_connected(n, delta, seed)``: at most that many
    edges."""
    if delta < 3:
        raise ValueError("maximum degree must be at least 3")
    if n < delta + 1:
        raise ValueError("need n >= delta + 1")
    return n, n * delta // 2


def random_connected(n: int, delta: int, seed: int) -> Graph:
    """Seeded random connected graph with maximum degree exactly ``delta``,
    never the complete graph on delta+1 vertices.  Deterministic per seed."""
    _, max_m = _random_size(n, delta)
    rng = random.Random(seed)
    for _ in range(_ATTEMPTS):
        deg = [0] * n
        edges: set[tuple[int, int]] = set()

        def addable(u, v):
            return (u != v and deg[u] < delta and deg[v] < delta
                    and (min(u, v), max(u, v)) not in edges)

        def add(u, v):
            edges.add((min(u, v), max(u, v)))
            deg[u] += 1
            deg[v] += 1

        # spanning tree under the degree cap: each vertex's parent is drawn
        # uniformly from the placed vertices still below the cap, indexed in
        # placement order (the last placed always is one).  A Fenwick tree
        # over placement positions, with a 0 at each vertex that reached the
        # cap, finds the r-th open position in O(log n); positions not yet
        # placed stay open but lie beyond every draw
        order = list(range(n))
        rng.shuffle(order)
        tree = [i & -i for i in range(n + 1)]      # every position open
        high = 1 << (n.bit_length() - 1)
        closed = 0
        for p in range(1, n):
            r = rng.randrange(p - closed)       # draws as rng.choice would
            pos, step = 0, high
            while step:
                if pos + step <= n and tree[pos + step] <= r:
                    pos += step
                    r -= tree[pos]
                step >>= 1
            u = order[pos]
            add(u, order[p])
            if deg[u] == delta:
                closed += 1
                pos += 1                        # position pos closes
                while pos <= n:
                    tree[pos] -= 1
                    pos += pos & -pos
        # densify toward a random target size
        m_target = rng.randint(n - 1, max_m)
        for _ in range(10 * max_m):
            if len(edges) >= m_target:
                break
            u, v = rng.randrange(n), rng.randrange(n)
            if addable(u, v):
                add(u, v)
        # push the top vertex until the maximum degree is exactly delta; it
        # stays on top, as each edge lifts it and ties go to the smaller index
        u = max(range(n), key=lambda t: (deg[t], -t))
        while deg[u] < delta:
            cands = [v for v in range(n) if addable(u, v)]
            if not cands:
                break
            add(u, rng.choice(cands))
        g = Graph(n, edges)
        if is_in_class(g, delta):
            return g
    raise ValueError(
        f"could not generate a connected graph with maximum degree {delta}"
        f" on {n} vertices after {_ATTEMPTS} attempts")
