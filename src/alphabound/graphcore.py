"""Immutable simple graphs, degree classes, graph file formats, and the
errors every command may report.

Vertices are dense integers 0..n-1.  Inputs whose vertex numbers are sparse
or 1-based are renumbered on ingestion, in increasing order.  Deletion is
expressed through ``active`` vertex sets so that the peel and the searches
never copy a graph.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import AbstractSet, Iterable, Iterator, NamedTuple, Optional


class ParseError(ValueError):
    """Malformed graph file; the message names the offending line."""


# The errors below belong to the witness and the exact solver, which
# re-export them.  They live here so that the command line can map them to
# exit codes without importing either module.

class CertificationError(RuntimeError):
    """An internal soundness check failed while building a witness."""


DEFAULT_BUDGET = 10 ** 8        # exact search nodes before BudgetExceeded


class BudgetExceeded(RuntimeError):
    """Node budget exhausted.  ``best_set`` is a valid independent set of
    size ``best_size`` but is not proven maximum."""

    def __init__(self, budget: int, best_size: int, best_set: frozenset, nodes: int):
        super().__init__(f"budget exceeded ({budget} nodes)")
        self.budget = budget
        self.best_size = best_size
        self.best_set = best_set
        self.nodes = nodes


class Graph:
    """Simple undirected graph on vertices 0..n-1.  Treat instances as frozen.

    ``adj`` is the one stored adjacency: a tuple of increasing neighbour
    tuples.  Neighbour frozensets are built on first use and kept."""

    __slots__ = ("n", "m", "adj", "_nbr")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        lists: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            lists[u].append(v)
            lists[v].append(u)
        # deduplicate and sort each short list in place, so the lists are
        # freed one by one as their tuples are made
        for v, a in enumerate(lists):
            lists[v] = tuple(sorted(set(a)))
        self.n = n
        self.adj = tuple(lists)
        self.m = sum(map(len, self.adj)) // 2
        self._nbr = None

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbor_sets(self) -> tuple[frozenset, ...]:
        """One neighbour frozenset per vertex, built on the first call.
        Hot loops fetch the tuple once and index it."""
        if self._nbr is None:
            self._nbr = tuple(map(frozenset, self.adj))
        return self._nbr

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbor_sets()[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield u, v

    def max_degree(self) -> int:
        return max(map(len, self.adj), default=0)

    def min_degree(self) -> int:
        return min(map(len, self.adj), default=0)

    def is_connected(self) -> bool:
        return self.n <= 1 or len(_bfs(self, (0,))) == self.n

    def is_complete(self) -> bool:
        return self.n >= 1 and self.m == self.n * (self.n - 1) // 2

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph)
                and self.n == other.n and self.adj == other.adj)

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class DegreeProfile(NamedTuple):
    """Vertex counts by degree: counts[i] is the number of vertices of degree i."""

    delta_max: int
    delta_min: int
    counts: tuple[int, ...]             # indexed 0..delta_max

    def count(self, i: int) -> int:
        if 0 <= i <= self.delta_max:
            return self.counts[i]
        return 0


def degree_profile(g: Graph) -> DegreeProfile:
    if g.n == 0:
        raise ValueError("empty graph")
    tally = Counter(map(len, g.adj))
    dmax = max(tally)
    return DegreeProfile(dmax, min(tally), tuple(tally[i] for i in range(dmax + 1)))


def is_in_class(g: Graph, delta: int) -> bool:
    """True iff g is connected, has maximum degree exactly ``delta``, and is
    not the complete graph on delta+1 vertices."""
    if delta < 3:
        raise ValueError("class defined only for delta >= 3")
    try:
        return require_in_class(g) == delta
    except ValueError:
        return False


def require_in_class(g: Graph) -> int:
    """Like :func:`is_in_class` but raising, with delta the graph's own
    maximum degree.  Returns that degree on success.
    """
    if g.n == 0:
        raise ValueError("not in class: empty graph")
    delta = g.max_degree()
    if delta < 3:
        raise ValueError(f"not in class: maximum degree {delta} < 3")
    if not g.is_connected():
        raise ValueError("not in class: graph not connected")
    if g.is_complete():
        raise ValueError(
            f"not in class: graph is the complete graph on {g.n} vertices")
    return delta


def is_independent(g: Graph, s: Iterable[int]) -> bool:
    vs = frozenset(s)
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        if not vs.isdisjoint(g.adj[v]):
            return False
    return True


def _bfs(g: Graph, sources: Iterable[int],
         within: Optional[AbstractSet[int]] = None) -> list[int]:
    """Breadth-first search from ``sources``, restricted to the vertex set
    ``within`` when one is given.  Returns the reached vertices in visit
    order."""
    order = list(dict.fromkeys(sources))
    seen = set(order)
    adj = g.adj
    for v in order:                 # order grows as the search runs
        for w in adj[v]:
            if w not in seen and (within is None or w in within):
                seen.add(w)
                order.append(w)
    return order


def components_within(g: Graph, active: set[int] | frozenset[int],
                      seeds: Optional[Iterable[int]] = None) -> list[frozenset]:
    """Connected components of the subgraph induced by ``active``,
    ordered by smallest contained vertex.

    ``seeds``, vertices of ``active`` that meet every component, default
    to all of ``active``.  The search starts from each seed not yet
    reached, in increasing order, and stops as soon as it has reached
    every seed: the component it is in is what the others leave of
    ``active``."""
    seeds = sorted(active if seeds is None else seeds)
    pending = set(seeds)        # seeds not reached yet
    adj = g.adj
    out = []
    for s in seeds:
        if s not in pending:
            continue
        pending.remove(s)
        comp = {s}
        order = [s]
        for v in order:             # order grows as the search runs
            if not pending:
                out.append(frozenset(active.difference(*out)))
                return sorted(out, key=min)
            for w in adj[v]:
                if w in active and w not in comp:
                    comp.add(w)
                    order.append(w)
                    pending.discard(w)
        out.append(frozenset(comp))
    return out


# ---------------------------------------------------------------------------
# file formats

# Python's default limit on the digits int() converts.  Longer numbers are
# refused even where the process has lifted that limit (the CLI does, to
# print large exact values), since converting them takes quadratic time.
_MAX_DIGITS = 4300


def _number(token: str) -> int:
    """The integer spelled by ASCII digits after an optional ``-``.  Unlike
    ``int``, refuses ``1_0``, ``+3`` and non-ASCII digits with ValueError."""
    if ((token.isdigit() or token[:1] == "-" and token[1:].isdigit())
            and token.isascii() and len(token) <= _MAX_DIGITS):
        return int(token)
    raise ValueError(token)


def parse_edge_list(text: str) -> Graph:
    """Whitespace-separated ``u v`` lines; ``#`` starts a comment.

    Vertex numbers are nonnegative integers, not necessarily dense; they are
    renumbered to 0..n-1 in increasing order.
    """
    raw_edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.partition("#")[0].split()
        if len(tokens) != 2:
            if not tokens:
                continue
            raise ParseError(
                f"line {lineno}: expected two vertex tokens, got {len(tokens)}")
        try:
            u, v = _number(tokens[0]), _number(tokens[1])
        except ValueError:
            raise ParseError(
                f"line {lineno}: vertex labels must be integers") from None
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex label")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at {u}")
        raw_edges.append((u, v))
    ids = set(chain.from_iterable(raw_edges))
    if not ids or max(ids) == len(ids) - 1:
        # distinct nonnegative numbers up to len-1 are already 0..n-1
        return Graph(len(ids), raw_edges)
    ids = sorted(ids)
    index = {x: i for i, x in enumerate(ids)}
    return Graph(len(ids), [(index[u], index[v]) for u, v in raw_edges])


def parse_dimacs(text: str) -> Graph:
    """``p edge n m`` header and ``e u v`` lines, 1-based vertices."""
    n = None
    edges = []
    lineno = 1                  # what a header-less file's message names
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0] == "c":
            continue
        if tokens[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before 'p edge' header")
            if len(tokens) != 3:
                raise ParseError(f"line {lineno}: expected 'e u v'")
            try:
                u, v = _number(tokens[1]), _number(tokens[2])
            except ValueError:
                raise ParseError(f"line {lineno}: vertex labels must be integers") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"line {lineno}: vertex out of range 1..{n}")
            if u == v:
                raise ParseError(f"line {lineno}: self-loop at {u}")
            edges.append((u - 1, v - 1))
        elif tokens[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            if len(tokens) != 4 or tokens[1] != "edge":
                raise ParseError(f"line {lineno}: expected 'p edge n m'")
            try:
                n = _number(tokens[2])
                _number(tokens[3])
            except ValueError:
                raise ParseError(f"line {lineno}: bad header counts") from None
            if n < 0:
                raise ParseError(f"line {lineno}: negative vertex count")
            if n > len(text):   # refuse before Graph allocates one list per vertex
                raise ParseError(f"line {lineno}: more vertices than the file has characters")
        else:
            raise ParseError(f"line {lineno}: unrecognized line type {tokens[0]!r}")
    if n is None:
        raise ParseError(f"line {lineno}: missing 'p edge' header")
    return Graph(n, edges)


def parse_graph(text: str) -> Graph:
    """Sniff the format: DIMACS if the first content line is p/c/e, else edge list."""
    # split only a growing prefix; every line of it but the last is whole
    size = 4096
    while True:
        lines = text[:size].splitlines()
        whole = size >= len(text)
        for line in lines if whole else lines[:-1]:
            body = line.strip()
            if not body or body.startswith("#"):
                continue
            if body.split()[0] in ("p", "c", "e"):
                return parse_dimacs(text)
            return parse_edge_list(text)
        if whole:
            return parse_edge_list(text)
        size *= 4


def load_graph(path) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        # the bytes before the first bad one decode; "?" stands in for it,
        # and splitlines numbers its line as the parsers number theirs
        head = exc.object[:exc.start].decode("utf-8") + "?"
        line = len(head.splitlines())
        raise ParseError(f"{path}: line {line}: not UTF-8 text") from None
    try:
        return parse_graph(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def write_edge_list(g: Graph, header: Optional[str] = None) -> str:
    # isolated vertices are not representable in this format
    lines = []
    if header:
        lines.append(f"# {header}")
    for u, v in g.edges():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"
