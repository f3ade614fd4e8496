"""Simple finite undirected graphs: representation, named generators,
structural predicates, and the edge-list text format.

Vertices are contiguous 0-based integers.  Edges are stored canonically as
(min, max) pairs and iterated in lexicographic order, which keeps every
algorithm built on top of this module deterministic.  Graph values are
immutable; anything that looks like mutation builds a new value.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import InputError


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1 (no loops, no multi-edges)."""

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 0:
            raise InputError(f"vertex count must be nonnegative, got {self.n}")
        for e in self.edges:
            u, v = e
            if not (0 <= u < v < self.n):
                raise InputError(
                    f"edge {e} is not a canonical (min,max) pair inside [0,{self.n})"
                )

    @staticmethod
    def from_edges(n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from arbitrary (u, v) pairs, canonicalizing endpoint order."""
        canon = set()
        for u, v in pairs:
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) has an endpoint outside [0,{n})")
            canon.add((u, v) if u < v else (v, u))
        return Graph(n, frozenset(canon))

    @cached_property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs = [[] for _ in range(self.n)]
        for u, v in self.sorted_edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple([tuple(sorted(a)) for a in nbrs])

    @cached_property
    def _adjacency_sets(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(a) for a in self._adjacency)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending order."""
        self._check_vertex(v)
        return self._adjacency[v]

    def neighbor_set(self, v: int) -> frozenset:
        self._check_vertex(v)
        return self._adjacency_sets[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        a, b = (u, v) if u < v else (v, u)
        return (a, b) in self.edges

    def _check_vertex(self, v: int):
        if not (0 <= v < self.n):
            raise InputError(f"vertex {v} out of range [0,{self.n})")


# ---------------------------------------------------------------------------
# Named generators
# ---------------------------------------------------------------------------

def cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices, consecutive ids adjacent, edge (0, n-1) closing it."""
    if n < 3:
        raise InputError(f"cycle length must be >= 3, got n={n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise InputError(f"path order must be >= 1, got n={n}")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def empty_graph(n: int) -> Graph:
    if n < 0:
        raise InputError(f"empty graph order must be >= 0, got n={n}")
    return Graph(n, frozenset())


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with parts {0..a-1} and {a..a+b-1}."""
    if a < 1:
        raise InputError(f"complete bipartite part size a must be >= 1, got a={a}")
    if b < 1:
        raise InputError(f"complete bipartite part size b must be >= 1, got b={b}")
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def complete_minus_matching(order: int) -> Graph:
    """Complete graph on an even number of vertices minus the perfect matching
    {(2i, 2i+1) : 0 <= i < order/2}."""
    if order < 2 or order % 2:
        raise InputError(f"order must be even and >= 2, got order={order}")
    removed = {(2 * i, 2 * i + 1) for i in range(order // 2)}
    edges = [
        (u, v)
        for u in range(order)
        for v in range(u + 1, order)
        if (u, v) not in removed
    ]
    return Graph.from_edges(order, edges)


# ---------------------------------------------------------------------------
# Structural predicates
# ---------------------------------------------------------------------------

def regularity(g: Graph) -> int | None:
    """Common degree r if g is regular, else None.  The 0-vertex graph is
    0-regular by convention."""
    if g.n == 0:
        return 0
    degrees = {g.degree(v) for v in range(g.n)}
    if len(degrees) == 1:
        return degrees.pop()
    return None


def is_connected(g: Graph) -> bool:
    """Standard reachability; the 0-vertex graph counts as connected."""
    if g.n == 0:
        return True
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count == g.n


def is_bipartite(g: Graph) -> bool:
    """2-colorability; the 0-vertex graph counts as bipartite."""
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return False
    return True


# ---------------------------------------------------------------------------
# Edge-list text format
#
#   line 1:       "n m"
#   lines 2..m+1: "u v" with 0 <= u < v < n
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format, rejecting malformed lines with their line number."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise InputError("line 1: missing header 'n m'")
    header = lines[0].split()
    if len(header) != 2:
        raise InputError(f"line 1: header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise InputError(f"line 1: header must be two integers, got {lines[0]!r}")
    if n < 0 or m < 0:
        raise InputError(f"line 1: n and m must be nonnegative, got n={n} m={m}")
    body = lines[1:]
    if len(body) != m:
        raise InputError(f"expected {m} edge lines after the header, got {len(body)}")
    seen = set()
    edges = []
    for i, line in enumerate(body, start=2):
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {i}: edge line must be 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"line {i}: edge endpoints must be integers, got {line!r}")
        if u == v:
            raise InputError(f"line {i}: self-loop at vertex {u}")
        if not (0 <= u < v):
            raise InputError(f"line {i}: endpoints must satisfy u < v, got {u} {v}")
        if v >= n:
            raise InputError(f"line {i}: vertex {v} out of range [0,{n})")
        if (u, v) in seen:
            raise InputError(f"line {i}: duplicate edge ({u},{v})")
        seen.add((u, v))
        edges.append((u, v))
    return Graph(n, frozenset(edges))


def format_edge_list(g: Graph) -> str:
    """Serialize in the same format, edges sorted lexicographically."""
    out = [f"{g.n} {len(g.edges)}"]
    out.extend(f"{u} {v}" for u, v in g.sorted_edges)
    return "\n".join(out) + "\n"
