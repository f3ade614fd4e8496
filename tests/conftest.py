"""Shared test helpers, kept independent of the code paths they check."""

import itertools
from fractions import Fraction

from distmagic.graphs import Graph


def brute_force_distance_magic(g: Graph):
    """Unpruned check over all n! bijections; the oracle for search outcomes.

    Returns (found, labels or None, k or None) with the first witness in
    lexicographic order of the label tuple indexed by vertex id.
    """
    n = g.n
    adj = [g.neighbors(v) for v in range(n)]
    for perm in itertools.permutations(range(1, n + 1)):
        k = None
        ok = True
        for v in range(n):
            w = sum(perm[u] for u in adj[v])
            if k is None:
                k = w
            elif w != k:
                ok = False
                break
        if ok:
            return True, perm, (k if k is not None else 0)
    return False, None, None


def is_connected(g: Graph) -> bool:
    """Reachability from vertex 0 by depth-first search; the 0-vertex graph
    counts as connected."""
    if g.n == 0:
        return True
    seen, stack = {0}, [0]
    while stack:
        for w in g.neighbors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def is_bipartite(g: Graph) -> bool:
    """2-colorability by depth-first search from every uncolored vertex; the
    0-vertex graph counts as bipartite."""
    color = {}
    for start in range(g.n):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w not in color:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def regular_magic_constant(g: Graph) -> Fraction:
    """r(n+1)/2 for an r-regular graph, exact.  The n weights of a distance
    magic labeling sum to n*k, and also to r*(1 + ... + n)."""
    degrees = {len(row) for row in g.adjacency}
    assert len(degrees) == 1, "graph is not regular"
    return Fraction(degrees.pop() * (g.n + 1), 2)


def enumerate_magic_labelings(g: Graph):
    """Every distance magic labeling of g, as (labels, k) pairs."""
    out = []
    n = g.n
    adj = [g.neighbors(v) for v in range(n)]
    for perm in itertools.permutations(range(1, n + 1)):
        ws = {sum(perm[u] for u in adj[v]) for v in range(n)}
        if len(ws) <= 1:
            out.append((perm, ws.pop() if ws else 0))
    return out


def forced_equal_reference(g: Graph):
    """First pair (u, v), u < v, with l(u) = l(v) on the whole null space of
    [A | -1], by dense Gauss-Jordan elimination over Fraction.

    The oracle for the search's kernel precheck: each coordinate is written
    over the free columns, and v is the smallest vertex whose coordinates
    equal those of an earlier vertex u.
    """
    n = g.n
    m = [
        [Fraction(int(u in g.neighbors(v))) for u in range(n)] + [Fraction(-1)]
        for v in range(n)
    ]
    pivots = []
    for c in range(n + 1):
        r = len(pivots)
        p = next((i for i in range(r, n) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(n):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    free = [c for c in range(n + 1) if c not in pivots]
    coords = {c: tuple(Fraction(int(c == f)) for f in free) for c in free}
    for r, c in enumerate(pivots):
        coords[c] = tuple(-m[r][f] for f in free)
    first = {}
    for v in range(n):
        u = first.setdefault(coords[v], v)
        if u != v:
            return u, v
    return None
