"""Pruned exhaustive backtracking search for distance magic labelings.

The search decides existence on small graphs and doubles as the empirical
oracle for the closed-form classifiers.  An `exhausted_none` outcome is a
certificate that the full (pruned) space contains no labeling; every prune
below is admissible, so pruning never changes the found/none answer.

Before any backtracking, the kernel precheck reads the definition as a
linear system.  A labeling l with constant k solves A*l = k*1, so (l, k)
lies in the rational null space of [A | -1].  Forward elimination and back
substitution write every coordinate of that space as a fixed combination of
the free columns; when two vertices u < v get the same combination, every
vector of the space has l(u) = l(v), so no bijection exists and the search
stops with `kernel_forced_equal` and the pair (u, v).  The elimination is
fraction-free on Python ints, so the certificate is exact.  It runs over the
vertex columns from the last down to the first, then k, with the active rows
in buckets by their largest column.  Back substitution then writes the
vertices in ascending order, and the scan stops at the first vertex whose
combination repeats an earlier one, without writing the higher vertices.
The column order only chooses which columns are free; whether two
coordinates agree on the null space does not depend on it, so neither does
the pair.

Vertex order is fixed (descending degree, ties by id) and candidate labels
are tried in ascending order, so the returned witness is the
lexicographically first label sequence along that vertex order, and runs are
deterministic.  The witness takes each label from the unused set once: a
bijection by construction, it is not checked again.  Backtracking is one loop
over an explicit stack of branch frames, not recursion, so no depth of the
search meets the interpreter's recursion limit.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd, lcm

from ._value import Value
from .errors import InputError
from .graphs import Graph
from .magic import Labeling

FOUND = "found"
EXHAUSTED_NONE = "exhausted_none"
BUDGET_EXCEEDED = "budget_exceeded"


class SearchBudget(Value):
    """Node cap for one search; None means unlimited.

    The cap counts backtracking nodes only.  The kernel precheck runs before
    the first node and is not bounded by it: near linear on sparse graphs,
    it is slow on dense ones whatever the cap.
    """

    __slots__ = _fields = ("max_nodes",)

    def __init__(self, max_nodes: int | None = None):
        self._init(max_nodes)
        if self.max_nodes is not None and self.max_nodes <= 0:
            raise InputError(f"bounded budget must be positive, got {self.max_nodes}")


class SearchStats(Value):
    """Counters of one search, updated in place: nodes (assignments pushed),
    steps (candidate labels tried), prunes by reason (a new dict when None),
    and forced_equal, the pair behind kernel_forced_equal."""

    __slots__ = _fields = ("nodes", "steps", "prunes", "forced_equal")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, nodes: int = 0, steps: int = 0, prunes: dict | None = None,
                 forced_equal: tuple[int, int] | None = None):
        self._init(nodes, steps, {} if prunes is None else prunes, forced_equal)


class SearchOutcome(Value):
    __slots__ = _fields = ("tag", "labeling", "magic_constant", "stats")

    def __init__(self, tag: str, labeling: Labeling | None, magic_constant: int | None,
                 stats: SearchStats):
        self._init(tag, labeling, magic_constant, stats)


def find_distance_magic(g: Graph, budget: SearchBudget | None = None) -> SearchOutcome:
    """Decide whether g admits a distance magic labeling.

    Summing the weights gives n*k = sum(d(v) * l(v)), so k runs over the
    rearrangement bounds ceil(min/n) .. floor(max/n) of that sum, ascending,
    with one search per candidate.  On an r-regular graph both bounds equal
    r*n(n+1)/2, which pins k = r(n+1)/2.  An odd r forces an even n, so k
    is a half-integer and odd-regular graphs are rejected outright (prune
    `odd_regular`).  Before the search, graphs whose kernel forces two equal
    labels are rejected with nodes == 0.
    """
    stats = SearchStats()
    n = g.n
    if n == 0:
        return SearchOutcome(FOUND, Labeling(()), 0, stats)

    degrees = sorted(map(len, g.adjacency))
    if degrees[0] == degrees[-1] and degrees[0] % 2 == 1:
        stats.prunes["odd_regular"] = 1
        return SearchOutcome(EXHAUSTED_NONE, None, None, stats)

    pair = kernel_forced_equal(g)
    if pair is not None:
        stats.prunes["kernel_forced_equal"] = 1
        stats.forced_equal = pair
        return SearchOutcome(EXHAUSTED_NONE, None, None, stats)

    labels = list(range(1, n + 1))
    low = sum(d * l for d, l in zip(degrees, reversed(labels)))
    high = sum(d * l for d, l in zip(degrees, labels))
    # Never empty: high - low >= (d_max - d_min)(n - 1) spans a multiple of n when
    # g is irregular, and low = high = r*n(n+1)/2 is one when r is even.
    candidates = range(-(-low // n), high // n + 1)
    max_nodes = budget.max_nodes if budget is not None else None
    for k in candidates:
        witness = _search_k(g, k, stats, max_nodes)
        if witness is BUDGET_EXCEEDED:
            return SearchOutcome(BUDGET_EXCEEDED, None, None, stats)
        if witness is not None:
            return SearchOutcome(FOUND, witness, k, stats)
    return SearchOutcome(EXHAUSTED_NONE, None, None, stats)


def kernel_forced_equal(g: Graph) -> tuple[int, int] | None:
    """First pair (u, v), u < v, with l(u) = l(v) on the whole null space
    of [A | -1], v the smallest such vertex; None when there is none.

    It reads the (vertex, key) pairs of the pivot vertices in ascending
    vertex order, so the scan stops at the first repeat and the keys of the
    higher vertices are never computed.  A free vertex v is skipped: its key
    (1, ((v, 1),)) is never built, and no earlier key names it, since a key
    names only free columns below its vertex.  A later vertex repeats it
    only with that same key, read as l(v) = l(f) for a free column f >= 0,
    the first pair of f, given at once; f = -1 is k, no vertex.
    """
    first = {}
    for v, key in _kernel_keys(g):
        den, pairs = key
        if den == 1 and len(pairs) == 1 and pairs[0][1] == 1 and pairs[0][0] >= 0:
            return pairs[0][0], v
        u = first.setdefault(key, v)
        if u != v:
            return u, v
    return None


def _kernel_keys(g: Graph):
    """Yield (vertex, key) for each pivot vertex, in ascending vertex order:
    the key writes l(v) over the free columns of the null space of [A | -1].
    A free vertex is skipped; its key would be (1, ((v, 1),)).

    Rows are sparse {column: int} dicts, column -1 standing for k, kept
    primitive (entries divided by their gcd).  Forward elimination runs over
    the columns n - 1 down to 0, then k: it pivots on the shortest active row
    that holds the column and clears the column from the other active rows
    only.  Whether a column is a pivot depends on the column order alone, not
    on the row chosen.  When column c comes up, no active row holds a column
    above c, so the rows that hold c are exactly those whose largest column
    is c: active rows wait in buckets by largest column, and a column costs
    only the rows that hold it.  Each pivot row then holds only columns below
    its pivot, so back substitution, last pivot first, meets the vertices in
    ascending order.  It writes each pivot column over the free columns as
    the canonical key (den > 0, sorted (free column, numerator) pairs),
    numerators and den coprime; a free column f has the key (1, ((f, 1),)).
    Two coordinates agree on the null space exactly when their keys are
    equal, and that does not depend on the column order, which only chooses
    the free columns: so the first equal pair does not depend on it either.
    """
    n = g.n
    buckets = {}  # largest column -> the active rows that end there
    for nbrs in g.adjacency:
        row = dict.fromkeys(nbrs, 1)
        row[-1] = -1
        buckets.setdefault(nbrs[-1] if nbrs else -1, []).append(row)
    pivots = []  # (column, row)
    for c in range(n - 1, -2, -1):
        holding = buckets.pop(c, None)
        if holding is None:
            continue
        piv = min(holding, key=len)
        pivots.append((c, piv))
        for row in holding:
            if row is not piv:
                _eliminate(row, piv, c)
                if row:
                    buckets.setdefault(max(row), []).append(row)

    keys = {}  # pivot column -> key
    for c, row in reversed(pivots):
        # x_c = sum(row[f] * x_f) / -row[c], each lower pivot f written by its
        # key: num / d over the free columns, then reduced with d > 0
        d = -row.pop(c)
        lower = [(x, keys[f]) for f, x in row.items() if f in keys]
        den = lcm(1, *[e for _, (e, _) in lower])
        num = {f: x * den for f, x in row.items() if f not in keys}
        for x, (e, pairs) in lower:
            x *= den // e
            for h, y in pairs:
                num[h] = num.get(h, 0) + x * y
        d *= den
        q = gcd(d, *num.values())
        if d < 0:
            q = -q
        keys[c] = key = (d // q, tuple(sorted([(h, y // q) for h, y in num.items() if y])))
        if c >= 0:  # k, the first pivot when it is one, is no vertex
            yield c, key


def _eliminate(row: dict, piv: dict, c: int):
    """row := (q*row - a*piv) / gcd, which clears column c of row in place."""
    a, q = row[c], piv[c]
    g = gcd(a, q)
    if q < 0:
        g = -g  # a row's sign is free: keep the multiplier of row positive
    a, q = a // g, q // g
    if q != 1:
        for f in row:
            row[f] *= q
    for f, x in piv.items():
        y = row.get(f, 0) - a * x
        if y:
            row[f] = y
        else:
            del row[f]
    g = gcd(*row.values())
    if g > 1:
        for f in row:
            row[f] //= g


def _search_k(g: Graph, k: int, stats: SearchStats, max_nodes):
    """The first labeling with constant k along the search order, None when
    there is none, or BUDGET_EXCEEDED once the nodes pass max_nodes.

    Each stack frame (pos, label, trail mark) is one open branch: popping it
    rolls the trail back to the mark and tries the next unused label at pos.
    """
    n = g.n
    adj = g.adjacency
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))

    assigned = [0] * n  # label of v, 0 = unassigned
    nbr_sum = [0] * n  # sum of assigned labels over N(v)
    nbr_left = [len(row) for row in adj]  # unassigned neighbors of v
    unused = [True] * (n + 2)  # unused[l] for labels 1..n; n + 1 stops the scan
    trail = []  # assigned vertices in order; a frame rolls back to its mark
    prunes = stats.prunes

    def place(v, lab, work):
        # A neighbor is pushed only when one slot or none is left.  An entry
        # pushed with two or more left acts at its pop only if later placements
        # changed u; the last of them pushed u again above it, and that entry
        # is popped first, in the state the older one would see.
        assigned[v] = lab
        unused[lab] = False
        trail.append(v)
        for u in adj[v]:
            nbr_sum[u] += lab
            left = nbr_left[u] - 1
            nbr_left[u] = left
            if left < 2:
                work.append(u)

    def propagate(work) -> bool:
        # Single-slot propagation: when all but one neighbor of u is labeled,
        # the last one is pinned to k - nbr_sum[u]; closed neighborhoods must
        # hit k exactly.  Only branches with zero completions are discarded,
        # so exhaustiveness and the lexicographically-first witness survive.
        while work:
            u = work.pop()
            left = nbr_left[u]
            if left == 0:
                if nbr_sum[u] != k:
                    prunes["closed_neighborhood"] = prunes.get("closed_neighborhood", 0) + 1
                    return False
            elif left == 1:
                need = k - nbr_sum[u]
                if need < 1 or need > n or not unused[need]:
                    prunes["forced_unavailable"] = prunes.get("forced_unavailable", 0) + 1
                    return False
                stats.nodes += 1
                place(next(x for x in adj[u] if not assigned[x]), need, work)
        return True

    def rollback(mark):
        while len(trail) > mark:
            v = trail.pop()
            lab = assigned[v]
            assigned[v] = 0
            unused[lab] = True
            for u in adj[v]:
                nbr_sum[u] -= lab
                nbr_left[u] += 1

    def bounds_ok() -> bool:
        # remaining-label feasibility for every partially labeled neighborhood:
        # fill the open slots with the smallest / largest unused labels
        free = [l for l in range(1, n + 1) if unused[l]]
        asc = list(accumulate(free, initial=0))
        desc = list(accumulate(reversed(free), initial=0))
        for v in range(n):
            left = nbr_left[v]
            if left == 0:
                continue
            if nbr_sum[v] + asc[left] > k:
                prunes["sum_too_high"] = prunes.get("sum_too_high", 0) + 1
                return False
            if nbr_sum[v] + desc[left] < k:
                prunes["sum_too_low"] = prunes.get("sum_too_low", 0) + 1
                return False
        return True

    if not propagate(list(range(n))):
        return None
    stack = []  # (pos, label, trail mark) of each open branch
    pos = 0
    while True:
        # reached after the first propagation and after each node that holds
        if max_nodes is not None and stats.nodes > max_nodes:
            return BUDGET_EXCEEDED
        while pos < n and assigned[order[pos]]:
            pos += 1
        if pos == n:
            return Labeling._of_fields(tuple(assigned))
        stack.append((pos, 0, len(trail)))
        while stack:
            pos, lab, mark = stack.pop()
            rollback(mark)
            lab = unused.index(True, lab + 1)
            if lab > n:
                continue  # every label failed here: back to the parent branch
            stats.steps += 1
            stats.nodes += 1
            if max_nodes is not None and stats.nodes > max_nodes:
                return BUDGET_EXCEEDED
            stack.append((pos, lab, mark))
            work = []
            place(order[pos], lab, work)
            if propagate(work) and bounds_ok():
                pos += 1
                break
        else:
            return None


def check_family(named_graphs, budget: SearchBudget | None = None):
    """Run the search over (name, graph) pairs, preserving order."""
    return [(name, find_distance_magic(g, budget)) for name, g in named_graphs]
