"""Cartesian, lexicographic, and direct products of two graphs.

Vertex pairs (g, h) are encoded row-major as g * |V(H)| + h, so each H-layer
(fix g, vary h) is a contiguous block of ids.  A product's adjacency row is
gathered straight from its factors' rows by the product's neighborhood rule,
already in ascending order, so it is neither sorted nor checked again:

    direct          N(a,b) = N(a) x N(b)
    Cartesian       N(a,b) = N(a) x {b}  u  {a} x N(b)
    lexicographic   N(a,b) = N(a) x V(H)  u  {a} x N(b)

Rows are gathered, not computed: each product vertex id is created once, in
its H-layer's block, and every row holds references to those objects, picked
out by C-level `itemgetter` calls and tuple concatenation.  A product thus
holds one int object per vertex however many rows contain it.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter

from ._value import Value
from .errors import InputError
from .graphs import Graph, check_size

CARTESIAN = "cartesian"
LEXICOGRAPHIC = "lexicographic"
DIRECT = "direct"

PRODUCT_KINDS = (CARTESIAN, LEXICOGRAPHIC, DIRECT)


class ProductGraph(Value):
    """A product together with its factors and the pair encoding."""

    __slots__ = _fields = ("base", "factor_g", "factor_h", "kind")

    def __init__(self, base: Graph, factor_g: Graph, factor_h: Graph, kind: str):
        self._init(base, factor_g, factor_h, kind)

    @property
    def gsize(self) -> int:
        return self.factor_g.n

    @property
    def hsize(self) -> int:
        return self.factor_h.n

    def encode(self, gi: int, hi: int) -> int:
        return gi * self.hsize + hi

    def decode(self, v: int) -> tuple[int, int]:
        return divmod(v, self.hsize)


def product(kind: str, g: Graph, h: Graph) -> ProductGraph:
    """Construct the product of the given kind.  Empty factors give empty products."""
    if kind not in PRODUCT_KINDS:
        raise InputError(f"unknown product kind {kind!r}, expected one of {PRODUCT_KINDS}")
    gn, hn = g.n, h.n
    ga, ha = g.adjacency, h.adjacency
    mg, mh = g.edge_count, h.edge_count
    edges = {DIRECT: 2 * mg * mh, CARTESIAN: gn * mh + mg * hn,
             LEXICOGRAPHIC: mg * hn * hn + gn * mh}[kind]
    check_size(gn * hn, edges)

    # Rows come out ascending without a sort: a direct row runs over x in N(a),
    # then y in N(b); the other two list the x in N(a) below a, then a's own
    # block, then the x above a.  Rows of validated factors make valid product
    # rows: no loops (x != a or y != b), and symmetric, since each rule is
    # symmetric in its pairs.
    blocks = [list(range(x * hn, x * hn + hn)) for x in range(gn)]
    rows = []
    if kind == DIRECT:
        # The blocks of N(a), laid end to end, hold every row (a, b); the
        # getters picking row b out of them depend only on |N(a)|.
        by_degree = {}
        for xs in ga:
            d = len(xs)
            getters = by_degree.get(d)
            if getters is None:
                getters = by_degree[d] = [_gather([i * hn + y for i in range(d) for y in ys])
                                          for ys in ha]
            joined = list(chain.from_iterable([blocks[x] for x in xs]))
            rows.extend([get(joined) for get in getters])
    else:
        getters = [_gather(ys) for ys in ha]
        for a, xs in enumerate(ga):
            own = blocks[a]
            low = [blocks[x] for x in xs if x < a]
            high = [blocks[x] for x in xs if x > a]
            if kind == CARTESIAN:
                # column b of the blocks below and above a
                below = list(zip(*low)) if low else [()] * hn
                above = list(zip(*high)) if high else [()] * hn
                rows.extend([lo + get(own) + hi for lo, get, hi in zip(below, getters, above)])
            else:
                # through a list: tuple() of an iterator resizes a tuple made
                # for another length, so on many small products dead tuples
                # pile up in CPython's per-size tuple free lists
                below = tuple(list(chain.from_iterable(low)))
                above = tuple(list(chain.from_iterable(high)))
                rows.extend([below + get(own) + above for get in getters])
    return ProductGraph(Graph._of_fields(gn * hn, tuple(rows)), g, h, kind)


def _gather(positions: list[int]):
    """A function from a sequence to the tuple of its items at `positions`.

    `itemgetter` of one position returns the item itself, and of none is
    not defined, so those two cases get their own function."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        i = positions[0]
        return lambda seq: (seq[i],)
    return lambda seq: ()
