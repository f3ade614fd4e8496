"""Cartesian, lexicographic, and direct products of two graphs.

Vertex pairs (g, h) are encoded row-major as g * |V(H)| + h, so each H-layer
(fix g, vary h) is a contiguous block of ids.  A product's adjacency row is
written straight from its factors' rows by the product's neighborhood rule,
already in ascending order, so it is neither sorted nor checked again:

    direct          N(a,b) = N(a) x N(b)
    Cartesian       N(a,b) = N(a) x {b}  u  {a} x N(b)
    lexicographic   N(a,b) = N(a) x V(H)  u  {a} x N(b)
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .graphs import Graph, check_size

CARTESIAN = "cartesian"
LEXICOGRAPHIC = "lexicographic"
DIRECT = "direct"

PRODUCT_KINDS = (CARTESIAN, LEXICOGRAPHIC, DIRECT)


@dataclass(frozen=True)
class ProductGraph:
    """A product together with its factors and the pair encoding."""

    base: Graph
    factor_g: Graph
    factor_h: Graph
    kind: str

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
    rows = []
    for a, xs in enumerate(ga):
        if kind == DIRECT:
            offsets = [x * hn for x in xs]
            rows.extend([tuple([o + y for o in offsets for y in ys]) for ys in ha])
            continue
        low = [x * hn for x in xs if x < a]
        high = [x * hn for x in xs if x > a]
        own = a * hn
        if kind == CARTESIAN:
            rows.extend([tuple([o + b for o in low] + [own + y for y in ys] + [o + b for o in high])
                         for b, ys in enumerate(ha)])
        else:
            below = tuple([o + y for o in low for y in range(hn)])
            above = tuple([o + y for o in high for y in range(hn)])
            rows.extend([below + tuple([own + y for y in ys]) + above for ys in ha])
    return ProductGraph(Graph._of_rows(gn * hn, tuple(rows)), g, h, kind)
