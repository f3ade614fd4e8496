"""Cartesian, lexicographic, and direct products of two graphs.

Vertex pairs (g, h) are encoded row-major as g * |V(H)| + h, so each H-layer
(fix g, vary h) is a contiguous block of ids.  A product's adjacency row is
written straight from its factors' rows by the product's neighborhood rule:

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

    def row(a, b):
        if kind == DIRECT:
            return [x * hn + y for x in ga[a] for y in ha[b]]
        own = [a * hn + y for y in ha[b]]
        if kind == CARTESIAN:
            return sorted([x * hn + b for x in ga[a]] + own)
        return sorted([x * hn + y for x in ga[a] for y in range(hn)] + own)

    base = Graph(gn * hn, tuple([tuple(row(a, b)) for a in range(gn) for b in range(hn)]))
    return ProductGraph(base, g, h, kind)
