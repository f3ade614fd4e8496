"""Rearranging balanced labelings of direct products.

Three label-swap operations, each exchanging exactly two labels while
preserving the bijection, every vertex weight, and balance, and each
establishing one promised twin pair; a coupling procedure that rewrites a
balanced labeling until either some H-layer is closed under twins or the
H-layers are matched in pairs with twins aligned coordinatewise; and the
extraction of a balanced labeling of one factor from either outcome.

All operations consume and produce immutable values.  The scramble used to
exercise them permutes labels inside classes of vertices with identical
neighborhoods, driven by a fixed linear congruential generator
(x -> 1664525*x + 1013904223 mod 2^32) feeding a Fisher-Yates shuffle, so
scrambles are reproducible from the seed alone.

Verification contract: a labeling is checked once, where it enters, by
make_balanced, the only full check (all weights and every vertex's
neighborhood against its twin's, O(|E|)).  The lemma swaps, the scramble and
couple_layers, which only chains swaps, move labels only between vertices
with one shared neighborhood, so every neighborhood keeps its set of labels
and balance holds by proof.  They check that premise locally (O(degree) per
swap) and carry the twin map forward; nothing re-verifies their results.
The public swap_lemma1..3 check their lemma's premises on the caller's
arguments.  couple_layers reads each exchange off the twin map, so per swap
its only check is the exchange's premise; it makes at most 2|V(H)| exchanges
per layer pair, a bound its docstring proves, and fails past it.
"""

from __future__ import annotations

from ._value import Value
from .errors import InputError
from .graphs import equal_neighborhood_classes
from .magic import Labeling, label_positions, verify_balanced
from .products import DIRECT, LEXICOGRAPHIC, ProductGraph

CLOSED_H_LAYER = "closed_H_layer"
COUPLED_PAIRS = "coupled_pairs"


class BalancedProductLabeling(Value):
    """A product labeling known to be balanced, with its twin involution:
    verified by make_balanced, or derived from such a value by a step that
    preserves balance by proof.

    twins[v] is the vertex holding the complementary label |V|+1-l(v).
    """

    __slots__ = _fields = ("product", "labeling", "twins")


def make_balanced(prod: ProductGraph, labeling: Labeling) -> BalancedProductLabeling:
    """Verify and wrap; rejects labelings that are not balanced on the product."""
    if prod.kind not in (DIRECT, LEXICOGRAPHIC):
        raise InputError(f"expected a direct or lexicographic product, got {prod.kind!r}")
    report = verify_balanced(prod.base, labeling)
    if not report.is_balanced:
        raise InputError(
            f"labeling is not balanced on the product ({report.failure_count} failures)"
        )
    return BalancedProductLabeling(prod, labeling, report.twin_map)


def _exchange(bl: BalancedProductLabeling, a: int, b: int) -> BalancedProductLabeling:
    """Exchange the labels of a and b, which must share one neighborhood.

    Every neighborhood then keeps its set of labels, so weights and balance
    hold without re-verification.  The new twin map is the old one conjugated
    by the transposition s = (a b): the new labels are l o s, so the vertex
    holding the complement of l(s(v)) is s(twins[s(v)]).  Only a, b and the
    images of their old twins can change.
    """
    base = bl.product.base
    if base.neighbors(a) != base.neighbors(b):
        raise AssertionError(f"exchange premise fails: N({a}) != N({b})")
    vals = list(bl.labeling.values)
    vals[a], vals[b] = vals[b], vals[a]

    def s(v):
        return b if v == a else a if v == b else v

    old = bl.twins
    twins = list(old)
    for v in {a, b, s(old[a]), s(old[b])}:
        twins[v] = s(old[s(v)])
    return BalancedProductLabeling(bl.product, Labeling._of_fields(tuple(vals)), tuple(twins))


def _require(condition, message):
    if not condition:
        raise InputError(message)


def _require_ids(ids, size, what):
    for x in ids:
        _require(0 <= x < size, f"{what} {x} out of range [0,{size})")


def _require_twins(bl, a, b):
    """Reject the (g, h) coordinate pairs a and b unless their vertices are twins."""
    enc = bl.product.encode
    _require(bl.twins[enc(*a)] == enc(*b), "({},{}) and ({},{}) are not twins".format(*a, *b))


def swap_lemma1(bl: BalancedProductLabeling, v1: int, v2: int) -> BalancedProductLabeling:
    """Twins (g,h) and (g',h') with g != g' and h != h': exchange the labels of
    (g',h') and (g',h).  The result is balanced with twins (g,h) and (g',h).

    Valid because in a direct product N(g,h) = N(g',h') = N(g',h) = N(g,h'),
    so the exchange moves labels between vertices with one shared neighborhood.
    """
    prod = bl.product
    _require(prod.kind == DIRECT, "lemma swaps apply to direct products only")
    _require_ids((v1, v2), prod.base.n, "vertex")
    g1, h1 = prod.decode(v1)
    g2, h2 = prod.decode(v2)
    _require(bl.twins[v1] == v2, f"vertices {v1} and {v2} are not twins")
    _require(g1 != g2, "twin pair lies in one H-layer (G-coordinates equal)")
    _require(h1 != h2, "twin pair already aligned (H-coordinates equal)")
    return _exchange(bl, v2, prod.encode(g2, h1))


def swap_lemma2(bl, g, gp, h, h1, h2) -> BalancedProductLabeling:
    """Twins (g,h),(g',h) and in-layer twins (g,h1),(g,h2): exchange the labels
    of (g,h2) and (g',h1), giving twins (g,h1) and (g',h1).

    h, h1, h2 are required pairwise distinct (the in-layer pair cannot involve
    the anchor coordinate, and h1 = h2 would be a vertex twinned with itself).
    """
    prod = bl.product
    _require(prod.kind == DIRECT, "lemma swaps apply to direct products only")
    _require_ids((g, gp), prod.gsize, "g coordinate")
    _require_ids((h, h1, h2), prod.hsize, "h coordinate")
    _require(g != gp, "anchor layers must differ")
    _require(len({h, h1, h2}) == 3, "h, h1, h2 must be pairwise distinct")
    _require_twins(bl, (g, h), (gp, h))
    _require_twins(bl, (g, h1), (g, h2))
    return _exchange(bl, prod.encode(g, h2), prod.encode(gp, h1))


def swap_lemma3(bl, g, gp, gpp, h, hp) -> BalancedProductLabeling:
    """Twins (g,h),(g',h) and twins (g,h'),(g'',h') with g'' != g': exchange
    the labels of (g',h') and (g'',h'), giving twins (g,h') and (g',h')."""
    prod = bl.product
    _require(prod.kind == DIRECT, "lemma swaps apply to direct products only")
    _require_ids((g, gp, gpp), prod.gsize, "g coordinate")
    _require_ids((h, hp), prod.hsize, "h coordinate")
    _require(gpp != gp, "g'' must differ from g'")
    _require(g != gp and g != gpp, "g must differ from g' and g''")
    _require_twins(bl, (g, h), (gp, h))
    _require_twins(bl, (g, hp), (gpp, hp))
    return _exchange(bl, prod.encode(gp, hp), prod.encode(gpp, hp))


class CoupleOutcome(Value):
    """Either one twin-closed H-layer, or a pairing of all H-layers such that
    within a pair (g, g') the twin of (g,h) is (g',h) for every h."""

    __slots__ = _fields = ("tag", "closed_g", "pairs", "swaps")
    _defaults = (None, None, 0)


def _layer_closed(bl: BalancedProductLabeling, g: int) -> bool:
    hsize = bl.product.hsize
    return all(t // hsize == g for t in bl.twins[g * hsize : (g + 1) * hsize])


def _next_swap(row, lo: int, plo: int, hsize: int):
    """The next exchange coupling layer g with g' as (a, b, name): the two
    vertices whose labels it exchanges and the lemma's name.  row[h] is the
    twin of (g,h), lo the id of (g,0) and plo that of (g',0).  Lemma 1 aligns
    a twin outside layer g, lemma 3 pulls an aligned twin from a third layer
    into g', lemma 2 splits a pair inside g, each on the smallest h admitting
    it.  No vertex is its own twin, as a balanced labeling has even order."""
    for h, t in enumerate(row):
        if t % hsize != h and not lo <= t < lo + hsize:
            return t, t - t % hsize + h, "lemma1"
    for h, t in enumerate(row):
        if t % hsize == h and t != plo + h:
            return plo + h, t, "lemma3"
    for h, t in enumerate(row):
        th = t - lo
        if 0 <= th < hsize:
            return lo + max(h, th), plo + min(h, th), "lemma2"


def couple_layers(bl: BalancedProductLabeling, on_swap=None):
    """Rewrite the labeling until an H-layer is twin-closed or all H-layers
    are coupled in pairs; returns (rewritten labeling, outcome).

    One loop: the working layer g is the smallest id remaining.  If no twin of
    layer g leaves it, g is closed and coupling stops.  Otherwise its partner
    g' is the layer of the first twin that leaves g, and _next_swap picks
    exchanges (lemma 1, then 3, then 2) until every (g,h) is twinned with
    (g',h).

    At most 2|V(H)| exchanges couple one layer pair.  Sort the rows h of
    layer g whose twin (tg,th) is not (g',h) into I (tg = g), M (tg != g,
    th != h) and A (th = h, tg not in {g,g'}); a lemma applies to each.  The
    potential 2|I| + 2|M| + |A| is at most 2|V(H)|, and 0 once the pair is
    coupled.  Lemma 1 moves its row from M to A or coupled, lemma 3 couples
    its row from A, and lemma 2 couples the smaller row of its pair from I
    and leaves the larger one at weight 2 at most.  Besides, an exchange
    changes the twin of at most one row of g, a row in M, which keeps weight
    2 at most.  So every exchange lowers the potential by at least 1, and
    coupling that would run past the bound fails with AssertionError instead
    of looping.

    on_swap, when given, is called as on_swap(before, after, lemma_name) for
    every exchange.

    Per exchange the only check is _exchange's premise, that the two vertices
    share one neighborhood (O(degree)).  It carries the twin map forward, so
    the rewritten labeling is balanced by the lemmas and is returned without
    re-verification.  After each exchange, layer g's twins are read again as
    one slice of the twin map, which picking the next lemma scans
    (O(|V(H)|)); the exchange copies the labeling and twin tuples (O(|V|)).
    """
    prod = bl.product
    if prod.kind != DIRECT:
        raise InputError("coupling applies to direct products only")
    if prod.base.edge_count == 0:
        # an isolated vertex forces k = 0: only edgeless twins lack equal factor neighborhoods
        raise InputError("product has no edges; twin structure is undefined")

    hsize = prod.hsize
    swaps = 0
    remaining = set(range(prod.gsize))
    pairs = []
    while remaining:
        g = min(remaining)
        lo = prod.encode(g, 0)
        row = bl.twins[lo : lo + hsize]  # row[h] is the twin of (g,h)
        gp = next((t // hsize for t in row if t // hsize != g), None)
        if gp is None:
            break  # layer g is twin-closed
        assert gp in remaining
        plo = prod.encode(gp, 0)
        aligned = tuple(range(plo, plo + hsize))
        exchanges = 0
        while row != aligned:
            if exchanges == 2 * hsize:
                raise AssertionError(f"layers {g} and {gp} not coupled after {exchanges} exchanges")
            a, b, lemma = _next_swap(row, lo, plo, hsize)
            new = _exchange(bl, a, b)
            if on_swap is not None:
                on_swap(bl, new, lemma)
            bl, exchanges = new, exchanges + 1
            row = bl.twins[lo : lo + hsize]
        swaps += exchanges
        remaining -= {g, gp}
        pairs.append((g, gp))

    if remaining:
        outcome = CoupleOutcome(CLOSED_H_LAYER, closed_g=min(remaining), swaps=swaps)
    else:
        outcome = CoupleOutcome(COUPLED_PAIRS, pairs=tuple(pairs), swaps=swaps)
    return bl, outcome


def closed_h_layer_outcome(bl: BalancedProductLabeling) -> CoupleOutcome:
    """Outcome for the smallest twin-closed H-layer, without any rewriting.

    This is the route for lexicographic products, whose balanced labelings
    keep twins inside H-layers whenever the second factor has edges.
    """
    for g in range(bl.product.gsize):
        if _layer_closed(bl, g):
            return CoupleOutcome(CLOSED_H_LAYER, closed_g=g, swaps=0)
    raise InputError("no twin-closed H-layer in this labeling")


def _pair_labeling(pairs) -> Labeling:
    """Label a perfect matching: in order of their smaller members, the i-th
    pair gets i on its smaller member and n+1-i on the other, so every label
    of 1..n is used once and the bijection holds by construction."""
    n = 2 * len(pairs)
    values = [0] * n
    for i, (a, b) in enumerate(sorted(pairs, key=min), start=1):
        values[min(a, b)] = i
        values[max(a, b)] = n + 1 - i
    return Labeling._of_fields(tuple(values))


def extract_factor_labeling(bl: BalancedProductLabeling, outcome: CoupleOutcome):
    """Read a balanced labeling of one factor off a coupling outcome.

    Returns ("H", labeling of the second factor) for a closed H-layer, or
    ("G", labeling of the first factor) for coupled pairs.  The outcome is
    revalidated against the current labeling, so a stale outcome is rejected.
    """
    prod = bl.product
    if outcome.tag == CLOSED_H_LAYER:
        g = outcome.closed_g
        if g is None or not (0 <= g < prod.gsize):
            raise InputError(f"closed layer id {g} out of range [0,{prod.gsize})")
        if not _layer_closed(bl, g):
            raise InputError(f"stale outcome: H-layer {g} is not twin-closed for this labeling")
        lo = prod.encode(g, 0)
        pairs = [(h, t - lo) for h, t in enumerate(bl.twins[lo : lo + prod.hsize]) if h < t - lo]
        return "H", _pair_labeling(pairs)

    if outcome.tag == COUPLED_PAIRS:
        if outcome.pairs is None:
            raise InputError("coupled outcome carries no pairs")
        flat = [g for pair in outcome.pairs for g in pair]
        if sorted(flat) != list(range(prod.gsize)):
            raise InputError("coupled pairs do not partition the first factor's vertices")
        for a, b in outcome.pairs:
            lo, plo = prod.encode(a, 0), prod.encode(b, 0)
            for h, t in enumerate(bl.twins[lo : lo + prod.hsize]):
                if t != plo + h:
                    raise InputError(
                        f"stale outcome: twin of ({a},{h}) is not ({b},{h}) for this labeling"
                    )
        return "G", _pair_labeling(outcome.pairs)

    raise InputError(f"unknown outcome tag {outcome.tag!r}")


# ---------------------------------------------------------------------------
# Seeded scramble
# ---------------------------------------------------------------------------

class _Lcg:
    """Numerical Recipes LCG, 32-bit state; the documented scramble driver."""

    def __init__(self, seed: int):
        self.state = seed & 0xFFFFFFFF

    def below(self, bound: int) -> int:
        self.state = (1664525 * self.state + 1013904223) & 0xFFFFFFFF
        return self.state % bound


def scramble_balanced(bl: BalancedProductLabeling, seed: int) -> BalancedProductLabeling:
    """Permute labels inside each equal-neighborhood class, deterministically
    from the seed.  Weights and the twin condition are preserved because any
    neighborhood contains all or none of each class; the twin map is read off
    the new labels instead of re-verifying."""
    rng = _Lcg(seed)
    values = list(bl.labeling.values)
    for cls in equal_neighborhood_classes(bl.product.base):
        labels = [values[v] for v in cls]
        for i in range(len(labels) - 1, 0, -1):  # Fisher-Yates
            j = rng.below(i + 1)
            labels[i], labels[j] = labels[j], labels[i]
        for v, lab in zip(cls, labels):
            values[v] = lab
    labeling = Labeling._of_fields(tuple(values))
    pos = label_positions(labeling)
    n = len(values)
    return BalancedProductLabeling(bl.product, labeling, tuple(pos[n - x] for x in values))
