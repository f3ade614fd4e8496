"""label_balanced: the one decision of which graphs are balanced distance
magic, checked against the closed forms it replaced, against the brute-force
oracle, and against the closure statements of the paper's abstract."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_balanced,
    label_complete_bipartite_reference,
    label_complete_minus_matching_reference,
)
from distmagic.constructors import (
    label_balanced,
    label_c4,
    label_complete_bipartite,
    label_complete_minus_matching,
    label_direct,
)
from distmagic.graphs import (
    Graph,
    complete_bipartite,
    complete_minus_matching,
    cycle,
    empty_graph,
    path,
)
from distmagic.magic import verify_balanced
from distmagic.products import DIRECT, LEXICOGRAPHIC, product
from distmagic.rearrange import (
    closed_h_layer_outcome,
    couple_layers,
    extract_factor_labeling,
    make_balanced,
    scramble_balanced,
)
from test_search import small_graphs


@pytest.mark.parametrize("a", range(1, 17))
def test_label_balanced_reproduces_the_closed_forms(a):
    kbip = label_balanced(complete_bipartite(2 * a, 2 * a)).values
    assert kbip == label_complete_bipartite_reference(a) == label_complete_bipartite(a).values
    kminusm = label_balanced(complete_minus_matching(2 * a)).values
    assert kminusm == label_complete_minus_matching_reference(a)
    assert kminusm == label_complete_minus_matching(a).values


def test_label_balanced_on_c4_and_empty_graphs():
    assert label_balanced(cycle(4)).values == label_c4().values == (1, 2, 4, 3)
    for n in range(41):
        labeling = label_balanced(empty_graph(n))
        if n == 0 or n % 2:
            assert labeling is None
        else:
            assert labeling.values == tuple(range(1, n + 1))


@pytest.mark.parametrize(
    "g",
    [
        cycle(6),  # regular, but every neighborhood class is a single vertex
        complete_bipartite(3, 3),  # regular, two classes of odd size
        complete_bipartite(2, 4),  # even classes, but not regular
        path(4),
        empty_graph(3),  # odd order
    ],
)
def test_label_balanced_rejects(g):
    assert label_balanced(g) is None
    assert not brute_force_balanced(g)


def _relabeled(g: Graph, perm) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


# every balanced graph on at most 6 vertices, up to isomorphism, and two
# regular graphs that are not balanced
SMALL_SEEDS = [empty_graph(2), empty_graph(4), empty_graph(6), cycle(4),
               complete_minus_matching(6), complete_bipartite(3, 3), cycle(6)]


@st.composite
def near_balanced_graphs(draw):
    """A relabeled copy of a small seed graph with at most one edge toggled."""
    g = draw(st.sampled_from(SMALL_SEEDS))
    edges = set(_relabeled(g, draw(st.permutations(range(g.n)))).edges)
    possible = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    edges ^= set(draw(st.lists(st.sampled_from(possible), max_size=1)))
    return Graph.from_edges(g.n, edges)


@settings(deadline=None, max_examples=150)
@given(st.one_of(small_graphs(max_n=6), near_balanced_graphs()))
def test_label_balanced_matches_brute_force(g):
    labeling = label_balanced(g)
    assert (labeling is None) == (not brute_force_balanced(g))
    if labeling is not None:
        assert verify_balanced(g, labeling).is_balanced


@st.composite
def circulants(draw, max_n):
    """A circulant graph, regular by construction."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    jumps = draw(st.sets(st.integers(1, n // 2))) if n > 1 else set()
    return Graph.from_edges(n, [(i, (i + s) % n) for i in range(n) for s in jumps])


@st.composite
def balanced_graphs(draw):
    """A relabeled named balanced graph, or a circulant blown up by the
    lexicographic product with an edgeless graph of even order."""
    named = [cycle(4), complete_bipartite(4, 4), complete_minus_matching(6),
             complete_minus_matching(8), empty_graph(2), empty_graph(4)]
    blown_up = st.tuples(circulants(max_n=4), st.sampled_from([2, 4])).map(
        lambda pair: product(LEXICOGRAPHIC, pair[0], empty_graph(pair[1])).base)
    h = draw(st.one_of(st.sampled_from(named), blown_up))
    return _relabeled(h, draw(st.permutations(range(h.n))))


@settings(deadline=None, max_examples=60)
@given(circulants(max_n=5), balanced_graphs(), st.integers(0, 2**32 - 1))
def test_balanced_graphs_are_closed_under_both_products(g, h, seed):
    # G x H and G o H are balanced for regular G and balanced H, and a
    # balanced factor labeling comes back out of either product
    h_labeling = label_balanced(h)
    assert h_labeling is not None
    labeling = label_direct(g, h, h_labeling)
    for kind in (DIRECT, LEXICOGRAPHIC):
        p = product(kind, g, h)
        assert label_balanced(p.base) is not None
        assert verify_balanced(p.base, labeling).is_balanced
        if p.base.edge_count == 0:
            # an isolated vertex forces k = 0: only edgeless twins lack equal
            # factor neighborhoods, so coupling rejects edgeless products
            continue
        bl = make_balanced(p, labeling)
        if kind == DIRECT:
            bl, outcome = couple_layers(scramble_balanced(bl, seed))
        else:
            outcome = closed_h_layer_outcome(bl)
        axis, factor_labeling = extract_factor_labeling(bl, outcome)
        factor = h if axis == "H" else g
        assert verify_balanced(factor, factor_labeling).is_balanced
        assert label_balanced(factor) is not None
