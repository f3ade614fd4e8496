import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    first_line_difference,
    format_edge_list_reference,
    is_bipartite,
    is_connected,
    product_reference,
)
from distmagic.errors import InputError
from distmagic.graphs import (
    Graph,
    complete_bipartite,
    complete_minus_matching,
    cycle,
    empty_graph,
    format_edge_list,
    parse_edge_list,
    path,
    regularity,
)
from distmagic.products import (
    CARTESIAN,
    DIRECT,
    LEXICOGRAPHIC,
    PRODUCT_KINDS,
    product,
)


def test_direct_c3_c4():
    p = product(DIRECT, cycle(3), cycle(4))
    assert p.base.n == 12
    assert regularity(p.base) == 4
    assert is_connected(p.base)


def test_direct_k2_k2_disconnected():
    k2 = path(2)
    p = product(DIRECT, k2, k2)
    assert p.base.n == 4
    # (0,0)-(1,1) and (0,1)-(1,0) under id = g*2 + h
    assert p.base.edges == frozenset({(0, 3), (1, 2)})
    assert not is_connected(p.base)


ADJACENT = {
    DIRECT: lambda g, h, a, b, a2, b2: a2 in g.neighbors(a) and b2 in h.neighbors(b),
    CARTESIAN: lambda g, h, a, b, a2, b2: (
        (a == a2 and b2 in h.neighbors(b)) or (b == b2 and a2 in g.neighbors(a))
    ),
    LEXICOGRAPHIC: lambda g, h, a, b, a2, b2: (
        a2 in g.neighbors(a) or (a == a2 and b2 in h.neighbors(b))
    ),
}


def assert_rows_follow_definition(p):
    """Each adjacency row equals the enumeration of the product's adjacency
    rule over all pairs, in id order (so the row is also ascending)."""
    g, h = p.factor_g, p.factor_h
    adjacent = ADJACENT[p.kind]
    for v in range(p.base.n):
        a, b = p.decode(v)
        expected = tuple(
            p.encode(a2, b2)
            for a2 in range(g.n)
            for b2 in range(h.n)
            if adjacent(g, h, a, b, a2, b2)
        )
        assert p.base.neighbors(v) == expected


def test_lexicographic_c4_empty3_degree():
    p = product(LEXICOGRAPHIC, cycle(4), empty_graph(3))
    assert p.base.n == 12
    assert regularity(p.base) == 6
    assert_rows_follow_definition(p)


FACTORS = st.sampled_from(
    [cycle(3), cycle(4), cycle(5), path(1), path(2), path(3), empty_graph(2), complete_bipartite(1, 2), complete_bipartite(2, 2)]
)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([CARTESIAN, LEXICOGRAPHIC, DIRECT]), FACTORS, FACTORS)
def test_order_and_degree_formulas(kind, g, h):
    p = product(kind, g, h)
    assert p.base.n == g.n * h.n
    for v in range(p.base.n):
        a, b = p.decode(v)
        dg, dh = len(g.neighbors(a)), len(h.neighbors(b))
        if kind == CARTESIAN:
            want = dg + dh
        elif kind == LEXICOGRAPHIC:
            want = dg * h.n + dh
        else:
            want = dg * dh
        assert len(p.base.neighbors(v)) == want


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([CARTESIAN, LEXICOGRAPHIC, DIRECT]), FACTORS, FACTORS)
def test_rows_follow_product_definition(kind, g, h):
    assert_rows_follow_definition(product(kind, g, h))


@settings(deadline=None, max_examples=40)
@given(FACTORS, FACTORS)
def test_direct_connectivity_criterion(g, h):
    # the criterion presumes nontrivial factors: each must carry an edge
    if not g.edges or not h.edges:
        return
    p = product(DIRECT, g, h)
    expected = is_connected(g) and is_connected(h) and not (is_bipartite(g) and is_bipartite(h))
    assert is_connected(p.base) == expected


@pytest.mark.parametrize("kind", [CARTESIAN, DIRECT])
@pytest.mark.parametrize("g,h", [(cycle(3), cycle(4)), (path(2), cycle(5)), (path(3), path(2))])
def test_commutative_up_to_pair_swap(kind, g, h):
    p1 = product(kind, g, h)
    p2 = product(kind, h, g)
    swapped = set()
    for u, v in p1.base.edges:
        a, b = p1.decode(u)
        c, d = p1.decode(v)
        e1, e2 = p2.encode(b, a), p2.encode(d, c)
        swapped.add((e1, e2) if e1 < e2 else (e2, e1))
    assert frozenset(swapped) == p2.base.edges


LIBRARY_GRAPHS = st.one_of(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda e: e[0] != e[1]))
    .map(lambda pairs: Graph.from_edges(7, pairs)),
    st.integers(3, 9).map(cycle),
    st.integers(1, 9).map(path),
    st.integers(0, 9).map(empty_graph),
    st.tuples(st.integers(1, 5), st.integers(1, 5)).map(lambda ab: complete_bipartite(*ab)),
    st.integers(1, 5).map(lambda a: complete_minus_matching(2 * a)),
    st.builds(product, st.sampled_from(PRODUCT_KINDS), FACTORS, FACTORS).map(lambda p: p.base),
)


@settings(deadline=None, max_examples=150)
@given(LIBRARY_GRAPHS, st.booleans())
def test_library_built_graphs_pass_the_row_check(g, reparse):
    # the library's builders skip the check the public constructor makes
    if reparse:
        g = parse_edge_list(format_edge_list(g))
    assert Graph(g.n, g.adjacency) == g


@st.composite
def random_graphs(draw, max_n=14):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, edges)


@settings(deadline=None, max_examples=150)
@given(st.one_of(
    st.builds(product, st.sampled_from(PRODUCT_KINDS), FACTORS, FACTORS).map(lambda p: p.base),
    random_graphs(),
))
@example(Graph.from_edges(0, []))
@example(empty_graph(7))
# 2 and 6 have only lower neighbors; 3 and 5 have none
@example(Graph.from_edges(7, [(0, 2), (1, 2), (0, 4), (1, 4), (4, 6)]))
# ids crossing 9/10, 99/100 and 9999/10000, within a row and across rows
@example(Graph.from_edges(10001, [(0, 9), (9, 10), (9, 99), (10, 100), (99, 100),
                                  (99, 9999), (100, 10000), (9999, 10000)]))
@example(cycle(1 << 16))
def test_edge_list_bytes_match_reference(g):
    assert first_line_difference(format_edge_list(g), format_edge_list_reference(g)) is None


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(PRODUCT_KINDS), st.one_of(FACTORS, random_graphs(8)),
       st.one_of(FACTORS, random_graphs(8)))
def test_gathered_rows_match_reference(kind, g, h):
    # random factors carry vertices of degree 0 and 1, whose rows the
    # product gathers by their own functions
    assert product(kind, g, h).base == product_reference(kind, g, h)


def shares_vertex_ids(g):
    """Every row entry of vertex id v is one object.  CPython caches the ints
    up to 256, so only graphs on more than 257 vertices can fail this."""
    return len({id(x) for row in g.adjacency for x in row}) <= g.n


@st.composite
def sparse_graphs(draw, min_n, max_n):
    """Random graphs with about one edge per vertex: most vertices have
    degree 0, 1 or 2."""
    n = draw(st.integers(min_n, max_n))
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends).filter(lambda e: e[0] != e[1]), max_size=n))
    return Graph.from_edges(n, pairs)


@st.composite
def circulants(draw):
    """from_edges of pairs computed as callers compute them, each end a
    new int object: vertex i joined to i + s mod n for each step s."""
    n = draw(st.integers(258, 600))
    steps = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=3))
    return Graph.from_edges(n, [(i, (i + s) % n) for s in steps for i in range(n)])


@settings(deadline=None, max_examples=60)
@given(st.one_of(
    circulants(),
    sparse_graphs(258, 600),
    st.integers(258, 600).map(cycle),
    st.integers(258, 600).map(path),
    st.integers(258, 600).map(empty_graph),
    st.tuples(st.integers(1, 5), st.integers(258, 300)).map(lambda ab: complete_bipartite(*ab)),
    st.integers(129, 160).map(lambda a: complete_minus_matching(2 * a)),
), st.booleans())
def test_library_built_graphs_hold_one_int_per_vertex(g, reparse):
    if reparse:
        g = parse_edge_list(format_edge_list(g))
    assert shares_vertex_ids(g)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(PRODUCT_KINDS),
       st.one_of(st.integers(258, 300).map(cycle), sparse_graphs(258, 300)), FACTORS, st.booleans())
def test_products_hold_one_int_per_vertex(kind, g, h, reparse):
    p = product(kind, g, h).base
    if reparse:
        p = parse_edge_list(format_edge_list(p))
    assert shares_vertex_ids(p)


def test_empty_factor_gives_empty_product():
    p = product(DIRECT, cycle(3), empty_graph(0))
    assert p.base.n == 0 and not p.base.edges
    p = product(LEXICOGRAPHIC, empty_graph(0), cycle(3))
    assert p.base.n == 0


def test_unknown_kind_rejected():
    with pytest.raises(InputError):
        product("strong", cycle(3), cycle(3))
