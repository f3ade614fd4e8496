import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_distance_magic, forced_equal_reference, regular_magic_constant
from distmagic.cli import main
from distmagic.constructors import (
    NOT_DISTANCE_MAGIC,
    classify_cycle_cartesian,
    classify_cycle_direct,
    classify_lex_cycles,
)
from distmagic.errors import InputError
from distmagic.graphs import (
    Graph,
    complete_bipartite,
    complete_minus_matching,
    cycle,
    empty_graph,
    path,
    regularity,
)
from distmagic.magic import verify_distance_magic
from distmagic.products import CARTESIAN, DIRECT, LEXICOGRAPHIC, product
from distmagic.search import (
    BUDGET_EXCEEDED,
    EXHAUSTED_NONE,
    FOUND,
    SearchBudget,
    _kernel_keys,
    check_family,
    find_distance_magic,
    kernel_forced_equal,
)


def k4():
    return Graph.from_edges(4, itertools.combinations(range(4), 2))


def test_c4_found_with_first_witness():
    outcome = find_distance_magic(cycle(4))
    assert outcome.tag == FOUND
    assert outcome.magic_constant == 5
    assert outcome.labeling.values == (1, 2, 4, 3)


def test_c6_exhausted():
    assert find_distance_magic(cycle(6)).tag == EXHAUSTED_NONE


def test_direct_c3_c3_exhausted():
    p = product(DIRECT, cycle(3), cycle(3))
    assert find_distance_magic(p.base).tag == EXHAUSTED_NONE


def test_p3_found():
    outcome = find_distance_magic(path(3))
    assert outcome.tag == FOUND
    assert outcome.magic_constant == 3
    assert outcome.labeling.values == (1, 3, 2)


def test_odd_regular_fast_path():
    outcome = find_distance_magic(k4())
    assert outcome.tag == EXHAUSTED_NONE
    assert outcome.stats.prunes.get("odd_regular") == 1
    assert outcome.stats.nodes == 0


def test_kernel_pair_is_the_first_forced_vertex():
    # P2: both labels equal k.  P4 (0-1-2-3): the two ends read l(1) and
    # l(2), so l(1) = l(2) = k.
    assert kernel_forced_equal(path(2)) == (0, 1)
    assert kernel_forced_equal(path(4)) == (1, 2)
    assert kernel_forced_equal(path(3)) is None
    # edgeless graphs: k = 0 and every label is free
    assert kernel_forced_equal(empty_graph(3)) is None
    # pairs that end the vertex order: no earlier vertex repeats a key
    g = Graph.from_edges(6, [(0, 5), (1, 5), (2, 4), (3, 4), (3, 5)])
    assert kernel_forced_equal(g) == (4, 5)
    g = Graph.from_edges(7, [(0, 1), (0, 3), (0, 4), (0, 5), (1, 6), (2, 5), (3, 6), (4, 5)])
    assert kernel_forced_equal(g) == (5, 6)


def test_kernel_keys_keep_their_denominator():
    # Triangle 0-2-3 plus the edge 1-4: l(1) = l(4) = k while l(0) = l(2) =
    # l(3) = k/2.  Vertices 0 and 1 share numerators but not denominators.
    g = Graph.from_edges(5, [(0, 2), (0, 3), (2, 3), (1, 4)])
    assert kernel_forced_equal(g) == (0, 2)
    # Triangle 2-3-4, 0 joined to 3 and 4, 1 hanging from 2: l(3) = l(4) =
    # k/2, l(0) = -k/2, l(2) = k and l(1) = 0, keys over the denominator 2.
    g = Graph.from_edges(5, [(0, 3), (0, 4), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert kernel_forced_equal(g) == (3, 4)
    # Triangle 1-2-3, 0 joined to 1, 4 hanging from 0: l(0) = l(1) = k and
    # l(2) = l(3) = l(4) = 0.
    g = Graph.from_edges(5, [(0, 1), (0, 4), (1, 2), (1, 3), (2, 3)])
    assert kernel_forced_equal(g) == (0, 1)


def _product_is_magic(kind, a, b):
    if kind == DIRECT:
        return classify_cycle_direct(a, b) != NOT_DISTANCE_MAGIC
    if kind == CARTESIAN:
        return classify_cycle_cartesian(a, b)
    return classify_lex_cycles(a, b)


def test_certificates_match_classifiers_on_cycle_products():
    # With a one-node budget only the certificates can answer exhausted_none.
    disagree = []
    for kind, a, b in itertools.product((DIRECT, CARTESIAN, LEXICOGRAPHIC), range(3, 11), range(3, 11)):
        p = product(kind, cycle(a), cycle(b))
        outcome = find_distance_magic(p.base, SearchBudget(1))
        if (outcome.tag == EXHAUSTED_NONE) == _product_is_magic(kind, a, b):
            disagree.append((kind, a, b, outcome.tag))
    assert disagree == []


def test_check_family_cycles():
    rows = check_family((n, cycle(n)) for n in range(3, 17))
    assert [n for n, out in rows if out.tag == FOUND] == [4]
    assert kernel_forced_equal(cycle(4)) is None
    for n, out in rows:
        if n != 4:
            # every cycle but C4 is certified by the kernel, before any node
            assert out.tag == EXHAUSTED_NONE, n
            assert out.stats.prunes == {"kernel_forced_equal": 1}, n
            assert out.stats.nodes == 0, n
            assert out.stats.forced_equal == ((0, 4) if n % 4 == 0 else (0, 1)), n


def test_check_family_order_preserved():
    rows = check_family([("P3", path(3)), ("cart33", product(CARTESIAN, cycle(3), cycle(3)).base)])
    assert [name for name, _ in rows] == ["P3", "cart33"]
    assert rows[0][1].tag == FOUND and rows[0][1].magic_constant == 3
    assert rows[1][1].tag == EXHAUSTED_NONE


def test_edgeless_graphs_found_degenerate():
    outcome = find_distance_magic(empty_graph(5))
    assert outcome.tag == FOUND and outcome.magic_constant == 0
    assert outcome.labeling.values == (1, 2, 3, 4, 5)
    outcome = find_distance_magic(empty_graph(0))
    assert outcome.tag == FOUND and outcome.magic_constant == 0


def test_budget_exceeded_is_an_outcome():
    # the kernel is silent on direct C5 x C4, so only the budget stops it
    p = product(DIRECT, cycle(5), cycle(4))
    outcome = find_distance_magic(p.base, SearchBudget(max_nodes=2000))
    assert outcome.tag == BUDGET_EXCEEDED
    assert outcome.labeling is None
    assert outcome.stats.nodes >= 2000
    assert outcome.stats.forced_equal is None


def test_budget_hit_by_a_forced_assignment():
    # P3's middle vertex is forced to 3 before any branch (node 1); the first
    # branch labels vertex 0 (node 2) and forces vertex 2 (node 3), past the cap
    outcome = find_distance_magic(path(3), SearchBudget(2))
    assert outcome.tag == BUDGET_EXCEEDED
    assert outcome.stats.nodes == 3 and outcome.stats.steps == 1


def test_budget_hit_after_the_initial_propagation():
    # K_{1,3}: the leaves pin the center to k.  k = 3 fails on its three
    # branches (nodes 2..4); at k = 4 the initial propagation forces the
    # center (node 5), past the cap, before any branch
    outcome = find_distance_magic(complete_bipartite(1, 3), SearchBudget(4))
    assert outcome.tag == BUDGET_EXCEEDED
    assert outcome.stats.nodes == 5 and outcome.stats.steps == 3


def test_initial_propagation_fails():
    # P3 plus an isolated vertex: the empty neighborhood weighs 0, while the
    # degrees allow only k = 2 or 3, so each k fails before its first branch
    g = Graph.from_edges(4, [(0, 1), (0, 2)])
    outcome = find_distance_magic(g)
    assert outcome.tag == EXHAUSTED_NONE
    assert outcome.stats.prunes == {"closed_neighborhood": 2}
    assert outcome.stats.nodes == 0
    assert not brute_force_distance_magic(g)[0]


def test_deep_backtracking_has_no_recursion_limit(capsys):
    # every vertex of an edgeless graph is a branch, one frame deep each
    outcome = find_distance_magic(empty_graph(1200))
    assert outcome.tag == FOUND and outcome.magic_constant == 0
    assert outcome.labeling.values == tuple(range(1, 1201))
    assert main(["search", "--graph", "empty:1200"]) == 0
    assert "outcome=found\n" in capsys.readouterr().out


def test_budget_must_be_positive():
    for bad in (0, -3):
        with pytest.raises(InputError, match="budget must be positive"):
            SearchBudget(max_nodes=bad)


def test_determinism():
    p = product(DIRECT, cycle(3), cycle(4))
    a = find_distance_magic(p.base)
    b = find_distance_magic(p.base)
    assert a.tag == b.tag == FOUND
    assert a.labeling == b.labeling
    assert a.stats.nodes == b.stats.nodes and a.stats.steps == b.stats.steps


# (kind, a, b, tag, nodes, steps, prunes) of the products of C_a and C_b that
# take the most nodes at a budget of 10000: every one counted before the
# propagation work list was trimmed to neighbors with at most one slot left
BUDGET_BOUND_STATS = [
    (LEXICOGRAPHIC, 6, 4, BUDGET_EXCEEDED, 10001, 9661,
     {"closed_neighborhood": 208, "forced_unavailable": 2040, "sum_too_high": 301,
      "sum_too_low": 6461}),
    (LEXICOGRAPHIC, 5, 4, BUDGET_EXCEEDED, 10001, 10001,
     {"sum_too_high": 3918, "sum_too_low": 5252}),
    (LEXICOGRAPHIC, 4, 4, BUDGET_EXCEEDED, 10001, 10001,
     {"sum_too_high": 5318, "sum_too_low": 3454}),
    (DIRECT, 6, 4, BUDGET_EXCEEDED, 10001, 9065,
     {"forced_unavailable": 7521, "sum_too_high": 728, "sum_too_low": 245}),
    (DIRECT, 5, 4, BUDGET_EXCEEDED, 10001, 8847,
     {"forced_unavailable": 6881, "sum_too_high": 826, "sum_too_low": 402}),
    (CARTESIAN, 6, 6, BUDGET_EXCEEDED, 10001, 6951,
     {"forced_unavailable": 6404, "sum_too_low": 286}),
    (CARTESIAN, 3, 6, BUDGET_EXCEEDED, 10001, 4771,
     {"closed_neighborhood": 175, "forced_unavailable": 3717, "sum_too_high": 310,
      "sum_too_low": 108}),
    (CARTESIAN, 6, 3, FOUND, 7551, 4168, {"forced_unavailable": 3723, "sum_too_low": 117}),
    (DIRECT, 3, 4, FOUND, 6672, 4698,
     {"closed_neighborhood": 624, "forced_unavailable": 2622, "sum_too_high": 514,
      "sum_too_low": 1}),
]


@pytest.mark.parametrize("kind,a,b,tag,nodes,steps,prunes", BUDGET_BOUND_STATS,
                         ids=[f"{kind}-C{a}xC{b}" for kind, a, b, *_ in BUDGET_BOUND_STATS])
def test_budget_bound_search_stats_are_pinned(kind, a, b, tag, nodes, steps, prunes):
    outcome = find_distance_magic(product(kind, cycle(a), cycle(b)).base, SearchBudget(10000))
    stats = outcome.stats
    assert (outcome.tag, stats.nodes, stats.steps, stats.prunes) == (tag, nodes, steps, prunes)


ORACLE_GRAPHS = (
    [(f"C{n}", cycle(n)) for n in range(3, 9)]
    + [(f"P{n}", path(n)) for n in range(1, 9)]
    + [("K22", complete_bipartite(2, 2)), ("K4-M", complete_minus_matching(4))]
    + [("K13", complete_bipartite(1, 3)), ("K23", complete_bipartite(2, 3))]
)


@pytest.mark.parametrize("name,g", ORACLE_GRAPHS, ids=[n for n, _ in ORACLE_GRAPHS])
def test_pruned_search_equals_brute_force(name, g):
    outcome = find_distance_magic(g)
    found, witness, k = brute_force_distance_magic(g)
    assert (outcome.tag == FOUND) == found
    if found:
        assert outcome.magic_constant == k or g.n == 0
        report = verify_distance_magic(g, outcome.labeling)
        assert report.is_distance_magic and report.magic_constant == outcome.magic_constant


@st.composite
def small_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    return Graph.from_edges(n, edges)


@settings(deadline=None, max_examples=200)
@given(small_graphs())
def test_kernel_never_fires_on_a_magic_graph(g):
    pair = kernel_forced_equal(g)
    if pair is not None:
        u, v = pair
        assert 0 <= u < v < g.n
        assert not brute_force_distance_magic(g)[0]


def _ids_reversed(g):
    """The copy of g with vertex v renamed n - 1 - v."""
    n = g.n
    return Graph.from_edges(n, [(n - 1 - u, n - 1 - v) for u, v in g.edges])


@settings(deadline=None, max_examples=300)
@given(small_graphs(max_n=10))
def test_kernel_matches_fraction_reference(g):
    assert kernel_forced_equal(g) == forced_equal_reference(g)
    g = _ids_reversed(g)
    assert kernel_forced_equal(g) == forced_equal_reference(g)


@st.composite
def regular_graphs(draw, max_n=16):
    """An r-regular graph: the circulant with steps 1..r/2 (and n/2 when r
    is odd), rewired by random double-edge swaps, which keep every degree."""
    n = draw(st.integers(min_value=3, max_value=max_n))
    r = draw(st.integers(min_value=1, max_value=n - 1).filter(lambda r: n * r % 2 == 0))
    steps = list(range(1, r // 2 + 1)) + ([n // 2] if r % 2 else [])
    edges = sorted({tuple(sorted((v, (v + s) % n))) for v in range(n) for s in steps})
    present = set(edges)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    for _ in range(2 * len(edges)):
        i, j = rng.sample(range(len(edges)), 2)
        (a, b), (c, d) = edges[i], edges[j]
        ad, cb = tuple(sorted((a, d))), tuple(sorted((c, b)))
        if len({a, b, c, d}) == 4 and ad not in present and cb not in present:
            present -= {edges[i], edges[j]}
            present |= {ad, cb}
            edges[i], edges[j] = ad, cb
    return Graph.from_edges(n, edges)


# On these graphs the shortest holding row is often not the first one, so the
# pivot rows differ from those of the reference's elimination.
@settings(deadline=None, max_examples=200)
@given(regular_graphs())
def test_kernel_matches_fraction_reference_on_regular_graphs(g):
    assert kernel_forced_equal(g) == forced_equal_reference(g)
    g = _ids_reversed(g)
    assert kernel_forced_equal(g) == forced_equal_reference(g)


def _check_kernel_pairs(g):
    """_kernel_keys(g) yields (vertex, key) for pivot vertices only, in
    strictly ascending vertex order, and each key names only free columns
    below its vertex: k (column -1) or vertices that were not yielded."""
    pairs = list(_kernel_keys(g))
    vertices = [v for v, _ in pairs]
    assert vertices == sorted(set(vertices))
    assert all(0 <= v < g.n for v in vertices)
    pivots = set(vertices)
    for v, (den, terms) in pairs:
        assert den > 0
        assert all(-1 <= f < v and f not in pivots for f, _ in terms), (v, terms)


@pytest.mark.parametrize("kind", (DIRECT, CARTESIAN, LEXICOGRAPHIC))
def test_kernel_matches_fraction_reference_on_cycle_products(kind):
    for a, b in itertools.product(range(3, 9), repeat=2):
        g = product(kind, cycle(a), cycle(b)).base
        assert kernel_forced_equal(g) == forced_equal_reference(g), (a, b)
        _check_kernel_pairs(g)
        g = _ids_reversed(g)
        assert kernel_forced_equal(g) == forced_equal_reference(g), (a, b, "reversed")
        _check_kernel_pairs(g)


@settings(deadline=None, max_examples=200)
@given(small_graphs(max_n=12))
def test_kernel_keys_name_free_columns_below(g):
    _check_kernel_pairs(g)


def test_kernel_certificates_at_scale():
    # Cartesian C32 x C32 (n = 1024) and direct C48 x C48 (n = 2304)
    outcome = find_distance_magic(product(CARTESIAN, cycle(32), cycle(32)).base, SearchBudget(1))
    assert outcome.tag == EXHAUSTED_NONE and outcome.stats.nodes == 0
    assert outcome.stats.forced_equal == (16, 512)
    assert kernel_forced_equal(product(DIRECT, cycle(48), cycle(48)).base) is None
    assert classify_cycle_direct(48, 48) != NOT_DISTANCE_MAGIC


@settings(deadline=None, max_examples=500)
@given(small_graphs(max_n=12))
def test_candidate_k_range_is_empty_only_on_odd_regular_graphs(g):
    # n*k = sum(d(v)*l(v)) lies between the rearrangement bounds; with degrees
    # ascending, high - low >= (d_max - d_min)(n - 1), so the range holds a
    # multiple of n unless g is r-regular, where low = high = r*n(n+1)/2
    n = g.n
    degrees = sorted(len(row) for row in g.adjacency)
    low = sum(d * l for d, l in zip(degrees, range(n, 0, -1)))
    high = sum(d * l for d, l in zip(degrees, range(1, n + 1)))
    r = regularity(g)
    odd_regular = r is not None and r % 2 == 1
    assert (-(-low // n) > high // n) == odd_regular
    if odd_regular:
        assert find_distance_magic(g).stats.prunes == {"odd_regular": 1}


@settings(deadline=None, max_examples=30)
@given(small_graphs())
def test_search_soundness_and_oracle_agreement(g):
    outcome = find_distance_magic(g)
    found, _, _ = brute_force_distance_magic(g)
    assert (outcome.tag == FOUND) == found
    if outcome.tag == FOUND:
        report = verify_distance_magic(g, outcome.labeling)
        assert report.is_distance_magic
        assert report.magic_constant == outcome.magic_constant
        if regularity(g) is not None:
            assert outcome.magic_constant == regular_magic_constant(g)
