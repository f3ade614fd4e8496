import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    RESPELLINGS,
    is_bipartite,
    is_connected,
    parse_edge_list_reference,
    parse_outcome,
    respelled,
    texts_of_lines,
)
from distmagic.errors import InputError
from distmagic.graphs import (
    SCAN_BLOCK,
    Graph,
    _scan_edge_list,
    complete_bipartite,
    complete_minus_matching,
    cycle,
    empty_graph,
    format_edge_list,
    parse_edge_list,
    path,
    regularity,
)


def test_cycle4():
    g = cycle(4)
    assert g.n == 4
    assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})
    assert regularity(g) == 2


def test_empty6():
    g = empty_graph(6)
    assert g.n == 6 and not g.edges


def test_complete_minus_matching6():
    g = complete_minus_matching(6)
    assert g.n == 6
    assert len(g.edges) == 12
    assert regularity(g) == 4
    for i in range(3):
        assert 2 * i + 1 not in g.neighbors(2 * i)


def test_neighbors_examples():
    assert cycle(4).neighbors(0) == (1, 3)
    assert path(3).neighbors(1) == (0, 2)
    assert empty_graph(4).neighbors(2) == ()


def test_neighbors_out_of_range():
    with pytest.raises(InputError):
        cycle(4).neighbors(4)


def test_regularity_examples():
    assert regularity(cycle(5)) == 2
    assert regularity(path(3)) is None
    assert regularity(complete_bipartite(2, 2)) == 2
    assert regularity(empty_graph(0)) == 0


def test_bipartite_connected_examples():
    assert is_bipartite(cycle(4)) and is_connected(cycle(4))
    assert not is_bipartite(cycle(3)) and is_connected(cycle(3))
    assert is_bipartite(empty_graph(2)) and not is_connected(empty_graph(2))
    assert is_bipartite(empty_graph(0)) and is_connected(empty_graph(0))


@pytest.mark.parametrize("n", range(3, 13))
def test_cycle_invariants(n):
    g = cycle(n)
    assert len(g.edges) == n
    assert regularity(g) == 2


@pytest.mark.parametrize("order", range(2, 15, 2))
def test_complete_minus_matching_edge_set(order):
    # its rows are sliced from one table of ids; from_edges builds them from
    # the defining edges
    pairs = [(u, v) for u in range(order) for v in range(u + 1, order) if u // 2 != v // 2]
    assert complete_minus_matching(order) == Graph.from_edges(order, pairs)


@pytest.mark.parametrize("a", range(1, 6))
def test_balanced_bipartite_invariants(a):
    g = complete_bipartite(a, a)
    assert regularity(g) == a
    assert len(g.edges) == a * a


def test_graph_and_generators_reject_bad_sizes():
    with pytest.raises(InputError, match="^vertex count must be nonnegative, got -1$"):
        Graph(-1, ())
    with pytest.raises(InputError, match="^complete bipartite part size b must be >= 1, got b=0$"):
        complete_bipartite(2, 0)


def test_graph_keeps_only_its_fields():
    # the edge set is built from the rows on each call, not cached on the value
    g = cycle(5)
    assert Graph.__slots__ == Graph._fields == ("n", "adjacency")
    assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)})


def test_from_edges_rejects_loop_and_range():
    with pytest.raises(InputError, match="self-loop"):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(InputError, match="outside"):
        Graph.from_edges(3, [(0, 3)])
    # the constructor from rows checks every row
    for n, rows, fragment in [
        (2, ((1,), ()), "1 is in row 0, but 0 is not in row 1"),  # asymmetric
        (3, ((2, 1), (0,), (0,)), "row 0 is not strictly ascending"),  # unsorted
        (2, ((1, 1), (0, 0)), "row 0 is not strictly ascending"),  # repeated neighbor
        (1, ((0,),), "self-loop at vertex 0"),
        (3, ((3,), (), ()), r"row 0 is not strictly ascending inside \[0,3\)"),  # out of range
        (3, ((-1,), (), ()), r"row 0 is not strictly ascending inside \[0,3\)"),
        (3, ((1,), (0,)), "adjacency must be a tuple of 3 rows, got 2"),  # wrong row count
        (2, [(1,), (0,)], "adjacency must be a tuple of 2 rows"),
        (2, ([1], (0,)), "row 0 must be a tuple"),  # a list row would make g unhashable
        (1, None, "adjacency must be a tuple of 1 rows, got NoneType"),  # no len()
        (1, 5, "adjacency must be a tuple of 1 rows, got int"),
        (1, iter([()]), "adjacency must be a tuple of 1 rows, got list_iterator"),
        # n and the entries must be ints: 1.0 and True compare and index like 1
        (2, ((1.0,), (0,)), r"^row 0 entry 1\.0 is not an int$"),
        (2, ((True,), (0,)), "^row 0 entry True is not an int$"),
        (2, ((1,), (False,)), "^row 1 entry False is not an int$"),
        (2, (("1",), (0,)), "^row 0 entry '1' is not an int$"),
        (2.0, ((1,), (0,)), r"^vertex count must be an int, got 2\.0$"),
        (True, ((),), "^vertex count must be an int, got True$"),
    ]:
        with pytest.raises(InputError, match=fragment):
            Graph(n, rows)


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if possible:
        edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible)))
    else:
        edges = []
    return Graph.from_edges(n, edges)


@settings(deadline=None, max_examples=60)
@given(small_graphs())
def test_neighbor_symmetry_and_handshake(g):
    for v in range(g.n):
        for u in g.neighbors(v):
            assert v in g.neighbors(u)
    assert sum(len(g.neighbors(v)) for v in range(g.n)) == 2 * len(g.edges)


@settings(deadline=None, max_examples=60)
@given(small_graphs())
def test_edge_list_roundtrip(g):
    assert parse_edge_list(format_edge_list(g)) == g


def test_parse_edge_list_golden():
    g = parse_edge_list("3 2\n0 1\n1 2\n")
    assert g == path(3)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "line 1"),
        ("3\n", "header"),
        ("3 x\n", "two integers"),
        ("3 1\n", "expected 1 edge lines"),
        ("3 1\n0 1\n1 2\n", "expected 1 edge lines"),
        ("3 1\n1 1\n", "line 2: self-loop"),
        ("3 1\n2 1\n", "line 2: endpoints"),
        ("3 1\n0 3\n", "line 2: vertex 3"),
        ("3 2\n0 1\n0 1\n", "line 3: duplicate"),
        ("3 1\n0 one\n", "line 2"),
        # the first bad line is reported, also when it repeats an earlier edge
        ("3 3\n0 1\n0 1\n1 x\n", r"^line 3: duplicate edge \(0,1\)$"),
        ("3 3\n0 1\n1 x\n0 1\n", r"^line 3: edge endpoints must be integers"),
        ("4 3\n0 1\n2 3\n0 1\n", r"^line 4: duplicate edge \(0,1\)$"),
        # sizes are checked from the header, before any edge line is read
        ("1048577 0\n", r"^line 1: 1048577 vertices exceed the limit of 1048576$"),
        ("4 2097153\n0 1\n", r"^line 1: 2097153 edges exceed the limit of 2097152$"),
    ],
)
def test_parse_edge_list_errors(text, fragment):
    with pytest.raises(InputError, match=fragment):
        parse_edge_list(text)


BAD_EDGE_LINES = ["0 x", "1", "1 2 3", "", "-1 2", " 0   2 "]


@st.composite
def edge_list_texts(draw):
    """Edge lists on up to 5 vertices whose lines may repeat an edge, loop,
    reverse, leave the range or be malformed, in any order, and may be
    spelled in ways only the line-by-line reader reads."""
    n = draw(st.integers(min_value=0, max_value=5))
    pair = st.tuples(st.integers(0, 6), st.integers(0, 6)).map(lambda e: f"{e[0]} {e[1]}")
    lines = draw(st.lists(st.one_of(pair, st.sampled_from(BAD_EDGE_LINES)), max_size=12))
    m = len(lines) + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    return draw(texts_of_lines([f"{n} {m}", *lines]))


@settings(deadline=None, max_examples=300)
@given(edge_list_texts())
@example("3 3\n0 1\n0 1\n1 x\n")
@example("5 4\n0 1\n2 3\n2 3\n0 5\n")
@example("3 2\n0 1\n12")  # digits after the last newline
def test_parse_edge_list_matches_line_by_line_reference(text):
    assert parse_outcome(parse_edge_list, text) == parse_outcome(parse_edge_list_reference, text)


# an edge list of several scan blocks; its last line is line 8001
LONG_CYCLE = cycle(8000)


@pytest.mark.parametrize("how", [*RESPELLINGS, "no final newline"])
def test_respelled_edge_list_reaches_the_line_reader(how):
    text = format_edge_list(LONG_CYCLE)
    assert len(text) > SCAN_BLOCK and _scan_edge_list(text) == LONG_CYCLE
    text = respelled(text, -2, how)  # the last line, past the first block
    assert _scan_edge_list(text) is None
    assert parse_edge_list(text) == LONG_CYCLE


def test_crlf_edge_list_is_read_in_bulk():
    text = format_edge_list(LONG_CYCLE).replace("\n", "\r\n")
    assert len(text) > SCAN_BLOCK and _scan_edge_list(text) == LONG_CYCLE
    assert parse_edge_list(text) == LONG_CYCLE


def test_edge_list_repeat_across_a_block_boundary():
    text = format_edge_list(LONG_CYCLE).replace("8000 8000", "8000 8001", 1)
    cut = text.index("\n", text.index("\n") + SCAN_BLOCK) + 1  # the first block's end
    last = text[text.rindex("\n", 0, cut - 1) + 1 : cut]
    text = text[:cut] + last + text[cut:]  # the second block starts with a repeat
    line = text.count("\n", 0, cut) + 1
    u, v = last.split()
    error = f"line {line}: duplicate edge ({u},{v})"
    assert parse_outcome(parse_edge_list, text) == parse_outcome(parse_edge_list_reference, text)
    assert parse_outcome(parse_edge_list, text) == error


def reorder(text: str, how: str) -> str:
    """The edge list `text` with its edge lines in another order."""
    header, *lines = text.splitlines()
    if how == "shuffled":
        random.Random(1).shuffle(lines)
    elif how == "last two swapped":
        lines[-2:] = lines[:-3:-1]
    else:  # the first line moved past the first block
        lines = lines[1:] + lines[:1]
    return "\n".join([header, *lines]) + "\n"


@pytest.mark.parametrize(
    "how,in_bulk",
    [("shuffled", True), ("last two swapped", True), ("first line moved last", False)],
)
def test_edge_list_lines_in_any_order(how, in_bulk):
    # rows below a block of ascending lines are final at once; a later line
    # that touches one sends the text to the line-by-line reader
    text = reorder(format_edge_list(LONG_CYCLE), how)
    assert (_scan_edge_list(text) == LONG_CYCLE) is in_bulk
    assert parse_edge_list(text) == LONG_CYCLE


@pytest.mark.parametrize(
    "line,error",
    [
        ("7999 7999", "line 8001: self-loop at vertex 7999"),
        ("7999 7998", "line 8001: endpoints must satisfy u < v, got 7999 7998"),
        ("7998 8000", "line 8001: vertex 8000 out of range [0,8000)"),
        ("0 1", "line 8001: duplicate edge (0,1)"),
        ("7997 7998", "line 8001: duplicate edge (7997,7998)"),
    ],
)
def test_edge_list_error_past_the_first_block(line, error):
    text = format_edge_list(LONG_CYCLE).replace("7998 7999\n", line + "\n")
    assert parse_outcome(parse_edge_list, text) == parse_outcome(parse_edge_list_reference, text)
    assert parse_outcome(parse_edge_list, text) == error


def test_serializer_sorted():
    g = Graph.from_edges(4, [(3, 2), (1, 0), (0, 2)])
    assert format_edge_list(g) == "4 3\n0 1\n0 2\n2 3\n"
