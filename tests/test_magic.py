import itertools
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    RESPELLINGS,
    check_bijection_reference,
    enumerate_magic_labelings,
    first_line_difference,
    format_labeling_reference,
    parse_labeling_reference,
    parse_outcome,
    regular_magic_constant,
    respelled,
    texts_of_lines,
    verify_balanced_reference,
)
from distmagic.constructors import (
    label_c4,
    label_complete_bipartite,
    label_complete_minus_matching,
    label_cycle_product,
    label_direct,
)
from distmagic.errors import InputError
from distmagic.graphs import (
    SCAN_BLOCK,
    Graph,
    complete_bipartite,
    complete_minus_matching,
    cycle,
    empty_graph,
    path,
    regularity,
)
from distmagic.magic import (
    MAX_DIAGNOSTICS,
    WEIGHT_BAND,
    WRITE_BLOCK,
    Labeling,
    _scan_labeling,
    eit_schedule,
    format_labeling,
    labeling_blocks,
    parse_labeling,
    report_kv,
    report_text,
    verify_balanced,
    verify_distance_magic,
    verify_grid,
    weights,
)
from distmagic.products import DIRECT, LEXICOGRAPHIC, product
from distmagic.search import EXHAUSTED_NONE, find_distance_magic

C4_LABELS = Labeling((1, 2, 4, 3))


def assert_twins_share_neighborhoods(g, twin_map):
    for v, t in enumerate(twin_map):
        assert t not in g.neighbors(v)
        assert g.neighbors(v) == g.neighbors(t)


def k4():
    return Graph.from_edges(4, itertools.combinations(range(4), 2))


def test_weight_examples():
    # vertex 0 carries label 1 in the canonical C4 labeling
    assert weights(cycle(4), C4_LABELS)[0] == 5
    assert weights(empty_graph(4), Labeling((1, 2, 3, 4)))[1] == 0


def test_p3_magic_labelings_by_enumeration():
    # independent enumeration of all 6 bijections of P3
    found = enumerate_magic_labelings(path(3))
    assert found == [((1, 3, 2), 3), ((2, 3, 1), 3)]
    assert weights(path(3), Labeling((1, 3, 2)))[1] == 3


def test_verify_distance_magic_c4():
    report = verify_distance_magic(cycle(4), C4_LABELS)
    assert report.is_distance_magic
    assert report.magic_constant == 5
    assert not report.degenerate
    assert report.failure_count == 0


def test_verify_distance_magic_c5_identity():
    report = verify_distance_magic(cycle(5), Labeling((1, 2, 3, 4, 5)))
    assert not report.is_distance_magic
    assert report.magic_constant is None
    assert report.failure_count > 0
    assert all(d.kind == "weight" for d in report.failures)


def test_c6_never_magic_by_enumeration():
    assert enumerate_magic_labelings(cycle(6)) == []


def test_verify_balanced_c4():
    report = verify_balanced(cycle(4), C4_LABELS)
    assert report.is_balanced and report.is_distance_magic
    # twins are the two antipodal vertex pairs
    assert report.twin_map == (2, 3, 0, 1)
    assert_twins_share_neighborhoods(cycle(4), report.twin_map)


def test_verify_balanced_p3_odd_order():
    report = verify_balanced(path(3), Labeling((1, 3, 2)))
    assert report.is_distance_magic and not report.is_balanced


def test_verify_balanced_empty4():
    report = verify_balanced(empty_graph(4), Labeling((2, 4, 1, 3)))
    assert report.is_balanced and report.degenerate and report.magic_constant == 0


def test_verify_balanced_odd_empty_not_balanced():
    report = verify_balanced(empty_graph(3), Labeling((1, 2, 3)))
    assert report.is_distance_magic and not report.is_balanced


def test_pairing_without_uniform_weights_is_not_balanced():
    # C4 labeled {1,2,6,5} plus two isolated vertices labeled {3,4}: every
    # neighborhood pairs label i with 7-i, yet weights are 7 on the cycle and
    # 0 on the isolated vertices, so this must not count as balanced.
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 3)])
    report = verify_balanced(g, Labeling((1, 2, 6, 5, 3, 4)))
    assert not report.is_distance_magic
    assert not report.is_balanced
    assert all(d.kind == "weight" for d in report.failures)


def test_balanced_implies_even_regularity():
    for g, lab in [(cycle(4), C4_LABELS), (complete_bipartite(4, 4), None)]:
        if lab is None:
            from distmagic.constructors import label_complete_bipartite

            lab = label_complete_bipartite(2)
        report = verify_balanced(g, lab)
        assert report.is_balanced
        r = regularity(g)
        assert r is not None and r % 2 == 0


def test_odd_regular_obstruction():
    # an odd-regular graph has even order, so r(n+1)/2 is not an integer;
    # the search rejects it before any node, and enumeration agrees
    for g in [path(2), k4(), complete_bipartite(3, 3)]:
        outcome = find_distance_magic(g)
        assert outcome.tag == EXHAUSTED_NONE
        assert outcome.stats.prunes == {"odd_regular": 1} and outcome.stats.nodes == 0
        assert enumerate_magic_labelings(g) == []
    for g in [cycle(6), path(3)]:
        assert "odd_regular" not in find_distance_magic(g).stats.prunes


def test_magic_constant_matches_theory_on_regular_graphs():
    for g in [cycle(4), complete_bipartite(2, 2), complete_minus_matching(6)]:
        for labels, k in enumerate_magic_labelings(g):
            assert k == regular_magic_constant(g)


def test_k4_admits_no_magic_labeling():
    assert enumerate_magic_labelings(k4()) == []


def test_eit_c4():
    schedule = eit_schedule(cycle(4), C4_LABELS)
    assert schedule.teams == 4 and schedule.rounds == 2 and schedule.magic_constant == 5
    assert [row.strength for row in schedule.rows] == [1, 2, 3, 4]
    assert all(row.total == 5 for row in schedule.rows)


def test_eit_k6_minus_matching():
    from distmagic.constructors import label_complete_minus_matching

    g = complete_minus_matching(6)
    schedule = eit_schedule(g, label_complete_minus_matching(3))
    assert schedule.rounds == 4 and schedule.magic_constant == 14
    assert all(row.total == 14 for row in schedule.rows)


def test_eit_rejects_irregular():
    with pytest.raises(InputError, match="regular"):
        eit_schedule(path(3), Labeling((1, 3, 2)))


def test_eit_rejects_non_magic():
    with pytest.raises(InputError, match="magic"):
        eit_schedule(cycle(5), Labeling((1, 2, 3, 4, 5)))


def test_bijection_violations_are_listed():
    with pytest.raises(InputError, match=r"duplicate labels \[2\].*missing labels \[4\]"):
        verify_distance_magic(cycle(4), Labeling((1, 2, 2, 3)))
    with pytest.raises(InputError, match="entries"):
        verify_distance_magic(cycle(4), Labeling((1, 2, 3)))


@pytest.mark.parametrize("values,message", [
    ((1.5, 2), "label of vertex 0 must be an int, got 1.5"),
    ((True, 2), "label of vertex 0 must be an int, got True"),
    ((2, 1.0), "label of vertex 1 must be an int, got 1.0"),
    (("a", "b"), "label of vertex 0 must be an int, got 'a'"),
    ([2, 1], "labeling values must be a tuple, got list"),
    (iter([1]), "labeling values must be a tuple, got list_iterator"),
    (range(1, 3), "labeling values must be a tuple, got range"),
], ids=["float", "bool", "integral-float", "str", "list", "iterator", "range"])
def test_labeling_rejects_values_that_are_not_ints(values, message):
    # each would pass the bijection check or break it with a TypeError; a
    # list would make a labeling that cannot be hashed
    with pytest.raises(InputError) as excinfo:
        Labeling(values)
    assert str(excinfo.value) == message


def _bijection_verdict(check, n, values):
    """None when check accepts values as a labeling of n vertices, else its message."""
    try:
        check(n, values)
    except InputError as exc:
        return str(exc)
    return None


def _labeling_then_verify(n, values):
    # Labeling checks the bijection onto 1..len(values), verify the length
    verify_distance_magic(empty_graph(n), Labeling(values))


# per n: permutations, n values drawn around 1..n (duplicates, 0, negatives,
# labels above n), and value tuples of any length up to n + 2, empty included
LABEL_VALUES = st.integers(0, 9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.one_of(
            st.permutations(range(1, n + 1)).map(tuple),
            st.lists(st.integers(-2, n + 2), min_size=n, max_size=n).map(tuple),
            st.lists(st.integers(-2, n + 2), max_size=n + 2).map(tuple),
        ),
    )
)


@settings(deadline=None, max_examples=300)
@given(LABEL_VALUES)
def test_bijection_check_matches_reference(case):
    n, values = case
    assert _bijection_verdict(_labeling_then_verify, n, values) == _bijection_verdict(
        check_bijection_reference, n, values
    )


@st.composite
def graph_and_labeling(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    labels = draw(st.permutations(list(range(1, n + 1))))
    return Graph.from_edges(n, edges), Labeling(tuple(labels))


@settings(deadline=None, max_examples=80)
@given(graph_and_labeling())
def test_weight_bookkeeping_identity(gl):
    g, labeling = gl
    total = sum(weights(g, labeling))
    assert total == sum(len(g.neighbors(v)) * labeling.values[v] for v in range(g.n))


@settings(deadline=None, max_examples=40)
@given(st.permutations(list(range(1, 5))))
def test_balanced_reports_consistent(perm):
    report = verify_balanced(cycle(4), Labeling(tuple(perm)))
    if report.is_balanced:
        assert report.is_distance_magic
        assert report.twin_map is not None
        assert all(report.twin_map[report.twin_map[v]] == v for v in range(4))
        assert_twins_share_neighborhoods(cycle(4), report.twin_map)
    else:
        assert report.twin_map is None


def test_diagnostics_are_capped():
    g = complete_bipartite(20, 20)  # 20-regular, identity labeling far from magic
    report = verify_balanced(g, Labeling(tuple(range(1, 41))))
    assert len(report.failures) <= 32
    assert report.failure_count >= len(report.failures)


def assert_same_report(g, labeling):
    report, reference = verify_balanced(g, labeling), verify_balanced_reference(g, labeling)
    assert report == reference
    assert report_text(report) == report_text(reference)
    assert report_kv(report) == report_kv(reference)
    return report


@pytest.mark.parametrize("m,n", [(8, 8), (8, 12), (12, 8)])
def test_twin_diagnostics_past_the_cap_match_reference(m, n):
    # distance magic, never balanced: hundreds of failing twin pairs
    g = product(DIRECT, cycle(m), cycle(n)).base
    report = assert_same_report(g, label_cycle_product(m, n))
    assert report.is_distance_magic and report.failure_count > MAX_DIAGNOSTICS
    assert len(report.failures) == MAX_DIAGNOSTICS
    assert verify_grid(label_cycle_product(m, n), m, n) == report


def _swapped(values, i, j):
    values = list(values)
    values[i], values[j] = values[j], values[i]
    return tuple(values)


def _grid_labelings(m, n):
    """Labelings of the m x n grid: two seeded random bijections, the cycle
    product grid and a balanced labeling with a side of 4 where they are
    defined, and each of the last two with two labels swapped."""
    rng = random.Random(m * 100 + n)
    size = m * n
    out = [tuple(rng.sample(range(1, size + 1), size)) for _ in range(2)]
    built = []
    if m % 4 == n % 4 == 0 and m > 4 and n > 4:
        built.append(label_cycle_product(m, n).values)
    if n == 4:
        built.append(label_direct(cycle(m), cycle(4), label_c4()).values)
    if m == 4:
        # the transpose: cell (i, j) of C4 x C_n is cell (j, i) of C_n x C4
        by_columns = label_direct(cycle(n), cycle(4), label_c4()).values
        built.append(tuple(by_columns[j * 4 + i] for i in range(4) for j in range(n)))
    for values in built:
        out += [values, _swapped(values, *rng.sample(range(size), 2))]
    return [Labeling(values) for values in out]


@pytest.mark.parametrize("m", range(3, 13))
def test_verify_grid_matches_verify_balanced_on_the_product(m):
    verdicts = set()
    for n in range(3, 13):
        g = product(DIRECT, cycle(m), cycle(n)).base
        for labeling in _grid_labelings(m, n):
            report, reference = verify_grid(labeling, m, n), verify_balanced(g, labeling)
            assert report == reference, (m, n, labeling.values)
            assert report_kv(report) == report_kv(reference)
            assert report_text(report) == report_text(reference)
            verdicts.add((report.is_distance_magic, report.is_balanced))
    # every m has a balanced grid (n = 4) and grids that are not magic
    assert {(True, True), (False, False)} <= verdicts


@pytest.mark.parametrize("labeling,m,n,message", [
    (Labeling(tuple(range(1, 13))), 3, 3, "labeling has 12 entries for a graph on 9 vertices"),
    (Labeling(tuple(range(1, 9))), 2, 4, "grid sides must be cycle lengths >= 3, got m=2 n=4"),
    (Labeling(tuple(range(1, 7))), 3, 2, "grid sides must be cycle lengths >= 3, got m=3 n=2"),
])
def test_verify_grid_rejects_mismatched_sizes(labeling, m, n, message):
    with pytest.raises(InputError) as excinfo:
        verify_grid(labeling, m, n)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("m,n", [(3, 3000), (100, 100), (129, 68)])
def test_verify_grid_weights_in_bands_match_the_product(m, n):
    # several bands of whole rows; 129 x 68 ends in a band of fewer rows
    assert m * n > WEIGHT_BAND
    g = product(DIRECT, cycle(m), cycle(n)).base
    rng = random.Random(m * n)
    labelings = [Labeling(tuple(rng.sample(range(1, m * n + 1), m * n)))]
    if m % 4 == n % 4 == 0:
        values = label_cycle_product(m, n).values
        # uniform in the first band, not in the last
        labelings += [Labeling(values), Labeling(_swapped(values, m * n - 2, m * n - 1 - n))]
    for labeling in labelings:
        report = verify_grid(labeling, m, n)
        assert report.weights == weights(g, labeling)
        assert report == verify_balanced(g, labeling)


def test_uniform_weights_are_one_int():
    # k = 386 is past the ints CPython shares anyway
    g, labeling = product(DIRECT, cycle(12), cycle(16)).base, label_cycle_product(12, 16)
    for report in (verify_distance_magic(g, labeling), verify_balanced(g, labeling),
                   verify_grid(labeling, 12, 16)):
        assert report.magic_constant == 386 and len(report.weights) == 192
        assert len(set(map(id, report.weights))) == 1


def test_verify_grid_extra_memory_per_cell():
    labeling = label_cycle_product(128, 128)
    tracemalloc.start()
    try:
        verify_grid(labeling, 128, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100 * 128 * 128


def test_verify_grid_packed_table_memory_per_cell():
    # the label -> cell table takes 4 bytes a cell, packed; a list of int
    # objects took 8 bytes a reference and 28 an int, about 50 bytes a cell
    # in all at 256 x 256
    labeling = label_cycle_product(256, 256)
    tracemalloc.start()
    try:
        verify_grid(labeling, 256, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 256 * 256


def test_weight_diagnostics_are_the_first_failures():
    g = product(DIRECT, cycle(12), cycle(16)).base
    rng = random.Random(7)
    for _ in range(5):
        labeling = Labeling(tuple(rng.sample(range(1, g.n + 1), g.n)))
        w = weights(g, labeling)
        counts = {x: w.count(x) for x in w}
        expected = min(counts, key=lambda x: (-counts[x], x))
        bad = [(v, x) for v, x in enumerate(w) if x != expected]
        report = verify_distance_magic(g, labeling)
        assert report.failure_count == len(bad) > MAX_DIAGNOSTICS
        assert [(d.vertex, d.expected, d.actual, d.kind) for d in report.failures] == [
            (v, expected, x, "weight") for v, x in bad[:MAX_DIAGNOSTICS]]


def test_weight_failures_extra_memory_per_vertex():
    # A random labeling's report holds n fresh weight ints (32 bytes each) that
    # a magic one shares; finding the reference weight may add one reference
    # per vertex.  A dict of the distinct weights would add 46 bytes in all.
    # Many distinct weights also exercise the tie rule of the reference.
    g = product(DIRECT, cycle(64), cycle(64)).base
    labeling = Labeling(tuple(random.Random(3).sample(range(1, g.n + 1), g.n)))
    peaks = []
    for lab in (label_cycle_product(64, 64), labeling):
        tracemalloc.start()
        try:
            report = verify_distance_magic(g, lab)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 40 * g.n
    w = weights(g, labeling)
    counts = Counter(w)
    expected = min(counts, key=lambda x: (-counts[x], x))
    bad = [(v, x) for v, x in enumerate(w) if x != expected]
    assert report.failure_count == len(bad)
    assert [(d.vertex, d.expected, d.actual, d.kind) for d in report.failures] == [
        (v, expected, x, "weight") for v, x in bad[:MAX_DIAGNOSTICS]]


def test_verify_balanced_extra_memory_per_vertex():
    # The weight report comes first: a uniform one keeps one int repeated, so
    # the n fresh weight ints (32 bytes each) are freed before the twin lists
    # exist.  Weights computed after the twin phase read 93 bytes a vertex on
    # both products; in this order 53 and 61.
    k88 = complete_bipartite(8, 8)
    cases = [(cycle(128), label_cycle_product(128, 128), False),
             (k88, label_direct(cycle(1024), k88, label_complete_bipartite(4)), True)]
    for h, labeling, balanced in cases:
        g = product(DIRECT, cycle(labeling.n // h.n), h).base
        tracemalloc.start()
        try:
            report = verify_balanced(g, labeling)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.is_distance_magic and report.is_balanced == balanced
        assert peak <= 75 * g.n


BALANCED_FACTORS = [
    (cycle(4), label_c4()),
    (complete_bipartite(2, 2), label_complete_bipartite(1)),
    (complete_bipartite(4, 4), label_complete_bipartite(2)),
    (complete_minus_matching(6), label_complete_minus_matching(3)),
]


@st.composite
def labeled_graphs(draw):
    """A random graph and labeling; a balanced product labeling; or a cycle
    product grid labeling (distance magic, not balanced).  The last two have
    two labels swapped half the time."""
    source = draw(st.sampled_from(["random", "balanced", "grid"]))
    if source == "random":
        return draw(graph_and_labeling(max_n=14))
    if source == "balanced":
        kind = draw(st.sampled_from([DIRECT, LEXICOGRAPHIC]))
        g = draw(st.sampled_from([cycle(3), cycle(4), complete_bipartite(2, 2)]))
        h, h_labeling = draw(st.sampled_from(BALANCED_FACTORS))
        graph, values = product(kind, g, h).base, list(label_direct(g, h, h_labeling).values)
    else:
        m, n = draw(st.sampled_from([(8, 8), (8, 12)]))
        graph = product(DIRECT, cycle(m), cycle(n)).base
        values = list(label_cycle_product(m, n).values)
    if draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, graph.n - 1), min_size=2, max_size=2, unique=True))
        values[i], values[j] = values[j], values[i]
    return graph, Labeling(tuple(values))


@settings(deadline=None, max_examples=150)
@given(labeled_graphs())
def test_verify_balanced_matches_sorted_pairs_reference(gl):
    assert_same_report(*gl)


def test_labeling_file_roundtrip():
    text = format_labeling(C4_LABELS)
    assert text == "0 1\n1 2\n2 4\n3 3\n"
    assert parse_labeling(text, 4) == C4_LABELS


# n = 0, one line, ids and labels crossing 9/10, 99/100 and 9999/10000, the
# block ends of the writer and 2^16 lines
@pytest.mark.parametrize("n", [0, 1, 10, 100, 10001, WRITE_BLOCK - 1, WRITE_BLOCK,
                               WRITE_BLOCK + 1, 1 << 16])
def test_format_labeling_bytes_match_reference(n):
    labeling = Labeling(tuple(random.Random(n).sample(range(1, n + 1), n)))
    blocks = list(labeling_blocks(labeling))
    assert first_line_difference("".join(blocks), format_labeling_reference(labeling)) is None
    assert all(b.count("\n") == WRITE_BLOCK for b in blocks[:-1])


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("0 1\n1 2\n", "expected 4"),
        ("0 1\n1 2\n2 4\nx 3\n", "line 4"),
        ("0 1\n1 2\n2 4\n2 3\n", "line 4: vertex 2 labeled twice"),
        ("0 1\n1 2\n2 4\n4 3\n", "line 4: vertex 4"),
        ("0 1\n1 2\n2 4\n3 9\n", "not a bijection"),
    ],
)
def test_parse_labeling_errors(text, fragment):
    with pytest.raises(InputError, match=fragment):
        parse_labeling(text, 4)


BAD_LABELING_LINES = ["0 x", "1", "1 2 3", "", "-1 2", " 0   2 "]


@st.composite
def labeling_texts(draw):
    """(n, text) for labelings of up to 6 vertices: the lines of a bijection
    in vertex order, perhaps shuffled, with up to two lines replaced or
    inserted that may repeat or skip a vertex, leave the range, break the
    bijection or be malformed, spelled in ways only the line-by-line reader
    reads."""
    n = draw(st.integers(min_value=0, max_value=6))
    labels = draw(st.permutations(range(1, n + 1)))
    lines = [f"{v} {x}" for v, x in enumerate(labels)]
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    pair = st.tuples(st.integers(0, 7), st.integers(-1, 8)).map(lambda e: f"{e[0]} {e[1]}")
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines)))
        line = draw(st.one_of(pair, st.sampled_from(BAD_LABELING_LINES)))
        if i < len(lines) and draw(st.booleans()):
            lines[i] = line
        else:
            lines.insert(i, line)
    return n, draw(texts_of_lines(lines))


@settings(deadline=None, max_examples=300)
@given(labeling_texts())
def test_parse_labeling_matches_line_by_line_reference(n_text):
    n, text = n_text
    assert parse_outcome(parse_labeling, text, n) == parse_outcome(parse_labeling_reference, text, n)


# a labeling text of several scan blocks; its last line is line 10000
LONG_LABELING = Labeling(tuple(range(1, 10001)))


def test_crlf_labeling_is_read_in_bulk():
    text = format_labeling(LONG_LABELING).replace("\n", "\r\n")
    assert _scan_labeling(text, 10000) == list(LONG_LABELING.values)


@pytest.mark.parametrize("how", [*RESPELLINGS, "no final newline"])
def test_respelled_labeling_reaches_the_line_reader(how):
    text = format_labeling(LONG_LABELING)
    assert len(text) > SCAN_BLOCK and _scan_labeling(text, 10000) == list(LONG_LABELING.values)
    text = respelled(text, -2, how)  # the last line, past the first block
    assert _scan_labeling(text, 10000) is None
    assert parse_labeling(text, 10000) == LONG_LABELING


@pytest.mark.parametrize(
    "line,error",
    [
        ("9999 x", "line 10000: labeling line must be two integers, got '9999 x'"),
        ("9998 5", "line 10000: vertex 9998 labeled twice"),
        ("10000 10000", "line 10000: vertex 10000 out of range [0,10000)"),
        ("9999 1", "labeling is not a bijection: duplicate labels [1]; missing labels [10000]"),
    ],
)
def test_labeling_error_past_the_first_block(line, error):
    text = format_labeling(LONG_LABELING).replace("9999 10000\n", line + "\n")
    outcome = parse_outcome(parse_labeling, text, 10000)
    assert outcome == parse_outcome(parse_labeling_reference, text, 10000) == error


def test_report_rendering():
    report = verify_balanced(cycle(4), C4_LABELS)
    kv = report_kv(report)
    assert "is_distance_magic=true" in kv and "magic_constant=5" in kv
    text = report_text(report)
    assert "k = 5" in text and "twin pairs" in text
