import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    RESPELLINGS,
    brute_force_distance_magic,
    first_line_difference,
    format_grid_reference,
    parse_grid_reference,
    parse_outcome,
    regular_magic_constant,
    respelled,
    texts_of_lines,
)
from distmagic.constructors import (
    BALANCED_DISTANCE_MAGIC,
    DISTANCE_MAGIC_NOT_BALANCED,
    NOT_DISTANCE_MAGIC,
    _scan_grid,
    classify_cycle,
    classify_cycle_cartesian,
    classify_cycle_direct,
    classify_lex_cycles,
    cycle_product_magic_constant,
    format_grid,
    grid_blocks,
    label_balanced,
    label_c4,
    label_complete_bipartite,
    label_complete_minus_matching,
    label_cycle_product,
    label_direct,
    parse_grid,
)
from distmagic.errors import InputError
from distmagic.graphs import (
    SCAN_BLOCK,
    WRITE_BLOCK,
    complete_bipartite,
    complete_minus_matching,
    cycle,
    empty_graph,
    path,
)
from distmagic.magic import Labeling, verify_balanced, verify_distance_magic
from distmagic.products import CARTESIAN, DIRECT, LEXICOGRAPHIC, product
from distmagic.search import EXHAUSTED_NONE, FOUND, find_distance_magic

C4_LAB = label_c4()


def test_label_c4():
    assert C4_LAB.values == (1, 2, 4, 3)
    report = verify_balanced(cycle(4), C4_LAB)
    assert report.is_balanced and report.magic_constant == 5
    assert report.twin_map == (2, 3, 0, 1)  # the two antipodal pairs


@pytest.mark.parametrize("n", range(1, 9))
def test_label_complete_bipartite(n):
    g = complete_bipartite(2 * n, 2 * n)
    report = verify_balanced(g, label_complete_bipartite(n))
    assert report.is_balanced
    assert report.magic_constant == regular_magic_constant(g) == n * (4 * n + 1)


def test_label_complete_bipartite_small_values():
    assert verify_balanced(complete_bipartite(2, 2), label_complete_bipartite(1)).magic_constant == 5
    assert verify_balanced(complete_bipartite(4, 4), label_complete_bipartite(2)).magic_constant == 18
    with pytest.raises(InputError):
        label_complete_bipartite(0)
    # K_{1450,1450} is over the edge cap, like its graph spec kbip:1450,1450
    with pytest.raises(InputError, match="2102500 edges exceed the limit"):
        label_complete_bipartite(725)


@pytest.mark.parametrize("n", range(1, 9))
def test_label_complete_minus_matching(n):
    g = complete_minus_matching(2 * n)
    report = verify_balanced(g, label_complete_minus_matching(n))
    assert report.is_balanced
    assert report.magic_constant == regular_magic_constant(g) == (n - 1) * (2 * n + 1)


def test_label_complete_minus_matching_details():
    lab = label_complete_minus_matching(2)  # K4 minus M, isomorphic to C4
    assert lab.values == (1, 4, 2, 3)  # labels pair (1,4),(2,3) across the removed matching
    assert verify_balanced(complete_minus_matching(4), lab).magic_constant == 5
    report = verify_balanced(complete_minus_matching(6), label_complete_minus_matching(3))
    assert report.magic_constant == 14
    degenerate = verify_balanced(complete_minus_matching(2), label_complete_minus_matching(1))
    assert degenerate.is_balanced and degenerate.degenerate and degenerate.magic_constant == 0
    with pytest.raises(InputError):
        label_complete_minus_matching(0)


def test_label_lexicographic_examples():
    lab = label_direct(cycle(3), cycle(4), C4_LAB)
    p = product(LEXICOGRAPHIC, cycle(3), cycle(4))
    report = verify_balanced(p.base, lab)
    assert report.is_balanced and report.magic_constant == 65

    e2 = empty_graph(2)
    lab = label_direct(cycle(4), e2, Labeling((1, 2)))
    p = product(LEXICOGRAPHIC, cycle(4), e2)
    report = verify_balanced(p.base, lab)
    assert report.is_balanced and report.magic_constant == 18


def test_label_lexicographic_rejects():
    with pytest.raises(InputError, match="regular"):
        label_direct(path(3), cycle(4), C4_LAB)
    # odd empty second factor is not balanced, hence rejected
    with pytest.raises(InputError, match="balanced"):
        label_direct(cycle(4), empty_graph(3), Labeling((1, 2, 3)))
    with pytest.raises(InputError, match="balanced"):
        label_direct(cycle(4), cycle(4), Labeling((1, 2, 3, 4)))


def test_label_direct_examples():
    lab = label_direct(cycle(3), cycle(4), C4_LAB)
    p = product(DIRECT, cycle(3), cycle(4))
    report = verify_balanced(p.base, lab)
    assert report.is_balanced and report.magic_constant == 26

    lab = label_direct(cycle(4), cycle(4), C4_LAB)
    p = product(DIRECT, cycle(4), cycle(4))
    report = verify_balanced(p.base, lab)
    assert report.is_balanced and report.magic_constant == 34

    lab = label_direct(cycle(7), cycle(4), C4_LAB)
    p = product(DIRECT, cycle(7), cycle(4))
    assert verify_balanced(p.base, lab).is_balanced


# one labeling serves both products
def test_label_direct_builds_bijections():
    # label_direct skips the bijection check: the fibre of the h-vertex
    # labeled j takes the block ((j-1)p, jp] of labels, each block once
    gs = [empty_graph(0), empty_graph(3), cycle(3), cycle(4), complete_bipartite(3, 3),
          complete_minus_matching(6)]
    hs = [empty_graph(2), cycle(4), complete_bipartite(4, 4), complete_minus_matching(8)]
    for g in gs:
        for h in hs:
            lab = label_direct(g, h, label_balanced(h))
            assert Labeling(lab.values) == lab


@pytest.mark.parametrize("kind", [LEXICOGRAPHIC, DIRECT])
def test_label_sum_identity(kind):
    # the twin pair (g_i, h_j), (g_i, h_partner) always sums to |V| + 1
    g, h = cycle(5), cycle(4)
    lab = label_direct(g, h, C4_LAB)
    p = product(kind, g, h)
    total = p.base.n + 1
    partner = {v: C4_LAB.values.index(5 - C4_LAB.values[v]) for v in range(4)}
    for gi in range(g.n):
        for hv in range(h.n):
            a = lab.values[p.encode(gi, hv)]
            b = lab.values[p.encode(gi, partner[hv])]
            assert a + b == total


def test_cycle_product_16_starting_row():
    row0 = label_cycle_product(16, 16).values[:16]
    assert row0 == (1, 65, 255, 191, 3, 67, 253, 189, 4, 68, 254, 190, 2, 66, 256, 192)
    assert row0[0] == 1
    assert row0[4] == 3
    assert row0[8] == 4
    assert row0[12] == 2


@pytest.mark.parametrize("m,n", [(8, 8), (8, 12), (12, 8), (12, 12), (8, 16), (16, 8)])
def test_cycle_product_verifies(m, n):
    p = product(DIRECT, cycle(m), cycle(n))
    report = verify_balanced(p.base, label_cycle_product(m, n))
    assert report.is_distance_magic
    assert report.magic_constant == cycle_product_magic_constant(m, n) == 2 * m * n + 2
    assert not report.is_balanced


@pytest.mark.parametrize("m,n", [(4, 8), (8, 4), (6, 8), (8, 6), (12, 10), (7, 8)])
def test_cycle_product_rejects_bad_sizes(m, n):
    with pytest.raises(InputError):
        label_cycle_product(m, n)


def test_cycle_product_rejection_points_to_direct_construction():
    with pytest.raises(InputError, match="direct-product construction"):
        label_cycle_product(4, 8)


def _stage_cells(m, n):
    s1 = {(0, j) for j in range(0, n, 2)}
    s2 = {(2, j) for j in range(0, n, 2)}
    s3 = {(2 * i, j) for i in range(2, m // 2) for j in range(0, n, 2)}
    s4 = {(2 * i + 1, j) for i in range(m // 2) for j in range(0, n, 2)}
    s5 = {(i, j) for i in range(m) for j in range(1, n, 2)}
    return s1, s2, s3, s4, s5


def _stage_ranges(m, n):
    t = m * n
    r1 = set(range(1, n // 4 + 1)) | set(range(t - n // 4 + 1, t + 1))
    r2 = set(range(n // 4 + 1, n // 2 + 1)) | set(range(t - n // 2 + 1, t - n // 4 + 1))
    r3 = set(range(n // 2 + 1, t // 8 + 1)) | set(range(7 * t // 8 + 1, t - n // 2 + 1))
    r4 = set(range(t // 8 + 1, t // 4 + 1)) | set(range(3 * t // 4 + 1, 7 * t // 8 + 1))
    r5 = set(range(t // 4 + 1, 3 * t // 4 + 1))
    return r1, r2, r3, r4, r5


@pytest.mark.parametrize("m,n", [(8, 8), (8, 12), (16, 16), (12, 8)])
def test_cycle_product_stage_label_ranges(m, n):
    values = label_cycle_product(m, n).values
    cells = _stage_cells(m, n)
    ranges = _stage_ranges(m, n)
    all_cells = set()
    for stage_cells, stage_range in zip(cells, ranges):
        used = {values[i * n + j] for (i, j) in stage_cells}
        assert used == stage_range
        all_cells |= stage_cells
    assert all_cells == {(i, j) for i in range(m) for j in range(n)}


def test_grid_conversions_and_format():
    lab = label_cycle_product(8, 12)
    text = format_grid(lab, 8, 12, 194)
    assert parse_grid(text) == (lab, 8, 12, 194)
    lines = text.splitlines()
    assert lines[0] == "8 12 194"
    # paper orientation: row i of the row-major labeling is line m - i on the page
    for i in range(8):
        assert lines[8 - i] == " ".join(str(x) for x in lab.values[12 * i : 12 * i + 12])


def test_format_grid_bytes_match_reference():
    rng = random.Random(3)
    for m in range(3, 13):
        for n in range(3, 13):
            lab = Labeling(tuple(rng.sample(range(1, m * n + 1), m * n)))
            for k in (0, 9, 10000):
                assert first_line_difference(format_grid(lab, m, n, k),
                                             format_grid_reference(lab, m, n, k)) is None


def _random_grid(m, n):
    return Labeling(tuple(random.Random(m * n).sample(range(1, m * n + 1), m * n)))


# 64 columns make a block of 64 rows: no row, one row, one block less a row,
# one block, one block and a row, two blocks and a row; then one row wider
# than a block
@pytest.mark.parametrize(
    "lab,m,n",
    [
        # labels crossing 9999/10000
        (Labeling(tuple(random.Random(5).sample(range(1, 10101), 10100))), 100, 101),
        (label_cycle_product(256, 256), 256, 256),
        *[(_random_grid(m, 64), m, 64) for m in (0, 1, 63, 64, 65, 129)],
        (_random_grid(3, WRITE_BLOCK + 1), 3, WRITE_BLOCK + 1),
    ],
    ids=["100x101", "256x256", "0x64", "1x64", "63x64", "64x64", "65x64", "129x64",
         "3x4097"],
)
def test_format_grid_bytes_match_reference_on_large_grids(lab, m, n):
    k = 2 * m * n + 2
    blocks = list(grid_blocks(lab, m, n, k))
    assert first_line_difference("".join(blocks), format_grid_reference(lab, m, n, k)) is None
    # about WRITE_BLOCK entries a block, or one row wider than that
    assert all(b.count(" ") + b.count("\n") <= WRITE_BLOCK + n for b in blocks[:-1])


def test_grid_rejects_non_bijection():
    with pytest.raises(InputError, match=r"^grid entries are not a bijection onto 1\.\.9: "
                       r"duplicate labels \[8\]; missing labels \[9\]$"):
        parse_grid("3 3 20\n7 8 8\n4 5 6\n1 2 3\n")


@pytest.mark.parametrize("text,error", [
    ("", "line 1: missing grid header 'm n k'"),
    ("3 3\n1 2 3\n4 5 6\n7 8 9\n", "line 1: grid header must be 'm n k', got '3 3'"),
    ("3 3 x\n1 2 3\n4 5 6\n7 8 9\n", "line 1: grid header must be three integers, got '3 3 x'"),
])
def test_grid_rejects_bad_header(text, error):
    with pytest.raises(InputError, match=f"^{re.escape(error)}$"):
        parse_grid(text)


BAD_GRID_ENTRIES = ["x", "-1", "0", "", "1 2"]


@st.composite
def grid_texts(draw):
    """Grid texts of 2..5 rows and columns: a bijection in rows, with up to
    two entries replaced by a repeated, out-of-range or malformed entry, an
    entry or a row perhaps dropped, and a header whose k is arbitrary,
    spelled in ways only the line-by-line reader reads."""
    m, n = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    entries = [str(x) for x in draw(st.permutations(range(1, m * n + 1)))]
    for _ in range(draw(st.integers(0, 2))):
        bad = st.one_of(st.integers(1, m * n + 1).map(str), st.sampled_from(BAD_GRID_ENTRIES))
        entries[draw(st.integers(0, m * n - 1))] = draw(bad)
    rows = [" ".join(entries[i * n : (i + 1) * n]) for i in range(m)]
    if draw(st.integers(0, 5)) == 0:
        i = draw(st.integers(0, m - 1))
        rows[i] = rows[i].rpartition(" ")[0]
    if draw(st.integers(0, 5)) == 0:
        del rows[draw(st.integers(0, m - 1))]
    k = draw(st.integers(0, 60))
    return draw(texts_of_lines([f"{m} {n} {k}", *rows]))


@settings(deadline=None, max_examples=300)
@given(grid_texts())
def test_parse_grid_matches_line_by_line_reference(text):
    assert parse_outcome(parse_grid, text) == parse_outcome(parse_grid_reference, text)


# a grid text of several scan blocks; its last line is line 129
LONG_GRID = label_cycle_product(128, 128)


def test_crlf_grid_is_read_in_bulk():
    k = cycle_product_magic_constant(128, 128)
    text = format_grid(LONG_GRID, 128, 128, k).replace("\n", "\r\n")
    assert _scan_grid(text) == (list(LONG_GRID.values), 128, 128, k)


@pytest.mark.parametrize("how", [*RESPELLINGS, "no final newline"])
def test_respelled_grid_reaches_the_line_reader(how):
    k = cycle_product_magic_constant(128, 128)
    text = format_grid(LONG_GRID, 128, 128, k)
    assert len(text) > SCAN_BLOCK and _scan_grid(text) == (list(LONG_GRID.values), 128, 128, k)
    text = respelled(text, -2, how)  # the last line, past the first block
    assert _scan_grid(text) is None
    assert parse_grid(text) == (LONG_GRID, 128, 128, k)


@pytest.mark.parametrize(
    "edit,error",
    [
        (lambda row: row[:-1], "line 129: expected 128 entries, got 127"),
        (lambda row: ["x", *row[1:]], "line 129: grid entries must be integers, got 'x "),
        (lambda row: [row[1], *row[1:]], "grid entries are not a bijection onto 1..16384: "
                                         "duplicate labels [4097]; missing labels [1]"),
    ],
    ids=["short row", "malformed entry", "repeated label"],
)
def test_grid_error_past_the_first_block(edit, error):
    text = format_grid(LONG_GRID, 128, 128, 0)
    head, _, last = text[:-1].rpartition("\n")
    text = head + "\n" + " ".join(edit(last.split())) + "\n"
    outcome = parse_outcome(parse_grid, text)
    assert outcome == parse_outcome(parse_grid_reference, text)
    assert outcome.startswith(error)


def test_cycle_product_grids_pass_the_public_check():
    # label_cycle_product skips the check Labeling(values) makes
    for m in range(8, 33, 4):
        for n in range(8, 33, 4):
            lab = label_cycle_product(m, n)
            assert Labeling(lab.values) == lab


@pytest.mark.parametrize(
    "m,n,verdict",
    [
        (4, 7, BALANCED_DISTANCE_MAGIC),
        (7, 4, BALANCED_DISTANCE_MAGIC),
        (4, 4, BALANCED_DISTANCE_MAGIC),
        (8, 12, DISTANCE_MAGIC_NOT_BALANCED),
        (16, 8, DISTANCE_MAGIC_NOT_BALANCED),
        (6, 6, NOT_DISTANCE_MAGIC),
        (3, 8, NOT_DISTANCE_MAGIC),
        (8, 10, NOT_DISTANCE_MAGIC),
    ],
)
def test_classify_cycle_direct(m, n, verdict):
    assert classify_cycle_direct(m, n) == verdict


def test_classify_cycle_cartesian_c6_c3_exception():
    witness = [1, 4, 11, 10, 14, 17, 6, 7, 3, 18, 15, 8, 9, 5, 2, 13, 12, 16]
    c6c3 = product(CARTESIAN, cycle(6), cycle(3)).base
    report = verify_distance_magic(c6c3, Labeling(tuple(witness)))
    assert report.is_distance_magic and report.magic_constant == 38
    # the same labeling with the factors swapped: (i, j) of C6 x C3 is (j, i) of C3 x C6
    swapped = tuple(witness[i * 3 + j] for j in range(3) for i in range(6))
    report = verify_distance_magic(product(CARTESIAN, cycle(3), cycle(6)).base, Labeling(swapped))
    assert report.is_distance_magic and report.magic_constant == 38
    assert classify_cycle_cartesian(3, 6) is True
    assert classify_cycle_cartesian(6, 3) is True
    assert not classify_cycle_cartesian(3, 3) and not classify_cycle_cartesian(4, 3)


# Cartesian C_m x C_n witnesses, vertex (i, j) = i*n + j: (m, n, k, labels)
CARTESIAN_WITNESSES = [
    (5, 10, 102,
     "1 15 47 16 20 50 36 4 35 31 46 24 32 28 11 5 27 19 23 40 37 9 3 43 49 "
     "14 42 48 8 2 45 38 18 22 34 6 13 33 29 17 10 30 39 7 25 41 21 12 44 26"),
    (6, 6, 74,
     "1 23 28 19 10 13 4 29 17 11 35 32 12 30 6 3 21 22 18 27 24 36 14 9 26 "
     "2 5 33 8 20 34 16 15 25 7 31"),
]


@pytest.mark.parametrize("m,n,k,text", CARTESIAN_WITNESSES)
def test_cartesian_witnesses(m, n, k, text):
    values = tuple(int(x) for x in text.split())
    # the weight of (i, j) summed over (i+-1, j) and (i, j+-1), without the product's rows
    for i in range(m):
        for j in range(n):
            around = [((i + 1) % m, j), ((i - 1) % m, j), (i, (j + 1) % n), (i, (j - 1) % n)]
            assert sum(values[a * n + b] for a, b in around) == k
    report = verify_distance_magic(product(CARTESIAN, cycle(m), cycle(n)).base, Labeling(values))
    assert report.is_distance_magic and report.magic_constant == k
    assert classify_cycle_cartesian(m, n) and classify_cycle_cartesian(n, m)


def test_classify_cycle_cartesian_rule():
    # m = n = 2 mod 4, or {m, n} = {t, 2t} with t odd
    positive = {(6, 6), (10, 10), (14, 14), (3, 6), (5, 10), (7, 14)}
    for m in range(3, 17):
        for n in range(3, 17):
            expected = (min(m, n), max(m, n)) in positive
            assert classify_cycle_cartesian(m, n) is expected, (m, n)


def test_classify_others():
    assert classify_cycle_cartesian(6, 6)
    assert not classify_cycle_cartesian(4, 4)
    assert not classify_cycle_cartesian(6, 10)
    assert classify_cycle(4) and not classify_cycle(6)
    assert classify_lex_cycles(5, 4) and not classify_lex_cycles(5, 6)
    with pytest.raises(InputError):
        classify_cycle(2)


def _assert_search_agrees(m, n):
    p = product(DIRECT, cycle(m), cycle(n))
    outcome = find_distance_magic(p.base)
    verdict = classify_cycle_direct(m, n)
    if verdict == NOT_DISTANCE_MAGIC:
        assert outcome.tag == EXHAUSTED_NONE
    else:
        assert outcome.tag == FOUND
        report = verify_balanced(p.base, outcome.labeling)
        assert report.is_distance_magic and report.magic_constant == outcome.magic_constant


@pytest.mark.parametrize("m,n", [(3, 3), (3, 4), (4, 3)])
def test_classify_agrees_with_search(m, n):
    _assert_search_agrees(m, n)


@pytest.mark.parametrize("m,n", [(3, 5), (5, 3)])
def test_classify_agrees_with_search_15_vertices(m, n):
    _assert_search_agrees(m, n)


def test_direct_construction_agrees_with_brute_force_at_c3xc3():
    # 9-vertex certificate straight from the unpruned oracle
    p = product(DIRECT, cycle(3), cycle(3))
    found, _, _ = brute_force_distance_magic(p.base)
    assert not found
    assert classify_cycle_direct(3, 3) == NOT_DISTANCE_MAGIC
