"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its exact values and runtime bound.

Run `pytest tests/test_acceptance.py -s` to watch the per-criterion lines.
"""

import itertools
import subprocess
import sys
import time
from contextlib import contextmanager

from conftest import brute_force_distance_magic, regular_magic_constant
from distmagic.constructors import (
    cycle_product_magic_constant,
    label_c4,
    label_complete_bipartite,
    label_complete_minus_matching,
    label_cycle_product,
    label_direct,
)
from distmagic.graphs import (
    Graph,
    complete_bipartite,
    complete_minus_matching,
    cycle,
    empty_graph,
    path,
    regularity,
)
from distmagic.magic import Labeling, verify_balanced, weights
from distmagic.products import CARTESIAN, DIRECT, LEXICOGRAPHIC, product
from distmagic.rearrange import (
    CLOSED_H_LAYER,
    COUPLED_PAIRS,
    couple_layers,
    extract_factor_labeling,
    make_balanced,
    scramble_balanced,
)
from distmagic.search import EXHAUSTED_NONE, FOUND, find_distance_magic

# the printed 16x16 labeling, rows top-down ending with row 0
TABLE_16 = """\
196 132 62 126 194 130 64 128 193 129 63 127 195 131 61 125
228 164 30 94 226 162 32 96 225 161 31 95 227 163 29 93
57 121 199 135 59 123 197 133 60 124 198 134 58 122 200 136
25 89 231 167 27 91 229 165 28 92 230 166 26 90 232 168
204 140 54 118 202 138 56 120 201 137 55 119 203 139 53 117
236 172 22 86 234 170 24 88 233 169 23 87 235 171 21 85
49 113 207 143 51 115 205 141 52 116 206 142 50 114 208 144
17 81 239 175 19 83 237 173 20 84 238 174 18 82 240 176
212 148 46 110 210 146 48 112 209 145 47 111 211 147 45 109
244 180 14 78 242 178 16 80 241 177 15 79 243 179 13 77
41 105 215 151 43 107 213 149 44 108 214 150 42 106 216 152
9 73 247 183 11 75 245 181 12 76 246 182 10 74 248 184
220 156 38 102 218 154 40 104 217 153 39 103 219 155 37 101
252 188 6 70 250 186 8 72 249 185 7 71 251 187 5 69
33 97 223 159 35 99 221 157 36 100 222 158 34 98 224 160
1 65 255 191 3 67 253 189 4 68 254 190 2 66 256 192
"""


@contextmanager
def criterion(num, name, limit_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s)")
    assert elapsed < limit_s, f"criterion {num} took {elapsed:.2f}s, limit {limit_s}s"


def k4():
    return Graph.from_edges(4, itertools.combinations(range(4), 2))


def test_criterion_1_golden_table():
    with criterion(1, "golden-16x16-table", 1.0):
        proc = subprocess.run(
            [sys.executable, "-m", "distmagic.cli",
             "construct", "--kind", "cycle-product", "--m", "16", "--n", "16"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "16 16 514\n" + TABLE_16
        labeling = label_cycle_product(16, 16)
        report = verify_balanced(product(DIRECT, cycle(16), cycle(16)).base, labeling)
        assert report.is_distance_magic and report.magic_constant == 2 * 256 + 2 == 514


def test_criterion_2_cycle_product_family():
    with criterion(2, "cycle-product-family", 5.0):
        for m in (8, 12, 16, 20):
            for n in (8, 12, 16, 20):
                base = product(DIRECT, cycle(m), cycle(n)).base
                report = verify_balanced(base, label_cycle_product(m, n))
                assert report.is_distance_magic
                assert report.magic_constant == cycle_product_magic_constant(m, n) == 2 * m * n + 2
                assert not report.is_balanced


def test_criterion_3_balanced_constructors():
    with criterion(3, "balanced-constructors", 5.0):
        cases = [(cycle(4), label_c4())]
        for n in range(1, 9):
            cases.append((complete_bipartite(2 * n, 2 * n), label_complete_bipartite(n)))
            cases.append((complete_minus_matching(2 * n), label_complete_minus_matching(n)))
        for g, lab in cases:
            report = verify_balanced(g, lab)
            assert report.is_balanced
            assert report.magic_constant == regular_magic_constant(g)

        g_factors = [cycle(3), cycle(4), cycle(5), k4()]
        h_factors = [
            (cycle(4), label_c4()),
            (empty_graph(2), Labeling((1, 2))),
            (complete_bipartite(4, 4), label_complete_bipartite(2)),
        ]
        for g in g_factors:
            r_g = regularity(g)
            for h, h_lab in h_factors:
                r_h = regularity(h)  # even, since h is balanced
                order = g.n * h.n

                lab = label_direct(g, h, h_lab)
                base = product(LEXICOGRAPHIC, g, h).base
                report = verify_balanced(base, lab)
                assert report.is_balanced
                expected = (h.n * r_g + r_h) * (order + 1) // 2
                assert report.magic_constant == expected == regular_magic_constant(base)

                lab = label_direct(g, h, h_lab)
                base = product(DIRECT, g, h).base
                report = verify_balanced(base, lab)
                assert report.is_balanced
                expected = (r_h * r_g // 2) * (order + 1)
                assert report.magic_constant == expected == regular_magic_constant(base)


def test_criterion_4_search_characterizations():
    with criterion(4, "search-characterizations", 125.0):
        out = find_distance_magic(cycle(4))
        assert out.tag == FOUND and out.magic_constant == 5
        out = find_distance_magic(path(3))
        assert out.tag == FOUND and out.magic_constant == 3
        for n in (3, 5, 6, 7, 8, 9, 10):
            start = time.perf_counter()
            assert find_distance_magic(cycle(n)).tag == EXHAUSTED_NONE
            assert time.perf_counter() - start < 60.0
        for kind in (DIRECT, CARTESIAN):
            start = time.perf_counter()
            assert find_distance_magic(product(kind, cycle(3), cycle(3)).base).tag == EXHAUSTED_NONE
            assert time.perf_counter() - start < 60.0
        out = find_distance_magic(k4())
        assert out.tag == EXHAUSTED_NONE
        assert out.stats.prunes.get("odd_regular") == 1 and out.stats.nodes == 0


def test_criterion_5_oracle_equivalence():
    with criterion(5, "oracle-equivalence", 120.0):
        family = [cycle(n) for n in range(3, 9)]
        family += [path(n) for n in range(1, 9)]
        for kind in (CARTESIAN, LEXICOGRAPHIC, DIRECT):
            for m in (3, 4):
                for n in (3, 4):
                    p = product(kind, cycle(m), cycle(n))
                    if p.base.n <= 8:
                        family.append(p.base)
        family += [complete_bipartite(2, 2), complete_minus_matching(4)]
        assert all(g.n <= 8 for g in family)
        for g in family:
            outcome = find_distance_magic(g)
            found, _, k = brute_force_distance_magic(g)
            assert (outcome.tag == FOUND) == found
            if found:
                assert outcome.magic_constant == k
                assert verify_balanced(g, outcome.labeling).is_distance_magic


def test_criterion_6_rearrangement_pipeline():
    with criterion(6, "rearrangement-pipeline", 30.0):
        c4, c4_lab = cycle(4), label_c4()
        for m in (3, 4, 5, 6):
            g = cycle(m)
            p = product(DIRECT, g, c4)
            bl0 = make_balanced(p, label_direct(g, c4, c4_lab))
            for seed in range(100):
                bl = scramble_balanced(bl0, seed)

                def on_swap(before, after, lemma):
                    assert verify_balanced(after.product.base, after.labeling).is_balanced
                    assert weights(before.product.base, before.labeling) == weights(
                        after.product.base, after.labeling
                    )

                rewritten, outcome = couple_layers(bl, on_swap=on_swap)
                assert outcome.tag in (CLOSED_H_LAYER, COUPLED_PAIRS)
                axis, lab = extract_factor_labeling(rewritten, outcome)
                factor = rewritten.product.factor_h if axis == "H" else rewritten.product.factor_g
                assert verify_balanced(factor, lab).is_balanced


def test_criterion_7_lexicographic_golden():
    with criterion(7, "c4-lex-empty3-golden", 1.0):
        # columns are the layers over consecutive C4 vertices, bottom row first:
        # (1,2,3), (4,5,6), (12,11,10), (9,8,7)
        labeling = Labeling((1, 2, 3, 4, 5, 6, 12, 11, 10, 9, 8, 7))
        p = product(LEXICOGRAPHIC, cycle(4), empty_graph(3))
        report = verify_balanced(p.base, labeling)
        assert report.is_balanced and report.magic_constant == 39
        column = lambda g: sum(labeling.values[p.encode(g, h)] for h in range(3))
        assert column(1) == 15 and column(3) == 24
        assert column(1) + column(3) == 39
