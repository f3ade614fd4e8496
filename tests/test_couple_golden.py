"""Golden outputs of layer coupling.

The expected strings pin the whole `couple` stdout (outcome, pairs, swap count
and extracted labeling), and the digests pin every intermediate labeling and
twin map of a coupling, so any change to the swap sequence shows here.
"""

import hashlib
from collections import Counter

import pytest

from distmagic.cli import main, parse_graph_spec
from distmagic.graphs import complete_bipartite, cycle
from distmagic.constructors import label_balanced, label_direct
from distmagic.magic import Labeling
from distmagic import rearrange
from distmagic.products import DIRECT, product
from distmagic.rearrange import (
    couple_layers,
    extract_factor_labeling,
    make_balanced,
    scramble_balanced,
)

from conftest import couple_layers_reference

COUPLE_GOLDEN = [
    ("cycle:4", "cycle:4", 1, "outcome=closed_H_layer\nclosed_g=1\nswaps=2\nfactor=H\n0 1\n1 2\n2 4\n3 3\n"),
    ("cycle:4", "cycle:4", 2, "outcome=coupled_pairs\npairs=0-2,1-3\nswaps=4\nfactor=G\n0 1\n1 2\n2 4\n3 3\n"),
    ("cycle:4", "cycle:4", 3, "outcome=closed_H_layer\nclosed_g=0\nswaps=0\nfactor=H\n0 1\n1 2\n2 4\n3 3\n"),
    ("kbip:3,3", "cycle:4", 1, "outcome=closed_H_layer\nclosed_g=1\nswaps=3\nfactor=H\n0 1\n1 2\n2 4\n3 3\n"),
    ("kbip:3,3", "cycle:4", 2, "outcome=closed_H_layer\nclosed_g=1\nswaps=5\nfactor=H\n0 1\n1 2\n2 4\n3 3\n"),
    ("kbip:3,3", "cycle:4", 3, "outcome=closed_H_layer\nclosed_g=2\nswaps=6\nfactor=H\n0 1\n1 2\n2 4\n3 3\n"),
    ("cycle:3", "kbip:4,4", 1, "outcome=closed_H_layer\nclosed_g=0\nswaps=0\nfactor=H\n0 1\n1 8\n2 2\n3 7\n4 3\n5 4\n6 6\n7 5\n"),
    ("cycle:3", "kbip:4,4", 2, "outcome=closed_H_layer\nclosed_g=0\nswaps=0\nfactor=H\n0 1\n1 2\n2 8\n3 7\n4 3\n5 4\n6 5\n7 6\n"),
    ("cycle:3", "kbip:4,4", 3, "outcome=closed_H_layer\nclosed_g=0\nswaps=0\nfactor=H\n0 1\n1 2\n2 7\n3 8\n4 3\n5 4\n6 5\n7 6\n"),
    ("cycle:8", "cycle:4", 1, "outcome=closed_H_layer\nclosed_g=0\nswaps=0\nfactor=H\n0 1\n1 2\n2 4\n3 3\n"),
    ("cycle:8", "cycle:4", 2, "outcome=closed_H_layer\nclosed_g=0\nswaps=0\nfactor=H\n0 1\n1 2\n2 4\n3 3\n"),
    ("cycle:8", "cycle:4", 3, "outcome=closed_H_layer\nclosed_g=0\nswaps=0\nfactor=H\n0 1\n1 2\n2 4\n3 3\n"),
    ("kbip:4,4", "cycle:4", 1, "outcome=coupled_pairs\npairs=0-3,1-2,4-6,5-7\nswaps=11\nfactor=G\n0 1\n1 2\n2 7\n3 8\n4 3\n5 4\n6 6\n7 5\n"),
    ("kbip:4,4", "cycle:4", 3, "outcome=coupled_pairs\npairs=0-2,1-3,4-7,5-6\nswaps=14\nfactor=G\n0 1\n1 2\n2 8\n3 7\n4 3\n5 4\n6 5\n7 6\n"),
    ("kminusm:8", "cycle:4", 2, "outcome=closed_H_layer\nclosed_g=4\nswaps=4\nfactor=H\n0 1\n1 2\n2 4\n3 3\n"),
    ("kminusm:8", "cycle:4", 4, "outcome=closed_H_layer\nclosed_g=6\nswaps=5\nfactor=H\n0 1\n1 2\n2 4\n3 3\n"),
]


@pytest.mark.parametrize("g,h,seed,expected", COUPLE_GOLDEN)
def test_couple_stdout_golden(capsys, g, h, seed, expected):
    status = main(["couple", "--kind", "direct", "--g", g, "--h", h, "--seed", str(seed)])
    assert status == 0
    assert capsys.readouterr().out == expected


# (g, h, seed, swaps, digest of every (lemma, labeling, twins) after a swap,
#  digest of the (scrambled, coupled) labeling pair); the labeling of h is
#  label_balanced(h).  The last six are the benchmark's largest couplings.
SWAP_TRAIL_GOLDEN = [
    ("cycle:4", "kbip:4,4", 1, 7, "f5a431f6a3b9e03b", "523b354747f401f7"),
    ("cycle:4", "kbip:4,4", 2, 10, "20959c713d076fc2", "b098a6c13aef9a65"),
    ("cycle:4", "kbip:8,8", 1, 25, "9a1d320037df4b1d", "e6cc47d85bffcfe5"),
    ("cycle:4", "kbip:8,8", 2, 25, "92af05b7547c9a83", "0c686ba8c9462181"),
    ("cycle:4", "kbip:32,32", 1, 114, "6429fc4858c57337", "c30d405f24854e60"),
    ("cycle:4", "kbip:32,32", 2, 119, "3023cd2ebf5b6b9b", "36f2ca8658388ce4"),
    ("kbip:4,4", "kbip:16,16", 1, 153, "42f5503df332de9f", "7f099cca5959653a"),
    ("kbip:4,4", "kbip:16,16", 2, 163, "333479f014e2f64e", "142912f529bb613c"),
    ("kbip:8,8", "kminusm:8", 1, 64, "a813814783a11ac5", "6c6b34704590fdfd"),
    ("kbip:8,8", "kminusm:8", 2, 63, "03d3b778e58c7997", "d747af241cc07062"),
]


@pytest.mark.parametrize("g,h,seed,swaps,trail,endpoints", SWAP_TRAIL_GOLDEN)
def test_couple_swap_trail_golden(g, h, seed, swaps, trail, endpoints):
    g, h = parse_graph_spec(g), parse_graph_spec(h)
    p = product(DIRECT, g, h)
    bl = make_balanced(p, label_direct(g, h, label_balanced(h)))
    bl = scramble_balanced(bl, seed)
    digest = hashlib.sha256()

    def on_swap(before, after, lemma):
        digest.update(f"{lemma}:{after.labeling.values}:{after.twins}\n".encode())

    out, outcome = couple_layers(bl, on_swap=on_swap)
    assert outcome.swaps == swaps
    assert digest.hexdigest()[:16] == trail
    pair = repr((bl.labeling.values, out.labeling.values)).encode()
    assert hashlib.sha256(pair).hexdigest()[:16] == endpoints


def _golden_inputs():
    """(g, h, balanced labeling of h, seed) of every golden coupling above."""
    for g, h, seed, *_ in COUPLE_GOLDEN + SWAP_TRAIL_GOLDEN:
        h = parse_graph_spec(h)
        yield parse_graph_spec(g), h, label_balanced(h), seed


def test_couple_layers_result_is_balanced_without_a_check():
    # couple_layers returns the labeling and twin map its lemma swaps carried,
    # unverified; the full check agrees with both, on every golden input and
    # on the K3,3 x C4 seeds that fire all three lemmas.  The factor labeling
    # extracted from it, a perfect matching labeled i and n+1-i, is built
    # unchecked too and passes the check Labeling makes
    k33, c4 = complete_bipartite(3, 3), cycle(4)
    inputs = [*_golden_inputs(), *((k33, c4, label_balanced(c4), s) for s in range(40))]
    for g, h, h_labeling, seed in inputs:
        p = product(DIRECT, g, h)
        bl = scramble_balanced(make_balanced(p, label_direct(g, h, h_labeling)), seed)
        out, outcome = couple_layers(bl)
        assert out == make_balanced(p, out.labeling)
        _, lab = extract_factor_labeling(out, outcome)
        assert Labeling(lab.values) == lab


def test_scrambles_and_swaps_make_bijections():
    # the scramble and the lemma swaps build their labelings unchecked, as
    # bijections by construction; each one passes the check Labeling makes
    swaps = []

    def on_swap(before, after, lemma):
        assert Labeling(after.labeling.values) == after.labeling
        swaps.append(lemma)

    for g, h, h_labeling, seed in _golden_inputs():
        bl = make_balanced(product(DIRECT, g, h), label_direct(g, h, h_labeling))
        bl = scramble_balanced(bl, seed)
        assert Labeling(bl.labeling.values) == bl.labeling
        couple_layers(bl, on_swap=on_swap)
    assert {"lemma1", "lemma2", "lemma3"} <= set(swaps)


def _working_layer(bl):
    """The smallest H-layer not coupled with another: the layer g that the
    next exchange of couple_layers works on."""
    hsize = bl.product.hsize
    for g in range(bl.product.gsize):
        row = bl.twins[g * hsize : (g + 1) * hsize]
        gp = row[0] // hsize
        if gp == g or row != tuple(range(gp * hsize, (gp + 1) * hsize)):
            return g


def test_couple_layers_matches_the_rescanning_reference():
    # couple_layers reads each exchange off layer g's twin ids; the reference
    # decodes the whole layer and exchanges through the public lemma swaps.
    # Same result, outcome and trail on every golden factor pair, on K3,3 x C4
    # (all three lemmas fire), on K4,4 x (K6 - M) (one layer pair takes 11
    # exchanges under seed 8) and on C_m x C4, m = 3..8, each under scramble
    # seeds 0..29.  No layer pair takes more than the 2|V(H)| exchanges that
    # couple_layers' docstring proves, and some come within one of it
    factor_pairs = {(g, h) for g, h, *_ in COUPLE_GOLDEN + SWAP_TRAIL_GOLDEN}
    factor_pairs |= {("kbip:3,3", "cycle:4"), ("kbip:4,4", "kminusm:6")}
    factor_pairs |= {(f"cycle:{m}", "cycle:4") for m in range(3, 9)}
    lemmas = set()
    slack = []  # exchanges short of the bound, per layer pair
    for g, h in sorted(factor_pairs):
        g, h = parse_graph_spec(g), parse_graph_spec(h)
        bl0 = make_balanced(product(DIRECT, g, h), label_direct(g, h, label_balanced(h)))
        for seed in range(30):
            bl = scramble_balanced(bl0, seed)
            trail, expected_trail = [], []
            out, outcome = couple_layers(
                bl, on_swap=lambda *swap: trail.append(swap))
            expected = couple_layers_reference(
                bl, on_swap=lambda *swap: expected_trail.append(swap))
            assert (out, outcome) == expected
            assert trail == expected_trail
            lemmas |= {lemma for _, _, lemma in trail}
            per_pair = Counter(_working_layer(before) for before, _, _ in trail)
            slack += [2 * h.n - count for count in per_pair.values()]
    assert lemmas == {"lemma1", "lemma2", "lemma3"}
    assert min(slack) == 1


def test_couple_layers_fails_on_an_exchange_without_progress(monkeypatch):
    # an exchange of a twin pair keeps the twin map, so layer g never comes
    # closer to coupling; past 2|V(H)| exchanges coupling fails, not loops
    g, h = parse_graph_spec("cycle:4"), parse_graph_spec("cycle:4")
    bl = make_balanced(product(DIRECT, g, h), label_direct(g, h, label_balanced(h)))
    bl = scramble_balanced(bl, 2)
    monkeypatch.setattr(rearrange, "_next_swap",
                        lambda row, lo, plo, hsize: (lo, row[0], "lemma1"))
    trail = []
    with pytest.raises(AssertionError, match="not coupled after 8 exchanges"):
        couple_layers(bl, on_swap=lambda *swap: trail.append(swap))
    assert len(trail) == 8
