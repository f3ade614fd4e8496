import re

import pytest

from distmagic.constructors import label_c4, label_direct
from distmagic.errors import InputError
from distmagic.graphs import complete_bipartite, cycle, empty_graph, equal_neighborhood_classes
from distmagic.magic import Labeling, verify_balanced, weights
from distmagic.products import CARTESIAN, DIRECT, LEXICOGRAPHIC, product
from distmagic.rearrange import (
    CLOSED_H_LAYER,
    COUPLED_PAIRS,
    BalancedProductLabeling,
    CoupleOutcome,
    closed_h_layer_outcome,
    couple_layers,
    extract_factor_labeling,
    make_balanced,
    scramble_balanced,
    swap_lemma1,
    swap_lemma2,
    swap_lemma3,
)

C4 = cycle(4)
C4_LAB = label_c4()


def direct_bl(g):
    p = product(DIRECT, g, C4)
    return make_balanced(p, label_direct(g, C4, C4_LAB))


def assert_swap_postconditions(before, after, twin_a, twin_b):
    """Every lemma swap: two positions changed, bijection kept, all weights
    kept, still balanced, and the promised twin pair holds."""
    changed = [
        v
        for v in range(before.product.base.n)
        if before.labeling.values[v] != after.labeling.values[v]
    ]
    assert len(changed) == 2
    assert sorted(before.labeling.values) == sorted(after.labeling.values)
    base = before.product.base
    assert weights(base, before.labeling) == weights(base, after.labeling)
    report = verify_balanced(base, after.labeling)
    assert report.is_balanced
    assert after.twins == report.twin_map
    assert after.twins[twin_a] == twin_b


def test_make_balanced_rejects():
    p = product(DIRECT, C4, C4)
    with pytest.raises(InputError, match="not balanced"):
        make_balanced(p, Labeling(tuple(range(1, 17))))
    with pytest.raises(InputError, match="direct or lexicographic"):
        make_balanced(product(CARTESIAN, C4, C4), label_direct(C4, C4, C4_LAB))


def test_swap_lemma1_on_scrambled_c4xc4():
    bl = scramble_balanced(direct_bl(C4), seed=0)
    v1, v2 = 4, 14  # twins with distinct coordinates on both axes under seed 0
    g1, h1 = bl.product.decode(v1)
    g2, h2 = bl.product.decode(v2)
    assert bl.twins[v1] == v2 and g1 != g2 and h1 != h2
    after = swap_lemma1(bl, v1, v2)
    assert_swap_postconditions(bl, after, v1, bl.product.encode(g2, h1))


def test_swap_lemma1_rejections():
    bl = direct_bl(cycle(3))
    # construction twins live inside H-layers: same g violates the hypothesis
    v1 = 0
    v2 = bl.twins[0]
    with pytest.raises(InputError, match="H-layer"):
        swap_lemma1(bl, v1, v2)
    with pytest.raises(InputError, match="not twins"):
        swap_lemma1(bl, 0, 5)
    lex = make_balanced(
        product(LEXICOGRAPHIC, cycle(3), C4), label_direct(cycle(3), C4, C4_LAB)
    )
    with pytest.raises(InputError, match="direct"):
        swap_lemma1(lex, 0, lex.twins[0])


def test_swap_lemma2_on_scrambled_c4xc4():
    bl = scramble_balanced(direct_bl(C4), seed=9)
    g, gp, h, h1, h2 = 1, 3, 1, 0, 2  # pattern present under seed 9
    enc = bl.product.encode
    assert bl.twins[enc(g, h)] == enc(gp, h)
    assert bl.twins[enc(g, h1)] == enc(g, h2)
    after = swap_lemma2(bl, g, gp, h, h1, h2)
    assert_swap_postconditions(bl, after, enc(g, h1), enc(gp, h1))


def test_swap_lemma2_requires_distinct_h():
    bl = scramble_balanced(direct_bl(C4), seed=9)
    with pytest.raises(InputError, match="pairwise distinct"):
        swap_lemma2(bl, 1, 3, 1, 0, 0)


def test_exchange_premise_rejects_twins_with_different_neighborhoods():
    bl = direct_bl(cycle(3))
    enc = bl.product.encode
    v1, v2 = enc(0, 0), enc(1, 1)
    base = bl.product.base
    assert base.neighbors(v2) != base.neighbors(enc(1, 0))
    # claim (0,0) and (1,1) are twins: lemma 1 would then exchange the labels
    # of (1,1) and (1,0), whose neighborhoods differ in C3 x C4
    twins = list(bl.twins)
    twins[v1], twins[v2] = v2, v1
    forged = BalancedProductLabeling(bl.product, bl.labeling, tuple(twins))
    with pytest.raises(AssertionError, match="premise"):
        swap_lemma1(forged, v1, v2)


def test_swap_lemma3_on_scrambled_k33xc4():
    k33 = complete_bipartite(3, 3)
    bl = scramble_balanced(direct_bl(k33), seed=1)
    g, gp, gpp, h, hp = 0, 1, 2, 2, 0  # pattern present under seed 1
    enc = bl.product.encode
    assert bl.twins[enc(g, h)] == enc(gp, h)
    assert bl.twins[enc(g, hp)] == enc(gpp, hp)
    after = swap_lemma3(bl, g, gp, gpp, h, hp)
    assert_swap_postconditions(bl, after, enc(g, hp), enc(gp, hp))


# one accepted call per lemma (G of the direct product G x C4, scramble seed,
# arguments) and, per argument, the id it is and the size of its range
V16, G4, G6, H4 = ("vertex", 16), ("g coordinate", 4), ("g coordinate", 6), ("h coordinate", 4)
LEMMA_CALLS = [
    (swap_lemma1, C4, 0, (4, 14), (V16, V16)),
    (swap_lemma2, C4, 9, (1, 3, 1, 0, 2), (G4, G4, H4, H4, H4)),
    (swap_lemma3, complete_bipartite(3, 3), 1, (0, 1, 2, 2, 0), (G6, G6, G6, H4, H4)),
]
OUT_OF_RANGE = [
    pytest.param(fn, g, seed, args, i, bad, what, size, id=f"{fn.__name__}-arg{i}={bad}")
    for fn, g, seed, args, ranges in LEMMA_CALLS
    for i, (what, size) in enumerate(ranges)
    for bad in (-1, size)
]


@pytest.mark.parametrize("fn,g,seed,args,i,bad,what,size", OUT_OF_RANGE)
def test_swap_lemmas_reject_ids_out_of_range(fn, g, seed, args, i, bad, what, size):
    # unchecked, -1 wrapped to the last vertex, layer or h, and an h of hsize
    # read as h 0 of the next layer, so a swap on ids nobody named went through
    bl = scramble_balanced(direct_bl(g), seed)
    fn(bl, *args)
    bad_args = args[:i] + (bad,) + args[i + 1:]
    with pytest.raises(InputError, match=re.escape(f"{what} {bad} out of range [0,{size})")):
        fn(bl, *bad_args)


# per lemma premise, a call that fails it alone: the accepted call of
# LEMMA_CALLS with one coordinate moved to a layer or h the twin is not in
PREMISE_FAILURES = [
    (swap_lemma2, C4, 9, (1, 2, 1, 0, 2), "(1,1) and (2,1) are not twins"),
    (swap_lemma2, C4, 9, (1, 3, 1, 0, 3), "(1,0) and (1,3) are not twins"),
    (swap_lemma3, complete_bipartite(3, 3), 1, (0, 3, 2, 2, 0), "(0,2) and (3,2) are not twins"),
    (swap_lemma3, complete_bipartite(3, 3), 1, (0, 1, 3, 2, 0), "(0,0) and (3,0) are not twins"),
]


@pytest.mark.parametrize("fn,g,seed,args,message", PREMISE_FAILURES)
def test_swap_lemmas_reject_each_failed_twin_premise(fn, g, seed, args, message):
    bl = scramble_balanced(direct_bl(g), seed)
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        fn(bl, *args)


def test_swap_lemma3_rejects_gpp_equal_gp():
    k33 = complete_bipartite(3, 3)
    bl = scramble_balanced(direct_bl(k33), seed=1)
    with pytest.raises(InputError, match="differ"):
        swap_lemma3(bl, 0, 1, 1, 2, 0)


def test_couple_layers_construction_is_closed_at_first_layer():
    bl = direct_bl(C4)
    bl2, outcome = couple_layers(bl)
    assert outcome.tag == CLOSED_H_LAYER
    assert outcome.closed_g == 0
    assert outcome.swaps == 0
    assert bl2.labeling == bl.labeling


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_couple_layers_scrambled(m):
    bl0 = direct_bl(cycle(m))
    for seed in range(100):
        bl = scramble_balanced(bl0, seed)
        bl2, outcome = couple_layers(bl)
        assert outcome.tag in (CLOSED_H_LAYER, COUPLED_PAIRS)
        assert verify_balanced(bl2.product.base, bl2.labeling).is_balanced
        assert outcome.swaps <= bl2.product.base.n


def test_couple_layers_rejects_edgeless_and_wrong_kind():
    p = product(DIRECT, C4, empty_graph(2))
    bl = make_balanced(p, label_direct(C4, empty_graph(2), Labeling((1, 2))))
    with pytest.raises(InputError, match="no edges"):
        couple_layers(bl)
    lex = make_balanced(
        product(LEXICOGRAPHIC, cycle(3), C4), label_direct(cycle(3), C4, C4_LAB)
    )
    with pytest.raises(InputError, match="direct"):
        couple_layers(lex)


def test_extract_from_construction():
    bl = direct_bl(cycle(3))
    bl2, outcome = couple_layers(bl)
    axis, lab = extract_factor_labeling(bl2, outcome)
    assert axis == "H"
    report = verify_balanced(C4, lab)
    assert report.is_balanced and report.magic_constant == 5


@pytest.mark.parametrize("m", [4, 6])
def test_extract_from_scrambled(m):
    bl0 = direct_bl(cycle(m))
    for seed in range(50):
        bl2, outcome = couple_layers(scramble_balanced(bl0, seed))
        axis, lab = extract_factor_labeling(bl2, outcome)
        factor = bl2.product.factor_h if axis == "H" else bl2.product.factor_g
        assert verify_balanced(factor, lab).is_balanced


def test_all_three_lemmas_fire_on_k33xc4():
    k33 = complete_bipartite(3, 3)
    bl0 = direct_bl(k33)
    seen = {}
    for seed in range(40):
        bl = scramble_balanced(bl0, seed)

        def cb(before, after, lemma):
            seen[lemma] = seen.get(lemma, 0) + 1
            wb = weights(before.product.base, before.labeling)
            wa = weights(after.product.base, after.labeling)
            assert wb == wa
            assert after.twins == verify_balanced(after.product.base, after.labeling).twin_map

        bl2, outcome = couple_layers(bl, on_swap=cb)
        axis, lab = extract_factor_labeling(bl2, outcome)
        factor = bl2.product.factor_h if axis == "H" else bl2.product.factor_g
        assert verify_balanced(factor, lab).is_balanced
    assert set(seen) == {"lemma1", "lemma2", "lemma3"}


def test_extract_rejects_stale_outcome():
    bl0 = direct_bl(C4)
    bl = scramble_balanced(bl0, seed=1)
    bl2, outcome = couple_layers(bl)
    # reshuffling after coupling invalidates the recorded outcome
    for seed in range(2, 40):
        mutated = scramble_balanced(bl2, seed)
        if mutated.labeling != bl2.labeling:
            try:
                extract_factor_labeling(mutated, outcome)
            except InputError as exc:
                assert "stale" in str(exc)
                return
    pytest.fail("no scramble produced a stale outcome")


def test_extract_rejects_malformed_outcomes():
    bl = direct_bl(cycle(3))
    with pytest.raises(InputError, match="out of range"):
        extract_factor_labeling(bl, CoupleOutcome(CLOSED_H_LAYER, closed_g=99))
    with pytest.raises(InputError, match="partition"):
        extract_factor_labeling(bl, CoupleOutcome(COUPLED_PAIRS, pairs=((0, 1),)))
    with pytest.raises(InputError, match="unknown outcome"):
        extract_factor_labeling(bl, CoupleOutcome("nonesuch"))


def test_extract_rejects_pairless_and_stale_coupled_pairs():
    bl = scramble_balanced(direct_bl(C4), seed=2)
    coupled, outcome = couple_layers(bl)
    assert outcome.tag == COUPLED_PAIRS
    with pytest.raises(InputError, match="carries no pairs"):
        extract_factor_labeling(coupled, CoupleOutcome(COUPLED_PAIRS))
    # the pairs were coupled by the swaps, so the scramble before them lacks them
    with pytest.raises(InputError, match=r"stale outcome: twin of \(0,\d\) is not \(2,\d\)"):
        extract_factor_labeling(bl, outcome)


def test_lexicographic_closed_layer_extraction():
    g = cycle(5)
    p = product(LEXICOGRAPHIC, g, C4)
    bl = make_balanced(p, label_direct(g, C4, C4_LAB))
    outcome = closed_h_layer_outcome(bl)
    assert outcome.tag == CLOSED_H_LAYER and outcome.closed_g == 0
    axis, lab = extract_factor_labeling(bl, outcome)
    assert axis == "H"
    assert verify_balanced(C4, lab).is_balanced


def test_scramble_deterministic_and_class_confined():
    bl0 = direct_bl(C4)
    classes = equal_neighborhood_classes(bl0.product.base)
    class_of = {}
    for cls in classes:
        for v in cls:
            class_of[v] = tuple(cls)
    for seed in (0, 1, 7, 123456789):
        a = scramble_balanced(bl0, seed)
        b = scramble_balanced(bl0, seed)
        assert a.labeling == b.labeling
        report = verify_balanced(a.product.base, a.labeling)
        assert report.is_balanced
        assert a.twins == report.twin_map
        # each label stays inside its vertex class
        for v in range(16):
            old_holder = bl0.labeling.values.index(a.labeling.values[v])
            assert class_of[old_holder] == class_of[v]


def test_scramble_classes_are_twin_covering():
    # in a balanced product every vertex shares its neighborhood with its
    # twin, so no equal-neighborhood class is a singleton
    for g in (cycle(3), C4, cycle(5), complete_bipartite(3, 3)):
        bl = direct_bl(g)
        assert all(len(cls) >= 2 for cls in equal_neighborhood_classes(bl.product.base))


def test_balanced_product_labeling_is_immutable():
    bl = direct_bl(C4)
    with pytest.raises(Exception):
        bl.labeling = Labeling(tuple(range(1, 17)))
