"""Golden outputs of `construct`, `product` and `verify`.

Each case pins a sha256 digest (first 16 hex digits) of the command's whole
stdout, so any change to a product labeling or to an edge list shows here.
The direct and lexicographic constructions share one labeling formula, which
is why their digests agree pair by pair.  The labelings of the grid and of
the direct construction are pinned on their own too, at sizes no command
here reaches.
"""

import hashlib

import pytest

from distmagic.cli import main
from distmagic.constructors import (
    format_grid,
    label_balanced,
    label_c4,
    label_complete_minus_matching,
    label_cycle_product,
    label_direct,
)
from distmagic.graphs import complete_bipartite, complete_minus_matching, cycle
from distmagic.magic import Labeling, verify_grid

CONSTRUCT_GOLDEN = [
    ("direct", "cycle:3", "cycle:4", "99513df1e5f356f1"),
    ("direct", "cycle:3", "kbip:4,4", "ee35d3bff00f97f4"),
    ("direct", "cycle:3", "kminusm:6", "5df13e3b852c719e"),
    ("direct", "cycle:3", "empty:2", "a6418901162629e1"),
    ("direct", "cycle:5", "cycle:4", "3d8abba66a602465"),
    ("direct", "cycle:5", "kbip:4,4", "f3b7375125cab26b"),
    ("direct", "cycle:5", "kminusm:6", "55574d7ca7d279c5"),
    ("direct", "cycle:5", "empty:2", "b93fa2c3f7aa514d"),
    ("lexicographic", "cycle:3", "cycle:4", "99513df1e5f356f1"),
    ("lexicographic", "cycle:3", "kbip:4,4", "ee35d3bff00f97f4"),
    ("lexicographic", "cycle:3", "kminusm:6", "5df13e3b852c719e"),
    ("lexicographic", "cycle:3", "empty:2", "a6418901162629e1"),
    ("lexicographic", "cycle:5", "cycle:4", "3d8abba66a602465"),
    ("lexicographic", "cycle:5", "kbip:4,4", "f3b7375125cab26b"),
    ("lexicographic", "cycle:5", "kminusm:6", "55574d7ca7d279c5"),
    ("lexicographic", "cycle:5", "empty:2", "b93fa2c3f7aa514d"),
]

# product --kind KIND cycle:3 H
PRODUCT_GOLDEN = [
    ("cartesian", "cycle:4", "b4c69c36d98311b2"),
    ("cartesian", "kbip:4,4", "fe13eb0657cabd15"),
    ("cartesian", "kminusm:6", "f41cea4fc95b46b3"),
    ("cartesian", "empty:2", "85b3071ada491a20"),
    ("direct", "cycle:4", "516983d38084ff48"),
    ("direct", "kbip:4,4", "a6ba5c677dc2501d"),
    ("direct", "kminusm:6", "53e5602d6fe126be"),
    ("direct", "empty:2", "3e6a55c946ac4902"),
    ("lexicographic", "cycle:4", "ace0600b6658cb51"),
    ("lexicographic", "kbip:4,4", "b1039bfded5f0d8a"),
    ("lexicographic", "kminusm:6", "1ec48364ec3e0aa3"),
    ("lexicographic", "empty:2", "6b6fe52d5e40851f"),
]


def stdout_digest(capsys, argv):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]


@pytest.mark.parametrize("kind,g,h,digest", CONSTRUCT_GOLDEN)
def test_construct_stdout_golden(capsys, kind, g, h, digest):
    assert stdout_digest(capsys, ["construct", "--kind", kind, "--g", g, "--h", h]) == digest


@pytest.mark.parametrize("kind,h,digest", PRODUCT_GOLDEN)
def test_product_stdout_golden(capsys, kind, h, digest):
    assert stdout_digest(capsys, ["product", "--kind", kind, "cycle:3", h]) == digest


def labels_digest(labelings):
    """Digest of the labels, one line per labeling, space separated."""
    text = "".join(" ".join(map(str, lab.values)) + "\n" for lab in labelings)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_cycle_product_sweep_golden():
    sides = range(8, 65, 4)
    grids = (label_cycle_product(m, n) for m in sides for n in sides)
    assert labels_digest(grids) == "614265593ff3d2f3"


@pytest.mark.parametrize("m,n,digest", [
    (8, 1024, "158c27e21522eead"),
    (1024, 8, "8b576fa4e2d5b77b"),
    (256, 256, "97a2731f240e01f1"),
    (512, 2048, "d57d1b562e4d0423"),
])
def test_cycle_product_golden(m, n, digest):
    assert labels_digest([label_cycle_product(m, n)]) == digest


def test_table16_stdout_golden(capsys):
    assert stdout_digest(capsys, ["table16"]) == "18b60c36c84bbec1"


@pytest.mark.parametrize("g,h,digest", [
    (cycle(60), complete_bipartite(20, 20), "89cf1265d09f6f41"),
    (complete_bipartite(3, 3), complete_minus_matching(6), "e4d640a3b0232373"),
], ids=["C60xK20,20", "K3,3x(K6-M)"])
def test_label_direct_golden(g, h, digest):
    assert labels_digest([label_direct(g, h, label_balanced(h))]) == digest


def _swapped(values, a, b):
    values = list(values)
    values[a], values[b] = values[b], values[a]
    return tuple(values)


_C3XC4 = label_direct(cycle(3), cycle(4), label_c4()).values

# verify --format kv|text: (id, graph spec or product (kind, g, h),
# labeling, exit status, kv digest, text digest).  The labelings cover weight
# failures only, twin failures only, both, more than MAX_DIAGNOSTICS (32)
# failures (both twin-only cases have more, as do the "capped" ones), odd
# orders, and balanced and degenerate reports.
VERIFY_GOLDEN = [
    ("weight-only", "kbip:2,4", (1, 6, 2, 3, 4, 5), 1, "7f3b1dba6e4247f8", "5fddd7c54bb8487d"),
    ("odd-weight-only", "cycle:5", (1, 2, 3, 4, 5), 1, "d9fdc3366ef79ad4", "01d9f6ca91ff4880"),
    ("odd-magic", "path:3", (1, 3, 2), 0, "b6cfb1427dee591b", "2e349e13d559ab79"),
    ("twin-only-c6xc3", ("cartesian", "cycle:6", "cycle:3"),
     (1, 4, 11, 10, 14, 17, 6, 7, 3, 18, 15, 8, 9, 5, 2, 13, 12, 16),
     0, "45c921444aefbed1", "a9cf8df156ead4b9"),
    ("twin-only-c8xc8", ("direct", "cycle:8", "cycle:8"),
     label_cycle_product(8, 8).values, 0, "1dec6a66f02dea39", "a7fc293c870cef1f"),
    ("both", "cycle:6", (1, 2, 3, 4, 5, 6), 1, "4d14b2f041d33f57", "f9a98b9ed4410746"),
    ("both-kminusm", "kminusm:6", _swapped(label_complete_minus_matching(3).values, 0, 2),
     1, "c6d829f20cb9381d", "f08426771f1d9195"),
    ("both-swapped-pair", ("direct", "cycle:3", "cycle:4"), _swapped(_C3XC4, 0, 5),
     1, "4a3f817839411b00", "b2ee27d76f429b5b"),
    ("both-capped-c5xc4", ("direct", "cycle:5", "cycle:4"), tuple(range(1, 21)),
     1, "4d8399e0576c70de", "59970f1a0a806423"),
    ("both-capped-kbip", "kbip:8,8", tuple(range(1, 17)),
     1, "f2f8138d7e87836b", "9491c5a391bde7c1"),
    ("balanced-product", ("direct", "cycle:3", "cycle:4"), _C3XC4,
     0, "fc56caf31eeb66a9", "3f19560bf6f3dc0e"),
    ("balanced-c4", "cycle:4", (1, 2, 4, 3), 0, "614e4351692f89cb", "2699d1731f0e8ddc"),
    ("degenerate", "empty:4", (1, 2, 3, 4), 0, "8dd0105dd1434442", "cae02b0ab8ef8682"),
]


@pytest.mark.parametrize(
    "graph,values,status,kv,text", [case[1:] for case in VERIFY_GOLDEN],
    ids=[case[0] for case in VERIFY_GOLDEN],
)
def test_verify_stdout_golden(tmp_path, capsys, graph, values, status, kv, text):
    if isinstance(graph, tuple):
        kind, g, h = graph
        graph = str(tmp_path / "product.edges")
        assert main(["product", "--kind", kind, g, h, "--out", graph]) == 0
    lab_file = tmp_path / "x.lab"
    lab_file.write_text("".join(f"{v} {x}\n" for v, x in enumerate(values)))
    digests = []
    for fmt in ("kv", "text"):
        argv = ["verify", "--graph", graph, "--labeling", str(lab_file), "--format", fmt]
        assert main(argv) == status
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16])
    assert digests == [kv, text]


# the rows of VERIFY_GOLDEN on a direct product of two cycles, which
# `verify --grid` checks in grid coordinates
GRID_GOLDEN = ["twin-only-c8xc8", "both-swapped-pair", "both-capped-c5xc4", "balanced-product"]


@pytest.mark.parametrize("case", GRID_GOLDEN)
def test_verify_grid_stdout_matches_the_product_graph(tmp_path, capsys, case):
    (graph, values, status, kv, text), = [row[1:] for row in VERIFY_GOLDEN if row[0] == case]
    kind, g, h = graph
    assert kind == "direct" and g.startswith("cycle:") and h.startswith("cycle:")
    m, n = int(g[len("cycle:"):]), int(h[len("cycle:"):])
    grid = tmp_path / "x.grid"
    # verify rejects a header k other than a magic grid's constant, and
    # reads no k from a grid that is not magic
    labeling = Labeling(values)
    report = verify_grid(labeling, m, n)
    k = report.magic_constant if report.is_distance_magic else 0
    grid.write_text(format_grid(labeling, m, n, k))
    digests = []
    for fmt in ("kv", "text"):
        assert main(["verify", "--grid", str(grid), "--format", fmt]) == status
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16])
    assert digests == [kv, text]
