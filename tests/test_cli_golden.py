"""Golden outputs of `construct` and `product`.

Each case pins a sha256 digest (first 16 hex digits) of the command's whole
stdout, so any change to a product labeling or to an edge list shows here.
The direct and lexicographic constructions share one labeling formula, which
is why their digests agree pair by pair.
"""

import hashlib

import pytest

from distmagic.cli import main

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
