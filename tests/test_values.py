"""The contract of the library's value types: equality, hashing, repr,
immutability, pickling and copying, and their constructors' forms."""

import copy
import pickle

import pytest

from distmagic.constructors import label_c4, label_direct
from distmagic.graphs import cycle, path
from distmagic.magic import (
    Diagnostic,
    EitRow,
    Labeling,
    eit_schedule,
    verify_balanced,
)
from distmagic.products import DIRECT, LEXICOGRAPHIC, product
from distmagic.rearrange import COUPLED_PAIRS, CoupleOutcome, make_balanced
from distmagic.search import SearchBudget, SearchOutcome, SearchStats, find_distance_magic

C4_LABELS = Labeling((1, 2, 4, 3))
C3XC4 = product(DIRECT, cycle(3), cycle(4))

# (value, its fields in order, (one field, another value for it)): one
# value of each class
VALUES = [
    (cycle(4), ("n", "adjacency"), ("adjacency", path(4).adjacency)),
    (C4_LABELS, ("values",), ("values", (1, 2, 3, 4))),
    (Diagnostic(3, expected=10, actual=9, kind="weight"),
     ("vertex", "expected", "actual", "kind"), ("kind", "twin")),
    (verify_balanced(cycle(4), C4_LABELS),
     ("weights", "magic_constant", "is_distance_magic", "is_balanced", "degenerate",
      "twin_map", "failures", "failure_count"), ("failure_count", 1)),
    (EitRow(0, 1, (2, 3), 5), ("team", "strength", "opponents", "total"), ("total", 6)),
    (eit_schedule(cycle(4), C4_LABELS), ("teams", "rounds", "magic_constant", "rows"),
     ("rounds", 3)),
    (C3XC4, ("base", "factor_g", "factor_h", "kind"), ("kind", LEXICOGRAPHIC)),
    (make_balanced(C3XC4, label_direct(cycle(3), cycle(4), label_c4())),
     ("product", "labeling", "twins"), ("labeling", Labeling(tuple(range(1, 13))))),
    (CoupleOutcome(COUPLED_PAIRS, closed_g=None, pairs=((0, 1),), swaps=2),
     ("tag", "closed_g", "pairs", "swaps"), ("swaps", 3)),
    (SearchBudget(max_nodes=100), ("max_nodes",), ("max_nodes", 101)),
    (SearchStats(nodes=3, steps=5, prunes={"sum_too_high": 2}, forced_equal=(0, 1)),
     ("nodes", "steps", "prunes", "forced_equal"), ("nodes", 4)),
    (find_distance_magic(cycle(4)), ("tag", "labeling", "magic_constant", "stats"),
     ("magic_constant", 6)),
]


@pytest.mark.parametrize("value,names,change", VALUES,
                         ids=[type(row[0]).__name__ for row in VALUES])
def test_value_contract(value, names, change):
    cls = type(value)
    fields = {name: getattr(value, name) for name in names}
    assert cls(*fields.values()) == value == cls(**fields)
    name, other = change
    assert cls(**{**fields, name: other}) != value
    shown = ", ".join(f"{key}={x!r}" for key, x in fields.items())
    assert repr(value) == f"{cls.__name__}({shown})"
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is cls and copied == value
    if cls in (SearchStats, SearchOutcome):
        # search counters are updated in place, and an outcome holds them
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(cls(**fields))
    if cls is SearchStats:
        counted = copy.copy(value)
        setattr(counted, name, other)
        assert counted != value
        return
    for attr in (name, "other"):
        with pytest.raises(AttributeError):
            setattr(value, attr, other)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) == fields[name]


def test_constructor_defaults_and_keyword_forms():
    assert Diagnostic(1, expected=2, actual=3, kind="twin") == Diagnostic(1, 2, 3, "twin")
    assert CoupleOutcome("t", closed_g=1, pairs=None, swaps=2) == CoupleOutcome("t", 1, None, 2)
    assert CoupleOutcome("t") == CoupleOutcome("t", None, None, 0)
    assert SearchBudget() == SearchBudget(None)
    assert SearchStats() == SearchStats(0, 0, {}, None)
    assert SearchStats().prunes is not SearchStats().prunes
