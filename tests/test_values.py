"""The contract of the library's value types: equality, hashing, repr,
immutability, pickling and copying, and their constructors' forms."""

import copy
import inspect
import pickle

import pytest

from distmagic.constructors import label_c4, label_direct
from distmagic.graphs import Graph, cycle, path
from distmagic.magic import (
    Diagnostic,
    EitRow,
    EitSchedule,
    Labeling,
    VerifyReport,
    eit_schedule,
    verify_balanced,
)
from distmagic.products import DIRECT, LEXICOGRAPHIC, ProductGraph, product
from distmagic.rearrange import (
    COUPLED_PAIRS,
    BalancedProductLabeling,
    CoupleOutcome,
    make_balanced,
)
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


ANY = inspect.Parameter.POSITIONAL_OR_KEYWORD
NO_DEFAULT = inspect.Parameter.empty

# each value class's constructor parameters as inspect.signature reads them:
# (name, kind, default), in order
SIGNATURES = {
    Graph: [("n", ANY, NO_DEFAULT), ("adjacency", ANY, NO_DEFAULT)],
    Labeling: [("values", ANY, NO_DEFAULT)],
    Diagnostic: [("vertex", ANY, NO_DEFAULT), ("expected", ANY, NO_DEFAULT),
                 ("actual", ANY, NO_DEFAULT), ("kind", ANY, NO_DEFAULT)],
    VerifyReport: [("weights", ANY, NO_DEFAULT), ("magic_constant", ANY, NO_DEFAULT),
                   ("is_distance_magic", ANY, NO_DEFAULT), ("is_balanced", ANY, NO_DEFAULT),
                   ("degenerate", ANY, NO_DEFAULT), ("twin_map", ANY, NO_DEFAULT),
                   ("failures", ANY, NO_DEFAULT), ("failure_count", ANY, NO_DEFAULT)],
    EitRow: [("team", ANY, NO_DEFAULT), ("strength", ANY, NO_DEFAULT),
             ("opponents", ANY, NO_DEFAULT), ("total", ANY, NO_DEFAULT)],
    EitSchedule: [("teams", ANY, NO_DEFAULT), ("rounds", ANY, NO_DEFAULT),
                  ("magic_constant", ANY, NO_DEFAULT), ("rows", ANY, NO_DEFAULT)],
    ProductGraph: [("base", ANY, NO_DEFAULT), ("factor_g", ANY, NO_DEFAULT),
                   ("factor_h", ANY, NO_DEFAULT), ("kind", ANY, NO_DEFAULT)],
    BalancedProductLabeling: [("product", ANY, NO_DEFAULT), ("labeling", ANY, NO_DEFAULT),
                              ("twins", ANY, NO_DEFAULT)],
    CoupleOutcome: [("tag", ANY, NO_DEFAULT), ("closed_g", ANY, None), ("pairs", ANY, None),
                    ("swaps", ANY, 0)],
    SearchBudget: [("max_nodes", ANY, None)],
    SearchStats: [("nodes", ANY, 0), ("steps", ANY, 0), ("prunes", ANY, None),
                  ("forced_equal", ANY, None)],
    SearchOutcome: [("tag", ANY, NO_DEFAULT), ("labeling", ANY, NO_DEFAULT),
                    ("magic_constant", ANY, NO_DEFAULT), ("stats", ANY, NO_DEFAULT)],
}


@pytest.mark.parametrize("cls", SIGNATURES, ids=[cls.__name__ for cls in SIGNATURES])
def test_constructor_signature(cls):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == SIGNATURES[cls]
    assert [name for name, _, _ in SIGNATURES[cls]] == list(cls._fields)
