"""Distance magic and balanced distance magic labelings of graphs and
graph products: generators, verification, explicit constructions, label
rearrangement, and exhaustive search."""

from .errors import InputError
from .graphs import (
    Graph,
    complete_bipartite,
    complete_minus_matching,
    cycle,
    empty_graph,
    format_edge_list,
    parse_edge_list,
    path,
    regularity,
)
from .magic import (
    Labeling,
    VerifyReport,
    eit_schedule,
    verify_balanced,
    verify_distance_magic,
    verify_grid,
    weights,
)
from .products import (
    CARTESIAN,
    DIRECT,
    LEXICOGRAPHIC,
    ProductGraph,
    product,
)

__all__ = [
    "CARTESIAN",
    "DIRECT",
    "Graph",
    "InputError",
    "LEXICOGRAPHIC",
    "Labeling",
    "ProductGraph",
    "VerifyReport",
    "complete_bipartite",
    "complete_minus_matching",
    "cycle",
    "eit_schedule",
    "empty_graph",
    "format_edge_list",
    "parse_edge_list",
    "path",
    "product",
    "regularity",
    "verify_balanced",
    "verify_distance_magic",
    "verify_grid",
    "weights",
]
