"""Flower graphs: exact resistance closed forms with a numeric oracle.

Construct flowers from any connected base graph, evaluate pairwise effective
resistance, Kirchhoff index and Kemeny's constant in exact rational
arithmetic, and cross-check everything against a numeric Laplacian oracle that
works on the Fourier blocks of the petal rotation.
"""

from .complete import CompleteFlowerParams, complete_flower_spec
from .cycle import CycleFlowerParams, cycle_flower_spec
from .exact import format_rational
from .flower import (
    FlowerLocator,
    FlowerSpec,
    MaxResistance,
    base_kemeny,
    base_kirchhoff,
    base_resistance_table,
    flower_kemeny_exact,
    flower_kirchhoff_exact,
    flower_resistance,
    kemeny_bounds,
    kirchhoff_bounds,
    locator,
    max_resistance_search,
)
from .graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    graph_from_edge_list,
    parse_edge_list,
    path_graph,
    petersen_graph,
    read_edge_list,
)
from .oracle import (
    numeric_indices,
    resistance,
    resistance_matrix,
    resistance_rows,
    values_close,
)

__version__ = "0.1.0"

__all__ = [
    "CompleteFlowerParams",
    "CycleFlowerParams",
    "FlowerLocator",
    "FlowerSpec",
    "Graph",
    "MaxResistance",
    "base_kemeny",
    "base_kirchhoff",
    "base_resistance_table",
    "complete_flower_spec",
    "complete_graph",
    "cycle_flower_spec",
    "cycle_graph",
    "flower_kemeny_exact",
    "flower_kirchhoff_exact",
    "flower_resistance",
    "format_rational",
    "graph_from_edge_list",
    "kemeny_bounds",
    "kirchhoff_bounds",
    "locator",
    "max_resistance_search",
    "numeric_indices",
    "parse_edge_list",
    "path_graph",
    "petersen_graph",
    "read_edge_list",
    "resistance",
    "resistance_matrix",
    "resistance_rows",
    "values_close",
]
