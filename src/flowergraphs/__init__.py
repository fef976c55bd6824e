"""Flower graphs: exact resistance closed forms with a numeric oracle.

Construct flowers from any connected base graph, evaluate pairwise effective
resistance, Kirchhoff index and Kemeny's constant in exact rational
arithmetic, and cross-check everything against a numeric Laplacian oracle that
works on the Fourier blocks of the petal rotation.
"""

from .complete import (
    CompleteFlowerParams,
    PairCase,
    cf_kemeny,
    cf_kirchhoff,
    cf_max_resistance,
    cf_resistance,
    complete_flower_spec,
)
from .cycle import (
    CycleFlowerParams,
    CyclePairPosition,
    cycle_flower_spec,
    gs_kemeny,
    gs_kirchhoff,
    gs_resistance,
)
from .exact import format_rational
from .flower import (
    FlowerLocator,
    FlowerSpec,
    MaxResistance,
    base_kemeny,
    base_kirchhoff,
    base_resistance_table,
    build_flower,
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
    Lift,
    complete_graph,
    cycle_graph,
    format_edge_list,
    graph_from_edge_list,
    parse_edge_list,
    path_graph,
    petersen_graph,
    read_edge_list,
)
from .oracle import (
    grounded_potentials,
    numeric_indices,
    resistance,
    resistance_matrix,
    values_close,
)

__version__ = "0.1.0"

__all__ = [
    "CompleteFlowerParams",
    "CycleFlowerParams",
    "CyclePairPosition",
    "FlowerLocator",
    "FlowerSpec",
    "Graph",
    "Lift",
    "MaxResistance",
    "PairCase",
    "base_kemeny",
    "base_kirchhoff",
    "base_resistance_table",
    "build_flower",
    "cf_kemeny",
    "cf_kirchhoff",
    "cf_max_resistance",
    "cf_resistance",
    "complete_flower_spec",
    "complete_graph",
    "cycle_flower_spec",
    "cycle_graph",
    "flower_kemeny_exact",
    "flower_kirchhoff_exact",
    "flower_resistance",
    "format_edge_list",
    "format_rational",
    "graph_from_edge_list",
    "grounded_potentials",
    "gs_kemeny",
    "gs_kirchhoff",
    "gs_resistance",
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
    "values_close",
]
