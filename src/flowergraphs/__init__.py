"""Flower graphs: exact resistance closed forms with a numeric oracle.

Construct flowers from any connected base graph, evaluate pairwise effective
resistance, Kirchhoff index and Kemeny's constant in exact rational
arithmetic, and cross-check everything against a dense Laplacian solver.
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
    cycle_resistance,
    gs_kemeny,
    gs_kirchhoff,
    gs_resistance,
)
from .exact import format_rational
from .flower import (
    Flower,
    FlowerLocator,
    FlowerSpec,
    MaxResistance,
    base_kemeny,
    base_kirchhoff,
    base_resistance_table,
    build_flower,
    canonical_locator,
    flower_kemeny_exact,
    flower_kirchhoff_exact,
    flower_resistance,
    kemeny_bounds,
    kirchhoff_bounds,
    locator,
    max_diff_sequence,
    max_resistance_search,
)
from .graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    format_edge_list,
    graph_from_edge_list,
    laplacian,
    parse_edge_list,
    path_graph,
    petersen_graph,
    read_edge_list,
)
from .oracle import (
    grounded_potentials,
    metric_violations,
    numeric_indices,
    resistance,
    resistance_matrix,
    values_close,
)
from .separation import TwoSepBundle, compose_one_sep, compose_two_sep

__version__ = "0.1.0"

__all__ = [
    "CompleteFlowerParams",
    "CycleFlowerParams",
    "CyclePairPosition",
    "Flower",
    "FlowerLocator",
    "FlowerSpec",
    "Graph",
    "MaxResistance",
    "PairCase",
    "TwoSepBundle",
    "base_kemeny",
    "base_kirchhoff",
    "base_resistance_table",
    "build_flower",
    "canonical_locator",
    "cf_kemeny",
    "cf_kirchhoff",
    "cf_max_resistance",
    "cf_resistance",
    "complete_flower_spec",
    "complete_graph",
    "compose_one_sep",
    "compose_two_sep",
    "cycle_flower_spec",
    "cycle_graph",
    "cycle_resistance",
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
    "laplacian",
    "locator",
    "max_diff_sequence",
    "max_resistance_search",
    "metric_violations",
    "numeric_indices",
    "parse_edge_list",
    "path_graph",
    "petersen_graph",
    "read_edge_list",
    "resistance",
    "resistance_matrix",
    "values_close",
]
