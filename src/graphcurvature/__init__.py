"""Discrete curvature, Poincare-Hopf indices, and Euler characteristics.

The central identity: averaging the Poincare-Hopf index of a vertex over
uniform random injective functions gives its curvature, so both Gauss-
Bonnet and Poincare-Hopf sum to the Euler characteristic. A percolation
module verifies the clique-survival law the averaging argument rests on.
"""

from .cliques import (
    FVector,
    count_cliques,
    cliques_of_size,
    euler_characteristic,
    graph_euler_characteristic,
    vertex_clique_degrees,
)
from .curvature import (
    CurvatureField,
    curvature,
    curvature_field,
    curvature_from_degrees,
)
from .expectation import (
    DegreeCapError,
    ExpectationReport,
    ExpectationRow,
    exact_expectation_by_permutations,
    exact_index_expectation,
    mc_index_expectation,
)
from .graphs import (
    EdgeListParseError,
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    from_edge_list,
    from_json,
    generate,
    icosahedron,
    induced_subgraph,
    load,
    loads,
    octahedron,
    path_graph,
    random_tree,
    star_graph,
    to_edge_list,
    to_json,
    unit_sphere,
)
from .morse import (
    IndexCalculator,
    IndexReport,
    VertexOrder,
    all_orders,
    index_report,
    order_from_values,
    poincare_hopf_chi,
    random_order,
    reverse_order,
    transposition_swaps,
    verify_index_stability,
)
from .percolation import (
    SurvivalEstimate,
    SurvivalPolynomial,
    clique_survival_integral,
    exact_survival_polynomial,
    survival_grid,
)
from .trials import DEFAULT_SEED, TrialPlan

__version__ = "0.1.0"

__all__ = [
    "CurvatureField",
    "DEFAULT_SEED",
    "DegreeCapError",
    "EdgeListParseError",
    "ExpectationReport",
    "ExpectationRow",
    "FVector",
    "Graph",
    "IndexCalculator",
    "IndexReport",
    "SurvivalEstimate",
    "SurvivalPolynomial",
    "TrialPlan",
    "VertexOrder",
    "all_orders",
    "clique_survival_integral",
    "cliques_of_size",
    "complete_graph",
    "count_cliques",
    "curvature",
    "curvature_field",
    "curvature_from_degrees",
    "cycle_graph",
    "erdos_renyi",
    "euler_characteristic",
    "exact_expectation_by_permutations",
    "exact_index_expectation",
    "exact_survival_polynomial",
    "from_edge_list",
    "from_json",
    "generate",
    "graph_euler_characteristic",
    "icosahedron",
    "index_report",
    "induced_subgraph",
    "load",
    "loads",
    "mc_index_expectation",
    "octahedron",
    "order_from_values",
    "path_graph",
    "poincare_hopf_chi",
    "random_order",
    "random_tree",
    "reverse_order",
    "star_graph",
    "survival_grid",
    "to_edge_list",
    "to_json",
    "transposition_swaps",
    "unit_sphere",
    "verify_index_stability",
    "vertex_clique_degrees",
]
