"""Community detection on the clustering hypersphere.

Graphs map to query vectors in node-pair space; detection is projection onto
the nearest clustering vector under the angular distance. The package covers
the geometry, the query constructors (modularity, random-walk stability,
correlation clustering, likelihood ratios, linear combinations), a local-move
projection solver, benchmark generators, and an experiment/tuning harness.
"""

from .clustering import (
    DetectionResult,
    Partition,
    PairCounts,
    as_pair_vector,
    corclust_agreement,
    corclust_disagreement,
    evaluate,
    pair_counts,
    partition_latitude,
    pearson_correlation,
    query_alignment,
    query_angular_distance,
    query_correlation_distance,
    relative_granularity_error,
)
from .generators import GeneratorSpec, generate, load_external, ring_of_cliques
from .geometry import (
    DegenerateVectorError,
    LowRankTerm,
    PairVector,
    angular_distance,
    combine,
    correlation_distance,
    inner,
    latitude,
    parallel_projection,
    spherical_angle,
    spherical_coords,
)
from .graph import (
    Graph,
    adjacency_vector,
    degree_product_vector,
    jaccard_vector,
    read_edges,
    walk_distribution,
    write_edges,
)
from .queries import (
    QuerySpec,
    apply_granularity_heuristic,
    binary_ppm_query,
    build_query,
    cl_modularity_query,
    correlation_clustering_query,
    er_modularity_latitude,
    er_modularity_query,
    heuristic_latitude,
    linear_combination_query,
    markov_stability_query,
    ppm_likelihood_query,
    query_to_weights,
    rule_latitude,
)
from .solver import (
    SolverState,
    exact_project,
    louvain_project,
    max_single_move_gain,
    move_gain,
)
from .tune import ExperimentPlan, GridSearchPlan, detect_once, grid_search, run_experiment

__version__ = "0.1.0"
