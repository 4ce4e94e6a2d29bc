"""Exact clique-factor search on balanced multipartite graphs.

Data model and generators in `graphs`, clique enumeration in `cliques`,
tail bounds in `bounds`, the exact solver suite in `solver`, the regularity
layer and three-round pipeline in `regularity`/`pipeline`, edge-coloured
factor search in `transversal`, and the experiment CLI in `cli`.
"""

from .bounds import chernoff_bound, janson_lambda_delta, janson_lower_bound
from .cliques import CliqueFamily, enumerate_kr
from .errors import (
    BalanceError,
    BalanceTuplesError,
    BudgetExceededError,
    CoverError,
    FileFormatError,
    PipelineStageError,
)
from .graphs import (
    PartiteGraph,
    ThresholdParams,
    ThresholdResult,
    WitnessInstance,
    gen_min_degree_instance,
    gen_no_factor_witness,
    min_star_degree,
    read_graph_file,
    sparsify,
    split_rounds,
    threshold_p,
    write_graph_file,
)
from .pipeline import (
    CoverResult,
    PipelineReport,
    WeightAssignment,
    balance_tuples,
    balance_weights,
    cover_exceptional,
    run_pipeline,
)
from .regularity import (
    PartitionedInstance,
    RegPairReport,
    RegularityParams,
    build_reduced_graph,
    check_regular_pair,
    gen_super_regular_instance,
    read_instance,
    write_instance,
)
from .rng import RandomSeed, as_seed
from .solver import (
    Factor,
    SpreadEstimate,
    Tiling,
    count_factors,
    estimate_spread,
    find_factor,
    read_factor_certificate,
    solve_restricted,
    verify_factor,
    write_factor_certificate,
)
from .transversal import (
    AuxiliaryGraph,
    BpiTrialReport,
    GraphFamily,
    PermutationBundle,
    TransversalFactor,
    bpi_min_degree_trial,
    build_b_pi,
    governing_index,
    lift_factor,
    read_family,
    read_transversal_certificate,
    sample_bundle,
    transversal_oracle,
    verify_transversal,
    write_family,
    write_transversal_certificate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
