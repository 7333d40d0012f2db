"""netrank: spectral ranking of finite directed networks.

Builds column-stochastic chains from adjacency data (with zero-row patching
or a generalized inverse), computes damped and augmented-chain rankings by
exact fixed-point solves or power iteration, and compares rankings through
tie-aware rank statistics.
"""

from .graph_core import (
    AdjacencyMatrix,
    load_dense_matrix,
    load_edge_list,
    patch_zero_rows,
    read_dense_csv,
    read_edge_list_csv,
    read_roster_csv,
)
from .chain_builder import (
    RegularityResult,
    TransitionMatrix,
    augment_adjacency,
    damped_transition,
    is_regular,
    transition_from_augmented,
    transition_from_patched,
    transition_generalized_inverse,
    wielandt_bound,
)
from .eigenrank import (
    DegenerateVectorError,
    EigenSpace,
    MultiplicityError,
    NonConvergenceError,
    PowerIterConfig,
    ScoreVector,
    eigenvalue_one_space,
    markovrank,
    pagerank,
    stationary_power,
)
from .rank_stats import (
    RankStatistic,
    agreement_count,
    is_finer,
    is_identical_rank,
    rank_statistic,
)
from .experiments import (
    BlockSpec,
    SplitMix64,
    SweepRecord,
    SweepReport,
    gen_block,
    gen_er,
    invariance_sweep,
)

__all__ = [
    "AdjacencyMatrix",
    "BlockSpec",
    "DegenerateVectorError",
    "EigenSpace",
    "MultiplicityError",
    "NonConvergenceError",
    "PowerIterConfig",
    "RankStatistic",
    "RegularityResult",
    "ScoreVector",
    "SplitMix64",
    "SweepRecord",
    "SweepReport",
    "TransitionMatrix",
    "agreement_count",
    "augment_adjacency",
    "damped_transition",
    "eigenvalue_one_space",
    "gen_block",
    "gen_er",
    "invariance_sweep",
    "is_finer",
    "is_identical_rank",
    "is_regular",
    "load_dense_matrix",
    "load_edge_list",
    "markovrank",
    "pagerank",
    "patch_zero_rows",
    "rank_statistic",
    "read_dense_csv",
    "read_edge_list_csv",
    "read_roster_csv",
    "stationary_power",
    "transition_from_augmented",
    "transition_from_patched",
    "transition_generalized_inverse",
    "wielandt_bound",
]

__version__ = "0.1.0"
