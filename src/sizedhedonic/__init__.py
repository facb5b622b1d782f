"""Stability in additively separable hedonic games with coalition-size bounds.

A library and CLI for building, verifying, exhaustively auditing, and
constructively solving size-bounded coalition formation: eight single-agent
stability concepts, four polynomial-time algorithms, welfare dynamics,
counterexample families, and NP-hardness reduction generators with
certificate-derived witness partitions.
"""

from .algorithms import (
    DynamicsCycleError,
    NotSymmetricError,
    TraceEntry,
    aziz_reference,
    cis_star_nonneg,
    cis_star_nonzero,
    cis_upper,
    cns_pairs,
    dynamics_steps,
    symmetric_dynamics,
)
from .exact import (
    BudgetExceededError,
    EnumerationBudget,
    enumerate_partitions,
    exists_stable,
    max_welfare_partition,
)
from .instances import (
    FAMILIES,
    aziz_failure,
    cycle_no_is_star,
    intro_negative,
    intro_positive,
    make_instance,
    pairs_triangle_no_cns_star,
    star_no_cis,
)
from .model import (
    Game,
    InfeasiblePartitionError,
    Partition,
    SizeBounds,
    feasibility_threshold,
    feasible_k_partition_exists,
    feasible_partition_exists,
    greedy_feasible_partition,
    is_feasible_partition,
    singleton_partition,
)
from .prefs import enemies, friends, social_welfare, top_set, utility
from .reductions import (
    InvalidCertificateError,
    MMMInstance,
    ReducedGame,
    X3CInstance,
    mmm_to_ns_is,
    witness_partition,
    x3c_to_cns,
    x3c_to_ns_bounded,
)
from .stability import (
    ALL_CONCEPTS,
    FEASIBLE,
    IMPLICATIONS,
    PERMISSIBLE,
    Concept,
    Deviation,
    StabilityReport,
    apply_deviation,
    blocking_check,
    candidate_deviations,
    verify,
)

__all__ = [
    # algorithms
    "DynamicsCycleError",
    "NotSymmetricError",
    "TraceEntry",
    "aziz_reference",
    "cis_star_nonneg",
    "cis_star_nonzero",
    "cis_upper",
    "cns_pairs",
    "dynamics_steps",
    "symmetric_dynamics",
    # exact
    "BudgetExceededError",
    "EnumerationBudget",
    "enumerate_partitions",
    "exists_stable",
    "max_welfare_partition",
    # instances
    "FAMILIES",
    "aziz_failure",
    "cycle_no_is_star",
    "intro_negative",
    "intro_positive",
    "make_instance",
    "pairs_triangle_no_cns_star",
    "star_no_cis",
    # model
    "Game",
    "InfeasiblePartitionError",
    "Partition",
    "SizeBounds",
    "feasibility_threshold",
    "feasible_k_partition_exists",
    "feasible_partition_exists",
    "greedy_feasible_partition",
    "is_feasible_partition",
    "singleton_partition",
    # prefs
    "enemies",
    "friends",
    "social_welfare",
    "top_set",
    "utility",
    # reductions
    "InvalidCertificateError",
    "MMMInstance",
    "ReducedGame",
    "X3CInstance",
    "mmm_to_ns_is",
    "witness_partition",
    "x3c_to_cns",
    "x3c_to_ns_bounded",
    # stability
    "ALL_CONCEPTS",
    "FEASIBLE",
    "IMPLICATIONS",
    "PERMISSIBLE",
    "Concept",
    "Deviation",
    "StabilityReport",
    "apply_deviation",
    "blocking_check",
    "candidate_deviations",
    "verify",
]
