"""Capacitated assortment optimization with greedy add-exchange search.

A solver library for picking the revenue-maximizing offer set of at most
C products, talking to the choice model only through a pluggable revenue
oracle. Ships with an exact MNL oracle, deterministic noise and counting
wrappers, exact reference solvers, and analysis tooling that verifies the
solver's exactness and noise-robustness guarantees at desk scale.
"""

from .analysis import (
    BoundInputs,
    GapBound,
    check_margin_revenue_equivalence,
    check_trace_invariants,
    compute_bounds,
    exact_delta_cap,
    max_slack_set_size,
    realized_gap,
)
from .errors import (
    AssortoptError,
    ConfigError,
    EnumerationCapError,
    InvalidAssortmentError,
    ValidationError,
    VerificationFailure,
)
from .generate import GeneratorSpec, derive_seed, generate_instance
from .greedy import (
    GreedyConfig,
    IterationRecord,
    SolveReport,
    call_count_bound,
    greedy_add_exchange,
    greedy_opt,
    naive_greedy,
    same_run_under_budget,
)
from .instance import Assortment, Instance, Product
from .oracles import (
    CountingOracle,
    ExactMnlOracle,
    NoiseSpec,
    NoisyOracle,
    OracleStats,
    RevenueOracle,
    make_counting_oracle,
    make_exact_oracle,
    make_noisy_oracle,
    make_oracle,
    mnl_revenue,
    total_weight,
)
from .reference import (
    ExactSolution,
    brute_force_opt,
    candidate_set_collection,
    candidate_set_opt,
    mnl_opt,
)
from .transform import (
    assortment_margin,
    margin_breakpoints,
    scaled_margin,
    top_margin_set,
)

__version__ = "0.1.0"
