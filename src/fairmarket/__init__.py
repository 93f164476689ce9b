"""Fair division of indivisible goods via market dynamics.

Computes allocations that are simultaneously envy-free up to one good and
fractionally Pareto optimal under additive valuations, using exact
rational arithmetic end to end, and ships an oracle suite that
independently verifies every guarantee.
"""

from .core import (
    Allocation,
    FairMarketError,
    HallViolationError,
    Instance,
    InternalInvariantError,
    InvalidInputError,
    NormalizationRecord,
    Solution,
    bundle_price,
    check_hall,
    denormalize,
    hat_price,
    is_pef1,
    max_violators,
    min_spenders,
    normalize_instance,
)
from .engine import EngineState, SolveTrace, find_solution, solve
from .market import MbbGraph, Reachability, build_graph, compute_alphas, reach_from
from .oracles import (
    VerificationReport,
    audit_trace,
    brute_force_mnw,
    brute_force_po,
    check_ef1,
    check_mbb_consistency,
    check_nsw_ratio,
    nash_product,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "EngineState",
    "FairMarketError",
    "HallViolationError",
    "Instance",
    "InternalInvariantError",
    "InvalidInputError",
    "MbbGraph",
    "NormalizationRecord",
    "Reachability",
    "Solution",
    "SolveTrace",
    "VerificationReport",
    "audit_trace",
    "build_graph",
    "bundle_price",
    "brute_force_mnw",
    "brute_force_po",
    "check_ef1",
    "check_hall",
    "check_mbb_consistency",
    "check_nsw_ratio",
    "compute_alphas",
    "denormalize",
    "find_solution",
    "hat_price",
    "is_pef1",
    "max_violators",
    "min_spenders",
    "nash_product",
    "normalize_instance",
    "reach_from",
    "solve",
    "verify",
]
