"""satloop: closed-loop satellite link modeling and resource allocation.

Models a sensing -> communication -> computing -> control cycle over
direct-to-cell satellite links and optimizes bandwidth, downlink power, and
compute frequency under task-oriented, max-throughput, and min-latency
objectives.
"""
from .control import (NonConvergentError, Plant, RateCostModel, cner_bps,
                      dare_solve, intrinsic_entropy_rate, is_stabilizable_at,
                      lqr_cost)
from .linkgeom import (Geometry, LinkParams, fspl_db, received_power_w,
                       shannon_rate_bps, slant_range_m)
from .optimize import (AllocationResult, MultiLoopProblem, MultiLoopScheme,
                       RobotLoop, SingleLoopObjective, SingleLoopProblem,
                       solve_multi_loop, solve_single_loop, sweep_contour)
from .pipeline import (LoopBudget, LoopOutcome, NoBudgetError, balanced_times,
                       evaluate_cycle, propagation_delay_s)
from .scenario import (ParseError, Scenario, UnknownKeyError, ValidationError,
                       default_scenario, dump_scenario, load_scenario,
                       sample_elevations)

__version__ = "0.1.0"

__all__ = [
    "NonConvergentError", "Plant", "RateCostModel", "cner_bps", "dare_solve",
    "intrinsic_entropy_rate", "is_stabilizable_at", "lqr_cost",
    "Geometry", "LinkParams", "fspl_db", "received_power_w", "shannon_rate_bps",
    "slant_range_m",
    "AllocationResult", "MultiLoopProblem", "MultiLoopScheme", "RobotLoop",
    "SingleLoopObjective", "SingleLoopProblem", "solve_multi_loop",
    "solve_single_loop", "sweep_contour",
    "LoopBudget", "LoopOutcome", "NoBudgetError", "balanced_times",
    "evaluate_cycle", "propagation_delay_s",
    "ParseError", "Scenario", "UnknownKeyError", "ValidationError",
    "default_scenario", "dump_scenario", "load_scenario", "sample_elevations",
    "__version__",
]
