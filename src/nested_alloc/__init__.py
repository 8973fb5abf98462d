"""Separable convex resource allocation under nested partial-sum bounds.

Decomposition solver with integer and eps-accurate continuous modes, greedy
and brute-force oracles, first-order verification, seeded benchmark
generators, a geometric solver for scale-invariant objectives, and a CLI.
"""

from .generators import InstanceFamily, generate_instance
from .hull import (
    HullEligibilityError,
    HullInstance,
    HullNotApplicableError,
    active_growth_experiment,
    build_hull_instance,
    hull_solve,
    hull_solve_instance,
    hull_vertex_count,
    lifted_crashing_instance,
    lower_hull_vertices,
    scale_parameters,
)
from .io import read_instance, read_solution, write_instance, write_solution
from .model import (
    DomainError,
    Family,
    Mode,
    NestedInstance,
    ObjectiveSpec,
    Solution,
    SolveStats,
    Status,
    ValidationError,
    objective_value,
    prefix_sums,
)
from .oracles import (
    KktReport,
    brute_force_solve,
    count_active_constraints,
    greedy_solve,
    kkt_tolerance,
    verify_kkt,
)
from .rap import (
    RapProblem,
    SolveTimeout,
    rap_continuous,
    rap_integer,
    rap_integer_greedy,
)
from .solver import (
    WorkingBounds,
    active_tolerance,
    check_feasible,
    solve,
    tighten,
)

__all__ = [
    "DomainError",
    "Family",
    "HullEligibilityError",
    "HullInstance",
    "HullNotApplicableError",
    "InstanceFamily",
    "KktReport",
    "Mode",
    "NestedInstance",
    "ObjectiveSpec",
    "RapProblem",
    "Solution",
    "SolveStats",
    "SolveTimeout",
    "Status",
    "ValidationError",
    "WorkingBounds",
    "active_growth_experiment",
    "active_tolerance",
    "brute_force_solve",
    "build_hull_instance",
    "check_feasible",
    "count_active_constraints",
    "generate_instance",
    "greedy_solve",
    "hull_solve",
    "hull_solve_instance",
    "hull_vertex_count",
    "kkt_tolerance",
    "lifted_crashing_instance",
    "lower_hull_vertices",
    "objective_value",
    "prefix_sums",
    "rap_continuous",
    "rap_integer",
    "rap_integer_greedy",
    "read_instance",
    "read_solution",
    "scale_parameters",
    "solve",
    "tighten",
    "verify_kkt",
    "write_instance",
    "write_solution",
]

__version__ = "0.1.0"
