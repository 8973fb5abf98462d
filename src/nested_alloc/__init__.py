"""Separable convex resource allocation under nested partial-sum bounds.

Decomposition solver with integer and eps-accurate continuous modes, greedy
and brute-force oracles, single-exchange optimality verification for both
modes, seeded benchmark generators, a geometric solver for scale-invariant
objectives, and a CLI.

The package exports what the CLI, the README tour and the acceptance suite
use, the result types of `solve`, the errors these functions raise, and the
JSON readers and writers; everything else is imported from its submodule.
"""

from .generators import generate_instance
from .hull import (
    HullEligibilityError,
    HullNotApplicableError,
    active_growth_experiment,
    hull_solve_instance,
    lifted_crashing_instance,
)
from .io import read_instance, read_solution, write_instance, write_solution
from .model import (
    Family,
    Mode,
    NestedInstance,
    ObjectiveSpec,
    Solution,
    SolveStats,
    Status,
    ValidationError,
)
from .oracles import brute_force_solve, greedy_solve, kkt_tolerance, verify_kkt
from .rap import SolveTimeout
from .solver import check_feasible, solve, tighten

__all__ = [
    "Family",
    "HullEligibilityError",
    "HullNotApplicableError",
    "Mode",
    "NestedInstance",
    "ObjectiveSpec",
    "Solution",
    "SolveStats",
    "SolveTimeout",
    "Status",
    "ValidationError",
    "active_growth_experiment",
    "brute_force_solve",
    "check_feasible",
    "generate_instance",
    "greedy_solve",
    "hull_solve_instance",
    "kkt_tolerance",
    "lifted_crashing_instance",
    "read_instance",
    "read_solution",
    "solve",
    "tighten",
    "verify_kkt",
    "write_instance",
    "write_solution",
]

__version__ = "0.1.0"
