"""Independent correctness machinery: greedy and brute-force integer solvers,
a heap greedy for one box-constrained RAP, first-order optimality
verification, active-constraint counting.

The greedy solver allocates one unit at a time to the variable with the
cheapest marginal cost among those that can still be incremented without
breaking a partial-sum bound or a box bound, lowest index on ties; a blocked
variable never becomes incrementable again, so it leaves the candidate set for
good. The brute force is a dynamic program over (variable, consumed resource)
that enforces each partial-sum bound at its breakpoint. Both exist to
cross-check the decomposition solver, not to be fast.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    Mode,
    NestedInstance,
    Solution,
    Status,
    objective_value,
    prefix_sums,
)


def _require_integer_mode(inst: NestedInstance, who: str):
    if inst.mode is not Mode.INTEGER:
        raise ValueError(f"{who} only handles integer instances")


def greedy_solve(inst: NestedInstance) -> Solution:
    """Optimal integer solution by unit increments of least marginal cost."""
    _require_integer_mode(inst, "greedy_solve")
    x = inst.lower.copy()
    remaining = int(round(inst.B - x.sum()))
    # slack of each interior bound at the starting point
    y0 = prefix_sums(inst, x)[: inst.m - 1]
    slacks = inst.a - y0
    if remaining < 0 or np.any(slacks < 0):
        return Solution(None, math.nan, Status.INFEASIBLE)

    # block index (1-based) of every variable; constraint j >= block contains it
    blocks = np.searchsorted(inst.s, np.arange(1, inst.n + 1), side="left") + 1
    obj = inst.objective
    heap = []
    for i in range(inst.n):
        if x[i] < inst.upper[i]:
            heapq.heappush(heap, (obj.value(i, x[i] + 1) - obj.value(i, x[i]), i))
    while remaining > 0 and heap:
        _, i = heapq.heappop(heap)
        j0 = blocks[i] - 1  # first interior constraint containing i, 0-based
        if j0 < inst.m - 1 and slacks[j0:].min() < 1:
            continue  # increment infeasible now, hence forever: drop i
        x[i] += 1
        remaining -= 1
        if j0 < inst.m - 1:
            slacks[j0:] -= 1
        if x[i] < inst.upper[i]:
            heapq.heappush(heap, (obj.value(i, x[i] + 1) - obj.value(i, x[i]), i))
    if remaining > 0:
        return Solution(None, math.nan, Status.INFEASIBLE)
    return Solution(x, objective_value(inst, x), Status.OPTIMAL)


def brute_force_solve(inst: NestedInstance, max_n: int = 12, max_b: int = 40) -> Solution:
    """Exact integer optimum by dynamic programming over prefix consumption.

    Guard-railed to oracle scale. Ties break toward the lexicographically
    smallest allocation.
    """
    _require_integer_mode(inst, "brute_force_solve")
    if inst.n > max_n or inst.B > max_b:
        raise ValueError(f"oracle guard: need n <= {max_n} and B <= {max_b}")
    n, B = inst.n, int(inst.B)
    obj = inst.objective
    # cap[i] = largest allowed consumption after variable i (0-based)
    cap = np.full(n, B)
    for j in range(inst.m - 1):
        cap[inst.s[j] - 1] = min(cap[inst.s[j] - 1], int(inst.a[j]))

    # suffix[i][y] = least cost of variables i..n-1 given y consumed before i
    suffix = np.full((n + 1, B + 1), math.inf)
    suffix[n][B] = 0.0
    costs = []
    for i in range(n):
        lo, hi = int(inst.lower[i]), int(min(inst.upper[i], B))
        ts = np.arange(lo, max(lo, hi) + 1, dtype=np.float64)
        costs.append(obj.value_at(np.full(ts.shape, i), ts))
    for i in range(n - 1, -1, -1):
        lo, hi = int(inst.lower[i]), int(min(inst.upper[i], B))
        y_cap = int(min(cap[i], B))
        for t in range(lo, hi + 1):
            y_hi = y_cap - t
            if y_hi < 0:
                break
            cand = costs[i][t - lo] + suffix[i + 1][t : t + y_hi + 1]
            np.minimum(suffix[i][: y_hi + 1], cand, out=suffix[i][: y_hi + 1])
    if not math.isfinite(suffix[0][0]):
        return Solution(None, math.nan, Status.INFEASIBLE)

    x = np.zeros(n)
    y = 0
    for i in range(n):
        lo, hi = int(inst.lower[i]), int(min(inst.upper[i], B))
        y_cap = int(min(cap[i], B))
        for t in range(lo, hi + 1):
            if y + t <= y_cap and costs[i][t - lo] + suffix[i + 1][y + t] == suffix[i][y]:
                x[i] = t
                y += t
                break
        else:  # pragma: no cover - DP table guarantees a witness
            raise AssertionError("reconstruction failed")
    return Solution(x, objective_value(inst, x), Status.OPTIMAL)


def rap_integer_greedy(objective, idx, c, d, target) -> np.ndarray:
    """Integer optimum of one RAP (sum x = target, c <= x <= d over the
    variables `idx` of `objective`) by a heap greedy: one unit at a time to
    the cheapest marginal, lowest position on ties. `solve_segments_integer`
    must return this allocation bit for bit."""
    x = np.array(c, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    for name, arr in (("c", x), ("d", d)):
        if not np.all(arr == np.floor(arr)):
            raise ValueError(f"integer RAP needs integral {name}")
    if target != math.floor(target):
        raise ValueError("integer RAP needs an integral target")
    remaining = int(round(target - x.sum()))
    heap = []

    def push(j):
        if x[j] < d[j]:
            i = int(idx[j])
            heapq.heappush(heap, (objective.value(i, x[j] + 1.0) - objective.value(i, x[j]), j))

    for j in range(x.size):
        push(j)
    while remaining > 0 and heap:
        _, j = heapq.heappop(heap)
        x[j] += 1.0
        remaining -= 1
        push(j)
    if remaining > 0:
        raise ValueError("infeasible RAP: box capacity exhausted")
    return x


@dataclass
class KktReport:
    """First-order optimality check of a continuous solution.

    `max_within_block_gap` is the largest marginal-cost mismatch between
    adjacent free variables inside a block; `boundary_violations` lists
    breakpoint positions s[i] where neither an equal marginal nor an active
    bound explains a marginal jump; `box_pair_violations` lists within-block
    positions whose one-sided bound conditions fail.
    """

    max_within_block_gap: float
    boundary_violations: list[int]
    prefix_slacks: np.ndarray
    verdict: bool
    box_pair_violations: list[int] = field(default_factory=list)
    feasible: bool = True
    sum_gap: float = 0.0

    @property
    def passed(self) -> bool:
        return self.verdict

    def to_dict(self) -> dict:
        return {
            "max_within_block_gap": self.max_within_block_gap,
            "boundary_violations": self.boundary_violations,
            "prefix_slacks": np.asarray(self.prefix_slacks).tolist(),
            "verdict": self.verdict,
            "box_pair_violations": self.box_pair_violations,
            "feasible": self.feasible,
            "sum_gap": self.sum_gap,
        }


def verify_kkt(
    inst: NestedInstance,
    sol: Solution,
    tau: float,
    y_tol: float | None = None,
    bound_tol: float | None = None,
) -> KktReport:
    """Check the equal-marginal conditions of a continuous solution.

    Inside a block every free adjacent pair must share its marginal within
    tau; pairs involving an active box bound degrade to the one-sided
    inequality the bound multiplier allows. Across a breakpoint the left
    marginal may drop below the right one only when that partial-sum bound is
    active (within y_tol).
    """
    if not inst.objective.differentiable:
        raise ValueError("verification needs a derivative")
    if sol.x is None:
        raise ValueError("nothing to verify: solution carries no allocation")
    x = np.asarray(sol.x, dtype=np.float64)
    if y_tol is None:
        y_tol = max(1e-8 * (1.0 + abs(inst.B)), tau)
    if bound_tol is None:
        bound_tol = 1e-9 * (1.0 + np.abs(x))

    y = prefix_sums(inst, x)
    slacks = inst.a - y[: inst.m - 1]
    sum_gap = float(abs(y[-1] - inst.B))
    feas_tol = 1e-9 * (1.0 + abs(inst.B))
    feasible = (
        sum_gap <= max(feas_tol, y_tol)
        and bool(np.all(slacks >= -max(feas_tol, y_tol)))
        and bool(np.all(x >= inst.lower - bound_tol))
        and bool(np.all(x <= inst.upper + bound_tol))
    )

    g = inst.objective.derivative_at(np.arange(inst.n), x)
    at_lo = x <= inst.lower + bound_tol
    at_hi = x >= inst.upper - bound_tol
    free = ~at_lo & ~at_hi

    # multiplier range visible through each variable: free pins it, an active
    # bound leaves one side open
    lam_min = np.where(at_lo, -np.inf, g)  # lam >= lam_min
    lam_max = np.where(at_hi, np.inf, g)  # lam <= lam_max

    # one pass over the adjacent pairs (j, j+1), indexed by the left j
    left = inst.s[: inst.m - 1] - 1  # 0-based left index of each interior breakpoint
    is_boundary = np.zeros(inst.n - 1, dtype=bool)
    is_boundary[left] = True
    active = np.zeros(inst.n - 1, dtype=bool)
    active[left] = slacks <= y_tol
    both_free = free[:-1] & free[1:]
    # inf - inf at poles gives NaN: a NaN gap is never counted, a NaN side
    # never violates
    with np.errstate(invalid="ignore"):
        # v1: the left multiplier exceeds the right one; v2: the right the left
        v1 = lam_min[:-1] > lam_max[1:] + tau
        v2 = lam_min[1:] > lam_max[:-1] + tau
        gap = np.abs(g[:-1] - g[1:])

    # across a breakpoint the left multiplier may never exceed the right one;
    # a tight bound allows an upward jump, an inactive one pins both sides
    boundary_bad = is_boundary & (v1 | (~active & v2))
    # inside a block free pairs share a marginal, a pair at a bound keeps
    # the one-sided inequality its bound multiplier allows
    box_bad = ~is_boundary & np.where(both_free, gap > tau, v1 | v2)
    counted = both_free & (~is_boundary | ~(v1 | active))
    max_gap = float(gap[counted & ~np.isnan(gap)].max(initial=0.0))
    boundary_violations = (np.flatnonzero(boundary_bad) + 1).tolist()  # 1-based s[i]
    box_violations = (np.flatnonzero(box_bad) + 1).tolist()

    verdict = feasible and max_gap <= tau and not boundary_violations and not box_violations
    return KktReport(
        max_within_block_gap=max_gap,
        boundary_violations=boundary_violations,
        prefix_slacks=slacks,
        verdict=verdict,
        box_pair_violations=box_violations,
        feasible=feasible,
        sum_gap=sum_gap,
    )


def count_active_constraints(inst: NestedInstance, x: np.ndarray | Solution, tol: float) -> int:
    """Number of interior partial-sum bounds met within tol by the allocation."""
    if isinstance(x, Solution):
        x = x.x
    if inst.m == 1:
        return 0
    y = prefix_sums(inst, x)[: inst.m - 1]
    return int(np.count_nonzero(inst.a - y <= tol))


def kkt_tolerance(inst: NestedInstance, x: np.ndarray, eps: float) -> float:
    """Marginal-gap tolerance matched to coordinate accuracy eps: ten times
    the steepest local curvature along the solution."""
    lip = float(np.max(inst.objective.second_derivative_at(np.arange(inst.n), np.asarray(x))))
    return 10.0 * lip * eps
