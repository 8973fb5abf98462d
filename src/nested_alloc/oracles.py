"""Independent correctness machinery: greedy and brute-force integer solvers,
a heap greedy for one box-constrained RAP, a single-exchange optimality check
for integer and continuous solutions alike, active-constraint counting.

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
from dataclasses import dataclass

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
            heapq.heappush(heap, (obj.marginal(i, x[i] + 1), i))
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
            heapq.heappush(heap, (obj.marginal(i, x[i] + 1), i))
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
            heapq.heappush(heap, (objective.marginal(i, x[j] + 1.0), j))

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
    """Single-exchange optimality check of a solution, one schema for both
    variable modes.

    `prefix_slacks` holds a_j minus the partial sum at each interior
    breakpoint and `sum_gap` is |sum x - B|. `max_exchange_gap` is the
    largest amount by which a feasible exchange's decrease marginal exceeds
    its increase marginal, 0.0 when none does. `bad_group_start` is the
    0-based first variable of the first group holding an exchange whose gap
    exceeds tau, None when no group does.
    """

    prefix_slacks: np.ndarray
    sum_gap: float
    feasible: bool
    max_exchange_gap: float
    bad_group_start: int | None
    verdict: bool

    @property
    def passed(self) -> bool:
        return self.verdict

    def to_dict(self) -> dict:
        return {
            "prefix_slacks": np.asarray(self.prefix_slacks).tolist(),
            "sum_gap": self.sum_gap,
            "feasible": self.feasible,
            "max_exchange_gap": self.max_exchange_gap,
            "bad_group_start": self.bad_group_start,
            "verdict": self.verdict,
        }


def verify_kkt(inst: NestedInstance, sol: Solution, tau: float) -> KktReport:
    """Check that no single exchange improves a solution, in either mode.

    The feasible set is a box-constrained base polyhedron of a chain, so a
    feasible x is optimal iff no feasible move of mass from a variable j to a
    variable i lowers the cost. The move is feasible when x_j can decrease,
    x_i can increase and, if i < j, every cap between them has room. With
    the variables grouped at the tight caps, that is when i's group is j's
    or a later one. So the check fails when a group's largest decrease
    marginal exceeds, by more than tau, the smallest increase marginal over
    that group and every later one. Continuous solutions are priced by f',
    integer ones by unit marginals: marg(x) down, marg(x + 1) up. A NaN
    marginal never violates.

    Continuous tolerances: caps count as tight, and the partial sums and the
    total as met, within y_tol = max(1e-8 (1 + B), tau); box bounds are
    judged within 1e-9 (1 + |x_i|). Integer solutions take tau for each of
    these and for the integrality of every coordinate.
    """
    integer = inst.mode is Mode.INTEGER
    if not (integer or inst.objective.differentiable):
        raise ValueError("verification needs a derivative")
    if sol.x is None:
        raise ValueError("nothing to verify: solution carries no allocation")
    x = np.asarray(sol.x, dtype=np.float64)
    if integer:
        y_tol = feas_tol = bound_tol = tau
    else:
        y_tol = max(1e-8 * (1.0 + abs(inst.B)), tau)
        feas_tol = max(1e-9 * (1.0 + abs(inst.B)), y_tol)
        bound_tol = 1e-9 * (1.0 + np.abs(x))

    y = prefix_sums(inst, x)
    slacks = inst.a - y[: inst.m - 1]
    sum_gap = float(abs(y[-1] - inst.B))
    # each box end widened or narrowed by bound_tol once, in one buffer, and
    # reduced before the next is built
    end = inst.lower - bound_tol
    in_box = bool(np.all(x >= end))
    can_dec = x > np.add(inst.lower, bound_tol, out=end)
    in_box &= bool(np.all(x <= np.add(inst.upper, bound_tol, out=end)))
    can_inc = x < np.subtract(inst.upper, bound_tol, out=end)
    del end, bound_tol
    feasible = (
        sum_gap <= feas_tol
        and bool(np.all(slacks >= -feas_tol))
        and in_box
        and not (integer and np.any(np.abs(x - np.round(x)) > tau))
    )

    idx = np.arange(inst.n)
    if integer:
        marg = inst.objective.marginal_map(idx)
        dec, inc = marg(x), marg(x + 1.0)
    else:
        dec = inc = inst.objective.derivative_at(idx, x)
    del idx
    # group g runs from starts[g] to the next tight cap; fmax and fmin skip NaN
    starts = np.concatenate([[0], inst.s[: inst.m - 1][slacks <= y_tol]])
    max_dec = np.fmax.reduceat(np.where(can_dec, dec, -np.inf), starts)
    del can_dec, dec
    min_inc = np.fmin.reduceat(np.where(can_inc, inc, np.inf), starts)
    del can_inc, inc
    min_inc = np.fmin.accumulate(min_inc[::-1])[::-1]  # over this group and later
    with np.errstate(invalid="ignore"):
        gap = max_dec - min_inc
    bad = gap > tau
    bad_start = int(starts[np.argmax(bad)]) if bad.any() else None
    return KktReport(
        prefix_slacks=slacks,
        sum_gap=sum_gap,
        feasible=feasible,
        max_exchange_gap=float(np.fmax.reduce(gap, initial=0.0)),
        bad_group_start=bad_start,
        verdict=feasible and bad_start is None,
    )


def count_active_constraints(inst: NestedInstance, x: np.ndarray, tol: float) -> int:
    """Number of interior partial-sum bounds met within tol by the allocation."""
    if inst.m == 1:
        return 0
    y = prefix_sums(inst, x)[: inst.m - 1]
    return int(np.count_nonzero(inst.a - y <= tol))


def kkt_tolerance(inst: NestedInstance, x: np.ndarray | None, eps: float) -> float:
    """Marginal-gap tolerance matched to coordinate accuracy eps: ten times
    the steepest local curvature along the solution; 0.0 for integer
    instances, whose unit marginals are compared exactly."""
    if x is None:
        raise ValueError("nothing to verify: solution carries no allocation")
    if inst.mode is Mode.INTEGER:
        return 0.0
    lip = float(np.max(inst.objective.second_derivative_at(np.arange(inst.n), np.asarray(x))))
    return 10.0 * lip * eps
