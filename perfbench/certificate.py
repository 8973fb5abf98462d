"""Optimality certificate for nested-allocation solutions, both variable modes.

The feasible set {lower <= x <= upper, sum(x) = B, prefix sums <= a} is a
box-constrained base polyhedron of a chain of prefix sets, a laminar family.
Over such a set a separable convex objective is minimized exactly when no
single exchange improves it (M-convexity for integers, KKT for reals): moving
mass from variable j to variable i must never lower the cost while it is
feasible. The move is feasible when x_j can decrease, x_i can increase and,
if i < j, every cap between i and j has room. Grouping the variables at the
tight caps, the move is feasible exactly when i's group is j's group or a
later one. So a feasible x is optimal iff in every group the largest
decrease marginal is at most the smallest increase marginal over that group
and all later ones: one vectorized O(n) pass, usable at n = 1e6 where the
pairwise loop of `oracles.verify_kkt` takes about a second.

An infeasible verdict is checked against the latest fill: lower bounds plus
the remaining total packed as far right as the boxes allow. Every allocation
with the right total and boxes has prefix sums at least the fill's, so the
instance is feasible iff the fill meets every cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nested_alloc.model import Mode, NestedInstance, Solution, prefix_sums
from nested_alloc.oracles import kkt_tolerance

# Relative slack on integer unit marginals, which the solver and the greedy
# oracle both compute as differences of objective values.
INT_MARGINAL_RTOL = 1e-9


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""


def _cont_tolerances(inst: NestedInstance, x: np.ndarray, eps: float):
    """The tolerances `verify_kkt` uses at `kkt_tolerance`, so that both
    checks judge a solution by the same standard."""
    tau = kkt_tolerance(inst, x, eps)
    y_tol = max(1e-8 * (1.0 + abs(inst.B)), tau)
    feas_tol = max(1e-9 * (1.0 + abs(inst.B)), y_tol)
    bound_tol = 1e-9 * (1.0 + np.abs(x))
    return tau, y_tol, feas_tol, bound_tol


def fill_feasible(inst: NestedInstance) -> bool:
    """Whether any allocation meets the total, the boxes and the caps."""
    exact = inst.mode is Mode.INTEGER
    tol = 0.0 if exact else 1e-9 * (1.0 + abs(inst.B))
    room = inst.upper - inst.lower
    rest = inst.B - float(inst.lower.sum())
    if rest < -tol:
        return False
    room_after = np.append(np.cumsum(room[::-1])[::-1][1:], 0.0)
    with np.errstate(invalid="ignore"):
        take = np.clip(rest - room_after, 0.0, room)
    if take.sum() < rest - tol:
        return False
    y = prefix_sums(inst, inst.lower + take)[: inst.m - 1]
    return bool(np.all(y <= inst.a + tol))


def certify(inst: NestedInstance, sol: Solution, eps: float | None = None) -> Verdict:
    """Accept an optimal allocation or a confirmed infeasible verdict.

    `eps` is the continuous accuracy the solution was asked for; integer
    solutions must be exact.
    """
    if sol.x is None:
        if fill_feasible(inst):
            return Verdict(False, "reported infeasible, but the latest fill meets every cap")
        return Verdict(True)
    x = np.asarray(sol.x, dtype=np.float64)
    if x.shape != (inst.n,):
        return Verdict(False, f"allocation has shape {x.shape}, expected ({inst.n},)")
    integer = inst.mode is Mode.INTEGER
    if integer:
        if not np.all(x == np.floor(x)):
            return Verdict(False, "integer allocation has fractional entries")
        feas_tol, bound_tol = 0.0, 0.0
    else:
        if eps is None:
            raise ValueError("continuous certificate needs the solve accuracy eps")
        tau, y_tol, feas_tol, bound_tol = _cont_tolerances(inst, x, eps)

    y = prefix_sums(inst, x)
    slack = inst.a - y[: inst.m - 1]
    if abs(y[-1] - inst.B) > feas_tol:
        return Verdict(False, f"total {y[-1]!r} differs from B = {inst.B!r}")
    if np.any(slack < -feas_tol):
        j = int(np.argmin(slack))
        return Verdict(False, f"cap {j + 1} at s = {int(inst.s[j])} exceeded by {-slack[j]!r}")
    if np.any(x < inst.lower - bound_tol) or np.any(x > inst.upper + bound_tol):
        return Verdict(False, "allocation leaves its box")

    idx = np.arange(inst.n)
    obj = inst.objective
    with np.errstate(divide="ignore", invalid="ignore"):
        if integer:
            can_inc = x < inst.upper
            can_dec = x > inst.lower
            fx = obj.value_at(idx, x)
            inc = obj.value_at(idx, x + 1.0) - fx
            dec = fx - obj.value_at(idx, x - 1.0)
        else:
            can_inc = x < inst.upper - bound_tol
            can_dec = x > inst.lower + bound_tol
            inc = dec = obj.derivative_at(idx, x)

    # a cap is tight when it has no room for one more unit (integer) or for
    # more than the accuracy `verify_kkt` grants (continuous); group g holds
    # the variables between the g-th and (g+1)-th tight cap
    tight = slack < 1.0 if integer else slack <= y_tol
    starts = np.concatenate([[0], inst.s[: inst.m - 1][tight]])
    max_dec = np.maximum.reduceat(np.where(can_dec, dec, -np.inf), starts)
    min_inc = np.minimum.reduceat(np.where(can_inc, inc, np.inf), starts)
    min_inc_after = np.minimum.accumulate(min_inc[::-1])[::-1]
    if integer:
        scale = np.fmax(np.abs(max_dec), np.abs(min_inc_after))
        tol = INT_MARGINAL_RTOL * np.where(np.isfinite(scale), scale, 0.0)
    else:
        tol = tau
    with np.errstate(invalid="ignore"):
        bad = max_dec > min_inc_after + tol
    if np.any(bad):
        g = int(np.argmax(bad))
        return Verdict(
            False,
            f"improving exchange in group {g} (from variable {int(starts[g])}): "
            f"decrease marginal {max_dec[g]!r} > increase marginal {min_inc_after[g]!r}",
        )
    return Verdict(True)
