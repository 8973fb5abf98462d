"""Decomposition solver: bound tightening, feasibility, level-ordered recursion.

The solve pipeline works on the zero-based form of the instance (variables
shifted down by their lower bounds) for tightening and feasibility, exactly as
the crashing/fuel families reduce to the core model, while the RAP kernels run
in original coordinates with the lower bounds folded into the working boxes.

The recursion splits the block range [v, w] at t = (v + w) // 2, solves both
halves, converts their solutions into per-variable bounds (left half may only
shrink, right half may only grow), and re-solves the merged range as a single
RAP. It is executed iteratively, deepest level first, so that a million-block
instance neither recurses a million frames deep nor pays per-subproblem Python
overhead: all subproblems of one level are disjoint and solved as a batch.
In continuous mode a level keeps its segments' final multipliers, and each
merged segment of the level above gets its two children's as probes that may
bracket its own (`solve_segments_continuous`).

A level keeps alive only what its kernel call reads: the working boxes, the
level's index array, and x where the level does not cover every variable. A
level over every variable reads x only in its merges, before the call, and
takes the kernel's answer as the new x.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .model import (
    Mode,
    NestedInstance,
    Solution,
    SolveStats,
    Status,
    objective_value,
)
from .oracles import count_active_constraints
from .rap import (
    _BREAKPOINT_PHASE_ELEMENTS,
    SolveTimeout,
    _concat_ranges,
    solve_segments_continuous,
    solve_segments_integer,
)


@dataclass
class WorkingBounds:
    """Tightened bounds in the zero-based form.

    `abar` has m+1 entries with abar[0] = 0 and abar[m] = B - sum(lower);
    `dbar` holds the per-variable upper bounds upper - lower (every lower
    bound is 0 there).
    """

    dbar: np.ndarray
    abar: np.ndarray


def tighten(inst: NestedInstance) -> WorkingBounds:
    """Cap the partial-sum bounds by reachable box capacity.

    In the zero-based form: abar[i] = min(abar[i-1] + block capacity, a[i]),
    after first capping each a[i] by every later bound (prefix sums cannot
    decrease, so a bound larger than a later one is slack that only appears
    once lower bounds have been shifted out).
    """
    P = inst.positions
    d_shift = inst.upper - inst.lower
    lower_cum = np.cumsum(inst.lower)  # lower mass through each variable
    a_shift = inst.a - lower_cum[inst.s[:-1] - 1]
    b_shift = inst.B - lower_cum[-1]

    tail = np.append(a_shift, b_shift)
    capped = np.minimum.accumulate(tail[::-1])[::-1][:-1]

    # capacities beyond the total act like the total; the clamp keeps the
    # unrolled recurrence finite under infinite upper bounds
    block_cap = np.minimum(np.add.reduceat(d_shift, P[:-1]), max(b_shift, 0.0))
    # capacity and bound through breakpoint i, with i = 0 (no bound) as 0
    cum_cap = np.concatenate([[0.0], np.cumsum(block_cap)[:-1]])
    bound = np.concatenate([[0.0], capped])
    # unrolled recurrence: abar[i] = min_{j<=i}(bound[j] + cum_cap[i] - cum_cap[j]),
    # read from the latest minimizing j, so a binding bound (j = i) is taken
    # exactly rather than rounded at the spacing of cum_cap, up to m B
    g = bound - cum_cap
    j = np.maximum.accumulate(np.where(g <= np.minimum.accumulate(g), np.arange(inst.m), 0))
    abar = np.append(bound[j] + (cum_cap - cum_cap[j]), b_shift)
    return WorkingBounds(dbar=d_shift, abar=abar)


def check_feasible(inst: NestedInstance, wb: WorkingBounds) -> bool:
    """Feasibility after tightening: every suffix must be able to carry the
    resource left over by the tightened prefix bound, and the tightened
    bounds must still ascend (they cannot when lower bounds alone overshoot
    some partial-sum bound). Comparisons carry a round-off allowance."""
    tol = 1e-9 * (1.0 + abs(wb.abar[-1]))
    if np.any(np.diff(wb.abar) < -tol):
        return False
    P = inst.positions
    suffix = np.concatenate([np.cumsum(wb.dbar[::-1])[::-1], [0.0]])[P[:-1]]
    return not np.any(suffix < wb.abar[-1] - wb.abar[:-1] - tol)


def _build_levels(m: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per-depth (v, w) block ranges of the midpoint-split recursion tree,
    deepest first, 1 + ceil(log2 m) depths, each built when it is asked for.

    A range of s blocks splits into ceil(s / 2) and floor(s / 2), so the
    ranges of one depth differ in size by at most one. Above the first depth
    whose ranges hold at most two blocks every range splits, and each depth
    is the pairwise merge of the one below; the deepest depth holds the
    single blocks of that depth's two-block ranges. The depths down to it are
    built from the root and dropped, and no depth is kept once the one above
    it is built.
    """
    v, w = np.array([1], dtype=np.int64), np.array([m], dtype=np.int64)
    while np.any(w - v > 1):
        t = (v + w) // 2
        v, w = np.stack([v, t + 1], axis=1).ravel(), np.stack([t, w], axis=1).ravel()
        del t
    # the suspended generator keeps its locals: none but v and w outlive a yield
    leaves = v[v < w]
    if leaves.size:
        leaves = np.stack([leaves, leaves + 1], axis=1).ravel()
        yield leaves, leaves
    del leaves
    while True:
        yield v, w
        if v.size == 1:
            return
        v, w = v[0::2].copy(), w[1::2].copy()  # copies: no view keeps the depth below


def solve(
    inst: NestedInstance,
    eps: float | None = None,
    time_limit_s: float | None = None,
) -> tuple[Solution, SolveStats]:
    """Optimal integer or eps-accurate continuous solution with statistics.

    Continuous mode solves each subproblem to eps / levels so that bound
    transfers between levels cannot accumulate more than eps overall.
    A time limit must be > 0; NaN, zero and negative limits are refused.
    """
    if time_limit_s is not None and not time_limit_s > 0:
        raise ValueError(f"need time_limit_s > 0, got {time_limit_s}")
    t0 = time.perf_counter()
    deadline = None if time_limit_s is None else t0 + time_limit_s
    if inst.mode is Mode.CONTINUOUS:
        if eps is None or eps <= 0:
            raise ValueError("continuous mode needs eps > 0")
        if not inst.objective.differentiable:
            raise ValueError("continuous mode needs a differentiable objective")
    stats = SolveStats()

    wb = tighten(inst)
    if not check_feasible(inst, wb):
        stats.wall_ms = (time.perf_counter() - t0) * 1e3
        return Solution(None, math.nan, Status.INFEASIBLE, eps), stats
    abar = np.maximum.accumulate(wb.abar)  # iron out round-off dips
    del wb  # the levels read abar alone

    n_levels = 1 + (inst.m - 1).bit_length()
    stats.recursion_levels = n_levels
    eps_sub = None if eps is None else eps / n_levels

    P = inst.positions
    # lower mass before each block boundary: lower_cum[j] = sum(lower[:P[j]])
    lower_cum = np.concatenate([[0.0], np.cumsum(inst.lower)[P[1:] - 1]])
    cb = inst.lower.copy()
    db = inst.upper.copy()
    x = np.zeros(inst.n)
    every = None  # the index array of a level over every variable, made once
    lam = None  # the final multipliers of the last level's segments, or None
    levels = _build_levels(inst.m)
    above = next(levels)  # the deepest level, solved first

    for depth in range(n_levels - 1, -1, -1):
        v, w = above
        above = next(levels, None)  # the level above this one, None above the root
        merge = v < w
        if merge.any():
            mv, mw = v[merge], w[merge]
            t = (mv + mw) // 2
            # one half's index array at a time; nothing of the merge is left
            # for the kernel call
            half = _concat_ranges(P[mv - 1], P[t])
            cb[half] = inst.lower[half]
            db[half] = x[half]
            half = _concat_ranges(P[t], P[mw])
            cb[half] = x[half]
            db[half] = inst.upper[half]
            del half, mv, mw, t

        starts, ends = P[v - 1], P[w]
        # targets in original coordinates: shifted block budget plus lower mass
        targets = (abar[w] - abar[v - 1]) + (lower_cum[w] - lower_cum[v - 1])
        offsets = np.concatenate([[0], np.cumsum(ends - starts)])
        if offsets[-1] == inst.n:
            # a level over every variable: the kernel reads views of the
            # boxes, and its answer replaces all of x, which only the merges
            # above read, so x is not kept through the call
            if every is None:
                every = np.arange(inst.n)
            e_idx, at, x = every, slice(None), None
        else:
            e_idx = at = _concat_ranges(starts, ends)
        del starts, ends  # the kernel reads offsets and targets
        box_lo, box_hi = cb[at], db[at]
        if inst.mode is Mode.CONTINUOUS:
            # a merged segment may start from its two children's final
            # multipliers, which the level below left in `lam`, two per merge
            probes = None
            if lam is not None:
                probes = np.full((v.size, 2), np.nan)
                probes[merge] = lam.reshape(-1, 2)
            # only a segment as large as the kernel's gate takes probes, so
            # multipliers are kept where the next level up holds one
            lam = None
            if above is not None and inst.n >= _BREAKPOINT_PHASE_ELEMENTS:
                up_v, up_w = above
                if np.max(P[up_w] - P[up_v - 1]) >= _BREAKPOINT_PHASE_ELEMENTS:
                    lam = np.empty(v.size)
            vals = solve_segments_continuous(
                inst.objective, e_idx, box_lo, box_hi, offsets, targets, eps_sub, deadline, stats,
                probes=probes, lam_out=lam,
            )
        else:
            vals = solve_segments_integer(
                inst.objective, e_idx, box_lo, box_hi, offsets, targets, deadline, stats
            )
        inside = (vals >= box_lo - 1e-9) & (vals <= box_hi + 1e-9)
        if not inside.all():  # NaN counts as outside, and as the worst
            excess = np.where(inside, -np.inf, np.maximum(box_lo - vals, vals - box_hi))
            k = int(np.argmax(excess))
            raise RuntimeError(
                f"kernel left the working box at depth {depth}: x[{int(e_idx[k])}] = "
                f"{float(vals[k])} lies outside [{float(box_lo[k])}, {float(box_hi[k])}] "
                f"by {float(excess[k])}"
            )
        if x is None:
            x = vals  # a fresh array from the kernel
        else:
            x[at] = vals
        # nothing else of this level is read again
        del vals, inside, box_lo, box_hi, e_idx, at
        stats.rap_calls += int(v.size)
        if deadline is not None and time.perf_counter() > deadline:
            raise SolveTimeout("time limit exceeded")

    tol = 0.0 if inst.mode is Mode.INTEGER else active_tolerance(inst, eps)
    stats.active_constraints = count_active_constraints(inst, x, tol)
    sol = Solution(x, objective_value(inst, x), Status.OPTIMAL, eps)
    stats.wall_ms = (time.perf_counter() - t0) * 1e3
    return sol, stats


def active_tolerance(inst: NestedInstance, eps: float) -> float:
    """Slack threshold for counting a prefix bound as active: generous
    against accumulated per-coordinate error, still far under typical
    inter-bound spacing."""
    return max(1e-9, min(1e-4, 10.0 * inst.n * eps))
