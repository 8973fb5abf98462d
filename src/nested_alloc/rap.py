"""Kernels for the box-constrained single-equality subproblem (RAP).

A RAP asks for min sum(f_i(x_i)) subject to sum(x_i) = R and c <= x <= d on a
contiguous slice of variables. The continuous kernel runs an Illinois
multiplier search with a bisection budget on the multiplier of the coupling
constraint: x_i(lam) = clamp(inv(f'_i)(lam), c_i, d_i) is nondecreasing in
lam, so the bracket [lam_lo, lam_hi] with sum(x(lam_lo)) <= R <= sum(x(lam_hi))
narrows until every coordinate is pinned to within the requested accuracy,
after which the residual R - sum(x(lam_lo)) is distributed in index order
inside the per-coordinate brackets. A step tries the regula falsi point of the
excess sum(x) - R at the two ends, and the excess kept at an end that stays put
twice in a row is halved (Illinois). It takes the midpoint instead when that
point leaves the open bracket or is not finite, or when the bracket is wider
than four times what plain bisection would have left after as many steps, so
no bracket ever falls more than three halvings behind bisection. Calls too
small for the interpolation to pay for its bookkeeping bisect. Both bracket
ends and every step evaluate x(lam) through the objective's inverse map
(`ObjectiveSpec.inverse_map`), built once per call and again after each
compaction, so per-variable constants are gathered once and the work that
depends on lam alone runs per segment; CUSTOM objectives, which have no map,
invert f' by inner bisection. A search that still has open segments after
`max_iter` steps raises instead of returning an unconverged point. The integer
kernel runs the same search over unit marginal costs f_i(t) - f_i(t-1). It
keeps the unit allocations at both bracket ends, so each step searches only
between them, and stops once they differ by at most one unit per element (or
the bracket ends are adjacent doubles). The few residual units then go out in
greedy order, ascending marginal with the lowest index first, the order in
which the heap greedy oracle `oracles.rap_integer_greedy` hands them out one at
a time.

All kernels operate on many disjoint segments at once: `offsets` delimits
segments inside compact arrays, and `idx` maps compact positions to variable
indices of the owning objective. Both kernels gather their open segments into
compact arrays with `_select_segments`, and the continuous kernel uses it again
to finish converged segments and to drop them from the working set. Given a
`SolveStats`, a kernel adds its multiplier steps to `kernel_steps` and its
per-element objective evaluations to `kernel_evals`.
"""

from __future__ import annotations

import time

import numpy as np

from .model import ObjectiveSpec, SolveStats


class SolveTimeout(RuntimeError):
    """Cooperative time-limit cutoff raised from inside a kernel loop."""


# When the continuous kernel interpolates. An Illinois step costs about 10 us
# of extra NumPy calls plus 18 ns per open segment (2 cores, NumPy 2.4), and
# saves about half the multiplier steps of each element it serves, whose
# evaluation costs 10 ns (f, f-uniform) to 35 ns (fuelopt) per step. At the
# cheapest evaluation it pays once open elements >= 2000 + 4 * open segments
# (10 us / (0.5 * 10 ns) and 18 ns / (0.5 * 10 ns)); smaller calls, such as
# whole solves at n = 1000 or levels of two-element segments, bisect.
_ILLINOIS_MIN_ELEMENTS = 2000
_ILLINOIS_ELEMENTS_PER_SEGMENT = 4


def _concat_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenated aranges [starts[k], ends[k]) without a Python loop."""
    lengths = ends - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    base = np.repeat(starts - np.concatenate([[0], np.cumsum(lengths)[:-1]]), lengths)
    return np.arange(total, dtype=np.int64) + base


def _select_segments(keep, offsets, *arrays):
    """Compact the segments flagged in `keep` out of a segmented layout.

    Returns the kept elements' positions in the layout, the compact layout's
    offsets and element-to-segment map, and each per-element array of
    `arrays` gathered at those positions.
    """
    starts, ends = offsets[:-1][keep], offsets[1:][keep]
    pos = _concat_ranges(starts, ends)
    lengths = ends - starts
    seg_off = np.concatenate([[0], np.cumsum(lengths)])
    seg_of = np.repeat(np.arange(lengths.size), lengths)
    return pos, seg_off, seg_of, [a[pos] for a in arrays]


def _segment_fill(lo, gaps, offsets, residuals, seg_of):
    """Distribute per-segment residuals into per-element gaps, index order."""
    cg = np.cumsum(gaps)
    seg_base = cg[offsets[:-1]] - gaps[offsets[:-1]]
    before = (cg - seg_base[seg_of]) - gaps  # gap mass strictly before each element
    take = np.clip(residuals[seg_of] - before, 0.0, gaps)
    return lo + take


def _clamped_inverse(obj, idx, lam_e, lo, hi):
    x = obj.inverse_derivative_at(idx, lam_e)
    if x is None:  # custom objective: invert f' by inner bisection
        x = _bisect_inverse(obj, idx, lam_e, lo, hi)
    x = np.maximum(x, lo)
    return np.minimum(x, hi, out=x)


def _bisect_inverse(obj, idx, lam_e, lo, hi, iters: int = 80):
    a = lo.copy()
    b = np.where(np.isfinite(hi), hi, np.maximum(lo, 1.0) * 2.0**40)
    for _ in range(iters):
        mid = 0.5 * (a + b)
        up = obj.derivative_at(idx, mid) <= lam_e
        a = np.where(up, mid, a)
        b = np.where(up, b, mid)
    return a


def _bracket_segments(obj, idx, lo, hi, offsets, targets, stats=None):
    stats = SolveStats() if stats is None else stats
    starts = offsets[:-1]
    free = hi > lo
    stats.kernel_evals += 2 * idx.size
    with np.errstate(divide="ignore", invalid="ignore"):
        d_lo = obj.derivative_at(idx, lo)
        d_hi = obj.derivative_at(idx, hi)
    lam_lo = np.minimum.reduceat(np.where(free, d_lo, np.inf), starts)
    lam_hi = np.maximum.reduceat(np.where(free, d_hi, -np.inf), starts)
    bad = ~np.isfinite(lam_lo) | ~np.isfinite(lam_hi)
    if np.any(bad):
        # pole or unbounded box at a bracket end: pass the bracket through a
        # strictly interior feasible point instead (room capped by the
        # residual keeps the arithmetic finite under infinite upper bounds)
        seg_of = np.repeat(np.arange(len(targets)), np.diff(offsets))
        resid = targets - np.add.reduceat(lo, starts)
        room = np.minimum(hi - lo, np.maximum(resid, 0.0)[seg_of])
        cap = np.add.reduceat(room, starts)
        share = np.where(cap > 0, resid / np.where(cap > 0, cap, 1.0), 0.0)
        x_f = lo + room * share[seg_of]
        d_f = obj.derivative_at(idx, x_f)
        stats.kernel_evals += idx.size
        lam_lo = np.where(bad, np.minimum.reduceat(np.where(free, d_f, np.inf), starts), lam_lo)
        lam_hi = np.where(bad, np.maximum.reduceat(np.where(free, d_f, -np.inf), starts), lam_hi)
    return lam_lo, lam_hi


def _fast_paths(lo, hi, offsets, targets):
    """Classify segments solvable without multiplier search.

    Returns (x, open_mask): x filled for closed segments, NaN elsewhere.
    """
    starts = offsets[:-1]
    lengths = np.diff(offsets)
    sum_lo = np.add.reduceat(lo, starts)
    sum_hi = np.add.reduceat(hi, starts)
    x = np.full(lo.shape, np.nan)
    seg_of = np.repeat(np.arange(len(targets)), lengths)
    at_lo = targets <= sum_lo
    at_hi = targets >= sum_hi
    single = lengths == 1
    closed = at_lo | at_hi | single
    m_lo = at_lo[seg_of]
    m_hi = (~at_lo & at_hi)[seg_of]
    m_single = (~at_lo & ~at_hi & single)[seg_of]
    x[m_lo] = lo[m_lo]
    x[m_hi] = hi[m_hi]
    x[m_single] = np.clip(targets[seg_of[m_single]], lo[m_single], hi[m_single])
    return x, ~closed


def _check_deadline(deadline):
    if deadline is not None and time.perf_counter() > deadline:
        raise SolveTimeout("time limit exceeded")


def solve_segments_continuous(
    obj: ObjectiveSpec,
    idx: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    offsets: np.ndarray,
    targets: np.ndarray,
    eps_x: float,
    deadline: float | None = None,
    stats: SolveStats | None = None,
    max_iter: int = 2400,  # above the float-lattice halving depth plus the
    # budget's three halvings, so the adjacent-value detector is what
    # actually ends pathological brackets
) -> np.ndarray:
    """Solve every segment to per-coordinate accuracy eps_x with exact sums.

    Raises RuntimeError if segments are still open after max_iter steps.
    """
    x_out, open_seg = _fast_paths(lo, hi, offsets, targets)
    if not open_seg.any():
        return x_out
    if stats is None:
        stats = SolveStats()

    out_pos, seg_off, seg_of, (e_idx, e_lo, e_hi) = _select_segments(open_seg, offsets, idx, lo, hi)
    seg_tgt = targets[open_seg]
    inv = obj.inverse_map(e_idx)

    def x_at(lam):
        """Clamped x(lam) of every open element, lam given per segment."""
        stats.kernel_evals += e_idx.size
        if inv is None:  # custom objective: invert f' by inner bisection
            return _clamped_inverse(obj, e_idx, lam[seg_of], e_lo, e_hi)
        x = inv(lam, seg_of)
        np.maximum(x, e_lo, out=x)
        return np.minimum(x, e_hi, out=x)

    lam_lo, lam_hi = _bracket_segments(obj, e_idx, e_lo, e_hi, seg_off, seg_tgt, stats)
    # allocations at the bracket ends, kept in step with every move of an end
    x_l = x_at(lam_lo)
    x_h = x_at(lam_hi)
    illinois = e_idx.size >= _ILLINOIS_MIN_ELEMENTS + _ILLINOIS_ELEMENTS_PER_SEGMENT * seg_tgt.size
    if illinois:
        # excess sum - target at each bracket end, and the bracket width the
        # bisection budget allows (4x what plain halving would have left)
        f_lo = np.add.reduceat(x_l, seg_off[:-1]) - seg_tgt
        f_hi = np.add.reduceat(x_h, seg_off[:-1]) - seg_tgt
        max_width = 4.0 * (lam_hi - lam_lo)

    def finalize(sel):
        """Repair converged segments: fill residual gaps in index order."""
        pos, sub_off, sub_of, (xl, xh) = _select_segments(sel, seg_off, x_l, x_h)
        resid = seg_tgt[sel] - np.add.reduceat(xl, sub_off[:-1])
        gaps = xh - xl
        x = _segment_fill(xl, gaps, sub_off, resid, sub_of)
        leftover = seg_tgt[sel] - np.add.reduceat(x, sub_off[:-1])
        big = np.abs(leftover) > eps_x * np.diff(sub_off)
        if np.any(big):
            # flat-marginal segment: any feasible point is optimal there, so
            # restart from the floor and spread the budget uniformly
            np.copyto(x, e_lo[pos], where=big[sub_of])
            budget = seg_tgt[sel] - np.add.reduceat(x, sub_off[:-1])
            x = _waterfill(x, e_hi[pos], sub_off, budget, big)
        x_out[out_pos[pos]] = x

    it = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            lam = 0.5 * (lam_lo + lam_hi)
            stuck = (lam <= lam_lo) | (lam >= lam_hi)  # float resolution exhausted
            if illinois:
                # regula falsi point; the midpoint stays when it leaves the
                # open bracket, is not finite, or the bracket is over budget
                width = lam_hi - lam_lo
                prop = lam_lo - f_lo * width / (f_hi - f_lo)
                ok = (prop > lam_lo) & (prop < lam_hi) & (width <= max_width)
                np.copyto(lam, prop, where=ok)
                max_width *= 0.5
            xm = x_at(lam)
            f = np.add.reduceat(xm, seg_off[:-1]) - seg_tgt
            live = ~stuck
            move_hi = (f >= 0.0) & live
            move_lo = live ^ move_hi
            np.copyto(lam_hi, lam, where=move_hi)
            np.copyto(lam_lo, lam, where=move_lo)
            np.copyto(x_h, xm, where=move_hi[seg_of])
            np.copyto(x_l, xm, where=move_lo[seg_of])
            if illinois:
                # Illinois: when an end moves twice in a row, the excess
                # kept at the other end is halved
                if it:
                    again = move_hi == last_hi
                    np.multiply(f_lo, 0.5, out=f_lo, where=again)
                    np.multiply(f_hi, 0.5, out=f_hi, where=again)
                np.copyto(f_hi, f, where=move_hi)
                np.copyto(f_lo, f, where=move_lo)
                last_hi = move_hi
            it += 1
            if it % 8 == 0:
                _check_deadline(deadline)
            gap = np.maximum.reduceat(x_h - x_l, seg_off[:-1])
            done = (gap <= eps_x) | stuck
            n_done = np.count_nonzero(done)
            if n_done == seg_tgt.size:
                finalize(np.ones(seg_tgt.size, dtype=bool))
                stats.kernel_steps += it
                return x_out
            if it >= max_iter:
                raise RuntimeError(
                    f"multiplier search left {seg_tgt.size - n_done} segments open after "
                    f"{it} steps; widest x-gap {float(gap[~done].max())} > eps_x {eps_x}"
                )
            if n_done * 2 >= seg_tgt.size:
                # retire finished segments and compact the working set
                finalize(done)
                keep = ~done
                _, seg_off, seg_of, (out_pos, e_idx, e_lo, e_hi, x_l, x_h) = _select_segments(
                    keep, seg_off, out_pos, e_idx, e_lo, e_hi, x_l, x_h
                )
                seg_tgt = seg_tgt[keep]
                inv = obj.inverse_map(e_idx)
                lam_lo = lam_lo[keep]
                lam_hi = lam_hi[keep]
                if illinois:
                    f_lo = f_lo[keep]
                    f_hi = f_hi[keep]
                    max_width = max_width[keep]
                    last_hi = last_hi[keep]


def _waterfill(x, hi, offsets, leftover, which):
    """Uniformly absorb per-segment leftovers into remaining capacity."""
    for k in np.flatnonzero(which):
        s, e = offsets[k], offsets[k + 1]
        resid = leftover[k]
        xs = x[s:e].copy()
        for _ in range(64):
            room = hi[s:e] - xs
            active = room > 0
            if resid <= 0 or not active.any():
                break
            share = resid / active.sum()
            add = np.minimum(np.where(active, share, 0.0), room)
            xs += add
            resid -= add.sum()
        x[s:e] = xs
    return x


def _unit_marginal(obj, idx, t, stats):
    """Cost of unit t: f(t) - f(t - 1), as the heap greedy prices it."""
    stats.kernel_evals += idx.size
    return obj.value_at(idx, t) - obj.value_at(idx, t - 1.0)


def _int_alloc(obj, idx, tl, th, lam_e, stats):
    """Largest integer t in [tl, th] whose unit marginal stays <= lam, given
    that unit tl already qualifies (or is the box floor). Converged elements
    drop out of the halving, so each step evaluates only the open ones."""
    tl = tl.copy()
    th = th.copy()
    k = np.flatnonzero(tl < th)
    while k.size:
        a, b, i = tl[k], th[k], idx[k]
        tm = np.floor((a + b + 1.0) * 0.5)
        ok = _unit_marginal(obj, i, tm, stats) <= lam_e[k]
        tl[k] = np.where(ok, tm, a)
        th[k] = np.where(ok, b, tm - 1.0)
        k = k[tl[k] < th[k]]
    return tl


def solve_segments_integer(
    obj: ObjectiveSpec,
    idx: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    offsets: np.ndarray,
    targets: np.ndarray,
    deadline: float | None = None,
    stats: SolveStats | None = None,
) -> np.ndarray:
    """Exact integer optimum per segment, greedy-equivalent tie-breaking.

    Bisects each segment's multiplier bracket [lam_lo, lam_hi] while keeping
    x_l = x(lam_lo) and x_h = x(lam_hi); x is monotone in lam, so a midpoint
    only searches [x_l, x_h]. A segment stops once every x_h - x_l <= 1 or
    its bracket ends are adjacent doubles. Its residual units all have
    marginals in (lam_lo, lam_hi] and go out in greedy order: ascending
    next-unit marginal, lowest index first. At adjacent doubles those
    marginals are all equal, so that order is plain index order.
    """
    x_out, open_seg = _fast_paths(lo, hi, offsets, targets)
    if not open_seg.any():
        return x_out
    if stats is None:
        stats = SolveStats()

    out_pos, seg_off, seg_of, (e_idx, e_lo, e_hi) = _select_segments(open_seg, offsets, idx, lo, hi)
    seg_tgt = targets[open_seg]
    starts = seg_off[:-1]

    free = e_hi > e_lo
    first = _unit_marginal(obj, e_idx, e_lo + 1.0, stats)
    last = _unit_marginal(obj, e_idx, e_hi, stats)
    # x(lam_lo) = e_lo and x(lam_hi) = e_hi without evaluating anything
    lam_lo = np.nextafter(np.minimum.reduceat(np.where(free, first, np.inf), starts), -np.inf)
    lam_hi = np.maximum.reduceat(np.where(free, last, -np.inf), starts)
    x_l = e_lo.copy()
    x_h = e_hi.copy()

    it = 0
    while True:
        lam = 0.5 * (lam_lo + lam_hi)
        stuck = (lam <= lam_lo) | (lam >= lam_hi)  # adjacent doubles
        live = ~stuck & (np.maximum.reduceat(x_h - x_l, starts) > 1.0)
        if not live.any():
            break
        work = np.flatnonzero(live[seg_of] & (x_h > x_l))
        xm = x_l.copy()
        xm[work] = _int_alloc(obj, e_idx[work], x_l[work], x_h[work], lam[seg_of[work]], stats)
        ge = np.add.reduceat(xm, starts) >= seg_tgt
        move_hi = live & ge
        move_lo = live & ~ge
        lam_hi = np.where(move_hi, lam, lam_hi)
        lam_lo = np.where(move_lo, lam, lam_lo)
        np.copyto(x_h, xm, where=move_hi[seg_of])
        np.copyto(x_l, xm, where=move_lo[seg_of])
        it += 1
        if it % 4 == 0:
            _check_deadline(deadline)
    stats.kernel_steps += it

    gaps = x_h - x_l
    cand = np.flatnonzero(gaps > 0)
    marg = np.full(gaps.shape, np.inf)
    marg[cand] = _unit_marginal(obj, e_idx[cand], x_l[cand] + 1.0, stats)
    order = np.lexsort((marg, seg_of))  # stable: equal marginals keep index order
    resid = seg_tgt - np.add.reduceat(x_l, starts)
    x = np.empty_like(x_l)
    x[order] = _segment_fill(x_l[order], gaps[order], seg_off, resid, seg_of)
    x_out[out_pos] = x
    return x_out
