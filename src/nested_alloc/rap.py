"""Kernels for the box-constrained single-equality subproblem (RAP).

A RAP asks for min sum(f_i(x_i)) subject to sum(x_i) = R and c <= x <= d on a
contiguous slice of variables. Both kernels solve many disjoint segments at
once: `offsets` delimits them in compact arrays, and `idx` maps positions to
variable indices. `_working_set` first closes, bit-exact at their bounds, the
segments that need no search (a target at or past a box-sum end, at most one
movable element) and every point box c_i = d_i; only the movable elements of
the open segments are searched, each target less its point-box mass.

The continuous kernel searches the multiplier lam of the coupling constraint:
x(lam) = clamp((f')^-1(lam), c, d) is nondecreasing in lam. The cold bracket
runs from min f'(c) to max f'(d), where x is exactly c and d, so its excess
costs no evaluation; a segment with an end that is not finite (a pole at 0,
an unbounded box) passes its bracket through an interior point instead.
Segments of at least `_BREAKPOINT_PHASE_ELEMENTS` movable elements start from
two probe multipliers (`probes`; the solver passes a merge its children's
final ones) where these straddle the root or hit it. A step evaluates x at
one multiplier per segment through one map per call (`_inverse_map`; for
CUSTOM, bisection of f' inside boxes capped by the segment's target):

- Breakpoint phase, in calls of fewer than 2000 open elements (Kiwiel, Math.
  Prog. 2008): the median breakpoint f'_i(c_i) or f'_i(d_i) still inside
  the bracket, until none is.
- Illinois: regula falsi on the excess at the bracket ends, in the h of
  `ObjectiveSpec.multiplier_coordinate` (crashing, fuelopt: x = g h(lam)) or
  in lam, halving the excess kept at an end that stays put twice; the
  midpoint where the point leaves the bracket or the bracket is wider than
  `_BISECTION_BUDGET` times what bisection would leave.
- Geometric steps, in large calls of crashing and fuelopt: -sqrt(lam_lo
  lam_hi) while the ends differ by more than `_GEOMETRIC_RATIO`.

A segment ends at the first evaluation whose excess is within eps/2 (the
root stop), or once its bracket ends are adjacent doubles. A hit's residual
is filled from its own allocation in index order, up inside d - x(lam) or
down inside x(lam) - c, each gap capped at the residual: one add where the
first element with room holds it all (`_add_residuals`), `_segment_fill`
elsewhere. Optimal allocations are coordinatewise monotone in the target, so
every filled coordinate lies within |R - R'| <= eps/2 of an optimum. A
segment stuck without a hit fills inside x(lam_hi) - x(lam_lo). A cold
bracket [L, L] from the box ends means f' = L on every box, where every
feasible point is optimal: a hit at the floor, filled in index order like
any other. `lam_out` receives each segment's final multiplier. Large calls
compact once half their segments are done. A fill that leaves a residual,
or a search still open after `_MAX_STEPS`, raises.

The integer kernel searches over unit marginals f_i(t) - f_i(t - 1), priced
in closed form by `ObjectiveSpec.marginal_map`, with the same step rule
(`_propose`, `_illinois`). At lam an element takes the largest unit whose
marginal is <= lam; the kernel keeps the allocations at both bracket ends and
searches between them. By convexity that unit is within one of
(f')^-1(lam) (Hochbaum's proximity), so `_int_alloc` probes the rounded
point and halves only what the probe leaves open (every element of CUSTOM).
A segment stops at an exact hit (the greedy's answer), at most one unit per
element between its ends, or adjacent doubles; its residual units go out in
greedy order, ascending marginal and lowest index first.

Given a `SolveStats`, a kernel adds its steps to `kernel_steps` and its
per-element evaluations (maps, derivatives, marginals) to `kernel_evals`.
"""

from __future__ import annotations

import time

import numpy as np

from .model import ObjectiveSpec, SolveStats, _at, _pick


class SolveTimeout(RuntimeError):
    """Cooperative time-limit cutoff raised from inside a kernel loop."""


# Calls of fewer open elements than this run the breakpoint phase and
# finalize once without compacting: there the phase's sort is cheap and saves
# most steps. Above it the sort of up to twice as many breakpoints, and the
# finished segments the phase keeps evaluating, cost more than the steps it
# saves. Segments of at least this many movable elements are also the ones
# that take probes (`solve_segments_continuous`).
_BREAKPOINT_PHASE_ELEMENTS = 2000
# Large calls of a pole family (crashing, fuelopt) step at the geometric mean
# of a bracket whose ends differ by more than this factor.
_GEOMETRIC_RATIO = 16.0
# Both kernels' bisection budget: a bracket may stay this many times wider
# than its initial width halved once per interpolation step. It is set when
# the search starts and never restarted, so no bracket falls more than five
# halvings (32x) behind plain bisection.
_BISECTION_BUDGET = 16.0
# The continuous kernel's step cap. A bracket of doubles is down to adjacent
# doubles once its width is 2^-1074, the least spacing of doubles, and it
# starts below 2^1025. The budget halves at every interpolation step and a
# bracket wider than it takes the midpoint, so after k steps a bracket is at
# most 2^(5 + j - k) times its initial width, j counting the steps whose
# point overrides the budget: at most 12 of the breakpoint phase (fewer than
# 4000 breakpoints) in a small call, or ten geometric ones (each takes the
# square root of the ratio of its ends, below 2^2099) in a large call. So
# 5 + 12 + 1025 + 1074 = 2116 steps leave every bracket stuck, and the cap
# sits above that: the adjacent-doubles test ends pathological brackets, not
# the cap.
_MAX_STEPS = 2200
# Rows of units t and t + 1, the pair the integer kernel's probe prices.
_NEXT_UNIT = np.array([[0.0], [1.0]])


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
    offsets and segment lengths, and each per-element array of `arrays`
    gathered at those positions. Per-segment values reach the elements of
    such a layout as `np.repeat(v, lengths)`, a run-length copy that is
    cheaper than gathering through an element-to-segment map.
    """
    starts, ends = offsets[:-1][keep], offsets[1:][keep]
    pos = _concat_ranges(starts, ends)
    lengths = ends - starts
    seg_off = np.concatenate([[0], np.cumsum(lengths)])
    return pos, seg_off, lengths, [a[pos] for a in arrays]


def _segment_fill(lo, gaps, offsets, residuals, lengths):
    """Distribute per-segment residuals into per-element gaps, index order."""
    cg = np.cumsum(gaps)
    seg_base = cg[offsets[:-1]] - gaps[offsets[:-1]]
    # gap mass strictly before each element
    before = (cg - np.repeat(seg_base, lengths)) - gaps
    take = np.clip(np.repeat(residuals, lengths) - before, 0.0, gaps)
    return lo + take


def _add_residuals(x, lo, hi, offsets, lengths, resid, which):
    """Add the residual of each segment flagged in `which` to its first
    element with room (hi - x above, x - lo below) where that room is at least
    |resid|, in place, the one element `_segment_fill` would move; returns where."""
    down = resid < 0
    k = offsets[:-1]
    if not (np.where(down, x[k] > lo[k], x[k] < hi[k]) | ~which).all():
        # some segment starts at its bound: find each one's first room
        # a flag past the end stands for segments without room
        has_room = np.append(np.where(np.repeat(down, lengths), x > lo, x < hi), True)
        pos = np.flatnonzero(has_room)
        k = np.minimum(pos[np.searchsorted(pos, k)], offsets[1:] - 1)
    room = np.where(down, x[k] - lo[k], hi[k] - x[k])  # 0 where a segment has none
    one = which & (room >= np.abs(resid))
    x[k[one]] += resid[one]
    return one


def _inverse_map(obj, idx, lo, hi, offsets, targets):
    """`obj.inverse_map(idx)`, or for CUSTOM a map of the same signature
    that inverts f' by bisection inside the boxes [lo, hi], each upper bound
    capped at lo plus its segment's target less the segment's lower-bound
    sum: no feasible point exceeds that cap, and it is finite."""
    inv = obj.inverse_map(idx)
    if inv is not None:
        return inv
    room = np.repeat(targets - np.add.reduceat(lo, offsets[:-1]), np.diff(offsets))
    hi = np.minimum(hi, lo + room)
    return lambda lam, seg_len=None, k=None: _bisect_inverse(
        obj, _pick(idx, k), _at(lam, seg_len), _pick(lo, k), _pick(hi, k)
    )


def _bisect_inverse(obj, idx, lam_e, lo, hi):
    a, b = lo, hi
    for _ in range(80):
        mid = 0.5 * (a + b)
        up = obj.derivative_at(idx, mid) <= lam_e
        a = np.where(up, mid, a)
        b = np.where(up, b, mid)
    return a


def _bracket_segments(
    obj, idx, lo, hi, offsets, targets, stats=None, breakpoints=False, where=None
):
    """Each segment's multiplier bracket; every element is movable (hi > lo).

    Returns lam_lo, lam_hi, where an end was not finite, and the derivatives
    at the box ends per element, d_lo and d_hi, which only the breakpoint
    phase reads and which are None without `breakpoints`: one end is reduced
    before the other is evaluated, so then one end's derivatives are held at
    a time. Given per-element flags `where`, only the flagged elements are
    bracketed, `offsets` and `targets` describing the segments they form,
    and each box end is gathered when it is evaluated.
    """
    stats = SolveStats() if stats is None else stats
    starts = offsets[:-1]
    if where is not None:
        idx = idx[where]
    stats.kernel_evals += 2 * idx.size
    with np.errstate(divide="ignore", invalid="ignore"):
        d_lo = obj.derivative_at(idx, lo if where is None else lo[where])
        lam_lo = np.minimum.reduceat(d_lo, starts)
        if not breakpoints:
            d_lo = None
        d_hi = obj.derivative_at(idx, hi if where is None else hi[where])
        lam_hi = np.maximum.reduceat(d_hi, starts)
        if not breakpoints:
            d_hi = None
    bad = ~np.isfinite(lam_lo) | ~np.isfinite(lam_hi)
    if np.any(bad):
        # pole or unbounded box at a bracket end: pass the bracket through a
        # strictly interior feasible point instead (room capped by the
        # residual keeps the arithmetic finite under infinite upper bounds)
        if where is not None:
            lo, hi = lo[where], hi[where]
        lengths = np.diff(offsets)
        resid = targets - np.add.reduceat(lo, starts)
        room = np.minimum(hi - lo, np.repeat(np.maximum(resid, 0.0), lengths))
        cap = np.add.reduceat(room, starts)
        share = np.where(cap > 0, resid / np.where(cap > 0, cap, 1.0), 0.0)
        x_f = lo + room * np.repeat(share, lengths)
        d_f = obj.derivative_at(idx, x_f)
        stats.kernel_evals += idx.size
        lam_lo = np.where(bad, np.minimum.reduceat(d_f, starts), lam_lo)
        lam_hi = np.where(bad, np.maximum.reduceat(d_f, starts), lam_hi)
    return lam_lo, lam_hi, bad, d_lo, d_hi


def _interior_breakpoints(d_lo, d_hi, lam_lo, lam_hi, seg_len):
    """The distinct breakpoints f'_i(c_i) and f'_i(d_i) that lie strictly
    inside their segment's bracket, sorted by segment and value, and each
    segment's index range [a, b) into them."""
    ids = np.arange(seg_len.size, dtype=np.int16)  # < 2000 open elements, >= 2 a segment
    lo_e = np.repeat(lam_lo, seg_len)
    hi_e = np.repeat(lam_hi, seg_len)
    # infinite and NaN values fail the strict comparisons
    in_lo = (d_lo > lo_e) & (d_lo < hi_e)
    in_hi = (d_hi > lo_e) & (d_hi < hi_e)
    seg_e = np.repeat(ids, seg_len)
    vals = np.concatenate([d_lo[in_lo], d_hi[in_hi]])
    seg = np.concatenate([seg_e[in_lo], seg_e[in_hi]])
    order = np.argsort(vals, kind="stable")  # then stably by segment id
    order = order[np.argsort(seg[order], kind="stable")]
    vals, seg = vals[order], seg[order]
    first = np.ones(vals.size, dtype=bool)
    first[1:] = (vals[1:] != vals[:-1]) | (seg[1:] != seg[:-1])
    vals, seg = vals[first], seg[first]
    return vals, np.searchsorted(seg, ids), np.searchsorted(seg, ids, side="right")


def _working_set(idx, lo, hi, offsets, targets):
    """Close what needs no multiplier search and gather what moves.

    Returns x_out, holding its final value at every element of a closed
    segment (target at or past a box-sum end, or at most one movable element
    hi > lo) and at every point box (lo == hi), bit-exact at its bound, and
    the working set: the movable elements of the open segments, in index
    order, as their positions in x_out, the compact layout's offsets and
    segment lengths, their idx, lo and hi, and each open segment's target
    less its point-box mass.
    """
    starts = offsets[:-1]
    lengths = np.diff(offsets)
    movable = hi > lo
    n_mov = np.add.reduceat(movable, starts)
    at_lo = targets <= np.add.reduceat(lo, starts)
    at_hi = ~at_lo & (targets >= np.add.reduceat(hi, starts))
    # the point-box mass, summed in the buffer that then becomes x_out
    x_out = np.where(movable, 0.0, lo)
    tgt = targets - np.add.reduceat(x_out, starts)
    np.copyto(x_out, lo)
    np.copyto(x_out, hi, where=np.repeat(at_hi, lengths))
    open_seg = ~(at_lo | at_hi)
    one = open_seg & (n_mov == 1)
    if one.any():
        k = np.flatnonzero(movable & np.repeat(one, lengths))
        x_out[k] = np.clip(tgt[one], lo[k], hi[k])
        open_seg &= ~one
    out_pos = np.flatnonzero(movable & np.repeat(open_seg, lengths))
    seg_len = n_mov[open_seg]
    seg_off = np.concatenate([[0], np.cumsum(seg_len)])
    return x_out, out_pos, seg_off, seg_len, idx[out_pos], lo[out_pos], hi[out_pos], tgt[open_seg]


def _propose(lam, lam_lo, lam_hi, f_lo, f_hi, max_width, coord):
    """One interpolation step of both kernels' multiplier search.

    Writes into `lam` the regula falsi point of the excess f_lo < 0 <= f_hi
    kept at the two bracket ends, taken in the coordinate h of `coord`
    (`ObjectiveSpec.multiplier_coordinate`) where sum(x) is affine between
    clamp changes, in lam where `coord` is None. The midpoint already in
    `lam` stays where that point leaves the open bracket, is not finite, or
    the bracket is wider than `max_width`, which is halved.

    Both kernels start `max_width` at `_BISECTION_BUDGET` times the initial
    bracket and never restart it.
    """
    if coord is None:
        prop = lam_lo - f_lo * (lam_hi - lam_lo) / (f_hi - f_lo)
    else:
        h, h_inv = coord
        h_lo, h_hi = h(lam_lo), h(lam_hi)
        prop = h_inv(h_lo - f_lo * (h_hi - h_lo) / (f_hi - f_lo))
    ok = (prop > lam_lo) & (prop < lam_hi) & (lam_hi - lam_lo <= max_width)
    np.copyto(lam, prop, where=ok)
    max_width *= 0.5


def _illinois(f_lo, f_hi, last_hi, move_hi):
    """Illinois: when two interpolation steps in a row move the same end, the
    excess kept at the other end is halved. `last_hi` holds the end the last
    step moved (1 hi, 0 lo, -1 none); returns this step's."""
    again = last_hi == move_hi
    np.multiply(f_lo, 0.5, out=f_lo, where=again)
    np.multiply(f_hi, 0.5, out=f_hi, where=again)
    return move_hi.astype(np.int8)


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
    *,
    probes: np.ndarray | None = None,
    lam_out: np.ndarray | None = None,
) -> np.ndarray:
    """Solve every segment to per-coordinate accuracy eps_x with exact sums.

    `probes`, of shape (segments, 2), holds two multipliers per segment (NaN
    where there are none) that may bracket its root, such as its children's
    final multipliers one level down. Open segments with at least
    `_BREAKPOINT_PHASE_ELEMENTS` movable elements have x evaluated at both;
    where they straddle the target they are the segment's bracket, and a
    probe whose excess is within eps_x / 2 ends the segment. Given `lam_out`,
    of shape (segments,), the kernel writes each segment's final multiplier
    into it: the probe, bracket end or step whose excess ended the segment,
    its bracket's midpoint where it ends stuck, NaN where `_working_set`
    closes it.

    Raises RuntimeError if segments are still open after `_MAX_STEPS` steps,
    or if a fill leaves a segment's residual unplaced.
    """
    x_out, out_pos, seg_off, seg_len, e_idx, e_lo, e_hi, seg_tgt = _working_set(
        idx, lo, hi, offsets, targets
    )
    if lam_out is not None:
        lam_out[:] = np.nan
    if not seg_len.size:
        return x_out
    if stats is None:
        stats = SolveStats()
    small = e_idx.size < _BREAKPOINT_PHASE_ELEMENTS
    if not small and np.array_equal(e_idx, out_pos):
        # idx is the identity here (a level over every variable): positions
        # are variable indices, and one array serves as both
        e_idx = out_pos
    coord = obj.multiplier_coordinate()
    geometric = not small and coord is not None
    probes = None if small else probes
    warm = seg_ids = None
    if lam_out is not None or probes is not None:
        # each open segment's position among the input segments
        seg_ids = np.searchsorted(offsets, out_pos[seg_off[:-1]], side="right") - 1
    if probes is not None:
        p_lo, p_hi = probes[seg_ids].min(axis=1), probes[seg_ids].max(axis=1)  # NaN stays
        warm = (seg_len >= _BREAKPOINT_PHASE_ELEMENTS) & np.isfinite(p_lo) & np.isfinite(p_hi)
        if not warm.any():
            warm = None
    half_eps = 0.5 * eps_x

    def x_at(lam):
        """Clamped x(lam) of every open element, lam given per segment."""
        stats.kernel_evals += e_idx.size
        x = inv(lam, seg_len)
        np.maximum(x, e_lo, out=x)
        return np.minimum(x, e_hi, out=x)

    def x_ends(sel, lam_a, lam_b):
        """Positions of the elements of the segments flagged in `sel` (all of
        them as a slice), their layout's offsets, and their clamped x at the
        per-segment multipliers lam_a and lam_b, one map call each."""
        if sel.all():
            return slice(None), seg_off, x_at(lam_a), x_at(lam_b)
        pos, sub_off, sub_len, (s_lo, s_hi) = _select_segments(sel, seg_off, e_lo, e_hi)

        def at(lam):
            stats.kernel_evals += pos.size
            x = inv(lam[sel], sub_len, pos)
            np.maximum(x, s_lo, out=x)
            return np.minimum(x, s_hi, out=x)

        return pos, sub_off, at(lam_a), at(lam_b)

    # x(lam_lo) = e_lo and x(lam_hi) = e_hi where the ends are the extreme
    # derivatives at the box ends; a bracket between probes or through an
    # interior point has x evaluated at both ends. x_fin starts at x(lam_lo),
    # or at x(lam_hi) where that end hits.
    f_lo = np.add.reduceat(e_lo, seg_off[:-1]) - seg_tgt
    f_hi = np.add.reduceat(e_hi, seg_off[:-1]) - seg_tgt

    def warm_start():
        """Brackets from the probes where they straddle or hit, the cold
        bracket elsewhere; builds the map, writes the probes' excess into f_lo
        and f_hi and returns the brackets, the bad flags, x_fin and where
        x(lam_hi) is e_hi."""
        nonlocal inv
        lam_lo, lam_hi = np.empty(seg_tgt.size), np.empty(seg_tgt.size)
        bad = np.zeros(seg_tgt.size, dtype=bool)

        def cold_bracket(sel):
            where, c_off = None, seg_off  # every segment: nothing to gather
            if not sel.all():
                where = np.repeat(sel, seg_len)
                c_off = np.concatenate([[0], np.cumsum(seg_len[sel])])
            lam_lo[sel], lam_hi[sel], bad[sel] = _bracket_segments(
                obj, e_idx, e_lo, e_hi, c_off, seg_tgt[sel], stats, where=where
            )[:3]

        # segments known to be cold take their bracket before the map gathers
        # its constants and before any probe is evaluated, so the bracket's
        # gathers and derivatives meet neither
        if not warm.all():
            cold_bracket(~warm)
        inv = _inverse_map(obj, e_idx, e_lo, e_hi, seg_off, seg_tgt)
        pos, w_off, xa, xb = x_ends(warm, p_lo, p_hi)
        fa = np.add.reduceat(xa, w_off[:-1]) - seg_tgt[warm]
        fb = np.add.reduceat(xb, w_off[:-1]) - seg_tgt[warm]
        hit_a, hit_b = np.abs(fa) <= half_eps, np.abs(fb) <= half_eps
        # a lone probe is no bracket end: probes that neither straddle the
        # target nor hit it leave their segment to the cold bracket
        took = ((fa <= 0.0) & (fb >= 0.0)) | hit_a | hit_b
        # a probe that hits is the segment's whole bracket
        lam_lo[warm] = np.where(hit_b, p_hi[warm], p_lo[warm])
        lam_hi[warm] = np.where(hit_a & ~hit_b, p_lo[warm], p_hi[warm])
        f_lo[warm] = np.where(took, fa, f_lo[warm])
        f_hi[warm] = np.where(took, fb, f_hi[warm])
        np.copyto(xa, xb, where=np.repeat(hit_b, np.diff(w_off)))
        del xb
        missed = warm.copy()
        missed[warm] = ~took
        cold = missed | ~warm
        if not cold.any():
            # every segment starts from its probes: none is bad, and x_fin is
            # the probes' allocation
            return lam_lo, lam_hi, bad, xa, cold
        if missed.any():
            cold_bracket(missed)
        # allocated after the cold bracket, whose temporaries then meet only
        # the probes' allocation
        x_fin = e_lo.copy()
        q = np.repeat(took, np.diff(w_off))
        x_fin[np.flatnonzero(q) if isinstance(pos, slice) else pos[q]] = xa[q]
        return lam_lo, lam_hi, bad, x_fin, cold & ~bad

    inv = None
    if warm is None:
        lam_lo, lam_hi, bad, d_lo, d_hi = _bracket_segments(
            obj, e_idx, e_lo, e_hi, seg_off, seg_tgt, stats, breakpoints=small
        )
        if small:
            bp, bp_a, bp_b = _interior_breakpoints(d_lo, d_hi, lam_lo, lam_hi, seg_len)
        del d_lo, d_hi  # the loop keeps no per-element state but x_fin
        # built after the bracket, whose derivatives then do not meet the
        # constants it gathers
        inv = _inverse_map(obj, e_idx, e_lo, e_hi, seg_off, seg_tgt)
        x_fin = e_lo.copy()
        box_top = ~bad
    else:
        lam_lo, lam_hi, bad, x_fin, box_top = warm_start()
    if bad.any():
        pos, sub_off, xl, xh = x_ends(bad, lam_lo, lam_hi)
        f_lo[bad] = np.add.reduceat(xl, sub_off[:-1]) - seg_tgt[bad]
        f_hi[bad] = np.add.reduceat(xh, sub_off[:-1]) - seg_tgt[bad]
        np.copyto(xl, xh, where=np.repeat(np.abs(f_hi[bad]) <= half_eps, np.diff(sub_off)))
        x_fin[pos] = xl
        del xl, xh
    # root stop: an evaluation whose excess is within half_eps of zero ends
    # its segment, and x_fin keeps that evaluation's allocation; no other
    # per-element state is kept. A cold bracket that is one point [L, L]
    # from the box ends has f' = L over every box, so every feasible point is
    # optimal: a hit at the floor, where x_fin is e_lo
    hit_hi = np.abs(f_hi) <= half_eps
    hit = hit_hi | (np.abs(f_lo) <= half_eps) | (box_top & (lam_lo == lam_hi))
    if lam_out is not None:
        lam_out[seg_ids[hit]] = np.where(hit_hi, lam_hi, lam_lo)[hit]
    top = hit_hi & box_top
    if top.any():
        np.copyto(x_fin, e_hi, where=np.repeat(top, seg_len))

    def finalize(sel):
        """Repair converged segments: fill each residual in index order from
        the hit's allocation, or from the bracket ends where none hit."""
        if lam_out is not None:
            stuck = sel & ~hit
            lam_out[seg_ids[stuck]] = 0.5 * (lam_lo[stuck] + lam_hi[stuck])
        r = seg_tgt - np.add.reduceat(x_fin, seg_off[:-1])
        one = _add_residuals(x_fin, e_lo, e_hi, seg_off, seg_len, r, sel & hit)
        x_out[out_pos] = x_fin  # read in place; live segments write again as they end
        sel = sel & ~one
        if not sel.any():
            return
        tgt = seg_tgt[sel]
        pos, sub_off, sub_len, (xf, xl, xh) = _select_segments(sel, seg_off, x_fin, e_lo, e_hi)
        h = hit[sel]
        if not h.all():
            # stuck without a hit: evaluate both bracket ends again
            q = np.repeat(~h, sub_len)
            _, _, xl[q], xh[q] = x_ends(sel & ~hit, lam_lo, lam_hi)
        # a hit fills from its own allocation toward the target: up inside
        # [x_fin, e_hi] when short of it, down inside [e_lo, x_fin] when over
        down = h & (r[sel] < 0)
        np.copyto(xl, xf, where=np.repeat(h & ~down, sub_len))
        np.copyto(xh, xf, where=np.repeat(down, sub_len))
        gaps = xh - xl
        flip = None
        if down.any():
            # negated, the fill down from xh is the same fill up from -xh
            tgt = np.where(down, -tgt, tgt)
            flip = np.repeat(down, sub_len)
            np.negative(xh, out=xl, where=flip)
        resid = tgt - np.add.reduceat(xl, sub_off[:-1])
        # no element takes more than its segment's residual; gaps capped at it
        # stay finite where a hit's gap reaches an infinite upper bound, and
        # keep the fill's running sums, and so their rounding, as small as the
        # residuals
        np.minimum(gaps, np.repeat(np.maximum(resid, 0.0), sub_len), out=gaps)
        x = _segment_fill(xl, gaps, sub_off, resid, sub_len)
        if flip is not None:
            np.negative(x, out=x, where=flip)
        # a sound fill places every residual: what it leaves is a broken
        # invariant (a map that is not monotone), not a point to return
        leftover = np.abs(seg_tgt[sel] - np.add.reduceat(x, sub_off[:-1]))
        if (leftover > eps_x * sub_len).any():
            raise RuntimeError(f"fill left a residual of {leftover.max()} unplaced")
        x_out[out_pos[pos]] = x

    it = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the bracket width the bisection budget allows (NaN for a bracket
        # [-inf, -inf], which hit at once), and the end moved by the last
        # interpolation step (1 hi, 0 lo, -1 none)
        max_width = _BISECTION_BUDGET * (lam_hi - lam_lo)
        last_hi = np.full(seg_tgt.size, -1, dtype=np.int8)
        while True:
            lam = 0.5 * (lam_lo + lam_hi)
            # a segment is done at a hit or once its ends are adjacent doubles
            done = hit | (lam <= lam_lo) | (lam >= lam_hi)
            n_done = np.count_nonzero(done)
            if n_done == done.size:
                finalize(np.ones(done.size, dtype=bool))
                stats.kernel_steps += it
                return x_out
            if it >= _MAX_STEPS:
                _, _, xl, xh = x_ends(~done, lam_lo, lam_hi)
                raise RuntimeError(
                    f"multiplier search left {done.size - n_done} segments open after "
                    f"{it} steps; widest x-gap {float(np.max(xh - xl))} > eps_x {eps_x}"
                )
            if not small and n_done * 2 >= done.size:
                # retire finished segments and compact the working set
                finalize(done)
                keep = ~done
                q = np.repeat(keep, seg_len)
                seg_len = seg_len[keep]
                seg_off = np.concatenate([[0], np.cumsum(seg_len)])
                # through a mask, one array at a time, so each old one is freed
                # before the next is gathered
                inv = None
                shared = e_idx is out_pos
                out_pos = out_pos[q]
                e_idx = out_pos if shared else e_idx[q]
                e_lo = e_lo[q]
                e_hi = e_hi[q]
                x_fin = x_fin[q]
                del q
                lam, lam_lo, lam_hi, f_lo, f_hi, max_width, last_hi, hit, seg_tgt = (
                    a[keep]
                    for a in (lam, lam_lo, lam_hi, f_lo, f_hi, max_width, last_hi, hit, seg_tgt)
                )
                done = hit
                if lam_out is not None:
                    seg_ids = seg_ids[keep]
                inv = _inverse_map(obj, e_idx, e_lo, e_hi, seg_off, seg_tgt)
            live = ~done
            scanning, interpolating = False, True
            if small:
                # breakpoint phase: segments with breakpoints inside their
                # bracket; the others interpolate
                scan = live & (bp_a < bp_b)
                n_scan = np.count_nonzero(scan)
                scanning, interpolating = n_scan > 0, n_scan < done.size - n_done
            if interpolating:
                _propose(lam, lam_lo, lam_hi, f_lo, f_hi, max_width, coord)
            if geometric:
                # a pole family's x(lam) runs over decades inside a bracket
                # whose ends differ by more than _GEOMETRIC_RATIO, where
                # neither the midpoint nor regula falsi in lam gets far: the
                # geometric mean halves such a bracket in log(-lam)
                wide = (lam_lo < _GEOMETRIC_RATIO * lam_hi) & (lam_hi < 0.0)
                if wide.any():
                    np.copyto(lam, -np.sqrt(-lam_lo) * np.sqrt(-lam_hi), where=wide)
                else:
                    # the ratio of a bracket's ends only falls as it narrows,
                    # so the call stops looking (a bracket still reaching 0
                    # keeps the midpoint)
                    geometric = False
            if scanning:
                # the median breakpoint inside the bracket
                mid = (bp_a + bp_b) // 2
                lam[scan] = bp[mid[scan]]
            xm = x_at(lam)
            f = np.add.reduceat(xm, seg_off[:-1]) - seg_tgt
            move_hi = (f >= 0.0) & live
            move_lo = live ^ move_hi
            np.copyto(lam_hi, lam, where=move_hi)
            np.copyto(lam_lo, lam, where=move_lo)
            if interpolating:
                last_hi = _illinois(f_lo, f_hi, last_hi, move_hi)
            np.copyto(f_hi, f, where=move_hi)
            np.copyto(f_lo, f, where=move_lo)
            if scanning:
                last_hi[scan] = -1
                np.copyto(bp_b, mid, where=scan & move_hi)
                np.copyto(bp_a, mid + 1, where=scan & move_lo)
            # the true excess, not the halved one, decides a hit
            near = live & (np.abs(f) <= half_eps)
            if near.any():
                np.copyto(x_fin, xm, where=np.repeat(near, seg_len))
                hit |= near
                if lam_out is not None:
                    lam_out[seg_ids[near]] = lam[near]
            del xm  # freed before the next step allocates its own
            it += 1
            if it % 8 == 0:
                _check_deadline(deadline)


def _int_alloc(marginal, k, tl, th, lam_k, guess):
    """Largest integer t in [tl, th] whose unit marginal stays <= lam, given
    that unit tl already qualifies (or is the box floor) and tl < th.

    `marginal(t, k, pair)` prices unit t of the elements at positions k, and
    units t and t + 1 at once when `pair` is set. Where `guess` holds the
    continuous points x_c = (f')^-1(lam), a probe tries
    g = clamp(floor(x_c + 0.5), tl, th), or g = tl where x_c is NaN: unit g
    must qualify and unit g + 1 must not. By convexity the answer lies within
    a unit of x_c, so both checks nearly always pass and close the element;
    either way they narrow [tl, th]. A halving then finishes the elements
    left open (all of them without a guess, for CUSTOM), each step
    evaluating only those. Its midpoint tl + floor((th - tl + 1) / 2) is
    exact for units up to 2^53; floor((tl + th + 1) / 2) rounds once
    tl + th + 1 passes 2^53, and where it rounds to tl the halving stalls.
    """
    if guess is not None:
        # fmax and fmin drop NaN, so any guess gives a unit in [tl, th]
        g = np.fmin(np.fmax(np.floor(guess + 0.5), tl), th)
        m_g, m_next = marginal(g, k, True)
        take_g = (g == tl) | (m_g <= lam_k)  # unit tl qualifies already
        take_next = take_g & (g < th) & (m_next <= lam_k)
        tl = np.where(take_g, g + take_next, tl)
        th = np.where(take_next, th, np.where(take_g, g, g - 1.0))
    else:
        tl = tl.copy()
        th = th.copy()
    o = (tl < th).nonzero()[0]
    while o.size:
        t = tl[o] + np.floor((th[o] - tl[o] + 1.0) * 0.5)
        ok = marginal(t, k[o]) <= lam_k[o]
        tl[o] = np.where(ok, t, tl[o])
        th[o] = np.where(ok, th[o], t - 1.0)
        o = o[tl[o] < th[o]]
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

    Searches each segment's multiplier bracket [lam_lo, lam_hi] while keeping
    x_l = x(lam_lo) and x_h = x(lam_hi), where x(lam) takes every unit whose
    marginal is <= lam. A step proposes a multiplier with the continuous
    kernel's rule (`_propose`, `_illinois`) from the unit excess
    sum(x) - target at the two ends, which x_l and x_h already give: regula
    falsi in h for crashing and fuelopt, in lam otherwise, with the Illinois
    halving, and the midpoint where the budget runs out (`_BISECTION_BUDGET`,
    16x the initial bracket, halved every step and never restarted, so no
    bracket falls five halvings, 32x, behind bisection). x is monotone in
    lam, so a step only searches [x_l, x_h], with `_int_alloc`: a probe at
    the rounded continuous point (f')^-1(lam), then halving where the probe
    leaves an element open.

    A segment stops at an exact hit, sum(x(lam)) == target, with
    x_l = x_h = x(lam). That is the greedy's answer. By convexity each
    element's units with marginal <= lam are a prefix of its units, and the
    heap greedy pops units in ascending marginal order, so those units are
    the first ones it pops, however its ties break; there are exactly target
    of them. A segment also stops once every x_h - x_l <= 1 or its bracket
    ends are adjacent doubles. Its residual units all have marginals in
    (lam_lo, lam_hi] and go out in greedy order: ascending next-unit
    marginal, lowest index first. At adjacent doubles those marginals are all
    equal, so that order is plain index order. Once half of the working
    segments have stopped, they are finished and the live ones compacted, so
    a step spans only live segments.
    """
    x_out, out_pos, seg_off, seg_len, e_idx, x_l, x_h, seg_tgt = _working_set(
        idx, lo, hi, offsets, targets
    )
    if not seg_len.size:
        return x_out
    if stats is None:
        stats = SolveStats()
    starts = seg_off[:-1]
    marg = obj.marginal_map(e_idx)
    inv = obj.inverse_map(e_idx)
    coord = obj.multiplier_coordinate()

    def marginal(t, k=None, pair=False):
        """Unit marginals f(t) - f(t - 1) of the elements at positions k; with
        `pair`, the rows of units t and t + 1."""
        # each element's t broadcasts down a column
        m = marg(t + _NEXT_UNIT if pair else t, k)
        stats.kernel_evals += m.size
        return m

    def finish(sel):
        """Hand out the residual units of stopped segments in greedy order."""
        pos, sub_off, sub_len, (xl, xh) = _select_segments(sel, seg_off, x_l, x_h)
        gaps = xh - xl
        cand = np.flatnonzero(gaps > 0)
        nxt = np.full(gaps.shape, np.inf)
        nxt[cand] = marginal(xl[cand] + 1.0, pos[cand])
        seg_of = np.repeat(np.arange(sub_len.size), sub_len)
        order = np.lexsort((nxt, seg_of))  # stable: equal marginals keep index order
        resid = seg_tgt[sel] - np.add.reduceat(xl, sub_off[:-1])
        x = np.empty_like(xl)
        x[order] = _segment_fill(xl[order], gaps[order], sub_off, resid, sub_len)
        x_out[out_pos[pos]] = x

    # x(lam_lo) = x_l and x(lam_hi) = x_h, the box ends, without evaluating
    # anything
    lam_lo = np.nextafter(np.minimum.reduceat(marginal(x_l + 1.0), starts), -np.inf)
    lam_hi = np.maximum.reduceat(marginal(x_h), starts)
    f_lo = np.add.reduceat(x_l, starts) - seg_tgt
    f_hi = np.add.reduceat(x_h, starts) - seg_tgt
    max_width = _BISECTION_BUDGET * (lam_hi - lam_lo)
    last_hi = np.full(seg_tgt.size, -1, dtype=np.int8)

    it = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            lam = 0.5 * (lam_lo + lam_hi)
            gap = x_h - x_l
            # open: bracket ends not adjacent doubles, some gap over one unit
            live = (lam > lam_lo) & (lam < lam_hi) & (np.maximum.reduceat(gap, starts) > 1.0)
            n_live = np.count_nonzero(live)
            if n_live == 0:
                finish(np.ones(live.size, dtype=bool))
                stats.kernel_steps += it
                return x_out
            if 2 * n_live <= live.size:
                # finish the stopped segments and compact the live ones
                finish(~live)
                _, seg_off, seg_len, (out_pos, e_idx, x_l, x_h, gap) = _select_segments(
                    live, seg_off, out_pos, e_idx, x_l, x_h, gap
                )
                lam, lam_lo, lam_hi, f_lo, f_hi, max_width, last_hi, seg_tgt = (
                    a[live] for a in (lam, lam_lo, lam_hi, f_lo, f_hi, max_width, last_hi, seg_tgt)
                )
                starts = seg_off[:-1]
                live = np.ones(n_live, dtype=bool)
                marg = obj.marginal_map(e_idx)
                inv = obj.inverse_map(e_idx)
            _propose(lam, lam_lo, lam_hi, f_lo, f_hi, max_width, coord)
            work = (live.repeat(seg_len) & (gap > 0.0)).nonzero()[0]
            lam_w = lam.repeat(seg_len)[work]
            guess = None
            if inv is not None:
                stats.kernel_evals += work.size
                guess = inv(lam_w, k=work)
            xm = x_l.copy()
            xm[work] = _int_alloc(marginal, work, x_l[work], x_h[work], lam_w, guess)
            f = np.add.reduceat(xm, starts) - seg_tgt
            move_hi = live & (f >= 0.0)
            move_lo = live ^ move_hi
            np.copyto(lam_hi, lam, where=move_hi)
            np.copyto(lam_lo, lam, where=move_lo)
            last_hi = _illinois(f_lo, f_hi, last_hi, move_hi)
            np.copyto(f_hi, f, where=move_hi)
            np.copyto(f_lo, f, where=move_lo)
            # an exact hit moves both ends to x(lam)
            np.copyto(x_h, xm, where=move_hi.repeat(seg_len))
            np.copyto(x_l, xm, where=(live & (f <= 0.0)).repeat(seg_len))
            it += 1
            if it % 4 == 0:
                _check_deadline(deadline)
