import dataclasses
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nested_alloc import (
    Family,
    Mode,
    NestedInstance,
    ObjectiveSpec,
    Status,
    generate_instance,
    solve,
)
from nested_alloc import rap as rap_module
from nested_alloc import solver
from nested_alloc.oracles import rap_integer_greedy
from nested_alloc.rap import (
    _bracket_segments,
    _check_deadline,
    _clamped_inverse,
    _concat_ranges,
    _fast_paths,
    _segment_fill,
    _waterfill,
    solve_segments_continuous,
    solve_segments_integer,
)

from conftest import OBJECTIVE_FAMILIES, one_segment, random_objective


def quad(n):
    return ObjectiveSpec(Family.QUADRATIC, {"w": np.ones(n), "t": np.zeros(n)})


def continuous_rap(obj, c, d, target, eps_x):
    return solve_segments_continuous(obj, *one_segment(c, d, target), eps_x)


def integer_rap(obj, c, d, target):
    return solve_segments_integer(obj, *one_segment(c, d, target))


def greedy_rap(obj, c, d, target):
    return rap_integer_greedy(obj, np.arange(len(c)), c, d, target)


def enumerate_optimum(obj, idx, c, d, target):
    """Exhaustive search over integer allocations, lexicographic tie-break."""
    c = [int(v) for v in c]
    d = [int(v) for v in d]
    n = len(c)
    suffix_c = [0] * (n + 1)
    suffix_d = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_c[i] = suffix_c[i + 1] + c[i]
        suffix_d[i] = suffix_d[i + 1] + d[i]
    best = [math.inf, None]

    def rec(i, remaining, cost, xs):
        if i == n:
            if remaining == 0 and cost < best[0]:
                best[0], best[1] = cost, list(xs)
            return
        lo = max(c[i], remaining - suffix_d[i + 1])
        hi = min(d[i], remaining - suffix_c[i + 1])
        for t in range(lo, hi + 1):
            xs.append(t)
            rec(i + 1, remaining - t, cost + obj.value(int(idx[i]), float(t)), xs)
            xs.pop()

    rec(0, int(target), 0.0, [])
    return best


class TestContinuous:
    def test_symmetric_split(self):
        x = continuous_rap(quad(3), [0, 0, 0], [10, 10, 10], 6.0, 1e-9)
        assert np.allclose(x, [2, 2, 2], atol=1e-8)

    def test_bounds_force(self):
        obj = ObjectiveSpec(Family.F, {"p": np.zeros(2)})
        x = continuous_rap(obj, [0, 0], [1, 1], 2.0, 1e-9)
        assert np.allclose(x, [1, 1])

    def test_asymmetric_box_grid_oracle(self):
        # grid search at step 1e-3 over x1; remainder forced by the sum
        obj = quad(2)
        grid = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        vals = grid**2 + (4.0 - grid) ** 2
        x1_star = grid[np.argmin(vals)]
        assert x1_star == 1.0  # frozen oracle value
        x = continuous_rap(obj, [0, 0], [1, 10], 4.0, 1e-8)
        assert np.allclose(x, [1.0, 3.0], atol=1e-7)

    def test_sum_exact_after_repair(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for family in OBJECTIVE_FAMILIES:
            obj = random_objective(rng, family, 6)
            c = rng.uniform(0.2, 1.0, 6)
            d = c + rng.uniform(0.5, 2.0, 6)
            target = float(rng.uniform(c.sum(), d.sum()))
            x = continuous_rap(obj, c, d, target, 1e-10)
            assert abs(x.sum() - target) <= 1e-9 * (1 + abs(target))
            assert np.all(x >= c - 1e-12) and np.all(x <= d + 1e-12)

    def test_equal_marginal_condition(self):
        rng = np.random.Generator(np.random.PCG64(7))
        eps = 1e-9
        for family in OBJECTIVE_FAMILIES:
            obj = random_objective(rng, family, 8)
            idx = np.arange(8)
            c = rng.uniform(0.2, 1.0, 8)
            d = c + rng.uniform(0.5, 2.0, 8)
            target = float(rng.uniform(c.sum(), d.sum()))
            x = continuous_rap(obj, c, d, target, eps)
            g = obj.derivative_at(idx, x)
            lip = float(obj.second_derivative_at(idx, x).max())
            tau = 10 * eps * lip
            not_hi = x < d - 1e-9
            not_lo = x > c + 1e-9
            # every free-to-grow variable must not undercut a free-to-shrink one
            if not_hi.any() and not_lo.any():
                assert g[not_hi].min() >= g[not_lo].max() - tau - 1e-12

    def test_monotone_in_target(self):
        rng = np.random.Generator(np.random.PCG64(11))
        obj = random_objective(rng, Family.CRASHING, 5)
        c = rng.uniform(0.3, 0.8, 5)
        d = c + rng.uniform(0.5, 1.5, 5)
        prev = None
        for target in np.linspace(c.sum(), d.sum(), 12):
            x = continuous_rap(obj, c, d, target, 1e-10)
            if prev is not None:
                assert np.all(x >= prev - 1e-8)
            prev = x

    def test_infeasible_rejected(self):
        # the kernels take feasible segments; a one-block solve is a single
        # RAP, and its feasibility check rejects a target outside the box sums
        for lower, upper, B in (([0, 0], [1, 1], 3.0), ([1, 1], [3, 3], 1.0)):
            inst = NestedInstance(
                n=2, m=1, s=[2], a=[], B=B, lower=lower, upper=upper,
                objective=quad(2), mode=Mode.CONTINUOUS,
            )
            sol, _ = solve(inst, eps=1e-9)
            assert sol.status is Status.INFEASIBLE and sol.x is None

    def test_missing_derivative_rejected(self):
        obj = ObjectiveSpec(Family.CUSTOM, {}, value_fn=lambda i, x: x * x)
        with pytest.raises(ValueError, match="no derivative"):
            continuous_rap(obj, [0.0, 0.0], [2.0, 2.0], 1.0, 1e-8)

    def test_custom_with_derivative_works(self):
        obj = ObjectiveSpec(
            Family.CUSTOM, {}, value_fn=lambda i, x: x * x, derivative_fn=lambda i, x: 2 * x
        )
        x = continuous_rap(obj, [0, 0], [5, 5], 4.0, 1e-7)
        assert np.allclose(x, [2, 2], atol=1e-6)

    def test_initial_bracket_sandwiches_target(self):
        rng = np.random.Generator(np.random.PCG64(3))
        obj = random_objective(rng, Family.FUELOPT, 4)
        c = rng.uniform(0.3, 0.8, 4)
        d = c + rng.uniform(0.5, 1.5, 4)
        target = float(rng.uniform(c.sum(), d.sum()))
        idx = np.arange(4)
        lam_lo, lam_hi = _bracket_segments(obj, idx, c, d, np.array([0, 4]), np.array([target]))
        assert lam_lo[0] <= lam_hi[0]
        sum_lo = _clamped_inverse(obj, idx, np.full(4, lam_lo[0]), c, d).sum()
        sum_hi = _clamped_inverse(obj, idx, np.full(4, lam_hi[0]), c, d).sum()
        assert sum_lo <= target <= sum_hi

    def test_flat_marginals_waterfill(self):
        obj = ObjectiveSpec(
            Family.CUSTOM, {}, value_fn=lambda i, x: 3.0 * x, derivative_fn=lambda i, x: 3.0
        )
        x = continuous_rap(obj, [0, 0, 0], [4, 4, 4], 6.0, 1e-9)
        assert abs(x.sum() - 6.0) <= 1e-9
        assert np.allclose(x, [2, 2, 2])  # uniform split of the residual


class TestInteger:
    def test_mixed_costs_enumeration(self):
        costs = {0: lambda x: x * x, 1: lambda x: 3.0 * x}
        obj = ObjectiveSpec(Family.CUSTOM, {}, value_fn=lambda i, x: costs[i](x))
        best = enumerate_optimum(obj, [0, 1], [0, 0], [4, 4], 4)
        assert best[0] == 10.0  # frozen from enumeration over all 5 splits
        x = integer_rap(obj, [0, 0], [4, 4], 4)
        # greedy tie-break favors the lowest index among equal marginals
        assert x.tolist() == [2.0, 2.0]
        assert math.fsum(costs[i](v) for i, v in enumerate(x)) == 10.0

    def test_three_squares(self):
        best = enumerate_optimum(quad(3), [0, 1, 2], [0, 0, 0], [10, 10, 10], 7)
        assert best[0] == 17.0 and sorted(best[1]) == [2, 2, 3]
        x = integer_rap(quad(3), [0, 0, 0], [10, 10, 10], 7)
        assert sorted(x.tolist()) == [2.0, 2.0, 3.0]
        assert sum(quad(3).value(i, v) for i, v in enumerate(x)) == 17.0

    def test_no_free_resource(self):
        args = quad(3), [1, 2, 3], [5, 5, 5], 6
        assert integer_rap(*args).tolist() == [1.0, 2.0, 3.0]
        assert greedy_rap(*args).tolist() == [1.0, 2.0, 3.0]

    def test_single_variable(self):
        assert greedy_rap(quad(1), [0], [5], 5).tolist() == [5.0]

    def test_tie_breaks_to_lowest_index(self):
        args = quad(2), [0, 0], [5, 5], 3
        assert integer_rap(*args).tolist() == [2.0, 1.0]
        assert greedy_rap(*args).tolist() == [2.0, 1.0]

    def test_greedy_matches_search_on_examples(self):
        costs = {0: lambda x: x * x, 1: lambda x: 3.0 * x}
        obj = ObjectiveSpec(Family.CUSTOM, {}, value_fn=lambda i, x: costs[i](x))
        for target in (0, 2, 4, 6, 8):
            args = obj, [0, 0], [4, 4], target
            assert integer_rap(*args).tolist() == greedy_rap(*args).tolist()

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="integral d"):
            greedy_rap(quad(2), [0, 0], [2.5, 2], 2)
        with pytest.raises(ValueError, match="integral target"):
            greedy_rap(quad(2), [0, 0], [2, 2], 2.5)

    def test_greedy_box_capacity_exhausted(self):
        with pytest.raises(ValueError, match="box capacity exhausted"):
            greedy_rap(quad(2), [0, 0], [1, 1], 3)


def _equivalence_case(rng, family):
    n = int(rng.integers(1, 9))
    obj = random_objective(rng, family, n)
    lo_base = 1 if family in (Family.CRASHING, Family.FUELOPT) else 0
    c = rng.integers(lo_base, lo_base + 3, n).astype(float)
    d = c + rng.integers(0, 5, n)
    free = int(rng.integers(0, min(12, int((d - c).sum())) + 1))
    target = float(min(c.sum() + free, 30))
    xi = integer_rap(obj, c, d, target)
    xg = greedy_rap(obj, c, d, target)
    idx = np.arange(n)
    best_cost, _ = enumerate_optimum(obj, idx, c, d, target)
    cost_i = math.fsum(obj.value_at(idx, xi).tolist())
    cost_g = math.fsum(obj.value_at(idx, xg).tolist())
    assert xi.tolist() == xg.tolist()
    assert cost_i == cost_g
    assert np.isclose(cost_i, best_cost, rtol=0, atol=1e-9 * (1 + abs(best_cost)))


@pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
def test_kernel_equivalence_random(family):
    """The integer kernel, the heap greedy, and exhaustive enumeration agree on
    500 random boxed problems per family; the first two bit-for-bit."""
    rng = np.random.Generator(np.random.PCG64(zlib.crc32(family.value.encode())))
    for _ in range(500):
        _equivalence_case(rng, family)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_kernel_equivalence_fuzz(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    family = OBJECTIVE_FAMILIES[int(rng.integers(0, len(OBJECTIVE_FAMILIES)))]
    _equivalence_case(rng, family)


def _wide_box(rng, n, lo_base):
    """Boxes up to 1e3 units wide and a target a few thousand units above the floor."""
    c = rng.integers(lo_base, lo_base + 50, n).astype(float)
    d = c + rng.integers(0, 1001, n)
    free = int(rng.integers(0, min(4000, int((d - c).sum())) + 1))
    return c, d, float(c.sum() + free)


def _assert_matches_greedy(obj, c, d, target):
    xi = integer_rap(obj, c, d, target)
    xg = greedy_rap(obj, c, d, target)
    assert xi.tolist() == xg.tolist()
    assert xi.sum() == target


@pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
def test_kernel_equivalence_wide_boxes(family):
    """Boxes wide enough that the multiplier search narrows per-element unit
    brackets and finishes on residual units, bit-for-bit against the greedy."""
    rng = np.random.Generator(np.random.PCG64(20 + OBJECTIVE_FAMILIES.index(family)))
    lo_base = 1 if family in (Family.CRASHING, Family.FUELOPT) else 0
    for _ in range(8):
        n = int(rng.integers(2, 25))
        c, d, target = _wide_box(rng, n, lo_base)
        _assert_matches_greedy(random_objective(rng, family, n), c, d, target)


@pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
def test_kernel_equivalence_equal_parameters(family):
    """Identical costs on every element: equal marginals tie across elements,
    and the lowest index must win each tie."""
    rng = np.random.Generator(np.random.PCG64(40 + OBJECTIVE_FAMILIES.index(family)))
    lo_base = 1 if family in (Family.CRASHING, Family.FUELOPT) else 0
    for _ in range(6):
        n = int(rng.integers(2, 16))
        one = random_objective(rng, family, 1)
        obj = ObjectiveSpec(family, {k: np.repeat(v, n) for k, v in one.params.items()})
        c = (lo_base + rng.integers(0, 3, n) * rng.integers(0, 200)).astype(float)
        d = c + rng.choice([0, 1, 7, 500, 1000], n)
        free = int(rng.integers(0, int((d - c).sum()) + 1))
        _assert_matches_greedy(obj, c, d, float(c.sum() + free))


def test_kernel_linear_custom_fills_in_index_order():
    """All marginals equal: the bracket closes at adjacent doubles with gaps
    of many units, which go to the lowest indices first."""
    obj = ObjectiveSpec(Family.CUSTOM, {}, value_fn=lambda i, x: 2.0 * x)
    rng = np.random.Generator(np.random.PCG64(60))
    c = rng.integers(0, 20, 12).astype(float)
    d = c + rng.integers(0, 300, 12)
    free = int((d - c).sum()) // 2
    target = float(c.sum() + free)
    x = integer_rap(obj, c, d, target)
    full = np.cumsum(d - c) <= free
    k = int(np.argmin(full))  # first element that is not filled up
    assert np.array_equal(x[:k], d[:k]) and np.array_equal(x[k + 1 :], c[k + 1 :])
    _assert_matches_greedy(obj, c, d, target)


# -- continuous kernel against the bisection it replaced -------------------


def _bisect_reference(obj, idx, lo, hi, offsets, targets, eps_x, deadline=None, max_iter=2400):
    """`solve_segments_continuous` as it was before it interpolated: plain
    bisection of every segment's multiplier bracket, kept verbatim as the
    reference for the Illinois search."""
    x_out, open_seg = _fast_paths(lo, hi, offsets, targets)
    if not open_seg.any():
        return x_out

    # compact the open segments
    seg_ids = np.flatnonzero(open_seg)
    out_pos = _concat_ranges(offsets[:-1][seg_ids], offsets[1:][seg_ids])
    e_idx = idx[out_pos]
    e_lo = lo[out_pos]
    e_hi = hi[out_pos]
    lengths = (offsets[1:] - offsets[:-1])[seg_ids]
    seg_off = np.concatenate([[0], np.cumsum(lengths)])
    seg_tgt = targets[seg_ids]
    seg_of = np.repeat(np.arange(len(seg_ids)), lengths)

    lam_lo, lam_hi = _bracket_segments(obj, e_idx, e_lo, e_hi, seg_off, seg_tgt)
    # allocations at the bracket ends, maintained incrementally per bisection
    x_l = _clamped_inverse(obj, e_idx, lam_lo[seg_of], e_lo, e_hi)
    x_h = _clamped_inverse(obj, e_idx, lam_hi[seg_of], e_lo, e_hi)

    def finalize(sel):
        """Repair converged segments: fill residual gaps in index order."""
        elems = sel[seg_of]
        xl = x_l[elems]
        xh = x_h[elems]
        sub_len = lengths[sel]
        sub_off = np.concatenate([[0], np.cumsum(sub_len)])
        sub_of = np.repeat(np.arange(int(sel.sum())), sub_len)
        resid = seg_tgt[sel] - np.add.reduceat(xl, sub_off[:-1])
        gaps = xh - xl
        x = _segment_fill(xl, gaps, sub_off, resid, sub_of)
        leftover = seg_tgt[sel] - np.add.reduceat(x, sub_off[:-1])
        big = np.abs(leftover) > eps_x * sub_len
        if np.any(big):
            # flat-marginal segment: any feasible point is optimal there, so
            # restart from the floor and spread the budget uniformly
            np.copyto(x, e_lo[elems], where=big[sub_of])
            budget = seg_tgt[sel] - np.add.reduceat(x, sub_off[:-1])
            x = _waterfill(x, e_hi[elems], sub_off, budget, big)
        x_out[out_pos[elems]] = x

    it = 0
    while True:
        lam = 0.5 * (lam_lo + lam_hi)
        stuck = (lam <= lam_lo) | (lam >= lam_hi)  # float resolution exhausted
        xm = _clamped_inverse(obj, e_idx, lam[seg_of], e_lo, e_hi)
        sums = np.add.reduceat(xm, seg_off[:-1])
        ge = sums >= seg_tgt
        move_hi = ge & ~stuck
        move_lo = ~ge & ~stuck
        lam_hi = np.where(move_hi, lam, lam_hi)
        lam_lo = np.where(move_lo, lam, lam_lo)
        np.copyto(x_h, xm, where=move_hi[seg_of])
        np.copyto(x_l, xm, where=move_lo[seg_of])
        width = np.maximum.reduceat(x_h - x_l, seg_off[:-1])
        it += 1
        done = (width <= eps_x) | stuck | (it >= max_iter)
        if it % 8 == 0:
            _check_deadline(deadline)
        if done.all():
            finalize(np.ones(len(seg_ids), dtype=bool))
            return x_out
        if done.sum() * 2 >= len(seg_ids):
            # retire finished segments and compact the working set
            finalize(done)
            keep = ~done
            keep_elems = keep[seg_of]
            seg_ids = seg_ids[keep]
            out_pos = out_pos[keep_elems]
            e_idx = e_idx[keep_elems]
            e_lo = e_lo[keep_elems]
            e_hi = e_hi[keep_elems]
            x_l = x_l[keep_elems]
            x_h = x_h[keep_elems]
            lengths = lengths[keep]
            seg_off = np.concatenate([[0], np.cumsum(lengths)])
            seg_tgt = seg_tgt[keep]
            seg_of = np.repeat(np.arange(len(seg_ids)), lengths)
            lam_lo = lam_lo[keep]
            lam_hi = lam_hi[keep]


@pytest.fixture
def illinois_everywhere(monkeypatch):
    """Interpolate in calls of every size: the kernel does so only in calls
    of 2000 or more open elements, and these cases are small."""
    monkeypatch.setattr(rap_module, "_ILLINOIS_MIN_ELEMENTS", 0)
    monkeypatch.setattr(rap_module, "_ILLINOIS_ELEMENTS_PER_SEGMENT", 0)


def _assert_matches_bisection(obj, c, d, lengths, targets, eps_x):
    """The kernel lands within eps_x of the bisection on every coordinate,
    stays in the box and hits every segment target up to rounding."""
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    idx = np.arange(offsets[-1])
    targets = np.asarray(targets, dtype=float)
    x = solve_segments_continuous(obj, idx, c, d, offsets, targets, eps_x)
    ref = _bisect_reference(obj, idx, c, d, offsets, targets, eps_x)
    assert np.all(np.abs(x - ref) <= eps_x)
    assert np.all((x >= c) & (x <= d))
    rounding = 8 * np.finfo(float).eps * np.add.reduceat(np.abs(x), offsets[:-1])
    assert np.all(np.abs(np.add.reduceat(x, offsets[:-1]) - targets) <= rounding)
    return x


MIXED_LENGTHS = [1, 2, 3, 5, 1, 8, 13, 40, 2, 150, 400]


def _random_boxes(rng, lengths, lo_min=0.2):
    n = int(np.sum(lengths))
    c = rng.uniform(lo_min, 1.0, n)
    d = c + rng.uniform(0.5, 2.0, n)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    sum_c = np.add.reduceat(c, offsets[:-1])
    sum_d = np.add.reduceat(d, offsets[:-1])
    return c, d, rng.uniform(sum_c, sum_d)


def _custom_objective(n, rng):
    """Convex CUSTOM objective with a derivative and no inverse, so every
    multiplier step inverts f' by inner bisection."""
    w = rng.uniform(0.5, 2.0, n)
    return ObjectiveSpec(
        Family.CUSTOM,
        {},
        value_fn=lambda i, x: w[i] * math.exp(x) + 0.5 * x * x,
        derivative_fn=lambda i, x: w[i] * math.exp(x) + x,
    )


@pytest.mark.usefixtures("illinois_everywhere")
@pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
def test_illinois_matches_bisection(family):
    rng = np.random.Generator(np.random.PCG64(70 + OBJECTIVE_FAMILIES.index(family)))
    for eps_x in (1e-6, 1e-9, 1e-12):
        for _ in range(4):
            lengths = rng.permutation(MIXED_LENGTHS)
            c, d, targets = _random_boxes(rng, lengths)
            obj = random_objective(rng, family, c.size)
            _assert_matches_bisection(obj, c, d, lengths, targets, eps_x)


@pytest.mark.usefixtures("illinois_everywhere")
def test_illinois_matches_bisection_custom_without_inverse():
    rng = np.random.Generator(np.random.PCG64(75))
    lengths = [1, 4, 2, 9, 3]
    c, d, targets = _random_boxes(rng, lengths, lo_min=-1.0)
    _assert_matches_bisection(_custom_objective(c.size, rng), c, d, lengths, targets, 1e-9)


@pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
def test_small_calls_bisect_bit_for_bit(family):
    """Below the interpolation threshold the kernel is the bisection."""
    rng = np.random.Generator(np.random.PCG64(80 + OBJECTIVE_FAMILIES.index(family)))
    lengths = rng.permutation(MIXED_LENGTHS)
    c, d, targets = _random_boxes(rng, lengths)
    assert c.size < rap_module._ILLINOIS_MIN_ELEMENTS
    obj = random_objective(rng, family, c.size)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    idx = np.arange(c.size)
    x = solve_segments_continuous(obj, idx, c, d, offsets, targets, 1e-9)
    assert np.array_equal(x, _bisect_reference(obj, idx, c, d, offsets, targets, 1e-9))


def test_illinois_matches_bisection_above_threshold():
    """Calls big enough to interpolate without forcing it."""
    rng = np.random.Generator(np.random.PCG64(76))
    lengths = [2500, 1, 7, 300, 2, 60]
    assert sum(lengths) >= (
        rap_module._ILLINOIS_MIN_ELEMENTS
        + rap_module._ILLINOIS_ELEMENTS_PER_SEGMENT * len(lengths)
    )
    for family in OBJECTIVE_FAMILIES:
        c, d, targets = _random_boxes(rng, lengths)
        obj = random_objective(rng, family, c.size)
        _assert_matches_bisection(obj, c, d, lengths, targets, 1e-9)


@pytest.mark.usefixtures("illinois_everywhere")
@pytest.mark.parametrize("family", [Family.CRASHING, Family.FUELOPT])
def test_illinois_pole_at_lower_zero(family):
    """f' is -inf at x = 0, so the bracket passes through an interior point."""
    rng = np.random.Generator(np.random.PCG64(77))
    lengths = rng.permutation(MIXED_LENGTHS)
    c, d, targets = _random_boxes(rng, lengths)
    c[rng.random(c.size) < 0.5] = 0.0
    obj = random_objective(rng, family, c.size)
    _assert_matches_bisection(obj, c, d, lengths, targets, 1e-9)


@pytest.mark.usefixtures("illinois_everywhere")
@pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
def test_illinois_infinite_uppers(family):
    rng = np.random.Generator(np.random.PCG64(78))
    lengths = rng.permutation(MIXED_LENGTHS)
    c, d, targets = _random_boxes(rng, lengths)
    d[rng.random(d.size) < 0.3] = np.inf
    obj = random_objective(rng, family, c.size)
    x = _assert_matches_bisection(obj, c, d, lengths, targets, 1e-9)
    assert np.all(np.isfinite(x))


@pytest.mark.usefixtures("illinois_everywhere")
def test_illinois_flat_marginals_waterfill():
    """Segments of equal linear marginals end at once (the bracket is one
    point) and spread their budget uniformly; a quadratic segment rides along."""
    obj = ObjectiveSpec(
        Family.CUSTOM,
        {},
        value_fn=lambda i, x: 3.0 * x if i < 7 else (x - 1.0) ** 2,
        derivative_fn=lambda i, x: 3.0 if i < 7 else 2.0 * (x - 1.0),
    )
    lengths = [3, 4, 5]
    c = np.zeros(12)
    d = np.full(12, 4.0)
    x = _assert_matches_bisection(obj, c, d, lengths, [6.0, 10.0, 7.0], 1e-9)
    assert np.allclose(x[:7], [2, 2, 2, 2.5, 2.5, 2.5, 2.5])


@pytest.mark.usefixtures("illinois_everywhere")
@pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
def test_illinois_edge_targets_in_one_call(family):
    """One call mixing segments at their box sum, a rounding step below it,
    at zero (B = 0 on a floor of zeros), just above the floor, single
    elements, and ordinary targets."""
    rng = np.random.Generator(np.random.PCG64(79 + OBJECTIVE_FAMILIES.index(family)))
    lengths = np.array([6, 1, 9, 30, 1, 4, 250, 12, 3])
    c, d, targets = _random_boxes(rng, lengths)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    sum_d = np.add.reduceat(d, offsets[:-1])
    sum_c = np.add.reduceat(c, offsets[:-1])
    targets[0] = sum_d[0]
    targets[2] = np.nextafter(sum_d[2], -np.inf)
    targets[6] = sum_d[6] * (1 - 1e-15)
    targets[3] = np.nextafter(sum_c[3], np.inf)
    c[offsets[5] : offsets[6]] = 0.0
    targets[5] = 0.0
    obj = random_objective(rng, family, c.size)
    x = _assert_matches_bisection(obj, c, d, lengths, targets, 1e-9)
    assert np.array_equal(x[: offsets[1]], d[: offsets[1]])


@pytest.mark.parametrize("illinois", [False, True])
def test_exhausted_search_raises(monkeypatch, illinois):
    """A search cut off by max_iter with segments still open raises rather
    than finalizing a point with no eps guarantee."""
    if illinois:
        monkeypatch.setattr(rap_module, "_ILLINOIS_MIN_ELEMENTS", 0)
        monkeypatch.setattr(rap_module, "_ILLINOIS_ELEMENTS_PER_SEGMENT", 0)
    rng = np.random.Generator(np.random.PCG64(81))
    lengths = [1, 40, 7, 150]
    c, d, targets = _random_boxes(rng, lengths)
    obj = random_objective(rng, Family.CRASHING, c.size)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    idx = np.arange(c.size)
    with pytest.raises(RuntimeError, match=r"left 3 segments open after 3 steps; widest x-gap"):
        solve_segments_continuous(obj, idx, c, d, offsets, targets, 1e-9, max_iter=3)
    x = solve_segments_continuous(obj, idx, c, d, offsets, targets, 1e-9)
    assert np.all((x >= c) & (x <= d))


class _StepCounter(ObjectiveSpec):
    """Counts calls of the maps `inverse_map` hands out, one per multiplier
    step plus one per bracket end, and the elements they evaluate. The
    bisection reference reaches the same maps through
    `inverse_derivative_at`, so both kernels are counted alike."""

    def inverse_map(self, idx):
        inv = super().inverse_map(idx)
        calls = self.calls

        def counted(lam, seg_of=None):
            calls[0] += 1
            calls[1] += np.size(lam) if seg_of is None else seg_of.size
            return inv(lam, seg_of)

        return counted


# batch-small's shapes (five families, n = m in {100, 1000}, three seeds) and
# crashing at n = m = 2e4, whose first feasible draw is seed 1
STEP_SHAPES = [
    (family, n, seed)
    for family in ("f", "f-uniform", "f-active", "crashing", "fuelopt")
    for n in (100, 1000)
    for seed in range(3)
] + [("crashing", 20000, 1)]


@pytest.mark.parametrize("family,n,seed", STEP_SHAPES)
def test_steps_within_four_of_bisection(monkeypatch, family, n, seed):
    """Every kernel call of a full solve takes at most four steps more than
    the bisection would on the same inputs, and at crashing 2e4 it evaluates
    strictly fewer elements in total."""
    inst = generate_instance(family, n, n, seed)
    counter = _StepCounter(inst.objective.family, inst.objective.params)
    object.__setattr__(counter, "calls", [0, 0])
    inst = dataclasses.replace(inst, objective=counter)
    rows = []

    def both(obj, idx, lo, hi, offsets, targets, eps_x, deadline=None, stats=None):
        counter.calls[:] = [0, 0]
        _bisect_reference(obj, idx, lo, hi, offsets, targets, eps_x)
        ref = list(counter.calls)
        counter.calls[:] = [0, 0]
        x = solve_segments_continuous(obj, idx, lo, hi, offsets, targets, eps_x, deadline, stats)
        if _fast_paths(lo, hi, offsets, targets)[1].any():
            rows.append((ref, list(counter.calls)))
        return x

    monkeypatch.setattr(solver, "solve_segments_continuous", both)
    solver.solve(inst, 1e-8)
    for (ref_calls, ref_elems), (calls, elems) in rows:
        # a call with an open segment evaluates both bracket ends at least
        assert calls >= 2 and elems > 0 and ref_calls >= 2 and ref_elems > 0
        assert calls <= ref_calls + 4
    if n == 20000:
        assert rows, "the crashing draw must be feasible"
        assert sum(new[1] for _, new in rows) < sum(ref[1] for ref, _ in rows)
