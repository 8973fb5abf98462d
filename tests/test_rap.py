import dataclasses
import heapq
import math
import os
import subprocess
import sys
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nested_alloc import (
    Family,
    Mode,
    NestedInstance,
    ObjectiveSpec,
    SolveStats,
    Status,
    generate_instance,
    solve,
)
from nested_alloc import rap as rap_module
from nested_alloc import solver
from nested_alloc.cli import _scaled_integer_instance
from nested_alloc.model import POLE_FAMILIES
from nested_alloc.oracles import rap_integer_greedy
from nested_alloc.rap import (
    _bracket_segments,
    _check_deadline,
    _concat_ranges,
    _inverse_map,
    _segment_fill,
    _waterfill,
    _working_set,
    solve_segments_continuous,
    solve_segments_integer,
)

from conftest import OBJECTIVE_FAMILIES, one_segment, random_objective, vector_custom


def _clamped_inverse(obj, idx, lam_e, lo, hi):
    """x(lam) per element through the kernel's map, clamped to [lo, hi]."""
    x = _inverse_map(obj, idx, lo, hi)(lam_e)
    return np.minimum(np.maximum(x, lo), hi)


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
        lam_lo, lam_hi = _bracket_segments(obj, idx, c, d, np.array([0, 4]), np.array([target]))[:2]
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


class _SkewedProbe(ObjectiveSpec):
    """Hands the integer kernel wrong continuous points: `skew(x_c, rng)`
    replaces each x_c the inverse maps give, and `calls` counts the maps'
    calls."""

    def inverse_map(self, idx):
        inv = super().inverse_map(idx)

        def skewed(lam, seg_len=None, k=None):
            self.calls[0] += 1
            return self.skew(inv(lam, seg_len, k), self.rng)

        return skewed


PROBE_SKEWS = {
    "plus3": lambda x, rng: x + 3.0,
    "minus3": lambda x, rng: x - 3.0,
    "nan": lambda x, rng: np.full_like(x, np.nan),
    "+inf": lambda x, rng: np.full_like(x, np.inf),
    "-inf": lambda x, rng: np.full_like(x, -np.inf),
    "mixed": lambda x, rng: x + rng.choice([-3.0, 3.0, 0.0, np.nan, np.inf, -np.inf], x.size),
}


@pytest.mark.parametrize("skew", list(PROBE_SKEWS))
@pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
def test_wrong_probe_still_exact(family, skew):
    """The probe at the rounded continuous point only narrows each unit
    bracket after checking it: continuous points off by three units, NaN or
    infinite still give the greedy's allocation bit for bit."""
    rng = np.random.Generator(np.random.PCG64(80 + OBJECTIVE_FAMILIES.index(family)))
    lo_base = 1 if family in (Family.CRASHING, Family.FUELOPT) else 0
    for _ in range(6):
        n = int(rng.integers(2, 25))
        c, d, target = _wide_box(rng, n, lo_base)
        obj = _SkewedProbe(family, random_objective(rng, family, n).params)
        object.__setattr__(obj, "skew", PROBE_SKEWS[skew])
        object.__setattr__(obj, "rng", rng)
        object.__setattr__(obj, "calls", [0])
        _assert_matches_greedy(obj, c, d, target)
        assert obj.calls[0] > 0


def test_custom_without_probe_matches_greedy():
    """CUSTOM objectives have no inverse map, so every unit bracket is halved
    from the start; wide boxes still match the greedy bit for bit."""
    rng = np.random.Generator(np.random.PCG64(90))
    w = rng.uniform(0.3, 2.0, 24)
    obj = ObjectiveSpec(Family.CUSTOM, {}, value_fn=lambda i, x: w[i] * (x - 7.0) ** 2)
    for _ in range(4):
        c, d, target = _wide_box(rng, int(rng.integers(2, 25)), 0)
        _assert_matches_greedy(obj, c, d, target)


def _segments_match_greedy(monkeypatch, obj, c, d, lengths, targets):
    """Solves the segments of `lengths` in one integer kernel call, checks
    each against the greedy bit for bit, and returns the number of movable
    elements (d > c) of each open segment and how many unit gaps it left to
    the greedy-order finish (0 after an exact hit), in the order the kernel
    finished them."""
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    lens_seen, gaps_seen = [], []

    def fill(lo, gaps, offs, resid, lens):
        lens_seen.append(lens)
        gaps_seen.append(np.add.reduceat(gaps, offs[:-1]))
        return _segment_fill(lo, gaps, offs, resid, lens)

    monkeypatch.setattr(rap_module, "_segment_fill", fill)
    idx = np.arange(c.size)
    x = solve_segments_integer(obj, idx, c, d, offsets, targets)
    for k in range(len(lengths)):
        s, e = offsets[k], offsets[k + 1]
        xg = rap_integer_greedy(obj, idx[s:e], c[s:e], d[s:e], targets[k])
        assert x[s:e].tolist() == xg.tolist()
    return np.concatenate(lens_seen), np.concatenate(gaps_seen)


@pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
def test_many_segments_match_greedy(monkeypatch, family):
    """Wide boxes, segments of 2 to 40 elements in one call: the interpolated
    multiplier search (in h for crashing and fuelopt), the exact-hit stop and
    the compaction of finished segments give the greedy's allocation bit for
    bit, and distinct marginals let some segments end at an exact hit."""
    rng = np.random.Generator(np.random.PCG64(110 + OBJECTIVE_FAMILIES.index(family)))
    lo_base = 1 if family in POLE_FAMILIES else 0
    lengths = rng.integers(2, 41, 24)
    n = int(lengths.sum())
    obj = random_objective(rng, family, n)
    assert (obj.multiplier_coordinate() is not None) == (family in POLE_FAMILIES)
    c = rng.integers(lo_base, lo_base + 50, n).astype(float)
    d = c + rng.integers(1, 301, n)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    room = np.add.reduceat(d - c, offsets[:-1])
    # targets strictly inside each segment's range, so every segment is open
    free = 1.0 + np.floor(rng.uniform(0.0, 1.0, lengths.size) * (room - 2.0))
    lens, gaps = _segments_match_greedy(
        monkeypatch, obj, c, d, lengths, np.add.reduceat(c, offsets[:-1]) + free
    )
    # each segment is finished once, some of them at an exact hit
    assert sorted(lens) == sorted(lengths)
    assert np.any(gaps == 0)


def test_tie_heavy_f_grid_segments_match_greedy(monkeypatch):
    """F on the 1e6 grid of `gen --mode int`: near 5e5 units the term p x
    sits below the spacing of the doubles around x^4 / 4, so the next-unit
    marginals of elements at one unit tie exactly (here 2 distinct values
    among 164 open elements of the largest segment). Segments then cannot
    hit their targets, and the search ends on the one-unit gaps; the finish
    still matches the greedy bit for bit, lowest index first among ties."""
    rng = np.random.Generator(np.random.PCG64(100))
    lengths = np.array([1, 2, 7, 30, 200])
    n = int(lengths.sum())
    obj = ObjectiveSpec(Family.F, {"p": rng.uniform(0.0, 1.0, n)})
    c = 500000.0 + rng.integers(0, 3, n)
    d = c + rng.integers(0, 40, n)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    lo_sum = np.add.reduceat(c, offsets[:-1])
    room = np.add.reduceat(d - c, offsets[:-1])
    targets = lo_sum + np.maximum(1.0, np.floor(room * np.array([0.5, 0.4, 0.3, 0.6, 0.2])))
    lens, gaps = _segments_match_greedy(monkeypatch, obj, c, d, lengths, targets)
    (big,) = gaps[lens == np.count_nonzero(d[-200:] > c[-200:])]
    assert big > 1  # the big segment ends on a tie, not at an exact hit


_PAST_2_52 = """
import numpy as np
from nested_alloc import Family, Mode, NestedInstance, ObjectiveSpec, solve
from nested_alloc.rap import solve_segments_integer

big = 2.0**52
w, t = np.ones(2), np.array([big + 100.0, 50.0])
c, d, target = np.array([big, 0.0]), np.array([big + 300.0, 300.0]), big + 200.0
want = [big + 125.0, 75.0]
quad = ObjectiveSpec(Family.QUADRATIC, {"w": w, "t": t})
custom = ObjectiveSpec(Family.CUSTOM, {}, value_fn=lambda i, x: w[i] * (x - t[i]) ** 2)
for obj in (quad, custom):
    x = solve_segments_integer(obj, np.arange(2), c, d, np.array([0, 2]), np.array([target]))
    assert x.tolist() == want, x
    inst = NestedInstance(n=2, m=1, s=np.array([2]), a=np.array([]), B=target,
                          lower=c, upper=d, objective=obj, mode=Mode.INTEGER)
    sol, _ = solve(inst, time_limit_s=30.0)
    assert sol.x.tolist() == want, sol.x
"""


def test_units_past_2_52_do_not_stall():
    """A box at 2^52: the unit halving's midpoint tl + floor((th - tl + 1) / 2)
    stays exact where floor((tl + th + 1) / 2) rounds to tl and the loop
    stops making progress. Both the kernel and `solve` give the greedy's
    [2^52 + 125, 75], for quadratic and CUSTOM costs. Runs in a child
    process, so a stall fails on the timeout instead of hanging the suite."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    subprocess.run([sys.executable, "-c", _PAST_2_52], env=env, check=True, timeout=120)
    big = 2.0**52
    obj = ObjectiveSpec(Family.QUADRATIC, {"w": np.ones(2), "t": np.array([big + 100.0, 50.0])})
    want = [big + 125.0, 75.0]
    assert greedy_rap(obj, [big, 0.0], [big + 300.0, 300.0], big + 200.0).tolist() == want


def _fraction_greedy(obj, idx, c, d, target):
    """`rap_integer_greedy` priced in exact rational arithmetic: one unit at a
    time to the least exact marginal of the costs the family's formula gives,
    lowest position on ties."""
    if obj.family is Family.F:
        p = [Fraction(float(v)) for v in obj.params["p"][idx]]
        cost = lambda j, t: Fraction(t**4, 4) + p[j] * t
    else:
        pc4 = [Fraction(float(v)) for v in obj._fuel_constants[0][idx]]
        cost = lambda j, t: pc4[j] / t**3
    x = [int(v) for v in c]
    heap = [(cost(j, x[j] + 1) - cost(j, x[j]), j) for j in range(len(x)) if x[j] < d[j]]
    heapq.heapify(heap)
    for _ in range(int(target) - sum(x)):
        _, j = heapq.heappop(heap)
        x[j] += 1
        if x[j] < d[j]:
            heapq.heappush(heap, (cost(j, x[j] + 1) - cost(j, x[j]), j))
    return x


@pytest.mark.parametrize("family", [Family.F, Family.FUELOPT])
def test_exact_near_a_billion_units(family):
    """50 segments of 8 elements with boxes and targets near 1e9 units, where
    a difference of two costs rounds coarser than adjacent marginals differ:
    one kernel call gives each segment the allocation of the greedy priced in
    exact rational arithmetic. The costs spread the elements' continuous
    optima over about the boxes' width, so the optima are interior."""
    rng = np.random.Generator(np.random.PCG64(130 + (family is Family.FUELOPT)))
    n_seg, size = 50, 8
    n = n_seg * size
    if family is Family.F:
        # F's marginal is about 3e18 per unit here: p moves an optimum by up
        # to 2000 units
        obj = ObjectiveSpec(family, {"p": rng.uniform(0.0, 6e21, n)})
    else:
        # x scales like (p c^4)^(1/4): a relative spread of 8e-6 in p is 2000
        # units at 1e9
        obj = ObjectiveSpec(family, {"p": 1.0 + rng.uniform(0.0, 8e-6, n), "c": np.ones(n)})
    c = 1e9 + rng.integers(0, 1000, n)
    d = c + rng.integers(0, 1000, n)
    offsets = np.arange(0, n + 1, size)
    room = np.add.reduceat(d - c, offsets[:-1])
    targets = np.add.reduceat(c, offsets[:-1]) + np.floor(rng.uniform(0.0, 1.0, n_seg) * room)
    idx = np.arange(n)
    x = solve_segments_integer(obj, idx, c, d, offsets, targets)
    for s in range(n_seg):
        k = slice(s * size, (s + 1) * size)
        assert x[k].tolist() == _fraction_greedy(obj, idx[k], c[k], d[k], targets[s])


@pytest.mark.parametrize("family, parent_steps", [("fuelopt", 247), ("f", 294)])
def test_integer_counters_on_dense_grid(family, parent_steps):
    """The benchmark's dense-int instances of seed 0 (n = m = 3000 on the 1e6
    grid): at most 25 unit marginals and probed points per element per level,
    and no more multiplier steps than the float bisection the search replaced
    took (247 fuelopt, 294 f)."""
    inst = _scaled_integer_instance(generate_instance(family, 3000, 3000, 0), 1e6)
    sol, stats = solve(inst)
    assert sol.status is Status.OPTIMAL
    assert stats.kernel_evals / (inst.n * stats.recursion_levels) <= 25.0
    assert 0 < stats.kernel_steps <= parent_steps


# -- continuous kernel against the bisection it replaced -------------------


def _fast_paths(lo, hi, offsets, targets):
    """The bisection reference's fast paths: classify segments solvable
    without multiplier search.

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


def _masked_bracket(obj, idx, lo, hi, offsets, targets):
    """`_bracket_segments` as it was while point boxes reached it: the bracket
    ends skip every element with hi == lo."""
    starts = offsets[:-1]
    free = hi > lo
    with np.errstate(divide="ignore", invalid="ignore"):
        d_lo = obj.derivative_at(idx, lo)
        d_hi = obj.derivative_at(idx, hi)
    lam_lo = np.minimum.reduceat(np.where(free, d_lo, np.inf), starts)
    lam_hi = np.maximum.reduceat(np.where(free, d_hi, -np.inf), starts)
    bad = ~np.isfinite(lam_lo) | ~np.isfinite(lam_hi)
    if np.any(bad):
        lengths = np.diff(offsets)
        resid = targets - np.add.reduceat(lo, starts)
        room = np.minimum(hi - lo, np.repeat(np.maximum(resid, 0.0), lengths))
        cap = np.add.reduceat(room, starts)
        share = np.where(cap > 0, resid / np.where(cap > 0, cap, 1.0), 0.0)
        d_f = obj.derivative_at(idx, lo + room * np.repeat(share, lengths))
        lam_lo = np.where(bad, np.minimum.reduceat(np.where(free, d_f, np.inf), starts), lam_lo)
        lam_hi = np.where(bad, np.maximum.reduceat(np.where(free, d_f, -np.inf), starts), lam_hi)
    return lam_lo, lam_hi


def _bisect_reference(obj, idx, lo, hi, offsets, targets, eps_x, deadline=None, max_iter=2400):
    """`solve_segments_continuous` as it was before it interpolated: plain
    bisection of every segment's multiplier bracket, kept verbatim as the
    reference for the Illinois search. Its fast paths (`_fast_paths`) close
    only segments with a target at or past a box-sum end and single
    elements, so point boxes stay in its working set, and its bracket
    (`_masked_bracket`) skips them."""
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

    lam_lo, lam_hi = _masked_bracket(obj, e_idx, e_lo, e_hi, seg_off, seg_tgt)
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
        x = _segment_fill(xl, gaps, sub_off, resid, sub_len)
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


@pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
def test_illinois_matches_bisection(family):
    rng = np.random.Generator(np.random.PCG64(70 + OBJECTIVE_FAMILIES.index(family)))
    for eps_x in (1e-6, 1e-9, 1e-12):
        for _ in range(4):
            lengths = rng.permutation(MIXED_LENGTHS)
            c, d, targets = _random_boxes(rng, lengths)
            obj = random_objective(rng, family, c.size)
            _assert_matches_bisection(obj, c, d, lengths, targets, eps_x)


def test_illinois_matches_bisection_custom_without_inverse():
    rng = np.random.Generator(np.random.PCG64(75))
    lengths = [1, 4, 2, 9, 3]
    c, d, targets = _random_boxes(rng, lengths, lo_min=-1.0)
    _assert_matches_bisection(_custom_objective(c.size, rng), c, d, lengths, targets, 1e-9)


@pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
def test_small_calls_match_bisection(family):
    """Below the gate the kernel runs the breakpoint phase before it
    interpolates, and lands within eps_x of the bisection."""
    rng = np.random.Generator(np.random.PCG64(80 + OBJECTIVE_FAMILIES.index(family)))
    lengths = rng.permutation(MIXED_LENGTHS)
    c, d, targets = _random_boxes(rng, lengths)
    assert c.size < rap_module._BREAKPOINT_PHASE_ELEMENTS
    obj = random_objective(rng, family, c.size)
    _assert_matches_bisection(obj, c, d, lengths, targets, 1e-9)


def test_illinois_matches_bisection_above_threshold():
    """Calls big enough to skip the breakpoint phase. Besides ordinary
    targets they hold a segment at its box sum, one an ulp below it, which
    hits at a bracket end, and one at 0 on a floor of zeros. A CUSTOM call
    holds two segments that end stuck without a hit and have their bracket
    ends evaluated again: one of flat marginals, stuck at once, and one whose
    x(lam) jumps at its multiplier, stuck at adjacent doubles."""
    rng = np.random.Generator(np.random.PCG64(76))
    lengths = [2500, 1, 7, 300, 2, 60, 40, 9]
    assert sum(lengths) >= rap_module._BREAKPOINT_PHASE_ELEMENTS
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    for family in OBJECTIVE_FAMILIES:
        c, d, targets = _random_boxes(rng, lengths)
        sum_d = np.add.reduceat(d, offsets[:-1])
        targets[3] = sum_d[3]
        targets[6] = np.nextafter(sum_d[6], -np.inf)
        c[offsets[7] :] = 0.0
        targets[7] = 0.0
        obj = random_objective(rng, family, c.size)
        _assert_matches_bisection(obj, c, d, lengths, targets, 1e-9)

    # CUSTOM: equal linear costs below n_flat; beyond it f' = x up to 1,
    # then flat at 1 up to x = 2, then x - 1, so x(lam) jumps from 1 to 2 at
    # lam = 1, where a target of 1.5 per element puts the multiplier
    n_flat = rap_module._BREAKPOINT_PHASE_ELEMENTS

    def cost(i, x):
        if i < n_flat:
            return 3.0 * x
        w = max(x - 2.0, 0.0)
        return 0.5 * min(x, 1.0) ** 2 + min(max(x - 1.0, 0.0), 1.0) + 0.5 * w * w + w

    def slope(i, x):
        return 3.0 if i < n_flat else min(x, 1.0) + max(x - 2.0, 0.0)

    obj = ObjectiveSpec(Family.CUSTOM, {}, value_fn=cost, derivative_fn=slope)
    c = np.zeros(n_flat + 5)
    d = np.full(n_flat + 5, 4.0)
    x = _assert_matches_bisection(obj, c, d, [n_flat, 5], [2.5 * n_flat, 7.5], 1e-9)
    assert np.allclose(x[:n_flat], 2.5)


@pytest.mark.parametrize("family", [Family.CRASHING, Family.FUELOPT])
def test_illinois_pole_at_lower_zero(family):
    """f' is -inf at x = 0, so the bracket passes through an interior point."""
    rng = np.random.Generator(np.random.PCG64(77))
    lengths = rng.permutation(MIXED_LENGTHS)
    c, d, targets = _random_boxes(rng, lengths)
    c[rng.random(c.size) < 0.5] = 0.0
    obj = random_objective(rng, family, c.size)
    _assert_matches_bisection(obj, c, d, lengths, targets, 1e-9)


@pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
def test_illinois_infinite_uppers(family):
    rng = np.random.Generator(np.random.PCG64(78))
    lengths = rng.permutation(MIXED_LENGTHS)
    c, d, targets = _random_boxes(rng, lengths)
    d[rng.random(d.size) < 0.3] = np.inf
    obj = random_objective(rng, family, c.size)
    x = _assert_matches_bisection(obj, c, d, lengths, targets, 1e-9)
    assert np.all(np.isfinite(x))


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


def _near_box_ends(c, d, lengths, ulps):
    """Targets `ulps` rounding steps below the box sum (even segments) or
    above the floor sum (odd segments)."""
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    sum_c = np.add.reduceat(c, starts)
    sum_d = np.add.reduceat(d, starts)
    return np.where(
        np.arange(len(lengths)) % 2 == 0,
        sum_d - ulps * np.spacing(sum_d),
        sum_c + ulps * np.spacing(sum_c),
    )


@pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
@pytest.mark.parametrize("ulps", [1, 4])
def test_root_stop_closes_plateau_before_bisection(family, ulps):
    """A target a few ulps inside either box end leaves the excess at that
    bracket end within a few ulps of zero; the root stop ends such segments
    within one step, where the bisection halves the bracket until x-widths
    fall below eps_x."""
    rng = np.random.Generator(np.random.PCG64(90 + OBJECTIVE_FAMILIES.index(family)))
    lengths = [40, 150, 7, 400]
    c, d, _ = _random_boxes(rng, lengths)
    targets = _near_box_ends(c, d, lengths, ulps)
    obj = random_objective(rng, family, c.size)
    counter = _StepCounter(obj.family, obj.params)
    object.__setattr__(counter, "calls", [0, 0])
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    idx = np.arange(c.size)
    _bisect_reference(counter, idx, c, d, offsets, targets, 1e-9)
    ref_calls = counter.calls[0]
    counter.calls[:] = [0, 0]
    stats = SolveStats()
    x = solve_segments_continuous(counter, idx, c, d, offsets, targets, 1e-9, stats=stats)
    assert stats.kernel_steps <= 1 and counter.calls[0] <= 3
    assert ref_calls > 20
    _assert_matches_bisection(obj, c, d, lengths, targets, 1e-9)
    assert np.all(np.abs(x - _bisect_reference(obj, idx, c, d, offsets, targets, 1e-12)) <= 1e-9)


@pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
def test_root_stop_within_eps_of_tight_bisection(family):
    """With the root stop, every coordinate stays within eps_x of a bisection
    run to eps_x * 1e-3, inside the box, with segment sums exact up to
    rounding; ordinary targets mix with ones a few ulps from either box end."""
    rng = np.random.Generator(np.random.PCG64(95 + OBJECTIVE_FAMILIES.index(family)))
    for eps_x in (1e-6, 1e-9, 1e-12):
        for trial in range(4):
            lengths = rng.permutation(MIXED_LENGTHS)
            c, d, targets = _random_boxes(rng, lengths)
            if trial % 2:
                near = _near_box_ends(c, d, lengths, trial)
                targets = np.where(rng.random(len(lengths)) < 0.5, near, targets)
            obj = random_objective(rng, family, c.size)
            offsets = np.concatenate([[0], np.cumsum(lengths)])
            idx = np.arange(c.size)
            x = solve_segments_continuous(obj, idx, c, d, offsets, targets, eps_x)
            ref = _bisect_reference(obj, idx, c, d, offsets, targets, eps_x * 1e-3)
            assert np.all(np.abs(x - ref) <= eps_x)
            assert np.all((x >= c) & (x <= d))
            sums = np.add.reduceat(x, offsets[:-1])
            rounding = 8 * np.finfo(float).eps * np.add.reduceat(np.abs(x), offsets[:-1])
            assert np.all(np.abs(sums - targets) <= rounding)


def test_root_stop_fills_high_side_hit_downward():
    """A target just below the box sum hits at lam_hi, where x = d: the
    residual comes off x_h = d in index order, so the first element gives up
    all of it and the rest stay at their upper bounds. A fill up from x_l
    would leave the last elements at x_l instead."""
    n, eps_x, short = 300, 1e-6, 3e-7
    rng = np.random.Generator(np.random.PCG64(99))
    obj = random_objective(rng, Family.QUADRATIC, n)
    c = rng.uniform(0.0, 1.0, n)
    d = c + rng.uniform(0.5, 2.0, n)
    target = d.sum() - short
    stats = SolveStats()
    x = solve_segments_continuous(obj, *one_segment(c, d, target), eps_x, stats=stats)
    assert stats.kernel_steps <= 1
    assert np.array_equal(x[1:], d[1:])
    assert abs(x[0] - (d[0] - short)) <= 1e-12
    ref = _bisect_reference(obj, *one_segment(c, d, target), eps_x * 1e-3)
    assert np.all(np.abs(x - ref) <= eps_x / 2)


@pytest.mark.parametrize("large", [False, True])
def test_exhausted_search_raises(large):
    """A search cut off by max_iter with segments still open raises rather
    than finalizing a point with no eps guarantee, in a call below the gate
    (still in its breakpoint phase) and in one above it."""
    rng = np.random.Generator(np.random.PCG64(81))
    lengths = [1, 40, 7, 150] + [rap_module._BREAKPOINT_PHASE_ELEMENTS] * large
    c, d, targets = _random_boxes(rng, lengths)
    assert (c.size >= rap_module._BREAKPOINT_PHASE_ELEMENTS) == large
    obj = random_objective(rng, Family.CRASHING, c.size)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    idx = np.arange(c.size)
    message = rf"left {3 + large} segments open after 3 steps; widest x-gap"
    with pytest.raises(RuntimeError, match=message):
        solve_segments_continuous(obj, idx, c, d, offsets, targets, 1e-9, max_iter=3)
    x = solve_segments_continuous(obj, idx, c, d, offsets, targets, 1e-9)
    assert np.all((x >= c) & (x <= d))


EXACT_STEP_FAMILIES = [Family.CRASHING, Family.FUELOPT, Family.QUADRATIC]


@pytest.mark.parametrize("family", EXACT_STEP_FAMILIES)
@pytest.mark.parametrize("k", [2, 100, 1000])
def test_single_segment_steps_logarithmic(family, k):
    """One segment of K elements has at most 2K - 2 breakpoints inside its
    bracket, so the breakpoint phase takes at most ceil(log2(2K)) steps. The
    bracket then holds no kink, and the families whose x is affine in lam or
    in h(lam) land on the root in one more step."""
    rng = np.random.Generator(np.random.PCG64(100 + k))
    for _ in range(5):
        c, d, (target,) = _random_boxes(rng, [k])
        obj = random_objective(rng, family, k)
        stats = SolveStats()
        x = solve_segments_continuous(obj, *one_segment(c, d, target), 1e-9, stats=stats)
        assert stats.kernel_steps <= math.ceil(math.log2(2 * k)) + 2
        assert np.all(np.abs(x - _bisect_reference(obj, *one_segment(c, d, target), 1e-12)) <= 1e-9)


@pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
def test_tied_breakpoints(family):
    """Two groups of elements with equal parameters and boxes: all their
    breakpoints tie at four values, two of them the bracket ends, so the
    breakpoint phase visits at most two before the kink-free finish."""
    rng = np.random.Generator(np.random.PCG64(110 + OBJECTIVE_FAMILIES.index(family)))
    k = 500
    one = [random_objective(rng, family, 1) for _ in range(2)]
    params = {key: np.repeat([o.params[key][0] for o in one], k) for key in one[0].params}
    obj = ObjectiveSpec(family, params)
    c = np.repeat(rng.uniform(0.2, 1.0, 2), k)
    d = c + np.repeat(rng.uniform(0.5, 2.0, 2), k)
    for share in (0.1, 0.5, 0.9):
        target = c.sum() + share * (d - c).sum()
        stats = SolveStats()
        x = _assert_matches_bisection(obj, c, d, [2 * k], [target], 1e-9)
        solve_segments_continuous(obj, *one_segment(c, d, target), 1e-9, stats=stats)
        if family in EXACT_STEP_FAMILIES:
            assert stats.kernel_steps <= 4
        # tied elements stay tied up to the residual fill
        assert np.ptp(x[:k]) <= 1e-9 and np.ptp(x[k:]) <= 1e-9


def test_small_custom_jump_ends_stuck():
    """x(lam) jumps from 1 to 2 at lam = 1 inside a bracket [0, 3] that
    holds no breakpoint: no step can hit a target of 1.5 per element, so the
    search ends stuck at adjacent doubles long before max_iter, evaluates its
    bracket ends and fills up from x = 1 in index order."""

    def cost(i, x):
        w = max(x - 2.0, 0.0)
        return 0.5 * min(x, 1.0) ** 2 + min(max(x - 1.0, 0.0), 1.0) + 0.5 * w * w + w

    def slope(i, x):
        return min(x, 1.0) + max(x - 2.0, 0.0)

    obj = ObjectiveSpec(Family.CUSTOM, {}, value_fn=cost, derivative_fn=slope)
    c, d = np.zeros(5), np.full(5, 4.0)
    stats = SolveStats()
    x = solve_segments_continuous(obj, *one_segment(c, d, 7.5), 1e-9, stats=stats)
    assert np.allclose(x, [2.0, 2.0, 1.5, 1.0, 1.0], rtol=0, atol=1e-9)
    # about 52 halvings of a bracket 3 wide, at most four steps each
    assert stats.kernel_steps <= 4 * 53
    _assert_matches_bisection(obj, c, d, [5], [7.5], 1e-9)


def _flat_objective(n, flat, rng):
    """CUSTOM objective: linear costs of slope 3 on the elements flagged in
    `flat`, convex quadratics on the others."""
    w = rng.uniform(0.3, 2.0, n)
    t = rng.uniform(-2.0, 4.0, n)
    return ObjectiveSpec(
        Family.CUSTOM,
        {},
        value_fn=lambda i, x: 3.0 * x if flat[i] else w[i] * (x - t[i]) ** 2,
        derivative_fn=lambda i, x: 3.0 if flat[i] else 2.0 * w[i] * (x - t[i]),
    )


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(OBJECTIVE_FAMILIES + [Family.CUSTOM]),
    lengths=st.lists(st.integers(1, 60), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    pole=st.booleans(),
    unbounded=st.booleans(),
    edge=st.sampled_from(["none", "at", "ulp"]),
    eps_x=st.sampled_from([1e-6, 1e-9, 1e-12]),
)
def test_small_calls_within_eps_of_tight_bisection(
    family, lengths, seed, pole, unbounded, edge, eps_x
):
    """Calls below the gate land within eps_x of a bisection run to
    eps_x * 1e-3, inside the box, with exact segment sums. Draws cover poles
    at 0, infinite uppers, segments of flat marginals (CUSTOM, linear costs)
    and targets at or an ulp inside either box sum."""
    rng = np.random.Generator(np.random.PCG64(seed))
    if family is Family.CUSTOM:  # per-element Python callbacks: keep it small
        lengths = [min(n, 8) for n in lengths[:4]]
    c, d, targets = _random_boxes(rng, lengths)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    if pole and family in POLE_FAMILIES:
        c[rng.random(c.size) < 0.5] = 0.0
    if unbounded:
        d[rng.random(d.size) < 0.3] = np.inf
    if edge != "none":
        sum_c = np.add.reduceat(c, offsets[:-1])
        sum_d = np.add.reduceat(d, offsets[:-1])
        ulps = 1.0 if edge == "ulp" else 0.0
        upper = rng.random(len(lengths)) < 0.5
        near = np.where(
            upper & np.isfinite(sum_d),
            sum_d - ulps * np.spacing(sum_d),
            sum_c + ulps * np.spacing(sum_c),
        )
        targets = np.where(rng.random(len(lengths)) < 0.7, near, targets)
    if family is Family.CUSTOM:
        seg_flat = rng.random(len(lengths)) < 0.5
        obj = _flat_objective(c.size, np.repeat(seg_flat, lengths), rng)
    else:
        obj = random_objective(rng, family, c.size)
    assert c.size < rap_module._BREAKPOINT_PHASE_ELEMENTS
    idx = np.arange(c.size)
    x = solve_segments_continuous(obj, idx, c, d, offsets, targets, eps_x)
    ref = _bisect_reference(obj, idx, c, d, offsets, targets, eps_x * 1e-3)
    assert np.all(np.abs(x - ref) <= eps_x)
    assert np.all((x >= c) & (x <= d))
    sums = np.add.reduceat(x, offsets[:-1])
    rounding = 8 * np.finfo(float).eps * np.add.reduceat(np.abs(x), offsets[:-1])
    assert np.all(np.abs(sums - targets) <= rounding)


class _StepCounter(ObjectiveSpec):
    """Counts calls of the maps `inverse_map` hands out, one per multiplier
    step plus one where a call evaluates its bracket ends, and the elements
    they evaluate. The bisection reference reaches the same maps through
    `inverse_derivative_at`, so both kernels are counted alike."""

    def inverse_map(self, idx):
        inv = super().inverse_map(idx)
        calls = self.calls

        def counted(lam, seg_len=None, k=None):
            calls[0] += 1
            calls[1] += np.size(lam) if seg_len is None else int(seg_len.sum())
            return inv(lam, seg_len, k)

        return counted


# batch-small's shapes (five families, n = m in {100, 1000}, three seeds),
# crashing at n = m = 2e4, whose first feasible draw is seed 1, and pole-wide
# crashing and fuelopt calls: a lower bound of 1e-9 in the top levels' large
# segments puts their cold brackets' lower ends near -1e18
STEP_SHAPES = [
    pytest.param(family, n, seed, False, id=f"{family}-{n}-{seed}")
    for family, n, seed in [
        (family, n, seed)
        for family in ("f", "f-uniform", "f-active", "crashing", "fuelopt")
        for n in (100, 1000)
        for seed in range(3)
    ] + [("crashing", 20000, 1)]
] + [
    pytest.param(family, 4000, seed, True, id=f"{family}-4000-{seed}-pole-wide")
    for family, seed in [("crashing", 1), ("fuelopt", 0)]
]


@pytest.mark.parametrize("family,n,seed,pole_wide", STEP_SHAPES)
def test_steps_within_four_of_bisection(monkeypatch, family, n, seed, pole_wide):
    """Every kernel call of a full solve takes at most four steps more than
    the bisection would on the same inputs, and at crashing 2e4 and in the
    pole-wide solves, where merges start from their children's multipliers
    and brackets step geometrically, it evaluates strictly fewer elements in
    total."""
    inst = generate_instance(family, n, n, seed)
    if pole_wide:
        inst = dataclasses.replace(inst, lower=np.where(np.arange(n) == 7, 1e-9, inst.lower))
    counter = _StepCounter(inst.objective.family, inst.objective.params)
    object.__setattr__(counter, "calls", [0, 0])
    inst = dataclasses.replace(inst, objective=counter)
    rows = []
    widest = [0.0]

    def both(obj, idx, lo, hi, offsets, targets, eps_x, deadline=None, stats=None, **kw):
        counter.calls[:] = [0, 0]
        _bisect_reference(obj, idx, lo, hi, offsets, targets, eps_x)
        ref = list(counter.calls)
        counter.calls[:] = [0, 0]
        x = solve_segments_continuous(
            obj, idx, lo, hi, offsets, targets, eps_x, deadline, stats, **kw
        )
        work = _working_set(idx, lo, hi, offsets, targets)
        if work[3].size:
            rows.append((ref, list(counter.calls)))
            if work[3].max() >= rap_module._BREAKPOINT_PHASE_ELEMENTS:
                widest[0] = max(widest[0], float(np.max(hi[work[1]] / lo[work[1]])))
        return x

    monkeypatch.setattr(solver, "solve_segments_continuous", both)
    solver.solve(inst, 1e-8)
    for (ref_calls, ref_elems), (calls, elems) in rows:
        # a call with an open segment evaluates both bracket ends at least
        assert calls >= 2 and elems > 0 and ref_calls >= 2 and ref_elems > 0
        assert calls <= ref_calls + 4
    if n >= 4000:
        assert rows, "the draw must be feasible"
        assert sum(new[1] for _, new in rows) < sum(ref[1] for ref, _ in rows)
    if pole_wide:
        assert widest[0] > 1e8  # a large call's box reaches down to 1e-9


# -- the working set: point boxes and closed segments leave before the search


def _point_box_layout(rng, family, large, integer=False):
    """Segments that mix point boxes (c = d) with movable elements: one left
    with a single movable element, one whose movable element beside point
    boxes has an infinite upper bound (continuous only), one whose point
    boxes and movable floors already carry its whole target, and ordinary
    segments holding about a third point boxes, some of them at 0 (at the
    pole of crashing and fuelopt in continuous mode). Bounds are multiples
    of 1/16, so every sum over them is exact in any order. Returns c, d,
    segment lengths and targets."""
    lengths = np.array([6, 5, 7, 40, 3, 150] + [2500] * large)
    n = int(lengths.sum())
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    base = 1 if integer and family in POLE_FAMILIES else 0
    c = base + rng.integers(0, 64, n) / (1.0 if integer else 16.0)
    d = c + rng.integers(8, 32, n) / (1.0 if integer else 16.0)
    point = rng.random(n) < 0.35
    if not integer:
        point[rng.random(n) < 0.1] = True
        c[point & (rng.random(n) < 0.3)] = 0.0
    d[point] = c[point]
    seg = [np.arange(offsets[k], offsets[k + 1]) for k in range(lengths.size)]
    d[seg[0][:-1]] = c[seg[0][:-1]]  # one movable element left
    d[seg[0][-1]] = c[seg[0][-1]] + 4.0
    d[seg[1]] = c[seg[1]]
    d[seg[1][[1, 3]]] = c[seg[1][[1, 3]]] + [2.0, np.inf if not integer else 5.0]
    sum_c = np.add.reduceat(c, offsets[:-1])
    room = np.add.reduceat(np.minimum(d - c, 8.0), offsets[:-1])
    share = rng.uniform(0.2, 0.8, lengths.size)
    targets = sum_c + (np.floor(share * room) if integer else share * room)
    targets[2] = sum_c[2]  # carried by the point boxes and movable floors
    return c, d, lengths, targets


def _strip_point_boxes(c, d, lengths, targets):
    """The same problem with its point boxes taken out: each segment keeps its
    movable elements (their variable indices, bounds and order) and its
    target less its point-box mass; segments without any are dropped."""
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    movable = d > c
    n_mov = np.add.reduceat(movable, offsets[:-1])
    mass = np.add.reduceat(np.where(movable, 0.0, c), offsets[:-1])
    keep = n_mov > 0
    idx = np.flatnonzero(movable)
    sub_off = np.concatenate([[0], np.cumsum(n_mov[keep])])
    return idx, c[idx], d[idx], sub_off, (targets - mass)[keep]


@pytest.mark.parametrize("large", [False, True])
@pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
def test_point_boxes_leave_the_continuous_search(family, large):
    """Point boxes come back bit-exact at their bound, a segment left with one
    movable element takes its target less the point-box mass, and the rest
    lands within eps_x of the bisection with exact sums. The search does
    exactly the work, and gives exactly the answer, of a call that never
    held the point boxes: `kernel_evals` counts movable elements only."""
    rng = np.random.Generator(np.random.PCG64(120 + OBJECTIVE_FAMILIES.index(family) + 10 * large))
    c, d, lengths, targets = _point_box_layout(rng, family, large)
    assert (c.size >= rap_module._BREAKPOINT_PHASE_ELEMENTS) == large
    obj = random_objective(rng, family, c.size)
    x = _assert_matches_bisection(obj, c, d, lengths, targets, 1e-9)
    point = c == d
    assert np.array_equal(x[point], c[point])
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    one = offsets[1] - 1
    assert x[one] == targets[0] - c[offsets[0] : one].sum() and c[one] < x[one] < d[one]
    assert np.isinf(d[offsets[1] + 3]) and np.isfinite(x[offsets[1] : offsets[2]]).all()
    assert np.array_equal(x[offsets[2] : offsets[3]], c[offsets[2] : offsets[3]])

    stats = SolveStats()
    idx = np.arange(c.size)
    x_full = solve_segments_continuous(obj, idx, c, d, offsets, targets, 1e-9, stats=stats)
    bare = SolveStats()
    s_idx, s_c, s_d, s_off, s_tgt = _strip_point_boxes(c, d, lengths, targets)
    x_bare = solve_segments_continuous(obj, s_idx, s_c, s_d, s_off, s_tgt, 1e-9, stats=bare)
    assert np.array_equal(x_full[s_idx], x_bare)
    assert stats.kernel_steps == bare.kernel_steps > 0
    assert stats.kernel_evals == bare.kernel_evals > 0


@pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
def test_point_boxes_leave_the_integer_search(monkeypatch, family):
    """The integer kernel on segments that mix point boxes with movable
    elements gives the greedy's allocation bit for bit, and the steps and
    evaluations of a call that never held the point boxes."""
    rng = np.random.Generator(np.random.PCG64(130 + OBJECTIVE_FAMILIES.index(family)))
    c, d, lengths, targets = _point_box_layout(rng, family, False, integer=True)
    obj = random_objective(rng, family, c.size)
    _segments_match_greedy(monkeypatch, obj, c, d, lengths, targets)
    monkeypatch.undo()
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    stats, bare = SolveStats(), SolveStats()
    x_full = solve_segments_integer(obj, np.arange(c.size), c, d, offsets, targets, stats=stats)
    s_idx, s_c, s_d, s_off, s_tgt = _strip_point_boxes(c, d, lengths, targets)
    x_bare = solve_segments_integer(obj, s_idx, s_c, s_d, s_off, s_tgt, stats=bare)
    assert np.array_equal(x_full[s_idx], x_bare)
    assert stats.kernel_steps == bare.kernel_steps > 0
    assert stats.kernel_evals == bare.kernel_evals > 0


# -- one-add repair of hit segments and the breakpoint sort ----------------


def _index_order_fill(x, lo, hi, r):
    """The fill a hit segment took before the one-add repair: the residual r
    placed in index order from x, up inside hi - x or, negated, down inside
    x - lo, every gap capped at |r| (`_segment_fill` on one segment)."""
    n = np.array([x.size])
    off = np.array([0, x.size])
    if r < 0:
        return -_segment_fill(-x, np.minimum(x - lo, -r), off, np.array([-r]), n)
    return _segment_fill(x, np.minimum(hi - x, r), off, np.array([r]), n)


def _repair_layout(rng, lengths):
    """Random x in [lo, hi] with a share of elements at a bound and a few
    infinite upper bounds."""
    n = int(np.sum(lengths))
    lo = rng.uniform(0.0, 1.0, n)
    hi = lo + rng.uniform(1e-3, 1.0, n)
    hi[rng.random(n) < 0.1] = np.inf
    x = lo + rng.uniform(0.0, 1.0, n) * np.where(np.isfinite(hi), hi - lo, 1.0)
    x = np.where(rng.random(n) < 0.2, lo, x)
    x = np.where(rng.random(n) < 0.2, hi, x)
    return np.where(np.isfinite(x), x, lo), lo, hi


@pytest.mark.parametrize("seed", range(6))
def test_add_residuals_is_the_index_order_fill(seed):
    """Where `_add_residuals` adds, it gives the index-order fill: the same
    element takes r, bit for bit, and the fill's rounding crumbs elsewhere
    (its running sums round) stay below 4 eps |r|. Where it declines, the
    first room is short of |r|; segments it is not asked about stay
    untouched."""
    rng = np.random.Generator(np.random.PCG64(300 + seed))
    lengths = rng.integers(1, 12, 40)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    x, lo, hi = _repair_layout(rng, lengths)
    resid = rng.choice([-1.0, 1.0], lengths.size) * 10.0 ** rng.uniform(-12, 0.5, lengths.size)
    resid[::7] = 0.0
    resid[3::7] = -5.0  # more than any room below
    which = rng.random(lengths.size) < 0.9
    out = x.copy()
    one = rap_module._add_residuals(out, lo, hi, offsets, lengths, resid, which)
    assert not one[~which].any()
    assert 0 < one.sum() < which.sum()
    for j, (s, e) in enumerate(zip(offsets[:-1], offsets[1:])):
        if not which[j]:
            assert np.array_equal(out[s:e], x[s:e])
            continue
        ref = _index_order_fill(x[s:e], lo[s:e], hi[s:e], resid[j])
        room = (x - lo if resid[j] < 0 else hi - x)[s:e]
        if one[j]:
            moved = np.flatnonzero(out[s:e] != x[s:e])
            assert moved.size <= 1 and np.array_equal(out[s:e][moved], ref[moved])
            assert np.all(np.abs(out[s:e] - ref) <= 4 * np.finfo(float).eps * abs(resid[j]))
        else:
            assert np.array_equal(out[s:e], x[s:e])
            first = np.flatnonzero(room > 0)
            assert first.size == 0 or room[first[0]] < abs(resid[j])


@pytest.mark.parametrize("up", [True, False])
def test_add_residuals_cases(up):
    """Up (r > 0) and down (r < 0): the first room past an element at its bound
    takes r whole; an infinite upper bound is room enough; a first room
    smaller than |r| leaves the segment to the fill, which spills."""
    lo = np.zeros(9)
    hi = np.array([1.0, 1.0, 1.0, 1.0, np.inf, 1.0, 1.0, 1.0, 1.0])
    if up:
        x = np.array([1.0, 0.5, 0.3, 1.0, 0.0, 0.5, 0.9999, 0.5, 0.5])
        r = np.array([0.25, 7.5, 0.25])
    else:
        x = np.array([0.0, 0.5, 0.3, 0.0, 0.4, 0.5, 0.0001, 0.5, 0.5])
        r = np.array([-0.25, -0.1, -0.25])
    lengths = np.array([3, 3, 3])
    offsets = np.array([0, 3, 6, 9])
    out = x.copy()
    one = rap_module._add_residuals(out, lo, hi, offsets, lengths, r, np.ones(3, dtype=bool))
    assert one.tolist() == [True, True, False]
    assert out[1] == x[1] + r[0] and out[4] == x[4] + r[1]
    for j in range(2):
        s, e = offsets[j], offsets[j + 1]
        assert np.array_equal(out[s:e], _index_order_fill(x[s:e], lo[s:e], hi[s:e], r[j]))
    assert np.array_equal(out[6:], x[6:])
    spilled = _index_order_fill(x[6:], lo[6:], hi[6:], r[2])
    assert np.count_nonzero(spilled != x[6:]) == 2
    assert abs(spilled.sum() - (x[6:].sum() + r[2])) <= 1e-15


@pytest.mark.parametrize("large", [False, True])
def test_one_call_mixes_repair_routes(monkeypatch, large):
    """A call whose hit segments go some through the one add and some through
    the general fill gives the answer of a call that fills them all: every
    other segment is kept from the one add by a wrapper. Every finalize of
    two or more hit segments takes both routes."""
    rng = np.random.Generator(np.random.PCG64(310 + large))
    lengths = np.array(MIXED_LENGTHS * (6 if large else 1))
    c, d, targets = _random_boxes(rng, lengths)
    obj = random_objective(rng, Family.CRASHING, c.size)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    idx = np.arange(c.size)
    assert (c.size >= rap_module._BREAKPOINT_PHASE_ELEMENTS) == large
    add = rap_module._add_residuals
    routes = []

    def every_other(x, lo, hi, offsets, lengths, resid, which):
        hits = which
        which = which.copy()
        which[1::2] = False
        one = add(x, lo, hi, offsets, lengths, resid, which)
        routes.append((int(hits.sum()), int(one.sum()), int((hits & ~one).sum())))
        return one

    def none(x, lo, hi, offsets, lengths, resid, which):
        return np.zeros(which.size, dtype=bool)

    base_stats = SolveStats()
    base = solve_segments_continuous(obj, idx, c, d, offsets, targets, 1e-9, stats=base_stats)
    outs = []
    for wrapper in (every_other, none):
        monkeypatch.setattr(rap_module, "_add_residuals", wrapper)
        stats = SolveStats()
        outs.append(solve_segments_continuous(obj, idx, c, d, offsets, targets, 1e-9, stats=stats))
        assert (stats.kernel_steps, stats.kernel_evals) == (base_stats.kernel_steps,
                                                            base_stats.kernel_evals)
    # a finalize of one hit segment (geometric steps end a large call's
    # segments at different steps) can take only one route
    mixed = [(a, b) for hits, a, b in routes if hits >= 2]
    assert mixed and all(a > 0 and b > 0 for a, b in mixed)
    tol = 4 * np.finfo(float).eps * np.maximum(np.abs(base), 1.0)
    for x in outs:
        assert np.all(np.abs(x - base) <= tol)


def _lexsort_breakpoints(d_lo, d_hi, lam_lo, lam_hi, seg_len):
    """`_interior_breakpoints` as it sorted before: one `np.lexsort`."""
    ids = np.arange(seg_len.size)
    lo_e, hi_e = np.repeat(lam_lo, seg_len), np.repeat(lam_hi, seg_len)
    in_lo = (d_lo > lo_e) & (d_lo < hi_e)
    in_hi = (d_hi > lo_e) & (d_hi < hi_e)
    seg_e = np.repeat(ids, seg_len)
    vals = np.concatenate([d_lo[in_lo], d_hi[in_hi]])
    seg = np.concatenate([seg_e[in_lo], seg_e[in_hi]])
    order = np.lexsort((vals, seg))
    vals, seg = vals[order], seg[order]
    first = np.ones(vals.size, dtype=bool)
    first[1:] = (vals[1:] != vals[:-1]) | (seg[1:] != seg[:-1])
    vals, seg = vals[first], seg[first]
    return vals, np.searchsorted(seg, ids), np.searchsorted(seg, ids, side="right")


@pytest.mark.parametrize("seed", range(5))
def test_breakpoint_sort_matches_lexsort(seed):
    """The value-then-segment stable sort gives the lexsort's breakpoints and
    ranges on keys with ties within and across segments, infinite and NaN
    keys and infinite bracket ends among them."""
    rng = np.random.Generator(np.random.PCG64(320 + seed))
    seg_len = rng.integers(2, 7, 400)  # about 1800 elements, as below the phase bound
    n = int(seg_len.sum())
    keys = np.concatenate([np.arange(-8.0, 8.0) / 4.0, [np.inf, -np.inf, np.nan]])
    d_lo = rng.choice(keys, n)
    d_hi = rng.choice(keys, n)
    lam_lo = rng.choice(keys[:8], seg_len.size)
    lam_hi = rng.choice(keys[8:16], seg_len.size)
    lam_lo[::9], lam_hi[::11] = -np.inf, np.inf
    got = rap_module._interior_breakpoints(d_lo, d_hi, lam_lo, lam_hi, seg_len)
    ref = _lexsort_breakpoints(d_lo, d_hi, lam_lo, lam_hi, seg_len)
    assert ref[0].size > seg_len.size  # several breakpoints per segment, ties dropped
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)


# -- warm brackets: probes from a merged segment's children ----------------


WARM_FAMILIES = OBJECTIVE_FAMILIES + [Family.CUSTOM]


def _warm_call(obj, c, d, lengths, targets, probes=None, eps_x=1e-9):
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    lam, stats = np.empty(len(lengths)), SolveStats()
    x = solve_segments_continuous(
        obj, np.arange(c.size), c, d, offsets, targets, eps_x, stats=stats,
        probes=probes, lam_out=lam,
    )
    rounding = 8 * np.finfo(float).eps * np.add.reduceat(np.abs(x), offsets[:-1])
    assert np.all(np.abs(np.add.reduceat(x, offsets[:-1]) - targets) <= rounding)
    assert np.all((x >= c) & (x <= d))
    return x, lam, stats


@pytest.mark.parametrize("family", WARM_FAMILIES)
def test_probes_agree_with_the_cold_search(monkeypatch, family):
    """Straddling probes (given in either order), one-sided probes, probes
    with a NaN, a probe that hits its target exactly and probes outside the
    cold bracket: every coordinate lies within eps_x of the same call without
    probes, and every sum equals its target. Segments below the gate ignore
    their probes. `lam_out` holds, for each open segment, the multiplier
    whose excess ended it, and NaN for a closed segment. A call whose every segment starts from tight
    straddling probes evaluates fewer elements than without them."""
    rng = np.random.Generator(np.random.PCG64(400 + WARM_FAMILIES.index(family)))
    lengths = [2500, 3000, 2200, 2400, 2600, 40, 7, 2100]
    c, d, targets = _random_boxes(rng, lengths)
    obj = (vector_custom(rng, c.size) if family is Family.CUSTOM
           else random_objective(rng, family, c.size))
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    seg = [slice(offsets[k], offsets[k + 1]) for k in range(len(lengths))]
    # an exact hit: segment 3's target is sum(x) at a multiplier inside its
    # cold bracket
    k3 = np.arange(offsets[3], offsets[4])
    lam_hit = float(np.median(obj.derivative_at(k3, 0.5 * (c[k3] + d[k3]))))
    targets[3] = np.add.reduce(_clamped_inverse(obj, k3, np.full(k3.size, lam_hit), c[k3], d[k3]))
    targets[7] = d[seg[7]].sum()  # closed at its box sum
    x0, lam0, _ = _warm_call(obj, c, d, lengths, targets)
    assert np.isnan(lam0[7]) and np.isfinite(lam0[:7]).all()

    def near(k, rel):
        return abs(lam0[k]) * rel + rel

    k4 = np.arange(offsets[4], offsets[5])
    lo4, hi4 = obj.derivative_at(k4, c[k4]).min(), obj.derivative_at(k4, d[k4]).max()
    probes = np.full((len(lengths), 2), np.nan)
    probes[0] = lam0[0] + near(0, 1e-3), lam0[0] - near(0, 1e-3)  # straddle, reversed
    probes[1] = lam0[1] + near(1, 1e-3), lam0[1] + near(1, 2e-3)  # both above the root
    probes[2] = np.nan, lam0[2]
    probes[3] = lam_hit, lam_hit + near(3, 1e-2)
    probes[4] = lo4 - abs(lo4) - 1.0, hi4 + abs(hi4) + 1.0  # outside the cold bracket
    probes[5] = probes[6] = lam0[5] - 1.0, lam0[5] + 1.0  # below the gate
    probes[7] = -1.0, 1.0
    bracket = rap_module._bracket_segments
    cold_segments = []

    def record(obj, idx, lo, hi, offsets, targets, *args, **kwargs):
        cold_segments.append(targets.size)
        return bracket(obj, idx, lo, hi, offsets, targets, *args, **kwargs)

    monkeypatch.setattr(rap_module, "_bracket_segments", record)
    x, lam, _ = _warm_call(obj, c, d, lengths, targets, probes)
    # NaN and below the gate take the cold bracket before any probe is
    # evaluated, one-sided probes once their excess shows the miss
    assert cold_segments == [3, 1]
    assert np.all(np.abs(x - x0) <= 1e-9)
    assert np.isnan(lam[7]) and np.isfinite(lam[:7]).all()
    assert lam[3] == lam_hit  # a probe that hits is the segment's bracket

    # the first two segments alone, both straddled: the search starts from
    # the probes alone
    two = slice(0, offsets[2])
    tight = np.array([[lam0[k] - near(k, 1e-6), lam0[k] + near(k, 1e-6)] for k in (0, 1)])
    _, _, alone = _warm_call(obj, c[two], d[two], lengths[:2], targets[:2])
    xw, _, warm = _warm_call(obj, c[two], d[two], lengths[:2], targets[:2], tight)
    assert np.all(np.abs(xw - x0[two]) <= 1e-9)
    assert warm.kernel_evals < alone.kernel_evals


@pytest.mark.parametrize("family", WARM_FAMILIES)
def test_lam_out_is_the_multiplier_that_hit(family):
    """A segment that ends at a hit reports that hit's multiplier in
    `lam_out`: x there, clamped, sums to within eps_x / 2 of its target,
    whether the hit is a probe (segment 0), a bracket end (segment 1, its
    target eps_x / 4 below its box sum) or a step, in a large call and in a
    small one."""
    eps_x = 1e-9
    rng = np.random.Generator(np.random.PCG64(450 + WARM_FAMILIES.index(family)))
    for lengths in ([2500, 2200, 2400], [40, 7, 150]):
        c, d, targets = _random_boxes(rng, lengths)
        obj = (vector_custom(rng, c.size) if family is Family.CUSTOM
               else random_objective(rng, family, c.size))
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        k0 = np.arange(offsets[0], offsets[1])
        lam_hit = float(np.median(obj.derivative_at(k0, 0.5 * (c[k0] + d[k0]))))
        targets[0] = np.add.reduce(
            _clamped_inverse(obj, k0, np.full(k0.size, lam_hit), c[k0], d[k0])
        )
        targets[1] = d[offsets[1]:offsets[2]].sum() - 0.25 * eps_x
        probes = np.full((len(lengths), 2), np.nan)
        probes[0] = lam_hit, lam_hit + abs(lam_hit) * 1e-2 + 1e-2
        x, lam, _ = _warm_call(obj, c, d, lengths, targets, probes, eps_x)
        xs = _clamped_inverse(obj, np.arange(c.size), np.repeat(lam, lengths), c, d)
        excess = np.add.reduceat(xs, offsets[:-1]) - targets
        assert np.all(np.abs(excess) <= 0.5 * eps_x)
