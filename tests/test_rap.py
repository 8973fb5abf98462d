import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nested_alloc import (
    Family,
    ObjectiveSpec,
    RapProblem,
    initial_bracket,
    rap_continuous,
    rap_integer,
    rap_integer_greedy,
)

from conftest import OBJECTIVE_FAMILIES, random_objective


def quad(n):
    return ObjectiveSpec(Family.QUADRATIC, {"w": np.ones(n), "t": np.zeros(n)})


def rap(obj, c, d, target, idx=None):
    c = np.asarray(c, dtype=float)
    idx = np.arange(c.size) if idx is None else idx
    return RapProblem(obj, idx, c, np.asarray(d, dtype=float), target)


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
        p = rap(quad(3), [0, 0, 0], [10, 10, 10], 6.0)
        x = rap_continuous(p, 1e-9)
        assert np.allclose(x, [2, 2, 2], atol=1e-8)

    def test_bounds_force(self):
        obj = ObjectiveSpec(Family.F, {"p": np.zeros(2)})
        x = rap_continuous(rap(obj, [0, 0], [1, 1], 2.0), 1e-9)
        assert np.allclose(x, [1, 1])

    def test_asymmetric_box_grid_oracle(self):
        # grid search at step 1e-3 over x1; remainder forced by the sum
        obj = quad(2)
        grid = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        vals = grid**2 + (4.0 - grid) ** 2
        x1_star = grid[np.argmin(vals)]
        assert x1_star == 1.0  # frozen oracle value
        x = rap_continuous(rap(obj, [0, 0], [1, 10], 4.0), 1e-8)
        assert np.allclose(x, [1.0, 3.0], atol=1e-7)

    def test_sum_exact_after_repair(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for family in OBJECTIVE_FAMILIES:
            obj = random_objective(rng, family, 6)
            c = rng.uniform(0.2, 1.0, 6)
            d = c + rng.uniform(0.5, 2.0, 6)
            target = float(rng.uniform(c.sum(), d.sum()))
            x = rap_continuous(rap(obj, c, d, target), 1e-10)
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
            x = rap_continuous(rap(obj, c, d, target), eps)
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
            x = rap_continuous(rap(obj, c, d, float(target)), 1e-10)
            if prev is not None:
                assert np.all(x >= prev - 1e-8)
            prev = x

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            rap(quad(2), [0, 0], [1, 1], 3.0)
        with pytest.raises(ValueError):
            rap(quad(2), [1, 1], [3, 3], 1.0)

    def test_missing_derivative_rejected(self):
        obj = ObjectiveSpec(Family.CUSTOM, {}, value_fn=lambda i, x: x * x)
        with pytest.raises(ValueError):
            rap_continuous(rap(obj, [0.0], [2.0], 1.0), 1e-8)

    def test_custom_with_derivative_works(self):
        obj = ObjectiveSpec(
            Family.CUSTOM, {}, value_fn=lambda i, x: x * x, derivative_fn=lambda i, x: 2 * x
        )
        x = rap_continuous(rap(obj, [0, 0], [5, 5], 4.0), 1e-7)
        assert np.allclose(x, [2, 2], atol=1e-6)

    def test_initial_bracket_sandwiches_target(self):
        rng = np.random.Generator(np.random.PCG64(3))
        obj = random_objective(rng, Family.FUELOPT, 4)
        c = rng.uniform(0.3, 0.8, 4)
        d = c + rng.uniform(0.5, 1.5, 4)
        target = float(rng.uniform(c.sum(), d.sum()))
        br = initial_bracket(rap(obj, c, d, target))
        assert br.lam_lo <= br.lam_hi
        assert br.sum_lo <= target <= br.sum_hi

    def test_flat_marginals_waterfill(self):
        obj = ObjectiveSpec(
            Family.CUSTOM, {}, value_fn=lambda i, x: 3.0 * x, derivative_fn=lambda i, x: 3.0
        )
        x = rap_continuous(rap(obj, [0, 0, 0], [4, 4, 4], 6.0), 1e-9)
        assert abs(x.sum() - 6.0) <= 1e-9
        assert np.allclose(x, [2, 2, 2])  # uniform split of the residual


class TestInteger:
    def test_mixed_costs_enumeration(self):
        costs = {0: lambda x: x * x, 1: lambda x: 3.0 * x}
        obj = ObjectiveSpec(Family.CUSTOM, {}, value_fn=lambda i, x: costs[i](x))
        p = rap(obj, [0, 0], [4, 4], 4)
        best = enumerate_optimum(obj, [0, 1], [0, 0], [4, 4], 4)
        assert best[0] == 10.0  # frozen from enumeration over all 5 splits
        x = rap_integer(p)
        # greedy tie-break favors the lowest index among equal marginals
        assert x.tolist() == [2.0, 2.0]
        assert math.fsum(costs[i](v) for i, v in enumerate(x)) == 10.0

    def test_three_squares(self):
        p = rap(quad(3), [0, 0, 0], [10, 10, 10], 7)
        best = enumerate_optimum(quad(3), [0, 1, 2], [0, 0, 0], [10, 10, 10], 7)
        assert best[0] == 17.0 and sorted(best[1]) == [2, 2, 3]
        x = rap_integer(p)
        assert sorted(x.tolist()) == [2.0, 2.0, 3.0]
        assert sum(quad(3).value(i, v) for i, v in enumerate(x)) == 17.0

    def test_no_free_resource(self):
        p = rap(quad(3), [1, 2, 3], [5, 5, 5], 6)
        assert rap_integer(p).tolist() == [1.0, 2.0, 3.0]
        assert rap_integer_greedy(p).tolist() == [1.0, 2.0, 3.0]

    def test_single_variable(self):
        p = rap(quad(1), [0], [5], 5)
        assert rap_integer_greedy(p).tolist() == [5.0]

    def test_tie_breaks_to_lowest_index(self):
        p = rap(quad(2), [0, 0], [5, 5], 3)
        assert rap_integer(p).tolist() == [2.0, 1.0]
        assert rap_integer_greedy(p).tolist() == [2.0, 1.0]

    def test_greedy_matches_search_on_examples(self):
        costs = {0: lambda x: x * x, 1: lambda x: 3.0 * x}
        obj = ObjectiveSpec(Family.CUSTOM, {}, value_fn=lambda i, x: costs[i](x))
        for target in (0, 2, 4, 6, 8):
            p = rap(obj, [0, 0], [4, 4], target)
            assert rap_integer(p).tolist() == rap_integer_greedy(p).tolist()

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            rap_integer(rap(quad(2), [0, 0], [2.5, 2], 2))


def _equivalence_case(rng, family):
    n = int(rng.integers(1, 9))
    obj = random_objective(rng, family, n)
    lo_base = 1 if family in (Family.CRASHING, Family.FUELOPT) else 0
    c = rng.integers(lo_base, lo_base + 3, n).astype(float)
    d = c + rng.integers(0, 5, n)
    free = int(rng.integers(0, min(12, int((d - c).sum())) + 1))
    target = float(min(c.sum() + free, 30))
    p = rap(obj, c, d, target)
    xi = rap_integer(p)
    xg = rap_integer_greedy(p)
    idx = np.arange(n)
    best_cost, _ = enumerate_optimum(obj, idx, c, d, target)
    cost_i = math.fsum(obj.value_at(idx, xi).tolist())
    cost_g = math.fsum(obj.value_at(idx, xg).tolist())
    assert xi.tolist() == xg.tolist()
    assert cost_i == cost_g
    assert np.isclose(cost_i, best_cost, rtol=0, atol=1e-9 * (1 + abs(best_cost)))


@pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
def test_kernel_equivalence_random(family):
    """rap_integer, the heap greedy, and exhaustive enumeration agree on
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


def _assert_matches_greedy(p):
    xi = rap_integer(p)
    xg = rap_integer_greedy(p)
    assert xi.tolist() == xg.tolist()
    assert xi.sum() == p.target


@pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
def test_kernel_equivalence_wide_boxes(family):
    """Boxes wide enough that the multiplier search narrows per-element unit
    brackets and finishes on residual units, bit-for-bit against the greedy."""
    rng = np.random.Generator(np.random.PCG64(20 + OBJECTIVE_FAMILIES.index(family)))
    lo_base = 1 if family in (Family.CRASHING, Family.FUELOPT) else 0
    for _ in range(8):
        n = int(rng.integers(2, 25))
        c, d, target = _wide_box(rng, n, lo_base)
        _assert_matches_greedy(rap(random_objective(rng, family, n), c, d, target))


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
        _assert_matches_greedy(rap(obj, c, d, float(c.sum() + free)))


def test_kernel_linear_custom_fills_in_index_order():
    """All marginals equal: the bracket closes at adjacent doubles with gaps
    of many units, which go to the lowest indices first."""
    obj = ObjectiveSpec(Family.CUSTOM, {}, value_fn=lambda i, x: 2.0 * x)
    rng = np.random.Generator(np.random.PCG64(60))
    c = rng.integers(0, 20, 12).astype(float)
    d = c + rng.integers(0, 300, 12)
    free = int((d - c).sum()) // 2
    p = rap(obj, c, d, float(c.sum() + free))
    x = rap_integer(p)
    full = np.cumsum(d - c) <= free
    k = int(np.argmin(full))  # first element that is not filled up
    assert np.array_equal(x[:k], d[:k]) and np.array_equal(x[k + 1 :], c[k + 1 :])
    _assert_matches_greedy(p)
