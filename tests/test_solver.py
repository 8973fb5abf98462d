import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nested_alloc import (
    Family,
    Mode,
    NestedInstance,
    ObjectiveSpec,
    SolveTimeout,
    Status,
    brute_force_solve,
    check_feasible,
    generate_instance,
    greedy_solve,
    lifted_crashing_instance,
    hull_solve_instance,
    solve,
    tighten,
)

from nested_alloc import rap as rap_module
from nested_alloc import solver as solver_mod
from nested_alloc.cli import _scaled_integer_instance
from nested_alloc.model import objective_value, prefix_sums
from nested_alloc.rap import solve_segments_continuous

from conftest import one_segment, small_integer_instance


def quad_spec(n, w=1.0):
    return ObjectiveSpec(Family.QUADRATIC, {"w": np.full(n, w), "t": np.zeros(n)})


def tighten_example():
    return NestedInstance(
        n=4, m=3, s=[2, 3, 4], a=[5.0, 7.0], B=9.0,
        lower=np.zeros(4), upper=[1.0, 1.0, 5.0, 5.0],
        objective=quad_spec(4), mode=Mode.INTEGER,
    )


def quad_example(mode):
    return NestedInstance(
        n=2, m=2, s=[1, 2], a=[1.0], B=4.0, lower=np.zeros(2), upper=[3.0, 3.0],
        objective=quad_spec(2), mode=mode,
    )


class TestTighten:
    def test_worked_example(self):
        wb = tighten(tighten_example())
        assert np.array_equal(wb.abar, [0.0, 2.0, 7.0, 9.0])
        assert np.array_equal(wb.dbar, [1.0, 1.0, 5.0, 5.0])

    def test_huge_upper_bounds_never_bind(self):
        inst = NestedInstance(
            n=3, m=3, s=[1, 2, 3], a=[2.0, 5.0], B=6.0,
            lower=np.zeros(3), upper=np.full(3, 1e9),
            objective=quad_spec(3), mode=Mode.CONTINUOUS,
        )
        wb = tighten(inst)
        assert np.array_equal(wb.abar, [0.0, 2.0, 5.0, 6.0])

    def test_single_block(self):
        inst = NestedInstance(
            n=3, m=1, s=[3], a=[], B=5.0, lower=np.zeros(3), upper=np.full(3, 9.0),
            objective=quad_spec(3), mode=Mode.CONTINUOUS,
        )
        assert np.array_equal(tighten(inst).abar, [0.0, 5.0])


class TestFeasibility:
    def test_capacity_shortfall(self):
        inst = NestedInstance(
            n=2, m=1, s=[2], a=[], B=3.0, lower=np.zeros(2), upper=[1.0, 1.0],
            objective=quad_spec(2), mode=Mode.INTEGER,
        )
        assert not check_feasible(inst, tighten(inst))

    def test_worked_example_feasible(self):
        inst = tighten_example()
        assert check_feasible(inst, tighten(inst))

    def test_exact_capacity_unique_solution(self):
        inst = NestedInstance(
            n=2, m=1, s=[2], a=[], B=2.0, lower=np.zeros(2), upper=[1.0, 1.0],
            objective=quad_spec(2), mode=Mode.INTEGER,
        )
        assert check_feasible(inst, tighten(inst))
        sol, _ = solve(inst)
        assert sol.x.tolist() == [1.0, 1.0]

    def test_lower_bounds_overshoot_a(self):
        inst = NestedInstance(
            n=2, m=2, s=[1, 2], a=[1.0], B=4.0, lower=[2.0, 0.0], upper=[3.0, 3.0],
            objective=quad_spec(2), mode=Mode.CONTINUOUS,
        )
        assert not check_feasible(inst, tighten(inst))
        sol, _ = solve(inst, eps=1e-8)
        assert sol.status is Status.INFEASIBLE and sol.x is None


class TestSolve:
    def test_quadratic_continuous(self):
        sol, stats = solve(quad_example(Mode.CONTINUOUS), eps=1e-6)
        assert sol.status is Status.OPTIMAL
        assert np.allclose(sol.x, [1.0, 3.0], atol=1e-6)
        assert abs(sol.objective - 10.0) < 1e-5
        assert stats.active_constraints == 1

    def test_quadratic_integer(self):
        sol, _ = solve(quad_example(Mode.INTEGER))
        assert sol.x.tolist() == [1.0, 3.0]
        assert sol.objective == 10.0

    def test_single_constraint_matches_rap_kernel(self):
        rng = np.random.Generator(np.random.PCG64(2))
        n = 6
        obj = ObjectiveSpec(Family.QUADRATIC, {"w": rng.uniform(0.5, 2, n), "t": rng.uniform(0, 2, n)})
        upper = rng.uniform(1.0, 3.0, n)
        inst = NestedInstance(
            n=n, m=1, s=[n], a=[], B=float(upper.sum() * 0.6),
            lower=np.zeros(n), upper=upper, objective=obj, mode=Mode.CONTINUOUS,
        )
        sol, stats = solve(inst, eps=1e-9)
        direct = solve_segments_continuous(obj, *one_segment(np.zeros(n), upper, inst.B), 1e-9)
        assert stats.rap_calls == 1 and stats.recursion_levels == 1
        assert np.allclose(sol.x, direct, atol=1e-8)

    def test_continuous_needs_eps(self):
        with pytest.raises(ValueError):
            solve(quad_example(Mode.CONTINUOUS))

    def test_continuous_needs_derivative(self):
        inst = dataclasses.replace(
            quad_example(Mode.CONTINUOUS),
            objective=ObjectiveSpec(Family.CUSTOM, {}, value_fn=lambda i, x: x * x),
        )
        with pytest.raises(ValueError, match="differentiable objective"):
            solve(inst, eps=1e-8)

    def test_prefix_feasibility_property(self):
        for seed in range(10):
            inst = generate_instance("fuelopt", 150, 37, seed)
            if not check_feasible(inst, tighten(inst)):
                continue
            sol, _ = solve(inst, eps=1e-8)
            y = prefix_sums(inst, sol.x)
            assert np.all(y[:-1] <= inst.a + 1e-6)
            assert abs(y[-1] - inst.B) <= 1e-9 * (1 + inst.B)
            assert np.all(sol.x >= inst.lower - 1e-12)
            assert np.all(sol.x <= inst.upper + 1e-12)

    def test_structural_counters(self):
        for n, m, seed in [(50, 50, 0), (64, 32, 1), (100, 1, 2), (90, 7, 3)]:
            inst = generate_instance("f-uniform", n, m, seed)
            sol, stats = solve(inst, eps=1e-8)
            assert stats.rap_calls == 2 * m - 1
            assert stats.recursion_levels == 1 + math.ceil(math.log2(m)) if m > 1 else 1

    def test_bound_transfer_brackets_children(self):
        # two-block instance: the merged solution may only shrink the left
        # child and grow the right child
        rng = np.random.Generator(np.random.PCG64(8))
        n = 8
        obj = ObjectiveSpec(Family.QUADRATIC, {"w": rng.uniform(0.5, 2, n), "t": rng.uniform(0, 3, n)})
        upper = rng.uniform(0.5, 2.0, n)
        a1 = float(upper[:4].sum() * 0.7)
        B = float(upper.sum() * 0.7)
        inst = NestedInstance(
            n=n, m=2, s=[4, 8], a=[a1], B=B, lower=np.zeros(n), upper=upper,
            objective=obj, mode=Mode.CONTINUOUS,
        )
        wb = tighten(inst)
        assert check_feasible(inst, wb)
        left = solve_segments_continuous(
            obj, *one_segment(np.zeros(4), upper[:4], wb.abar[1]), 1e-10
        )
        right = solve_segments_continuous(
            obj, *one_segment(np.zeros(4), upper[4:], wb.abar[2] - wb.abar[1], np.arange(4, 8)),
            1e-10,
        )
        sol, _ = solve(inst, eps=1e-10)
        assert np.all(sol.x[:4] <= left + 1e-8)
        assert np.all(sol.x[4:] >= right - 1e-8)

    def test_constant_shift_invariance(self):
        rng = np.random.Generator(np.random.PCG64(4))
        n = 30
        base = next(
            inst
            for inst in (generate_instance("crashing", n, n, s) for s in range(100))
            if check_feasible(inst, tighten(inst))
        )
        k = rng.uniform(-2.0, 2.0, n)
        shifted = NestedInstance(
            n=n, m=n, s=base.s, a=base.a, B=base.B, lower=base.lower, upper=base.upper,
            objective=ObjectiveSpec(Family.CRASHING, {"k": k, "p": base.objective.params["p"]}),
            mode=Mode.CONTINUOUS,
        )
        s0, _ = solve(base, eps=1e-9)
        s1, _ = solve(shifted, eps=1e-9)
        assert np.allclose(s0.x, s1.x, atol=1e-8)
        assert np.isclose(s1.objective - s0.objective, k.sum(), atol=1e-9)

    def test_hull_agreement_small(self):
        for seed in (0, 1, 2):
            inst = lifted_crashing_instance(50, seed)
            sol, _ = solve(inst, eps=1e-9)
            hull = hull_solve_instance(inst)
            assert np.max(np.abs(sol.x - hull.x)) <= 2e-9

    def test_timeout(self):
        inst = generate_instance("fuelopt", 200_000, 200_000, 0)
        with pytest.raises(SolveTimeout):
            solve(inst, eps=1e-10, time_limit_s=1e-4)

    def test_infeasible_stats(self):
        inst = NestedInstance(
            n=2, m=1, s=[2], a=[], B=3.0, lower=np.zeros(2), upper=[1.0, 1.0],
            objective=quad_spec(2), mode=Mode.INTEGER,
        )
        sol, stats = solve(inst)
        assert sol.status is Status.INFEASIBLE
        assert stats.rap_calls == 0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_integer_solve_matches_oracles(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    family = [Family.F, Family.CRASHING, Family.FUELOPT, Family.QUADRATIC][
        int(rng.integers(0, 4))
    ]
    inst = small_integer_instance(seed, family)
    dp = brute_force_solve(inst)
    greedy = greedy_solve(inst)
    sol, _ = solve(inst)
    assert dp.status == greedy.status == sol.status
    if dp.status is Status.OPTIMAL:
        assert dp.objective == objective_value(inst, dp.x)
        assert dp.objective == greedy.objective == sol.objective


@pytest.mark.parametrize("family", ["f", "f-uniform", "f-active", "crashing", "fuelopt"])
def test_integer_solve_matches_greedy_on_wide_boxes(family):
    """Benchmark families on the 1e3 grid: boxes hundreds of units wide,
    bit-for-bit against the unit greedy."""
    for seed in range(3):
        inst = _scaled_integer_instance(generate_instance(family, 40, 40, seed), 1e3)
        greedy = greedy_solve(inst)
        sol, _ = solve(inst)
        assert sol.status == greedy.status
        if greedy.status is Status.OPTIMAL:
            assert np.array_equal(sol.x, greedy.x)


def test_kernel_output_outside_box_raises(monkeypatch):
    kernel = solver_mod.solve_segments_integer

    def off_by_one(obj, idx, lo, hi, *args):
        return kernel(obj, idx, lo, hi, *args) + 1.0

    monkeypatch.setattr(solver_mod, "solve_segments_integer", off_by_one)
    message = r"depth 1: x\[1\] = 4.0 lies outside \[0.0, 3.0\] by 1.0"
    with pytest.raises(RuntimeError, match=message):
        solve(quad_example(Mode.INTEGER))


class _EvalCounter(ObjectiveSpec):
    """Counts per-element evaluations while `on`: x(lam) elements of the
    maps `inverse_map` hands out, derivative elements, and value elements
    (a unit marginal takes two)."""

    def inverse_map(self, idx):
        inv = super().inverse_map(idx)

        def counted(lam, seg_of=None):
            if self.on[0]:
                self.counts["inverse_calls"] += 1
                self.counts["inverse"] += np.size(lam) if seg_of is None else seg_of.size
            return inv(lam, seg_of)

        return counted

    def derivative_at(self, idx, x):
        if self.on[0]:
            self.counts["derivative"] += idx.size
        return super().derivative_at(idx, x)

    def value_at(self, idx, x):
        if self.on[0]:
            self.counts["value"] += idx.size
        return super().value_at(idx, x)


@pytest.mark.parametrize("mode", ["cont", "int"])
def test_kernel_counters_match_counting_wrapper(monkeypatch, mode):
    """`SolveStats.kernel_steps` and `kernel_evals` equal what a counting
    objective sees inside the kernels: map calls less the two bracket ends
    per call with open segments (continuous) or `_int_alloc` calls (integer)
    for the steps; map plus derivative elements, or value elements over two,
    for the evaluations."""
    inst = generate_instance("crashing", 300, 300, 4)
    if mode == "int":
        inst = _scaled_integer_instance(inst, 1e6)
    counter = _EvalCounter(inst.objective.family, inst.objective.params)
    object.__setattr__(counter, "on", [False])
    kinds = ("inverse_calls", "inverse", "derivative", "value")
    object.__setattr__(counter, "counts", dict.fromkeys(kinds, 0))
    inst = dataclasses.replace(inst, objective=counter)
    open_calls = [0]
    alloc_calls = [0]

    def counting(kernel):
        def wrapped(obj, idx, lo, hi, offsets, targets, *args):
            open_calls[0] += bool(rap_module._fast_paths(lo, hi, offsets, targets)[1].any())
            counter.on[0] = True
            try:
                return kernel(obj, idx, lo, hi, offsets, targets, *args)
            finally:
                counter.on[0] = False

        return wrapped

    def int_alloc(*args):
        alloc_calls[0] += 1
        return real_int_alloc(*args)

    real_int_alloc = rap_module._int_alloc
    monkeypatch.setattr(rap_module, "_int_alloc", int_alloc)
    for name in ("solve_segments_continuous", "solve_segments_integer"):
        monkeypatch.setattr(solver_mod, name, counting(getattr(solver_mod, name)))
    sol, stats = solve(inst, 1e-8 if mode == "cont" else None)
    assert sol.status is Status.OPTIMAL
    counts = counter.counts
    if mode == "cont":
        assert open_calls[0] > 0 and counts["value"] == 0
        assert stats.kernel_steps == counts["inverse_calls"] - 2 * open_calls[0] > 0
        assert stats.kernel_evals == counts["inverse"] + counts["derivative"]
        assert counts["inverse"] > counts["derivative"] > 0
    else:
        assert counts["inverse_calls"] == counts["derivative"] == 0
        assert stats.kernel_steps == alloc_calls[0] > 0
        assert stats.kernel_evals * 2 == counts["value"] > 0


class TestUnboundedBoxes:
    def test_infinite_upper_with_nested_bounds_matches_hull(self):
        n = 50
        rng = np.random.Generator(np.random.PCG64(0))
        p = rng.exponential(1.0, n)
        alpha = rng.exponential(0.75, n)
        cum = np.cumsum(alpha)
        inst = NestedInstance(
            n=n, m=n, s=np.arange(1, n + 1), a=cum[:-1], B=float(cum[-1]),
            lower=np.zeros(n), upper=np.full(n, np.inf),
            objective=ObjectiveSpec(Family.CRASHING, {"k": np.zeros(n), "p": p}),
            mode=Mode.CONTINUOUS,
        )
        sol, _ = solve(inst, eps=1e-8)
        hull = hull_solve_instance(inst)
        assert np.max(np.abs(sol.x - hull.x)) <= 2e-8

    def test_infinite_upper_single_block(self):
        inst = NestedInstance(
            n=3, m=1, s=[3], a=[], B=6.0, lower=np.zeros(3), upper=np.full(3, np.inf),
            objective=quad_spec(3), mode=Mode.CONTINUOUS,
        )
        sol, _ = solve(inst, eps=1e-9)
        assert np.allclose(sol.x, [2.0, 2.0, 2.0], atol=1e-8)


def test_custom_objective_continuous_solve():
    val = lambda i, x: (x - 1.0) ** 4
    der = lambda i, x: 4.0 * (x - 1.0) ** 3
    obj = ObjectiveSpec(Family.CUSTOM, {}, value_fn=val, derivative_fn=der)
    inst = NestedInstance(
        n=2, m=2, s=[1, 2], a=[0.5], B=3.0, lower=np.zeros(2), upper=[4.0, 4.0],
        objective=obj, mode=Mode.CONTINUOUS,
    )
    sol, _ = solve(inst, eps=1e-7)
    # first coordinate capped at the prefix bound, remainder on the second
    assert np.allclose(sol.x, [0.5, 2.5], atol=1e-6)


def test_tighten_invariants_random():
    # bounds ascend, never exceed their sources, and never outrun capacity
    for seed in range(20):
        inst = generate_instance("crashing", 120, 23, seed)
        wb = tighten(inst)
        tol = 1e-9 * (1 + abs(wb.abar[-1]))
        assert np.all(np.diff(wb.abar) >= -tol) or not check_feasible(inst, wb)
        P = inst.positions
        block_cap = np.add.reduceat(wb.dbar, P[:-1])
        if check_feasible(inst, wb):
            assert np.all(np.diff(wb.abar) <= block_cap + tol)
            lower_cum = np.concatenate([[0.0], np.cumsum(inst.lower)])
            a_shift = inst.a - lower_cum[inst.s[:-1]]
            assert np.all(wb.abar[1:-1] <= a_shift + tol)
