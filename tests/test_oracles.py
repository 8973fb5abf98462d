import numpy as np
import pytest

from nested_alloc import (
    Family,
    Mode,
    NestedInstance,
    ObjectiveSpec,
    Solution,
    Status,
    brute_force_solve,
    generate_instance,
    greedy_solve,
    kkt_tolerance,
    solve,
    verify_kkt,
)
from nested_alloc.generators import InstanceFamily
from nested_alloc.model import prefix_sums
from nested_alloc.oracles import KktReport, count_active_constraints

from conftest import small_integer_instance


def quad_spec(n, w=1.0):
    return ObjectiveSpec(Family.QUADRATIC, {"w": np.full(n, w), "t": np.zeros(n)})


def quad_example(mode=Mode.INTEGER, a=1.0, B=4.0, d=3.0):
    return NestedInstance(
        n=2, m=2, s=[1, 2], a=[a], B=B, lower=np.zeros(2), upper=[d, d],
        objective=quad_spec(2), mode=mode,
    )


class TestGreedy:
    def test_quadratic_example(self):
        sol = greedy_solve(quad_example())
        assert sol.x.tolist() == [1.0, 3.0] and sol.objective == 10.0

    def test_zero_budget(self):
        inst = NestedInstance(
            n=2, m=1, s=[2], a=[], B=0.0, lower=np.zeros(2), upper=[2.0, 2.0],
            objective=quad_spec(2), mode=Mode.INTEGER,
        )
        sol = greedy_solve(inst)
        assert sol.x.tolist() == [0.0, 0.0] and sol.objective == 0.0

    def test_early_saturated_constraint(self):
        inst = NestedInstance(
            n=2, m=2, s=[1, 2], a=[0.0], B=2.0, lower=np.zeros(2), upper=[2.0, 2.0],
            objective=quad_spec(2), mode=Mode.INTEGER,
        )
        sol = greedy_solve(inst)
        assert sol.x.tolist() == [0.0, 2.0]

    def test_infeasible(self):
        inst = NestedInstance(
            n=2, m=1, s=[2], a=[], B=5.0, lower=np.zeros(2), upper=[2.0, 2.0],
            objective=quad_spec(2), mode=Mode.INTEGER,
        )
        assert greedy_solve(inst).status is Status.INFEASIBLE

    def test_rejects_continuous(self):
        with pytest.raises(ValueError):
            greedy_solve(quad_example(mode=Mode.CONTINUOUS))

    def test_respects_lower_bounds(self):
        inst = NestedInstance(
            n=3, m=1, s=[3], a=[], B=7.0, lower=[2.0, 1.0, 0.0], upper=[5.0, 5.0, 5.0],
            objective=quad_spec(3), mode=Mode.INTEGER,
        )
        sol = greedy_solve(inst)
        assert np.all(sol.x >= inst.lower)
        assert sol.x.sum() == 7.0
        assert sol.objective == brute_force_solve(inst).objective


class TestBruteForce:
    def test_single_variable(self):
        inst = NestedInstance(
            n=1, m=1, s=[1], a=[], B=3.0, lower=[0.0], upper=[5.0],
            objective=quad_spec(1), mode=Mode.INTEGER,
        )
        assert brute_force_solve(inst).x.tolist() == [3.0]

    def test_single_variable_infeasible(self):
        inst = NestedInstance(
            n=1, m=1, s=[1], a=[], B=6.0, lower=[0.0], upper=[5.0],
            objective=quad_spec(1), mode=Mode.INTEGER,
        )
        assert brute_force_solve(inst).status is Status.INFEASIBLE

    def test_guard_rails(self):
        inst = NestedInstance(
            n=1, m=1, s=[1], a=[], B=3.0, lower=[0.0], upper=[5.0],
            objective=quad_spec(1), mode=Mode.INTEGER,
        )
        with pytest.raises(ValueError):
            brute_force_solve(inst, max_n=0)

    def test_lexicographic_tie_break(self):
        # identical squares, even split of 3: optimum {1, 2} either way
        inst = NestedInstance(
            n=2, m=1, s=[2], a=[], B=3.0, lower=np.zeros(2), upper=[2.0, 2.0],
            objective=quad_spec(2), mode=Mode.INTEGER,
        )
        assert brute_force_solve(inst).x.tolist() == [1.0, 2.0]

    def test_cross_oracle_agreement(self):
        families = [Family.F, Family.CRASHING, Family.FUELOPT, Family.QUADRATIC]
        statuses = {Status.OPTIMAL: 0, Status.INFEASIBLE: 0}
        for seed in range(120):
            inst = small_integer_instance(seed, families[seed % 4])
            dp = brute_force_solve(inst)
            greedy = greedy_solve(inst)
            assert dp.status == greedy.status
            statuses[dp.status] += 1
            if dp.status is Status.OPTIMAL:
                assert dp.objective == greedy.objective
        assert statuses[Status.OPTIMAL] > 30  # the mix exercises both paths
        assert statuses[Status.INFEASIBLE] > 5


class TestVerifyKkt:
    def test_passes_on_boundary_or_branch(self):
        inst = quad_example(mode=Mode.CONTINUOUS)
        sol = Solution(np.array([1.0, 3.0]), 10.0, Status.OPTIMAL, 1e-8)
        report = verify_kkt(inst, sol, tau=1e-6)
        # marginals (2, 6) jump upward across the breakpoint, bound is tight
        assert report.passed and not report.boundary_violations
        assert report.prefix_slacks[0] == 0.0

    def test_fails_on_prefix_violation(self):
        inst = quad_example(mode=Mode.CONTINUOUS)
        sol = Solution(np.array([2.0, 2.0]), 8.0, Status.OPTIMAL, 1e-8)
        report = verify_kkt(inst, sol, tau=1e-6)
        assert not report.passed and not report.feasible
        assert report.prefix_slacks[0] < 0

    def test_symmetric_unconstrained_pass(self):
        inst = NestedInstance(
            n=3, m=1, s=[3], a=[], B=6.0, lower=np.zeros(3), upper=np.full(3, 10.0),
            objective=quad_spec(3), mode=Mode.CONTINUOUS,
        )
        sol = Solution(np.array([2.0, 2.0, 2.0]), 12.0, Status.OPTIMAL, 1e-8)
        report = verify_kkt(inst, sol, tau=1e-9)
        assert report.passed and report.max_within_block_gap == 0.0

    def test_wrong_direction_jump_fails(self):
        # marginal drops across an inactive boundary: not optimal
        inst = quad_example(mode=Mode.CONTINUOUS, a=10.0)
        sol = Solution(np.array([3.0, 1.0]), 10.0, Status.OPTIMAL, 1e-8)
        report = verify_kkt(inst, sol, tau=1e-6)
        assert not report.passed
        assert report.boundary_violations == [1]

    def test_perturbation_flips_verdict(self):
        rng = np.random.Generator(np.random.PCG64(15))
        n = 40
        w = rng.uniform(0.5, 2.0, n)
        alpha = rng.uniform(0.5, 1.5, n)
        cum = np.cumsum(alpha)
        # blocks of eight variables, so blocks hold free adjacent pairs
        s = np.arange(8, n + 1, 8)
        inst = NestedInstance(
            n=n, m=len(s), s=s, a=cum[s[:-1] - 1], B=float(cum[-1]),
            lower=np.zeros(n), upper=np.full(n, float(cum[-1])),
            objective=ObjectiveSpec(Family.QUADRATIC, {"w": w, "t": np.zeros(n)}),
            mode=Mode.CONTINUOUS,
        )
        eps = 1e-9
        sol, _ = solve(inst, eps=eps)
        tau = kkt_tolerance(inst, sol.x, eps)
        assert verify_kkt(inst, sol, tau).passed
        # move resource between two adjacent free variables inside one block
        x = sol.x.copy()
        free = (x > inst.lower + 1e-6) & (x < inst.upper - 1e-6)
        j = next(
            j for j in range(n - 1)
            if free[j] and free[j + 1]
            and np.searchsorted(inst.s, j + 1) == np.searchsorted(inst.s, j + 2)
        )
        delta = 100 * tau
        x[j] += delta
        x[j + 1] -= delta
        bad = Solution(x, float("nan"), Status.OPTIMAL, eps)
        assert not verify_kkt(inst, bad, tau).passed

    def test_needs_derivative(self):
        obj = ObjectiveSpec(Family.CUSTOM, {}, value_fn=lambda i, x: x * x)
        inst = NestedInstance(
            n=2, m=1, s=[2], a=[], B=2.0, lower=np.zeros(2), upper=[2.0, 2.0],
            objective=obj, mode=Mode.CONTINUOUS,
        )
        with pytest.raises(ValueError):
            verify_kkt(inst, Solution(np.ones(2), 2.0, Status.OPTIMAL), 1e-6)

    def test_infeasible_solution_has_nothing_to_verify(self):
        # the box sum 6 falls short of B = 10
        inst = quad_example(mode=Mode.CONTINUOUS, B=10.0)
        sol, _ = solve(inst, eps=1e-9)
        assert sol.status is Status.INFEASIBLE and sol.x is None
        message = "nothing to verify: solution carries no allocation"
        with pytest.raises(ValueError, match=message):
            kkt_tolerance(inst, sol.x, 1e-9)
        with pytest.raises(ValueError, match=message):
            verify_kkt(inst, sol, 1e-6)


def _verify_kkt_reference(
    inst: NestedInstance,
    sol: Solution,
    tau: float,
    y_tol: float | None = None,
    bound_tol: float | None = None,
) -> KktReport:
    """verify_kkt as the per-pair loop it was before vectorization, the
    reference the vectorized pass must match field for field."""
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

    boundary_pos = set((inst.s[: inst.m - 1] - 1).tolist())  # 0-based left index
    active = slacks <= y_tol

    max_gap = 0.0
    boundary_violations: list[int] = []
    box_violations: list[int] = []
    for j in range(inst.n - 1):
        two_sided_tol = tau
        if j in boundary_pos:
            i = int(np.searchsorted(inst.s, j + 1))  # constraint index, 0-based
            # left multiplier must not exceed the right one
            if lam_min[j] > lam_max[j + 1] + tau:
                boundary_violations.append(j + 1)  # report 1-based position s[i]
                continue
            if active[i]:
                continue  # jump allowed, bound is tight
            # inactive bound: same multiplier on both sides
            if lam_min[j + 1] > lam_max[j] + tau:
                boundary_violations.append(j + 1)
            if free[j] and free[j + 1]:
                max_gap = max(max_gap, abs(float(g[j] - g[j + 1])))
            continue
        if free[j] and free[j + 1]:
            gap = abs(float(g[j] - g[j + 1]))
            max_gap = max(max_gap, gap)
            if gap > two_sided_tol:
                box_violations.append(j + 1)
        else:
            if lam_min[j] > lam_max[j + 1] + tau or lam_min[j + 1] > lam_max[j] + tau:
                box_violations.append(j + 1)

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


def _same_report(inst, x, tau) -> dict:
    """verify_kkt and the reference loop on allocation x; returns the report."""
    sol = Solution(np.asarray(x, dtype=np.float64), float("nan"), Status.OPTIMAL, 1e-8)
    with np.errstate(invalid="ignore"):  # the loop subtracts inf - inf at poles
        want = _verify_kkt_reference(inst, sol, tau).to_dict()
    got = verify_kkt(inst, sol, tau).to_dict()
    assert got == want
    return got


def _random_quadratic_instance(n, m, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    s = np.arange(1, n + 1) if m == n else np.concatenate(
        [np.sort(rng.choice(np.arange(1, n), size=m - 1, replace=False)), [n]]
    )
    cum = np.cumsum(rng.uniform(0.0, 1.0, n))
    return NestedInstance(
        n=n, m=m, s=s, a=cum[s[:-1] - 1], B=float(cum[-1]),
        lower=np.zeros(n), upper=rng.uniform(0.2, 1.5, n),
        objective=ObjectiveSpec(
            Family.QUADRATIC, {"w": rng.uniform(0.5, 2.0, n), "t": rng.uniform(-0.5, 1.5, n)}
        ),
        mode=Mode.CONTINUOUS,
    )


def _solved_cases():
    """Optimal allocations of every family at n = 40, m in {1, 10, n}."""
    n = 40
    for m in (1, 10, n):
        for seed in range(4):
            insts = [generate_instance(fam, n, m, seed) for fam in InstanceFamily]
            insts.append(_random_quadratic_instance(n, m, seed))
            for inst in insts:
                sol, _ = solve(inst, eps=1e-9)
                if sol.status is Status.OPTIMAL:
                    yield inst, sol.x


class TestVerifyKktMatchesLoop:
    def test_solved_and_perturbed_solutions(self):
        rng = np.random.Generator(np.random.PCG64(7))
        seen = {"pass": 0, "boundary": 0, "box": 0, "active_jump": 0}
        for inst, x in _solved_cases():
            tau = kkt_tolerance(inst, x, 1e-9)
            for t in (tau, 0.0, 1e-3 * tau):
                rep = _same_report(inst, x, t)
                seen["pass"] += rep["verdict"]
            # an upward jump across a tight breakpoint, allowed only there
            g = inst.objective.derivative_at(np.arange(inst.n), x)
            left = inst.s[: inst.m - 1] - 1
            tight = (inst.a - prefix_sums(inst, x)[: inst.m - 1]) <= 1e-8 * (1 + inst.B)
            seen["active_jump"] += int(np.any(tight & (g[left + 1] > g[left] + tau)))
            # pin random coordinates at a bound, then move resource around
            pinned = x.copy()
            pick = rng.random(inst.n)
            pinned[pick < 0.15] = inst.lower[pick < 0.15]
            pinned[pick > 0.85] = inst.upper[pick > 0.85]
            shaken = np.clip(
                x + rng.normal(0.0, 1e-3, inst.n) * (rng.random(inst.n) < 0.3),
                inst.lower, inst.upper,
            )
            for bad in (pinned, shaken, x[::-1].copy()):
                for t in (tau, 0.0):
                    rep = _same_report(inst, bad, t)
                    seen["boundary"] += bool(rep["boundary_violations"])
                    seen["box"] += bool(rep["box_pair_violations"])
        assert all(v > 0 for v in seen.values()), seen

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_and_two_variables(self, n):
        for m in range(1, n + 1):
            inst = _random_quadratic_instance(n, m, 3)
            sol, _ = solve(inst, eps=1e-9)
            points = [inst.lower, inst.upper, (inst.lower + inst.upper) / 2]
            if sol.x is not None:
                points.append(sol.x)
            for x in points:
                for tau in (0.0, 1e-6, 10.0):
                    _same_report(inst, x, tau)

    @pytest.mark.parametrize("family", [Family.CRASHING, Family.FUELOPT])
    def test_poles_at_zero(self, family):
        n = 8
        params = {"k": np.zeros(n), "p": np.linspace(0.5, 2.0, n)}
        if family is Family.FUELOPT:
            params = {"p": np.linspace(0.5, 2.0, n), "c": np.full(n, 0.8)}
        inst = NestedInstance(
            n=n, m=4, s=[2, 4, 6, 8], a=[1.0, 2.0, 3.0], B=4.0,
            lower=np.zeros(n), upper=np.full(n, 2.0),
            objective=ObjectiveSpec(family, params), mode=Mode.CONTINUOUS,
        )
        # adjacent zeros give g = -inf on both sides and a NaN gap
        for x in ([0.0, 0.0, 0.5, 0.5, 0.0, 1.0, 0.0, 2.0],
                  [0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0],
                  np.zeros(n)):
            for tau in (0.0, 1e-6, np.inf):
                rep = _same_report(inst, x, tau)
                assert np.isfinite(rep["max_within_block_gap"])

    def test_nan_marginals(self):
        nan_at = {1, 2, 5}
        obj = ObjectiveSpec(
            Family.CUSTOM, {}, value_fn=lambda i, x: x * x,
            derivative_fn=lambda i, x: float("nan") if i in nan_at else 2.0 * x,
        )
        inst = NestedInstance(
            n=6, m=2, s=[3, 6], a=[2.0], B=4.0, lower=np.zeros(6), upper=np.full(6, 2.0),
            objective=obj, mode=Mode.CONTINUOUS,
        )
        for x in ([0.5, 0.5, 1.0, 0.5, 0.5, 1.0], [0.0, 1.0, 1.0, 2.0, 0.0, 0.0]):
            _same_report(inst, x, 1e-9)

    def test_active_boundary_next_to_inactive(self):
        # marginals 2, 4, 6, 8 jump upward at every breakpoint; only the first
        # bound is tight, so only that jump is allowed
        inst = NestedInstance(
            n=4, m=4, s=[1, 2, 3, 4], a=[1.0, 10.0, 10.0], B=10.0,
            lower=np.zeros(4), upper=np.full(4, 5.0),
            objective=quad_spec(4), mode=Mode.CONTINUOUS,
        )
        rep = _same_report(inst, [1.0, 2.0, 3.0, 4.0], 1e-6)
        assert rep["boundary_violations"] == [2, 3]
        assert rep["max_within_block_gap"] == 2.0
        # a downward jump is a violation even across the tight bound
        rep = _same_report(inst, [1.0, 0.5, 0.5, 8.0], 1e-6)
        assert rep["boundary_violations"] == [1, 3]


class TestCountActive:
    def test_quadratic_example(self):
        inst = quad_example(mode=Mode.CONTINUOUS)
        assert count_active_constraints(inst, np.array([1.0, 3.0]), 1e-9) == 1

    def test_single_block_has_none(self):
        inst = NestedInstance(
            n=3, m=1, s=[3], a=[], B=6.0, lower=np.zeros(3), upper=np.full(3, 10.0),
            objective=quad_spec(3), mode=Mode.CONTINUOUS,
        )
        assert count_active_constraints(inst, np.array([2.0, 2.0, 2.0]), 1e-9) == 0

    def test_invariant_under_constant_shift(self):
        n = 10
        rng = np.random.Generator(np.random.PCG64(3))
        p = rng.uniform(0.5, 2.0, n)
        alpha = rng.uniform(0.5, 1.5, n)
        cum = np.cumsum(alpha)
        def build(k):
            return NestedInstance(
                n=n, m=n, s=np.arange(1, n + 1), a=cum[:-1], B=float(cum[-1]),
                lower=np.full(n, 0.1), upper=np.full(n, float(cum[-1])),
                objective=ObjectiveSpec(Family.CRASHING, {"k": np.full(n, k), "p": p}),
                mode=Mode.CONTINUOUS,
            )
        s0, st0 = solve(build(0.0), eps=1e-9)
        s1, st1 = solve(build(5.0), eps=1e-9)
        assert st0.active_constraints == st1.active_constraints
