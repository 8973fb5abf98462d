import numpy as np
import pytest

from nested_alloc import (
    Family,
    HullEligibilityError,
    HullNotApplicableError,
    Mode,
    NestedInstance,
    ObjectiveSpec,
    Status,
    active_growth_experiment,
    generate_instance,
    hull_solve_instance,
    kkt_tolerance,
    lifted_crashing_instance,
    solve,
    verify_kkt,
)
from nested_alloc.hull import growth_rows_to_csv, lower_hull_vertices, scale_parameters


def quad_instance(a, B, upper=10.0):
    return NestedInstance(
        n=2, m=2, s=[1, 2], a=[a], B=B, lower=np.zeros(2), upper=np.full(2, upper),
        objective=ObjectiveSpec(Family.QUADRATIC, {"w": np.ones(2), "t": np.zeros(2)}),
        mode=Mode.CONTINUOUS,
    )


class TestLowerHull:
    def test_vertex_kept_when_slope_increases(self):
        verts = lower_hull_vertices(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 4.0]))
        assert verts.tolist() == [0, 1, 2]  # slopes 1 then 3

    def test_vertex_above_chord_dropped(self):
        verts = lower_hull_vertices(np.array([0.0, 1.0, 2.0]), np.array([0.0, 3.0, 4.0]))
        assert verts.tolist() == [0, 2]

    def test_collinear_dropped(self):
        px = np.arange(5.0)
        py = 2.0 * px
        assert lower_hull_vertices(px, py).tolist() == [0, 4]

    def test_slopes_strictly_increase(self):
        rng = np.random.Generator(np.random.PCG64(0))
        px = np.cumsum(rng.uniform(0.1, 1.0, 200))
        py = np.cumsum(rng.uniform(0.1, 1.0, 200))
        verts = lower_hull_vertices(px, py)
        slopes = np.diff(py[verts]) / np.diff(px[verts])
        assert np.all(np.diff(slopes) > 0)


class TestHullSolve:
    def test_matches_kkt_example(self):
        sol = hull_solve_instance(quad_instance(a=1.0, B=4.0))
        assert np.allclose(sol.x, [1.0, 3.0])
        assert sol.objective == 10.0

    def test_inactive_bound_gives_even_split(self):
        sol = hull_solve_instance(quad_instance(a=3.0, B=4.0))
        assert np.allclose(sol.x, [2.0, 2.0])

    def test_single_block_proportional(self):
        n = 5
        rng = np.random.Generator(np.random.PCG64(2))
        p = rng.uniform(0.5, 2.0, n)
        inst = NestedInstance(
            n=n, m=1, s=[n], a=[], B=4.0, lower=np.zeros(n), upper=np.full(n, 4.0),
            objective=ObjectiveSpec(Family.CRASHING, {"k": np.zeros(n), "p": p}),
            mode=Mode.CONTINUOUS,
        )
        sol = hull_solve_instance(inst)
        gamma = np.sqrt(p)
        assert np.allclose(sol.x, gamma * 4.0 / gamma.sum())

    def test_nonnegative_and_exact_sum(self):
        for seed in range(5):
            inst = lifted_crashing_instance(300, seed)
            sol = hull_solve_instance(inst)
            assert np.all(sol.x >= 0)
            assert abs(sol.x.sum() - inst.B) <= 1e-9 * (1 + inst.B)

    def test_passes_kkt_at_roundoff_tolerance(self):
        inst = lifted_crashing_instance(500, 3)
        sol = hull_solve_instance(inst)
        tau = kkt_tolerance(inst, sol.x, 1e-9)
        assert verify_kkt(inst, sol, tau).passed

    def test_agreement_with_decomposition(self):
        for n in (10, 100, 1000):
            inst = lifted_crashing_instance(n, 7)
            hull = hull_solve_instance(inst)
            dec, _ = solve(inst, eps=1e-8)
            assert np.max(np.abs(hull.x - dec.x)) <= 2e-8

    def test_scale_parameters_per_family(self):
        cr = lifted_crashing_instance(4, 0)
        assert np.allclose(scale_parameters(cr), np.sqrt(cr.objective.params["p"]))
        fo = generate_instance("fuelopt", 4, 4, 0)
        expect = fo.objective.params["c"] * fo.objective.params["p"] ** 0.25
        assert np.allclose(scale_parameters(fo), expect)
        qd = quad_instance(1.0, 4.0)
        assert np.allclose(scale_parameters(qd), 1.0)

    def test_f_family_not_eligible(self):
        inst = generate_instance("f", 5, 5, 0)
        with pytest.raises(HullEligibilityError):
            hull_solve_instance(inst)

    def test_quadratic_with_targets_not_eligible(self):
        inst = NestedInstance(
            n=2, m=1, s=[2], a=[], B=4.0, lower=np.zeros(2), upper=np.full(2, 9.0),
            objective=ObjectiveSpec(Family.QUADRATIC, {"w": np.ones(2), "t": np.array([1.0, 0.0])}),
            mode=Mode.CONTINUOUS,
        )
        with pytest.raises(HullEligibilityError):
            hull_solve_instance(inst)

    def test_integer_instance_not_eligible(self):
        """The envelope gives [1.5, 1.5] here, which no integer solve may
        return as optimal."""
        inst = NestedInstance(
            n=2, m=1, s=[2], a=[], B=3.0, lower=np.zeros(2), upper=np.full(2, 10.0),
            objective=ObjectiveSpec(Family.QUADRATIC, {"w": np.ones(2), "t": np.zeros(2)}),
            mode=Mode.INTEGER,
        )
        with pytest.raises(HullEligibilityError):
            hull_solve_instance(inst)

    def test_binding_upper_bound_flagged(self):
        inst = quad_instance(a=3.0, B=4.0, upper=1.5)
        with pytest.raises(HullNotApplicableError) as exc:
            hull_solve_instance(inst)
        assert exc.value.solution.status is Status.OPTIMAL

    def test_binding_lower_bound_flagged(self):
        inst = NestedInstance(
            n=2, m=1, s=[2], a=[], B=4.0, lower=[1.9, 0.0], upper=np.full(2, 9.0),
            objective=ObjectiveSpec(Family.QUADRATIC, {"w": np.array([1.0, 0.1]), "t": np.zeros(2)}),
            mode=Mode.CONTINUOUS,
        )
        with pytest.raises(HullNotApplicableError):
            hull_solve_instance(inst)


class TestGrowthExperiment:
    def test_single_constraint_has_no_interior_vertices(self):
        rows = active_growth_experiment(Family.CRASHING, [1], trials=20, seed=0)
        assert rows[0][2] == 0.0

    def test_log_like_growth_small_scale(self):
        rows = active_growth_experiment(Family.CRASHING, [30, 300, 3000], trials=30, seed=1)
        means = [r[2] for r in rows]
        assert means[0] < means[1] < means[2]
        # doubling the exponent should not double the count (log signature)
        assert means[2] / means[1] < 2.0

    @pytest.mark.parametrize("family", [Family.CRASHING, Family.FUELOPT])
    def test_mean_active_count_is_harmonic(self, family):
        """Spitzer's lemma: the faces of the lower convex hull of a walk with
        exchangeable increments of a.s. distinct slopes are distributed like
        the cycles of a uniform random permutation, so the mean number of
        interior vertices is H_m - 1. Every mean lies within 4 standard
        errors of it."""
        rows = active_growth_experiment(family, [10, 100, 1000], trials=400, seed=7)
        for m, trials, mean, std in rows:
            law = sum(1.0 / k for k in range(1, m + 1)) - 1.0
            assert abs(mean - law) <= 4.0 * std / np.sqrt(trials)

    def test_csv_shape(self):
        rows = active_growth_experiment(Family.FUELOPT, [10, 20], trials=5, seed=2)
        text = growth_rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "m,trials,mean_active,std_active"
        assert len(lines) == 3

    def test_rejects_non_eligible_family(self):
        with pytest.raises(HullEligibilityError):
            active_growth_experiment(Family.F, [10], trials=2, seed=0)
