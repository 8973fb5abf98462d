"""Tests of the benchmark's own machinery: certificate, workloads, layer trace,
the order of a pass and the comparison of result files."""

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import compare  # noqa: E402
import run  # noqa: E402
from certificate import certify, fill_feasible  # noqa: E402
from layers import KERNELS, PHASES, Tracer  # noqa: E402
from workloads import build  # noqa: E402

from nested_alloc import solver  # noqa: E402
from nested_alloc.cli import _scaled_integer_instance  # noqa: E402
from nested_alloc.generators import generate_instance  # noqa: E402
from nested_alloc.model import Solution, Status, ValidationError, objective_value  # noqa: E402
from nested_alloc.oracles import brute_force_solve, greedy_solve, kkt_tolerance, verify_kkt  # noqa: E402

EPS = 1e-8
FAMILIES = ("f", "f-uniform", "f-active", "crashing", "fuelopt")


def small_int(family, n, m, seed, scale=None):
    """The first draw at or after `seed` that survives snapping and is feasible;
    crashing boxes need a finer grid than the others not to collapse."""
    scale = scale or (8.0 if family == "crashing" else 3.0)
    for s in range(seed, seed + 50):
        try:
            inst = _scaled_integer_instance(generate_instance(family, n, m, s), scale)
        except ValidationError:  # a box collapsed on the coarse grid
            continue
        if fill_feasible(inst):
            return inst
    raise AssertionError(f"no usable {family} draw")


def with_x(inst, x):
    return Solution(np.asarray(x, dtype=np.float64), objective_value(inst, x), Status.OPTIMAL)


def feasible_allocations(inst):
    """Every integer allocation meeting the total, the boxes and the caps."""
    lo, hi = inst.lower.astype(int), inst.upper.astype(int)
    B = int(inst.B)
    for head in itertools.product(*(range(a, b + 1) for a, b in zip(lo[:-1], hi[:-1]))):
        last = B - sum(head)
        if lo[-1] <= last <= hi[-1]:
            x = np.array([*head, last], dtype=np.float64)
            if np.all(np.cumsum(x)[inst.s[:-1] - 1] <= inst.a):
                yield x


def tiny_int_cases():
    cases = []
    for family, seed in itertools.product(FAMILIES, range(4)):
        inst = small_int(family, 4, 1 + seed % 4, 10 * seed)
        cases.append(pytest.param(inst, id=f"{family}-{seed}"))
    return cases


@pytest.mark.parametrize("inst", tiny_int_cases())
def test_integer_certificate_accepts_exactly_the_optima(inst):
    allocations = list(feasible_allocations(inst))
    assert allocations
    values = [objective_value(inst, x) for x in allocations]
    best = min(values)
    for x, value in zip(allocations, values):
        optimal = value <= best + 1e-12 * abs(best)
        assert certify(inst, with_x(inst, x)).ok == optimal, (x, value, best)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", range(3))
def test_integer_certificate_matches_greedy_and_brute_force(family, seed):
    inst = small_int(family, 8, 4, seed)
    greedy = greedy_solve(inst)
    decomp, _ = solver.solve(inst)
    assert np.array_equal(decomp.x, greedy.x)
    assert certify(inst, greedy).ok
    if inst.B <= 40:
        brute = brute_force_solve(inst)
        assert math.isclose(brute.objective, greedy.objective, rel_tol=1e-12)
        assert certify(inst, brute).ok


def test_certificate_rejects_unit_moved_across_inactive_breakpoint():
    inst = small_int("f", 30, 6, 1, 20.0)
    x = greedy_solve(inst).x
    assert certify(inst, with_x(inst, x)).ok
    slack = inst.a - np.cumsum(x)[inst.s[:-1] - 1]
    j = int(np.flatnonzero(slack >= 1)[0])
    left = np.flatnonzero((x > inst.lower) & (np.arange(inst.n) < inst.s[j]))
    right = np.flatnonzero((x < inst.upper) & (np.arange(inst.n) >= inst.s[j]))
    y = x.copy()
    y[left[-1]] -= 1  # one unit moved right: every cap only loosens
    y[right[0]] += 1
    verdict = certify(inst, with_x(inst, y))
    assert not verdict.ok and "exchange" in verdict.reason


def test_certificate_rejects_broken_cap():
    inst = small_int("f-active", 30, 6, 2, 20.0)
    x = greedy_solve(inst).x
    slack = inst.a - np.cumsum(x)[inst.s[:-1] - 1]
    j = int(np.flatnonzero(slack < 1)[0])  # f-active drives caps tight
    left = np.flatnonzero((x < inst.upper) & (np.arange(inst.n) < inst.s[j]))
    right = np.flatnonzero((x > inst.lower) & (np.arange(inst.n) >= inst.s[j]))
    y = x.copy()
    y[left[-1]] += 1  # one unit moved left across a tight cap
    y[right[0]] -= 1
    verdict = certify(inst, with_x(inst, y))
    assert not verdict.ok and "exceeded" in verdict.reason


def test_certificate_rejects_wrong_infeasible_verdict():
    inst = small_int("f", 10, 3, 0, 10.0)
    assert not certify(inst, Solution(None, math.nan, Status.INFEASIBLE)).ok


def continuous_cases():
    return [pytest.param(f, m, seed, id=f"{f}-m{m}-{seed}")
            for f in FAMILIES for m in (1, 7, 60) for seed in range(2)]


@pytest.mark.parametrize("family,m,seed", continuous_cases())
def test_continuous_certificate_matches_verify_kkt(family, m, seed):
    inst = generate_instance(family, 60, m, seed)
    sol, _ = solver.solve(inst, EPS)
    if sol.x is None:
        assert not fill_feasible(inst) and certify(inst, sol, EPS).ok
        return
    assert certify(inst, sol, EPS).ok
    assert verify_kkt(inst, sol, kkt_tolerance(inst, sol.x, EPS)).verdict

    # move mass between neighbours inside a block, where `verify_kkt` looks:
    # once the marginals split by more than twice its tolerance, both reject
    tau = kkt_tolerance(inst, sol.x, EPS)
    x, delta = sol.x, 0.01
    inner = np.setdiff1d(np.arange(inst.n - 1), inst.s[:-1] - 1)
    room = (x[inner] > inst.lower[inner] + delta) & (x[inner + 1] < inst.upper[inner + 1] - delta)
    for j in inner[room]:
        y = x.copy()
        y[j] -= delta
        y[j + 1] += delta
        split = inst.objective.derivative_at(np.array([j + 1, j]), y[[j + 1, j]])
        if split[0] - split[1] > 2 * tau:
            moved = with_x(inst, y)
            assert not certify(inst, moved, EPS).ok
            assert not verify_kkt(inst, moved, kkt_tolerance(inst, y, EPS)).verdict


@pytest.mark.parametrize("seed", range(3))
def test_fill_feasibility_matches_solver(seed):
    for family, n in itertools.product(FAMILIES, (20, 200)):
        inst = generate_instance(family, n, n, seed)
        assert fill_feasible(inst) == solver.check_feasible(inst, solver.tighten(inst))
        try:
            scaled = _scaled_integer_instance(inst, 10.0)
        except ValidationError:
            continue
        assert fill_feasible(scaled) == (greedy_solve(scaled).x is not None)


@pytest.mark.parametrize("workload", ["dense-int", "batch-small", "dense-cont"])
def test_workloads_are_deterministic_per_seed(workload):
    a, b, c = build(workload, 3), build(workload, 3), build(workload, 4)
    assert [i.describe() for i in a.items] == [i.describe() for i in b.items]
    assert all(x.inst == y.inst for x, y in zip(a.items, b.items))
    assert not all(x.inst == y.inst for x, y in zip(a.items, c.items))
    if workload != "batch-small":  # large workloads hold feasible draws only
        assert all(fill_feasible(i.inst) and i.seed >= 3 for i in a.items)


def traced_solve(inst, eps, tracer):
    with tracer.installed():
        return tracer.solve(tracer.instrument(inst), eps)


def test_tracer_restores_solver_and_adds_up():
    originals = {name: getattr(solver, name) for name in (*PHASES, *KERNELS)}
    tracer = Tracer()
    inst = generate_instance("crashing", 300, 40, 1)
    sol, stats, _ = traced_solve(inst, EPS, tracer)
    assert {name: getattr(solver, name) for name in originals} == originals
    assert certify(inst, sol, EPS).ok
    m = tracer.metrics()
    children = sum(m[k] for k in PHASES.values()) + m["rap.kernel_ms"]
    assert m["solver.self_ms"] + children == pytest.approx(m["solver.solve_ms"])
    assert m["solver.rap_calls"] == stats.rap_calls == 2 * 40 - 1
    assert m["rap.segments"] == stats.rap_calls
    rows = tracer.level_rows()
    assert m["rap.elements"] == sum(row["elements"] for row in rows)
    assert rows[0]["elements"] == 300  # the root level sweeps every variable
    assert m["model.evals"] >= m["rap.evals_per_elem_level"] * m["rap.elements"] > 0
    assert 0.0 <= m["rap.merges_unchanged_frac"] <= 1.0
    assert [row["depth"] for row in rows] == list(range(stats.recursion_levels))


def test_tracer_reports_missing_names_as_absent(monkeypatch):
    monkeypatch.delattr(solver, "solve_segments_integer")
    monkeypatch.delattr(solver, "tighten")
    tracer = Tracer()
    with tracer.installed():
        pass
    assert not hasattr(solver, "tighten")
    assert tracer.absent == ["tighten", "solve_segments_integer"]
    tracer.reset()
    m = tracer.metrics()
    assert "solver.tighten_ms" not in m
    assert "rap.kernel_ms" in m  # the continuous kernel is still there


def test_tracer_counts_integer_kernel():
    inst = small_int("fuelopt", 50, 50, 0, 1e3)
    tracer = Tracer()
    sol, _, _ = traced_solve(inst, None, tracer)
    assert np.array_equal(sol.x, greedy_solve(inst).x)
    m = tracer.metrics()
    assert m["model.evals.value_at"] > 0 and m["model.evals.inverse_derivative_at"] == 0


def test_pass_solves_everything_before_any_json(monkeypatch):
    from nested_alloc import io

    events = []
    write_instance = io.write_instance

    def solve(inst, eps):
        events.append("solve")
        return (*solver.solve(inst, eps), 0.0)

    def logged_write_instance(inst):
        events.append("json")
        return write_instance(inst)

    monkeypatch.setattr(io, "write_instance", logged_write_instance)
    items = build("batch-small", 0).items[:6]
    rec = run.run_pass(items, solve, certify)
    assert events[:6] == ["solve"] * 6 and set(events[6:]) == {"json"}
    assert rec.failed == [] and rec.rss_mib > 0 and sorted(rec.io) == list(range(6))


def _result_file(path, run_seconds, workloads, metrics):
    runs = [{"workload": w, "seed": seed, "trace": 0,
             "result": {"metrics": {k: {"value": v + seed, "unit": "s"}
                                    for k, v in metrics.items()}}}
            for w in workloads for seed in range(4)]
    path.write_text(json.dumps({"run_seconds": run_seconds, "runs": runs}))
    return str(path)


def test_compare_refuses_files_that_measure_different_things(tmp_path):
    a = _result_file(tmp_path / "a.json", 25, ["dense-int"], {"solve_s": 100.0})
    b = _result_file(tmp_path / "b.json", 10, ["dense-int"], {"solve_s": 100.0})
    c = _result_file(tmp_path / "c.json", 25, ["dense-int", "batch-small"], {"solve_s": 100.0})
    assert compare.main([a, b]) == 2
    assert compare.main([a, c]) == 2
    assert compare.main([a, a]) == 0


def test_compare_flags_a_metric_absent_on_one_side(tmp_path, capsys):
    a = _result_file(tmp_path / "a.json", 25, ["dense-int"], {"solve_s": 100.0, "io_s": 1.0})
    b = _result_file(tmp_path / "b.json", 25, ["dense-int"], {"solve_s": 100.0})
    assert compare.main([a, b]) == 1
    assert f"absent in {b}" in capsys.readouterr().out
