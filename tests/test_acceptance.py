"""Acceptance suite: one test per release criterion.

Each criterion prints a single PASS/FAIL line (run with `pytest -s` to see
them live; they are also appended to acceptance_report.txt next to this
file). Tolerances are fixed here, not tuned at runtime.
"""

import math
import resource
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from nested_alloc import (
    Family,
    Mode,
    NestedInstance,
    ObjectiveSpec,
    Status,
    active_growth_experiment,
    brute_force_solve,
    check_feasible,
    generate_instance,
    greedy_solve,
    hull_solve_instance,
    kkt_tolerance,
    lifted_crashing_instance,
    solve,
    tighten,
    verify_kkt,
)

from conftest import quadratic_instance, small_integer_instance

REPORT = Path(__file__).with_name("acceptance_report.txt")


@pytest.fixture(scope="module", autouse=True)
def _reset_report():
    REPORT.write_text("")
    yield


def report(criterion: str, ok: bool, detail: str):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    with REPORT.open("a") as fh:
        fh.write(line + "\n")
    return ok


def feasible_instances(family, n, m, count, start_seed=0):
    """First `count` feasible draws; the crashing distributions produce
    infeasible instances at a substantial rate, which statistics skip."""
    out, seed = [], start_seed
    while len(out) < count:
        inst = generate_instance(family, n, m, seed)
        if check_feasible(inst, tighten(inst)):
            out.append((seed, inst))
        seed += 1
    return out


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    families = [Family.F, Family.CRASHING, Family.FUELOPT, Family.QUADRATIC]
    checked = mismatches = 0
    for family in families:
        for seed in range(250):
            inst = small_integer_instance(zlib.crc32(f"{family.value}:{seed}".encode()), family)
            dp = brute_force_solve(inst)
            greedy = greedy_solve(inst)
            dec, _ = solve(inst)
            checked += 1
            if not (dp.status == greedy.status == dec.status):
                mismatches += 1
            elif dp.status is Status.OPTIMAL and not (
                dp.objective == greedy.objective == dec.objective
            ):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    assert report(
        "1", ok, f"{checked} instances, {mismatches} mismatches, {elapsed:.1f}s"
    )


def test_criterion_2_continuous_accuracy_vs_hull():
    eps = 1e-8
    worst = 0.0
    cases = [(10, 34), (100, 33), (1000, 33)]
    for n, count in cases:
        for seed in range(count):
            inst = lifted_crashing_instance(n, seed)
            hull = hull_solve_instance(inst)
            dec, _ = solve(inst, eps=eps)
            worst = max(worst, float(np.max(np.abs(hull.x - dec.x))))
    ok = worst <= 2 * eps
    assert report("2", ok, f"100 instances, worst gap {worst:.2e} <= {2 * eps:.0e}")


def _kkt_cases():
    eps = 1e-8
    for n in (10, 100, 1000):
        for family in ("f", "crashing", "fuelopt"):
            for seed, inst in feasible_instances(family, n, n, 20):
                yield inst, eps
        for seed in range(20):
            yield quadratic_instance(n, seed), eps


def test_criterion_3_kkt_verification_and_4_counters():
    total = failures = counter_bad = 0
    for inst, eps in _kkt_cases():
        sol, stats = solve(inst, eps=eps)
        total += 1
        tau = kkt_tolerance(inst, sol.x, eps)
        if not verify_kkt(inst, sol, tau).passed:
            failures += 1
        expected_levels = 1 + math.ceil(math.log2(inst.m)) if inst.m > 1 else 1
        if stats.rap_calls != 2 * inst.m - 1 or stats.recursion_levels != expected_levels:
            counter_bad += 1
    # criterion 4 also exercises sparse-constraint shapes
    for n, m, seed in [(128, 1, 0), (128, 2, 1), (200, 17, 2), (200, 128, 3)]:
        inst = generate_instance("f-uniform", n, m, seed)
        _, stats = solve(inst, eps=1e-8)
        expected_levels = 1 + math.ceil(math.log2(m)) if m > 1 else 1
        if stats.rap_calls != 2 * m - 1 or stats.recursion_levels != expected_levels:
            counter_bad += 1
    ok3 = failures == 0
    ok4 = counter_bad == 0
    report("3", ok3, f"{total} continuous solves, {failures} verification failures")
    report("4", ok4, f"{total + 4} solves, {counter_bad} counter mismatches")
    assert ok3 and ok4


# Reference mean active-constraint counts (terminal constraint included).
# The crashing rows are kept although the documented crashing distributions
# do not reproduce them: those distributions leave ~75% of draws infeasible,
# and statistics over the feasible ones land far below these references
# (about 4, 4, 7 rather than 6.44, 24.61, 34.14 at n = 10, 100, 1000, and no
# reading of the construction we tried closes that gap). The checks stay
# faithful to the published values rather than being loosened to pass.
ACTIVE_REFERENCE = [
    ("f", 100, 1.04),
    ("crashing", 10, 6.44),
    ("crashing", 100, 24.61),
    ("crashing", 1000, 34.14),
    ("fuelopt", 100, 5.31),
]


def test_criterion_5_active_constraint_statistics():
    eps = 1e-8
    rows = []
    all_ok = True
    for family, n, reference in ACTIVE_REFERENCE:
        counts = []
        for seed, inst in feasible_instances(family, n, n, 100):
            _, stats = solve(inst, eps=eps)
            counts.append(stats.active_constraints + 1)  # terminal bound included
        mean = float(np.mean(counts))
        if reference < 2.0:
            ok = abs(mean - reference) <= 0.5
            band = f"{reference}+-0.5"
        else:
            ok = 0.75 * reference <= mean <= 1.25 * reference
            band = f"[{0.75 * reference:.2f}, {1.25 * reference:.2f}]"
        rows.append(f"{family} n={n}: mean {mean:.2f} vs {band} {'ok' if ok else 'MISS'}")
        all_ok = all_ok and ok
    assert report("5", all_ok, "; ".join(rows))


def test_criterion_6_log_growth_of_hull_vertices():
    m_list = [100, 1000, 10_000, 100_000]
    rows = active_growth_experiment(Family.CRASHING, m_list, trials=50, seed=42)
    means = np.array([r[2] for r in rows])
    logs = np.log(np.array(m_list, dtype=float))
    slope, intercept = np.polyfit(logs, means, 1)
    pred = slope * logs + intercept
    ss_res = float(np.sum((means - pred) ** 2))
    ss_tot = float(np.sum((means - means.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    ratio = means[2] / means[0]
    ok = slope > 0 and r2 >= 0.9 and ratio <= 3.0
    assert report(
        "6", ok,
        f"means {np.round(means, 2).tolist()}, slope {slope:.2f}, "
        f"R^2 {r2:.3f}, mean(1e4)/mean(1e2) {ratio:.2f}",
    )


def test_criterion_7_million_variable_scale():
    n = 10**6
    seed = 0
    while True:
        inst = generate_instance("crashing", n, n, seed)
        if check_feasible(inst, tighten(inst)):
            break
        seed += 1
    t0 = time.perf_counter()
    sol, stats = solve(inst, eps=1e-8, time_limit_s=300.0)
    elapsed = time.perf_counter() - t0
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2
    verified = False
    tau = math.nan
    if sol.x is not None:
        tau = kkt_tolerance(inst, sol.x, 1e-8)
        verified = verify_kkt(inst, sol, tau).passed
    ok = sol.status is Status.OPTIMAL and verified and elapsed < 120.0 and peak_gb < 4.0
    assert report(
        "7", ok,
        f"n=m=1e6 seed {seed}: {sol.status.value} in {elapsed:.1f}s, peak {peak_gb:.2f} GiB, "
        f"verify_kkt {'passed' if verified else 'failed'} at tau {tau:.2g}",
    )


def test_criterion_8_sparse_constraint_speedup():
    n = 100_000
    times = {10: [], n: []}
    seed = 0
    collected = 0
    while collected < 10:
        sparse = generate_instance("crashing", n, 10, seed)
        dense = generate_instance("crashing", n, n, seed)
        seed += 1
        if not (
            check_feasible(sparse, tighten(sparse)) and check_feasible(dense, tighten(dense))
        ):
            continue
        _, st_sparse = solve(sparse, eps=1e-8)
        _, st_dense = solve(dense, eps=1e-8)
        times[10].append(st_sparse.wall_ms)
        times[n].append(st_dense.wall_ms)
        collected += 1
    mean_sparse = float(np.mean(times[10]))
    mean_dense = float(np.mean(times[n]))
    ok = mean_sparse < mean_dense
    assert report(
        "8", ok,
        f"n=1e5: mean {mean_sparse:.0f} ms at m=10 vs {mean_dense:.0f} ms at m=1e5",
    )


def test_criterion_9_tightening_and_feasibility_examples():
    quad4 = ObjectiveSpec(Family.QUADRATIC, {"w": np.ones(4), "t": np.zeros(4)})
    worked = NestedInstance(
        n=4, m=3, s=[2, 3, 4], a=[5.0, 7.0], B=9.0,
        lower=np.zeros(4), upper=[1.0, 1.0, 5.0, 5.0], objective=quad4, mode=Mode.INTEGER,
    )
    wb = tighten(worked)
    ok_t = np.array_equal(wb.abar, [0.0, 2.0, 7.0, 9.0]) and check_feasible(worked, wb)

    quad2 = ObjectiveSpec(Family.QUADRATIC, {"w": np.ones(2), "t": np.zeros(2)})
    short = NestedInstance(
        n=2, m=1, s=[2], a=[], B=3.0, lower=np.zeros(2), upper=[1.0, 1.0],
        objective=quad2, mode=Mode.INTEGER,
    )
    ok_a = not check_feasible(short, tighten(short))
    sol, _ = solve(short)
    ok_a = ok_a and sol.status is Status.INFEASIBLE

    quad1 = ObjectiveSpec(Family.QUADRATIC, {"w": np.ones(1), "t": np.zeros(1)})
    single = NestedInstance(
        n=1, m=1, s=[1], a=[], B=6.0, lower=[0.0], upper=[5.0],
        objective=quad1, mode=Mode.INTEGER,
    )
    ok_b = (
        not check_feasible(single, tighten(single))
        and brute_force_solve(single).status is Status.INFEASIBLE
        and greedy_solve(single).status is Status.INFEASIBLE
    )
    ok = ok_t and ok_a and ok_b
    assert report(
        "9", ok,
        f"tighten abar {wb.abar.tolist()}, infeasibility detected: "
        f"{ok_a and ok_b}",
    )
