#!/usr/bin/env python3
"""In-process A/B of the solver: the working tree against a git revision.

Unpacks `git archive REV src/nested_alloc` into a temporary directory and
imports it next to the working tree's package as `nested_alloc_base` (the
package's imports are relative, so it runs under any name). The instances
come from the benchmark's `perfbench/workloads.py`, which this script only
imports. Solves are interleaved ABBA per instance and repetition, so both
sides see the same drift of the host's speed. Each continuous solve is
followed by the check the benchmark times as `verify_s`: its side's
`oracles.verify_kkt` at `kkt_tolerance`, on its side's answer.

    python3 scripts/ab.py --base HEAD --workload sparse-cont --seeds 0 1 2 --reps 3
    python3 scripts/ab.py --base HEAD --workload dense-cont dense-int --seeds 0 --json ab.json

Per instance it prints the median solve time of each side and their ratio
(change / base), the median verification time of each side (continuous
instances), whether the answers agree (`x` compared with
`np.array_equal`, `Solution.objective` with `==`, and both kernel counters),
and how far they moved: the largest |x_change - x_base| over the instance.
The summary per workload gives the instances the change won, the median
ratio, the same two for verification, the largest move, the continuous
instances that moved by more than the benchmark's accuracy `workloads.EPS`
and the integer instances whose `x` is not equal, the kernel counters
summed per side and two sha256 per side over every `x` of every instance:
of the bytes as they are, and with -0.0 read as 0.0. The hardware-independent headline, objective evaluations
per element per level (`kernel_evals / (n levels)`), is printed per instance
and side and summed per family and side, all instances of a family pooled
(`all` pools the workload). `--json PATH` also writes every row and summary
there.

Memory, per instance and side: the traced peak of one extra, untimed solve
under `tracemalloc` (what the solve allocates beyond the instance), in MiB
and in n-sized float64 arrays, and the minor page faults (`ru_minflt`) and
system CPU seconds (`ru_stime`) around each timed solve, summed over the
repetitions. Both sides share one process, so its peak RSS cannot be split
between them; the per-workload summary sums faults and system time per side
and gives each side's largest traced peak in n-sized arrays.
"""

import argparse
import hashlib
import importlib.util
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np

import workloads
from nested_alloc import oracles as change_oracles
from nested_alloc import solver as change_solver

BASE = "nested_alloc_base"


def import_base(rev: str, into: Path):
    """Import `src/nested_alloc` at `rev` as the package `nested_alloc_base`;
    returns its solver, model and oracles modules."""
    blob = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev, "src/nested_alloc"],
        check=True, capture_output=True,
    ).stdout
    tar_path = into / "base.tar"
    tar_path.write_bytes(blob)
    with tarfile.open(tar_path) as tar:
        tar.extractall(into, filter="data")
    pkg = into / "src" / "nested_alloc"
    spec = importlib.util.spec_from_file_location(
        BASE, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[BASE] = module
    spec.loader.exec_module(module)
    return tuple(importlib.import_module(f"{BASE}.{name}") for name in ("solver", "model", "oracles"))


def as_base(inst, model):
    """The same instance built from the base package's classes, whose enums
    the base solver compares by identity."""
    obj = inst.objective
    return model.NestedInstance(
        n=inst.n, m=inst.m, s=inst.s, a=inst.a, B=inst.B, lower=inst.lower, upper=inst.upper,
        objective=model.ObjectiveSpec(obj.family.value, dict(obj.params)),
        mode=model.Mode(inst.mode.value),
    )


def timed_solve(solve, inst, eps):
    """Wall seconds, minor page faults and system CPU seconds of one solve,
    then its solution and statistics."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    t = time.perf_counter()
    sol, stats = solve(inst, eps)
    t = time.perf_counter() - t
    after = resource.getrusage(resource.RUSAGE_SELF)
    return t, after.ru_minflt - ru.ru_minflt, after.ru_stime - ru.ru_stime, sol, stats


def timed_verify(oracles, inst, sol, eps) -> float:
    """Wall seconds of `verify_kkt` at `kkt_tolerance`, as the benchmark
    times it for a continuous solve."""
    t = time.perf_counter()
    oracles.verify_kkt(inst, sol, oracles.kkt_tolerance(inst, sol.x, eps))
    return time.perf_counter() - t


def traced_peak(solve, inst, eps) -> int:
    """Bytes one solve holds at its traced peak beyond what was held before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    held = tracemalloc.get_traced_memory()[0]
    try:
        solve(inst, eps)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        if not tracing:
            tracemalloc.stop()


def max_move(bx, cx) -> float:
    """Largest |cx - bx| (0 where neither side has an allocation, inf where
    one side alone has one)."""
    if bx is None or cx is None:
        return 0.0 if bx is None and cx is None else float("inf")
    return float(np.max(np.abs(cx - bx), initial=0.0))


def compare(workload, seeds, reps, sides, checks, base_model) -> dict:
    """A/B of one workload over `seeds`; prints its rows and summary.
    `sides` and `checks` map each side to its solve and its oracles."""
    digest = {side: hashlib.sha256() for side in sides}
    unsigned = {side: hashlib.sha256() for side in sides}  # x + 0.0: -0.0 reads 0.0
    rows, ratios, won, zeros_total = [], [], 0, 0
    verify_ratios, verify_won = [], 0
    steps = {side: 0 for side in sides}
    evals = {side: 0 for side in sides}
    # per family and side: kernel_evals and n * levels, summed
    headline = {}
    faults = {side: 0 for side in sides}
    sys_s = {side: 0.0 for side in sides}
    peaks = {side: 0.0 for side in sides}
    print(f"== {workload} seeds {' '.join(map(str, seeds))}")
    print(f"{'instance':<28} {'base_s':>9} {'change_s':>9} {'ratio':>7} {'max_dx':>9} "
          f"{'peak_b':>7} {'peak_c':>7} {'kflt_b':>7} {'kflt_c':>7} {'epl_b':>6} {'epl_c':>6} "
          f"{'verify_b':>8} {'verify_c':>8}  same")
    for seed in seeds:
        for item in workloads.build(workload, seed).items:
            insts = {"base": as_base(item.inst, base_model), "change": item.inst}
            times = {side: [] for side in sides}
            verify_times = {side: [] for side in sides}
            row_faults = {side: 0 for side in sides}
            row_sys = {side: 0.0 for side in sides}
            last = {}
            for _ in range(reps):
                for side in ("base", "change", "change", "base"):
                    t, flt, st, *last[side] = timed_solve(sides[side], insts[side], item.eps)
                    times[side].append(t)
                    sol = last[side][0]
                    if item.eps is not None and sol.x is not None:
                        verify_times[side].append(
                            timed_verify(checks[side], insts[side], sol, item.eps))
                    row_faults[side] += flt
                    row_sys[side] += st
            # in n-sized float64 arrays
            peak = {side: traced_peak(sides[side], insts[side], item.eps) for side in sides}
            arrays = {side: peak[side] / (8.0 * item.n) for side in sides}
            for side in sides:
                faults[side] += row_faults[side]
                sys_s[side] += row_sys[side]
                peaks[side] = max(peaks[side], arrays[side])
            (bsol, bstats), (csol, cstats) = last["base"], last["change"]
            epl = {}
            for side, (sol, st) in last.items():
                steps[side] += st.kernel_steps
                evals[side] += st.kernel_evals
                work = item.n * st.recursion_levels
                epl[side] = st.kernel_evals / work if work else 0.0
                for key in (item.family, "all"):
                    acc = headline.setdefault(key, {name: [0, 0] for name in sides})[side]
                    acc[0] += st.kernel_evals
                    acc[1] += work
                if sol.x is not None:
                    digest[side].update(np.ascontiguousarray(sol.x).tobytes())
                    unsigned[side].update((sol.x + 0.0).tobytes())
            same_x = (bsol.x is None and csol.x is None) or (
                bsol.x is not None and csol.x is not None and np.array_equal(bsol.x, csol.x)
            )
            same_obj = bsol.objective == csol.objective or (
                np.isnan(bsol.objective) and np.isnan(csol.objective)
            )
            same_counts = (bstats.kernel_steps, bstats.kernel_evals) == (
                cstats.kernel_steps, cstats.kernel_evals
            )
            # coordinates equal as numbers but not bit for bit: zeros of
            # opposite sign, which np.array_equal does not tell apart
            signed_zeros = 0 if not same_x or bsol.x is None else int(np.count_nonzero(
                np.signbit(bsol.x) != np.signbit(csol.x)
            ))
            zeros_total += signed_zeros
            same = same_x and same_obj and same_counts
            dx = max_move(bsol.x, csol.x)
            tb, tc = statistics.median(times["base"]), statistics.median(times["change"])
            ratios.append(tc / tb)
            won += tc < tb
            vb = vc = math.nan  # integer instances and infeasible draws
            if verify_times["base"] and verify_times["change"]:
                vb, vc = (statistics.median(verify_times[side]) for side in ("base", "change"))
                verify_ratios.append(vc / vb)
                verify_won += vc < vb
            label = f"{item.family} n={item.n} m={item.m} s={item.seed}"
            flags = "yes" if same else f"NO x={same_x} obj={same_obj} counts={same_counts}"
            if signed_zeros:
                flags += f" ({signed_zeros} zeros of opposite sign)"
            print(f"{label:<28} {tb:9.4f} {tc:9.4f} {tc / tb:7.3f} {dx:9.2e} "
                  f"{arrays['base']:7.2f} {arrays['change']:7.2f} "
                  f"{row_faults['base'] / 1e3:7.1f} {row_faults['change'] / 1e3:7.1f} "
                  f"{epl['base']:6.2f} {epl['change']:6.2f} {vb:8.4f} {vc:8.4f}  {flags}"
                  f"  steps={cstats.kernel_steps} evals={cstats.kernel_evals}")
            rows.append({
                **item.describe(), "base_s": round(tb, 5), "change_s": round(tc, 5),
                "verify_s": None if math.isnan(vb) else [round(vb, 5), round(vc, 5)],
                "max_dx": float(f"{dx:.3g}"), "same": same, "same_x": same_x,
                "steps": [bstats.kernel_steps, cstats.kernel_steps],
                "evals": [bstats.kernel_evals, cstats.kernel_evals],
                "evals_per_elem_level": [round(epl[side], 4) for side in sides],
                "peak_mib": [round(peak[side] / 2**20, 3) for side in sides],
                "peak_arrays": [round(arrays[side], 4) for side in sides],
                "minflt": [row_faults[side] for side in sides],
                "sys_s": [round(row_sys[side], 4) for side in sides],
            })
    summary = {
        "won": won,
        "instances": len(rows),
        "median_ratio": statistics.median(ratios),
        "verify_won": verify_won,
        "verify_instances": len(verify_ratios),
        "verify_median_ratio": statistics.median(verify_ratios) if verify_ratios else None,
        "differ": sum(not r["same"] for r in rows),
        "max_dx": max(r["max_dx"] for r in rows),
        "cont_above_eps": sum(r["mode"] == "cont" and r["max_dx"] > workloads.EPS for r in rows),
        "int_not_equal": sum(r["mode"] == "int" and not r["same_x"] for r in rows),
        "signed_zeros": zeros_total,
        "kernel_steps": steps,
        "kernel_evals": evals,
        "evals_per_elem_level": {
            key: {side: round(e / w, 4) if w else 0.0 for side, (e, w) in acc.items()}
            for key, acc in sorted(headline.items(), key=lambda kv: kv[0] == "all")
        },
        "minflt": faults,
        "sys_s": {side: round(sys_s[side], 4) for side in sides},
        "peak_arrays_max": {side: round(peaks[side], 4) for side in sides},
        "sha256": {side: digest[side].hexdigest() for side in sides},
        "sha256_zeros_unsigned": {side: unsigned[side].hexdigest() for side in sides},
    }
    print(f"change won {summary['won']}/{len(rows)}; median ratio {summary['median_ratio']:.3f}; "
          f"instances with different answers or counters: {summary['differ']}")
    if verify_ratios:
        print(f"verify: change won {verify_won}/{len(verify_ratios)}; median ratio "
              f"{summary['verify_median_ratio']:.3f}")
    print(f"largest |x_change - x_base| {summary['max_dx']:.3g}; continuous instances above "
          f"eps {workloads.EPS:g}: {summary['cont_above_eps']}; integer instances not equal: "
          f"{summary['int_not_equal']}")
    print(f"coordinates equal but for the sign of zero: {zeros_total}")
    print("evaluations per element per level, base -> change: " + ", ".join(
        f"{key} {v['base']:.2f} -> {v['change']:.2f}"
        for key, v in summary["evals_per_elem_level"].items()
    ))
    for side in sides:
        print(f"{side:<6} sha256 {digest[side].hexdigest()} "
              f"kernel_steps {steps[side]} kernel_evals {evals[side]}")
        print(f"{side:<6} minor faults {faults[side]} system {sys_s[side]:.3f} s, largest "
              f"traced peak {peaks[side]:.2f} n-sized arrays")
        print(f"{side:<6} sha256 with zeros unsigned {unsigned[side].hexdigest()}")
    return {"workload": workload, "seeds": seeds, "rows": rows, "summary": summary}


def to_json(args, results) -> str:
    """The run as JSON, one line per instance row (steps and evals as
    [base, change]), so result files diff row by row."""
    head = json.dumps({"base": args.base, "reps": args.reps, "eps": workloads.EPS})
    parts = []
    for r in results:
        meta = json.dumps({k: r[k] for k in ("workload", "seeds", "summary")})
        rows = ",\n".join(json.dumps(row) for row in r["rows"])
        parts.append(f'{meta[:-1]},\n "rows": [\n{rows}]}}')
    return f'{head[:-1]}, "workloads": [\n' + ",\n".join(parts) + "]}\n"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--workload", required=True, nargs="+", choices=workloads.WORKLOADS)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--reps", type=int, default=1, help="ABBA repetitions per instance")
    p.add_argument("--json", type=Path, help="also write every row and summary to this file")
    args = p.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        base_solver, base_model, base_oracles = import_base(args.base, Path(tmp))
        sides = {"base": base_solver.solve, "change": change_solver.solve}
        checks = {"base": base_oracles, "change": change_oracles}
        results = [compare(w, args.seeds, args.reps, sides, checks, base_model)
                   for w in args.workload]
    if args.json is not None:
        args.json.write_text(to_json(args, results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
