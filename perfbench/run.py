"""Benchmark of the nested-allocation solver: one workload per process.

Run from the root of a checkout (the solver is imported from `src/`):

    python3 perfbench/run.py --workload dense-cont --seed 0 --seconds 25 --trace 0

A run builds its workload's instances from the seed, then repeats whole
passes over them for about `--seconds` (at least one pass). Per instance a
pass pays what the CLI pays: one `solver.solve` and the check
`nested-alloc verify` makes, and, after all solves of the pass,
`write_instance`, `read_instance`, `write_solution` and `read_solution`.
Every solve is checked by the benchmark's own certificate (certificate.py),
every round trip must give back what went in.

The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}. With `--trace 0` the metrics
are the end-to-end ones of BENCHMARK.json; with `--trace 1` the per-layer
ones, from passes under the layer trace (layers.py), each one after an
untraced pass of the same solves, which gives the tracing overhead. The line
before it holds the details: the seeds every instance used, the per-level
trace rows, the version numbers.
"""

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

# One solve at a time on one thread: keep BLAS from spreading.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SETUP_REPEATS = 5  # imports and builds per run; setup_s sums their medians
# What a run imports before its first solve, in a fresh interpreter.
IMPORT_PROBE = ("import sys; sys.path[:0] = {!r}; import numpy, nested_alloc.solver, "
                "nested_alloc.io, nested_alloc.oracles, certificate, workloads, time; "
                "print(repr(time.perf_counter()))")
MIN_TIMED_S = 0.002  # shortest verification timed on its own
# A verification or JSON round trip quicker than this is timed three times per
# pass and taken at its median: the host's speed swings by a quarter from one
# second to the next, and the slower ones cost too much to repeat.
REPEAT_BELOW_S = 1.0
IO_FUNCS = ("write_instance", "read_instance", "write_solution", "read_solution")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


class Pass:
    """What one pass over the workload measured and found."""

    def __init__(self):
        # seconds per instance, keyed by its position in the workload
        self.solve = {}
        self.io = {}
        self.verify = {}
        self.io_by_func = dict.fromkeys(IO_FUNCS, 0.0)  # seconds, all instances
        self.io_bytes = 0
        self.attempted = 0
        self.failed = []  # (instance, reason)
        self.verify_rejected = []
        self.rss_mib = 0.0  # peak RSS after the solves, before any JSON


def _cli_integer_verify(inst, x):
    """The check `nested-alloc verify` makes on an integer solution
    (cli.cmd_verify at its default --tau 0): feasibility only."""
    from nested_alloc.model import prefix_sums

    y = prefix_sums(inst, x)
    return bool(
        y[-1] == inst.B
        and (inst.a - y[: inst.m - 1] >= 0).all()
        and (x >= inst.lower).all()
        and (x <= inst.upper).all()
    )


def run_pass(items, solve, check):
    """One pass; `solve(inst, eps)` returns (solution, stats, seconds).

    Every instance is solved, certified and verified first; the JSON round
    trips of all of them follow. The peak RSS is read in between, so it is
    that of the solves and not that of the JSON text."""
    from nested_alloc import io
    from nested_alloc.oracles import kkt_tolerance, verify_kkt

    rec = Pass()
    solved = {}
    for k, item in enumerate(items):
        inst, eps = item.inst, item.eps
        rec.attempted += 1
        try:
            sol, stats, rec.solve[k] = solve(inst, eps)
            if sol.x is not None:
                if eps is None:
                    verified, rec.verify[k] = _timed(lambda: _cli_integer_verify(inst, sol.x))
                else:
                    verified, rec.verify[k] = _timed(lambda: verify_kkt(
                        inst, sol, kkt_tolerance(inst, sol.x, eps)).verdict)
                if not verified:
                    rec.verify_rejected.append(item.describe())
            verdict = check(inst, sol, eps)
            if verdict.ok:
                solved[k] = sol, stats
                continue
            reason = verdict.reason
        except Exception as exc:  # a failing solve is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            reason = f"{type(exc).__name__}: {exc}"
        rec.failed.append((item.describe(), reason))

    rec.rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for k, (sol, stats) in solved.items():
        item = items[k]
        try:
            trips = []  # seconds of each call, per timing; repeated as in _timed
            while len(trips) < 3 and (not trips or sum(trips[0]) < REPEAT_BELOW_S):
                back, sol_back, nbytes, secs = _round_trip(io, item.inst, sol, stats)
                trips.append(secs)
            for name, secs in zip(IO_FUNCS, zip(*trips)):
                rec.io_by_func[name] += _median(secs)
            rec.io_bytes += nbytes
            rec.io[k] = _median([sum(secs) for secs in trips])

            if back != item.inst:
                reason = "instance JSON round trip changed the instance"
            elif sol_back.status is not sol.status or (
                sol.x is not None and not (sol_back.x == sol.x).all()
            ):
                reason = "solution JSON round trip changed the solution"
            else:
                continue
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            reason = f"{type(exc).__name__}: {exc}"
        rec.failed.append((item.describe(), reason))
    return rec


def _timed(fn):
    """`fn()` and its seconds: the median of three timings when the first takes
    under REPEAT_BELOW_S, else the one. A call shorter than MIN_TIMED_S is
    repeated within a timing, which takes the mean."""
    times = []
    while len(times) < 3 and (not times or times[0] < REPEAT_BELOW_S):
        t, calls = time.perf_counter(), 0
        while not calls or time.perf_counter() - t < MIN_TIMED_S:
            out = fn()
            calls += 1
        times.append((time.perf_counter() - t) / calls)
    return out, _median(times)


def _round_trip(io, inst, sol, stats):
    """The JSON round trips of `nested-alloc gen`/`solve`/`verify`: what comes
    back, the bytes written and the seconds of each call of IO_FUNCS."""
    t0 = time.perf_counter()
    blob = io.write_instance(inst)
    t1 = time.perf_counter()
    back = io.read_instance(blob)
    t2 = time.perf_counter()
    nbytes = len(blob)
    del blob
    t3 = time.perf_counter()
    blob = io.write_solution(sol, stats)
    t4 = time.perf_counter()
    sol_back = io.read_solution(blob)
    t5 = time.perf_counter()
    return back, sol_back, nbytes + len(blob), (t1 - t0, t2 - t1, t4 - t3, t5 - t4)


def _median(values):
    return statistics.median(values) if values else float("nan")


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def _import_seconds():
    """Seconds from starting a fresh interpreter to its having imported what a
    run imports before its first solve. The child reads the same monotonic
    clock as this process (CLOCK_MONOTONIC on Linux)."""
    code = IMPORT_PROBE.format([str(ROOT / "src"), str(ROOT / "perfbench")])
    t = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=60,
                         capture_output=True, text=True).stdout
    return float(out) - t


class SetUp:
    """The run's set-up, made SETUP_REPEATS times and spread over the run, as
    the host's speed drifts over seconds and samples taken back to back drift
    together. Each is an import (`_import_seconds`) and a build of the inputs."""

    def __init__(self, build, workload, seed):
        self._build = lambda: build(workload, seed)
        self.import_s, self.build_s, self.generate_s = [], [], []

    def once(self):
        """One more set-up; returns the instances it built."""
        self.import_s.append(_import_seconds())
        b = self._build()
        self.build_s.append(b.total_s)
        self.generate_s.append(b.generate_s)
        return b.items

    def again(self):
        if len(self.build_s) < SETUP_REPEATS:
            self.once()

    def complete(self):
        while len(self.build_s) < SETUP_REPEATS:
            self.once()

    @property
    def seconds(self):
        return _median(self.import_s) + _median(self.build_s)


def more_passes(start, done, seconds):
    """Whether another whole pass brings the run nearer to `seconds`."""
    return not done or (time.perf_counter() - start) * (1 + 0.5 / done) < seconds


def measure(items, seconds, solve, check, setup):
    """Passes for about `seconds`, with the set-ups still due between them."""
    passes = []
    start = time.perf_counter()
    while more_passes(start, len(passes), seconds):
        passes.append(run_pass(items, solve, check))
        setup.again()
    setup.complete()
    return passes


def _per_instance(passes, field):
    """Each instance's median over the passes of its seconds in `field`."""
    samples = defaultdict(list)
    for p in passes:
        for k, v in getattr(p, field).items():
            samples[k].append(v)
    return [_median(v) for _, v in sorted(samples.items())]


def end_to_end(passes, setup_s):
    """Sums over the instances of their medians over the passes."""
    solve = _per_instance(passes, "solve")
    return {
        "solve_s": sum(solve),
        "solve_p50_ms": _percentile(solve, 50) * 1e3,
        "solve_p95_ms": _percentile(solve, 95) * 1e3,
        "verify_s": sum(_per_instance(passes, "verify")),
        "io_s": sum(_per_instance(passes, "io")),
        "setup_s": setup_s,
        "peak_rss_mib": passes[0].rss_mib,  # a high-water mark: later reads include JSON
    }


def per_layer(traced_passes, layer_runs):
    """Each per-layer metric's median over the traced passes."""
    runs = []
    for rec, layers in zip(traced_passes, layer_runs):
        row = dict(layers)
        for name in IO_FUNCS:
            row[f"io.{name}_ms"] = rec.io_by_func[name] * 1e3
        row["io.bytes"] = rec.io_bytes
        runs.append(row)
    return {k: _median([row[k] for row in runs]) for k in runs[0]}


def with_units(values, spec):
    """`values` as {"value", "unit"} in the order and units of BENCHMARK.json;
    names it has no value for are left out."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec if m["name"] in values}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import numpy  # noqa: F401

        from nested_alloc import solver
        from certificate import certify
        from workloads import COLD, WORKLOADS, build
    except ImportError as exc:
        print(f"error: cannot import the solver from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read the metric list: {exc}", file=sys.stderr)
        return 2

    setup = SetUp(build, args.workload, args.seed)
    items = setup.once()

    def untraced(inst, eps):
        t = time.perf_counter()
        sol, stats = solver.solve(inst, eps)
        return sol, stats, time.perf_counter() - t

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "instances": [item.describe() for item in items],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }
    if args.trace:
        from layers import Tracer

        setup.complete()
        tracer = Tracer()
        traced_items = [dataclasses.replace(item, inst=tracer.instrument(item.inst))
                        for item in items]
        # each traced pass follows an untraced one over the same solves, so
        # the overhead compares times taken close together; one solve of each
        # instance warms up first, as the first solves in a process run slower
        for item in items:
            untraced(item.inst, item.eps)
        passes, layer_runs, walls, reference = [], [], [], []
        start = time.perf_counter()
        while more_passes(start, len(passes), args.seconds):
            reference.append(sum(untraced(item.inst, item.eps)[2] for item in items))
            tracer.reset()
            with tracer.installed():
                passes.append(run_pass(traced_items, tracer.solve, certify))
            layer_runs.append(tracer.metrics())
            walls.append(tracer.wall_s)
        values = per_layer(passes, layer_runs)
        values["generators.generate_ms"] = _median(setup.generate_s) * 1e3
        values["trace.overhead_frac"] = _median(walls) / _median(reference) - 1.0
        metrics = with_units(values, spec["per_layer"])
        detail.update(
            untraced_solve_s=reference,
            traced_solve_s=walls,
            levels=tracer.level_rows(),
            absent={"wrapped": tracer.absent,
                    "metrics": [m["name"] for m in spec["per_layer"] if m["name"] not in values]},
        )
    else:
        if args.workload not in COLD:
            untraced(items[0].inst, items[0].eps)
        passes = measure(items, args.seconds, untraced, certify, setup)
        metrics = with_units(end_to_end(passes, setup.seconds), spec["end_to_end"])
        detail.update(import_s=setup.import_s, build_s=setup.build_s)

    failed = [f for p in passes for f in p.failed]
    rejected = [r for p in passes for r in p.verify_rejected]
    attempted = sum(p.attempted for p in passes)
    detail.update(pass_solve_s=[sum(p.solve.values()) for p in passes],
                  failures=failed[:20], verify_rejected=rejected[:20])
    print(json.dumps({"detail": detail}))
    result = {
        "correct": not failed and not rejected,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
