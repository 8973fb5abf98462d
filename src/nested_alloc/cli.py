"""Command-line front end: generate, solve, verify, and benchmark sweeps.

Exit codes: 0 success/optimal, 1 usage or validation error, 2 infeasible
instance, 3 failed verification. Benchmark timing covers the solve call only;
each benchmark row also says whether its solution passed `verify`;
per-trial seeds are base_seed + trial so any CSV row can be regenerated with
`gen` + `solve`.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .generators import InstanceFamily, generate_instance
from .hull import HullEligibilityError, HullNotApplicableError, hull_solve_instance
from .io import read_instance, read_solution, write_instance, write_solution
from .model import (
    Mode,
    NestedInstance,
    SolveStats,
    Status,
    ValidationError,
    prefix_sums,
)
from .oracles import count_active_constraints, greedy_solve, kkt_tolerance, verify_kkt
from .rap import SolveTimeout
from .solver import active_tolerance, solve

CSV_COLUMNS = [
    "family", "n", "m", "seed", "solver", "mode", "epsilon",
    "objective", "active", "rap_calls", "wall_ms", "status", "verified",
]


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _scaled_integer_instance(inst: NestedInstance, scale: float) -> NestedInstance:
    """Round instance data to an integer grid of the given resolution.

    Bounds shrink inward and partial sums round down, so the result is a
    restriction of the original feasible region (it can become infeasible
    when the grid is too coarse).
    """
    lower = np.ceil(inst.lower * scale)
    upper = np.floor(inst.upper * scale)
    if np.any(upper < lower):
        raise ValidationError("upper", "scale too coarse: a box collapsed below its lower bound")
    return NestedInstance(
        n=inst.n,
        m=inst.m,
        s=inst.s,
        a=np.floor(inst.a * scale),
        B=float(np.floor(inst.B * scale)),
        lower=lower,
        upper=upper,
        objective=inst.objective,
        mode=Mode.INTEGER,
    )


def _integer_feasibility(inst: NestedInstance, x: np.ndarray, tau: float) -> dict:
    """The check `verify` makes on an integer solution: the total, the
    partial-sum bounds and the boxes, each within tau."""
    y = prefix_sums(inst, x)
    slacks = inst.a - y[: inst.m - 1]
    ok = bool(
        abs(y[-1] - inst.B) <= tau
        and np.all(slacks >= -tau)
        and np.all(x >= inst.lower - tau)
        and np.all(x <= inst.upper + tau)
    )
    return {
        "feasible": ok,
        "sum_gap": float(abs(y[-1] - inst.B)),
        "prefix_slacks": slacks.tolist(),
        "verdict": ok,
    }


def cmd_gen(args) -> int:
    try:
        inst = generate_instance(args.family, args.n, args.m, args.seed)
        if args.mode == "int":
            inst = _scaled_integer_instance(inst, args.scale)
        data = write_instance(inst)
    except (ValidationError, ValueError) as exc:
        return _fail(str(exc))
    Path(args.out).write_bytes(data)
    print(f"wrote {args.out}: {args.family} n={args.n} m={args.m} seed={args.seed}")
    return 0


def _solve_with(inst: NestedInstance, solver: str, eps: float | None, time_limit):
    if solver == "decomp":
        return solve(inst, eps=eps if inst.mode is Mode.CONTINUOUS else None,
                     time_limit_s=time_limit)
    if solver == "greedy":
        t0 = time.perf_counter()
        sol = greedy_solve(inst)
        stats = SolveStats(wall_ms=(time.perf_counter() - t0) * 1e3)
        if sol.status is Status.OPTIMAL:
            stats.active_constraints = count_active_constraints(inst, sol, 0.0)
        return sol, stats
    if solver == "hull":
        t0 = time.perf_counter()
        sol = hull_solve_instance(inst)
        stats = SolveStats(wall_ms=(time.perf_counter() - t0) * 1e3)
        stats.active_constraints = count_active_constraints(
            inst, sol, active_tolerance(inst, 1e-12)
        )
        return sol, stats
    raise ValueError(f"unknown solver '{solver}'")


def cmd_solve(args) -> int:
    try:
        inst = read_instance(Path(args.instance).read_bytes())
    except (OSError, ValidationError) as exc:
        return _fail(str(exc))
    try:
        sol, stats = _solve_with(inst, args.solver, args.epsilon, args.time_limit_s)
    except (HullEligibilityError, HullNotApplicableError) as exc:
        return _fail(f"family not hull-eligible or hull inapplicable: {exc}")
    except SolveTimeout:
        return _fail("time limit exceeded")
    except (ValidationError, ValueError) as exc:
        return _fail(str(exc))
    payload = write_solution(sol, stats)
    if args.out:
        Path(args.out).write_bytes(payload)
    else:
        sys.stdout.write(payload.decode())
        sys.stdout.write("\n")
    if args.stats:
        print(
            f"status={sol.status.value} rap_calls={stats.rap_calls} "
            f"levels={stats.recursion_levels} active={stats.active_constraints} "
            f"kernel_steps={stats.kernel_steps} kernel_evals={stats.kernel_evals} "
            f"wall_ms={stats.wall_ms:.3f}",
            file=sys.stderr,
        )
    return 0 if sol.status is Status.OPTIMAL else 2


@dataclass
class BenchConfig:
    """Benchmark sweep: one cell per (family, n, m), `trials` runs each."""

    families: list[str]
    n_list: list[int]
    trials: int
    seed: int
    epsilon: float = 1e-8
    mode: str = "cont"
    solver: str = "decomp"
    m_list: list[int] | None = None  # None: m = n in every cell
    time_limit_s: float | None = None
    output: str = "bench.csv"

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError("trials", "need at least one trial per cell")
        if not self.n_list or not self.families:
            raise ValidationError("n_list", "families and n_list must be nonempty")
        if self.mode == "cont" and self.epsilon <= 0:
            raise ValidationError("epsilon", "continuous mode needs epsilon > 0")

    @classmethod
    def from_file(cls, path: str) -> "BenchConfig":
        doc = json.loads(Path(path).read_text())
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(doc) - known
        if unknown:
            raise ValidationError("config", f"unknown keys {sorted(unknown)}")
        return cls(**doc)


def _bench_cell(cfg: BenchConfig, family: str, n: int, m: int, trial: int):
    seed = cfg.seed + trial
    inst = generate_instance(family, n, m, seed)
    if cfg.mode == "int":
        inst = _scaled_integer_instance(inst, 10**6)
    row = {
        "family": family, "n": n, "m": m, "seed": seed, "solver": cfg.solver,
        "mode": cfg.mode, "epsilon": cfg.epsilon if cfg.mode == "cont" else "",
    }
    try:
        sol, stats = _solve_with(inst, cfg.solver, cfg.epsilon, cfg.time_limit_s)
    except SolveTimeout:
        status = "timeout"
    except (HullEligibilityError, HullNotApplicableError, ValueError):
        status = "error"
    else:
        if sol.x is None:
            verified = ""
        elif inst.mode is Mode.INTEGER:
            verified = _integer_feasibility(inst, sol.x, 0.0)["verdict"]
        else:
            verified = verify_kkt(inst, sol, kkt_tolerance(inst, sol.x, cfg.epsilon)).verdict
        row.update(
            objective=sol.objective if sol.x is not None else "",
            active=stats.active_constraints,
            rap_calls=stats.rap_calls,
            wall_ms=stats.wall_ms,
            status=sol.status.value,
            verified=verified,
        )
        return row
    row.update(objective="", active="", rap_calls="", wall_ms="", status=status, verified="")
    return row


def cmd_bench(args) -> int:
    try:
        cfg = BenchConfig.from_file(args.config)
        for name in ("trials", "seed", "epsilon", "time_limit_s"):
            if getattr(args, name, None) is not None:
                setattr(cfg, name, getattr(args, name))
        if args.out is not None:
            cfg.output = args.out
    except (OSError, ValidationError, TypeError, json.JSONDecodeError) as exc:
        return _fail(str(exc))
    out = Path(cfg.output)
    wrote = 0
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        try:
            for family in cfg.families:
                for n in cfg.n_list:
                    for m in cfg.m_list if cfg.m_list is not None else [n]:
                        if m > n:
                            continue
                        rows = [_bench_cell(cfg, family, n, m, t) for t in range(cfg.trials)]
                        for row in rows:
                            writer.writerow(row)
                            wrote += 1
                        done = [r for r in rows if r["status"] == Status.OPTIMAL.value]
                        agg = {
                            "family": family, "n": n, "m": m, "seed": "",
                            "solver": cfg.solver, "mode": cfg.mode,
                            "epsilon": cfg.epsilon if cfg.mode == "cont" else "",
                            "objective": "",
                            "active": np.mean([r["active"] for r in done]) if done else "",
                            "rap_calls": "",
                            "wall_ms": np.mean([r["wall_ms"] for r in done]) if done else "",
                            "status": "aggregate",
                            "verified": "",
                        }
                        writer.writerow(agg)
                        wrote += 1
                        fh.flush()
        except KeyboardInterrupt:
            fh.flush()
            print(f"interrupted; {wrote} rows flushed to {cfg.output}", file=sys.stderr)
            return 1
    print(f"wrote {wrote} rows to {cfg.output}")
    return 0


def cmd_verify(args) -> int:
    try:
        inst = read_instance(Path(args.instance).read_bytes())
        sol = read_solution(Path(args.solution).read_bytes())
    except (OSError, ValidationError, ValueError) as exc:
        return _fail(str(exc))
    if sol.x is None:
        return _fail("solution is infeasible; nothing to verify")
    if sol.x.shape[0] != inst.n:
        return _fail(f"dimension mismatch: instance has n={inst.n}, solution has {sol.x.shape[0]}")
    if inst.mode is Mode.INTEGER:
        report = _integer_feasibility(inst, sol.x, args.tau)
    else:
        eps = sol.epsilon if sol.epsilon else 1e-8
        tau = args.tau if args.tau > 0 else kkt_tolerance(inst, sol.x, eps)
        report = verify_kkt(inst, sol, tau).to_dict()
    print(json.dumps(report))
    return 0 if report["verdict"] else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nested-alloc",
        description="Solver and benchmark tools for nested resource allocation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a benchmark instance")
    gen.add_argument("--family", required=True,
                     choices=[f.value for f in InstanceFamily])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--mode", choices=["int", "cont"], default="cont")
    gen.add_argument("--scale", type=float, default=10**6,
                     help="integer grid resolution for --mode int")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    slv = sub.add_parser("solve", help="solve an instance file")
    slv.add_argument("instance")
    slv.add_argument("--solver", choices=["decomp", "greedy", "hull"], default="decomp")
    slv.add_argument("--epsilon", type=float, default=1e-8)
    slv.add_argument("--time-limit-s", type=float, default=None)
    slv.add_argument("--out", default=None)
    slv.add_argument("--stats", action="store_true")
    slv.set_defaults(func=cmd_solve)

    ben = sub.add_parser("bench", help="run a benchmark sweep from a config file")
    ben.add_argument("config")
    ben.add_argument("--trials", type=int, default=None, help="override config")
    ben.add_argument("--seed", type=int, default=None, help="override config")
    ben.add_argument("--epsilon", type=float, default=None, help="override config")
    ben.add_argument("--time-limit-s", type=float, default=None, help="override config")
    ben.add_argument("--out", default=None, help="override config output path")
    ben.set_defaults(func=cmd_bench)

    ver = sub.add_parser("verify", help="verify a solution against its instance")
    ver.add_argument("instance")
    ver.add_argument("solution")
    ver.add_argument("--tau", type=float, default=0.0,
                     help="gap tolerance; 0 picks one from curvature and epsilon")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
