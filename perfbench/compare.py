"""Compare benchmark result files, per workload and end-to-end metric.

    python3 perfbench/compare.py BASE.json [NEW.json]

Files come from record.py. For one file it prints each metric's median,
quartiles and spread ((q3 - q1) / median) against the metric's bound in
BENCHMARK.json: the steadiness check a benchmark must pass. For two files
it prints both sides and a verdict:

  regressed   NEW's median is worse than BASE's by more than the bound
  unresolved  a side's spread is wider than the bound, and not every NEW run
              beats every BASE run
  improved    NEW wins at least nine tenths of the same-seed pairs and the
              medians differ by more than BASE's quartile distance
  unchanged   otherwise
  absent      only one side has the metric

Two files are compared only if they ran for the same run_seconds on the same
workloads; otherwise, or on wrong arguments, the exit code is 2. Else it is 1
when a metric regressed or is absent on one side (or, for one file, when a
spread exceeds its bound), and 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> tuple[dict, dict]:
    """{(workload, metric): {seed: value}} of the untraced runs in a file, and
    what makes two files comparable: run_seconds and the workloads run."""
    doc = json.loads(Path(path).read_text())
    table: dict = {}
    workloads = set()
    for run in doc["runs"]:
        if run["trace"]:
            continue
        workloads.add(run["workload"])
        for name, m in run.get("result", {}).get("metrics", {}).items():
            table.setdefault((run["workload"], name), {})[run["seed"]] = m["value"]
    return table, {"run_seconds": doc["run_seconds"], "workloads": sorted(workloads)}


def summary(values) -> tuple[float, float, float, float]:
    """median, q1, q3 and spread as statistics.quantiles(n=4) gives them."""
    values = list(values)
    if len(values) < 2:
        v = values[0]
        return v, v, v, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def verdict(base: dict, new: dict, bound: float, lower_better: bool) -> str:
    sign = 1.0 if lower_better else -1.0
    b_med, b_q1, b_q3, b_spread = summary(base.values())
    n_med, _, _, n_spread = summary(new.values())
    if sign * (n_med - b_med) > bound * abs(b_med):
        return "regressed"
    all_better = max(sign * v for v in new.values()) < min(sign * v for v in base.values())
    if max(b_spread, n_spread) > bound and not all_better:
        return "unresolved"
    pairs = [s for s in base if s in new]
    wins = sum(sign * new[s] < sign * base[s] for s in pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (b_med - n_med) > b_q3 - b_q1:
        return "improved"
    return "unchanged"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    loaded = [load(p) for p in args]
    tables = [table for table, _ in loaded]
    if len(loaded) == 2 and loaded[0][1] != loaded[1][1]:
        print(f"error: not comparable: {args[0]} has {loaded[0][1]}, "
              f"{args[1]} has {loaded[1][1]}", file=sys.stderr)
        return 2
    workloads = [w["name"] for w in bench["workloads"]]
    workloads += [w for w in loaded[0][1]["workloads"] if w not in workloads]
    failing = False
    head = f"{'workload':<12} {'metric':<13} {'bound':>5}"
    side = " {:>11} {:>11} {:>11} {:>6}"
    print(head + "".join(side.format("median", "q1", "q3", "spread") for _ in tables)
          + ("  verdict" if len(tables) == 2 else ""))
    for w in workloads:
        for m in metrics:
            key = (w, m["name"])
            cols = [t.get(key) for t in tables]
            if not any(cols):
                continue
            line = f"{w:<12} {m['name']:<13} {m['bound']:>5.2f}"
            if not all(cols):
                sides = " and ".join(a for a, col in zip(args, cols) if not col)
                print(f"{line}  absent in {sides}")
                failing = True
                continue
            for col in cols:
                med, q1, q3, spread = summary(col.values())
                line += side.format(f"{med:.5g}", f"{q1:.5g}", f"{q3:.5g}", f"{spread:.3f}")
            if len(tables) == 2:
                v = verdict(cols[0], cols[1], m["bound"], m["better"] == "lower")
                failing |= v == "regressed"
                line += f"  {v}"
            else:
                spread = summary(cols[0].values())[3]
                if spread > m["bound"]:
                    line += "  SPREAD > BOUND"
                    failing = True
                elif spread > m["bound"] / 3:
                    line += "  spread > bound/3"
            print(line)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
