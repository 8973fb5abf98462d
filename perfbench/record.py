"""Run the benchmark over several seeds and keep every result in one file.

    python3 perfbench/record.py --label baseline --seeds 0-9 [--trace-seeds 0]

Each run is its own process, one at a time, exactly as BENCHMARK.json's
command, on every workload it lists and for its run_seconds, so that two
files always measure the same thing. The file, perfbench/results/<label>.json, holds the provenance (git
revision, nproc, CPU model, Python and numpy versions) and, per run, its
result line and detail line; the detail lists the seed every instance used,
so each one can be regenerated with `nested-alloc gen`. Compare two files
with compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    """'0-9' or '0,3,7' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _git(*args) -> str:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> dict:
    import numpy

    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": status not in ("", "unknown"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_one(command, workload, seed, seconds, trace) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    t = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t
    run = {"workload": workload, "seed": seed, "trace": trace, "returncode": proc.returncode,
           "wall_s": wall}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        run["stderr"] = proc.stderr[-4000:]
        return run
    run["result"] = json.loads(lines[-1])
    run["detail"] = json.loads(lines[-2])["detail"]
    return run


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--trace-seeds", default="", help="seeds that also get a traced run")
    args = p.parse_args(argv)

    command = [sys.executable if c == "python3" else c for c in bench["command"]]
    out = HERE / "results" / f"{args.label}.json"
    seconds = bench["run_seconds"]
    doc = {"label": args.label, "provenance": provenance(), "run_seconds": seconds,
           "workloads": [w["name"] for w in bench["workloads"]], "runs": []}
    trace_seeds = parse_seeds(args.trace_seeds) if args.trace_seeds else []
    for workload in doc["workloads"]:
        plan = [(s, 0) for s in parse_seeds(args.seeds)] + [(s, 1) for s in trace_seeds]
        for seed, trace in plan:
            run = run_one(command, workload, seed, seconds, trace)
            doc["runs"].append(run)
            res = run.get("result", {})
            print(f"{workload} seed={seed} trace={trace} rc={run['returncode']} "
                  f"wall={run['wall_s']:.1f}s correct={res.get('correct')}", file=sys.stderr)
            out.parent.mkdir(exist_ok=True)
            out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if all(r.get("result", {}).get("correct") for r in doc["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
