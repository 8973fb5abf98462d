"""Outside-in layer trace of `solver.solve`.

The tracer times and counts calls into the solver's collaborators without
touching the program: for its own duration it swaps the module attributes of
`nested_alloc.solver` named in `WRAPPED` for timing wrappers, and it rebuilds
each instance around `CountingObjective`, whose vectorized evaluations add
`idx.size` to a tally. The wrappers are removed when `installed()` exits.
A wrapped name that no longer exists is listed in `absent` and its metrics
are left out of `metrics()`, never reported as zero.

Time the wrappers spend on their own bookkeeping (merge comparisons, level
rows) is subtracted from the traced solve time, so the wrapped children plus
`solver.self_ms` add up to `solver.solve_ms` exactly.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from nested_alloc import solver
from nested_alloc.model import NestedInstance, ObjectiveSpec

# solver attribute -> metric of the time spent inside it
PHASES = {
    "tighten": "solver.tighten_ms",
    "check_feasible": "solver.check_feasible_ms",
    "count_active_constraints": "solver.count_active_ms",
    "objective_value": "solver.objective_ms",
}
KERNELS = ("solve_segments_continuous", "solve_segments_integer")
WRAPPED = (*PHASES, *KERNELS)
MODEL_METHODS = ("value_at", "derivative_at", "inverse_derivative_at")
LEVEL_FIELDS = ("segments", "elements", "multi_block", "unchanged",
                "kernel_ms", "model_ms", "evals")


class Tally:
    """Model evaluations (elements) and seconds while `on`."""

    def __init__(self):
        self.on = False
        self.reset()

    def reset(self):
        self.evals = dict.fromkeys(MODEL_METHODS, 0)
        self.total = 0
        self.seconds = 0.0


class CountingObjective(ObjectiveSpec):
    """ObjectiveSpec whose vectorized evaluations are counted and timed."""

    def _counted(self, name, fn, idx, arg):
        tally = self.tally
        if not tally.on:
            return fn(idx, arg)
        t = time.perf_counter()
        out = fn(idx, arg)
        tally.seconds += time.perf_counter() - t
        tally.evals[name] += idx.size
        tally.total += idx.size
        return out

    def value_at(self, idx, x):
        return self._counted("value_at", super().value_at, idx, x)

    def derivative_at(self, idx, x):
        return self._counted("derivative_at", super().derivative_at, idx, x)

    def inverse_derivative_at(self, idx, lam):
        return self._counted("inverse_derivative_at", super().inverse_derivative_at, idx, lam)


class _SolveContext:
    def __init__(self, inst: NestedInstance):
        self.s = inst.s
        self.x_prev = np.full(inst.n, np.nan)
        self.rows = []  # one per kernel call, deepest level first
        self.merge_gaps = []  # per call: max |x - children| of each multi-block segment


class Tracer:
    """Per-layer totals of the traced solves since the last `reset()`."""

    def __init__(self):
        self.tally = Tally()
        self.absent: list[str] = []
        self.reset()

    def reset(self):
        self.ms = defaultdict(float)
        self.counts = defaultdict(int)
        self.levels: dict[int, dict] = {}  # depth -> LEVEL_FIELDS summed over solves
        self.solve_ms = 0.0
        self.wall_s = 0.0
        self.book_s = 0.0
        self.tally.reset()
        self._ctx = None

    def instrument(self, inst: NestedInstance) -> NestedInstance:
        """The same instance with a counting objective tied to this tracer."""
        obj = CountingObjective(inst.objective.family, inst.objective.params)
        object.__setattr__(obj, "tally", self.tally)
        return dataclasses.replace(inst, objective=obj)

    @contextmanager
    def installed(self):
        saved = {}
        try:
            for name in WRAPPED:
                if not hasattr(solver, name):
                    if name not in self.absent:
                        self.absent.append(name)
                    continue
                saved[name] = getattr(solver, name)
                wrap = self._kernel if name in KERNELS else self._phase
                setattr(solver, name, wrap(saved[name], name))
            yield self
        finally:
            for name, fn in saved.items():
                setattr(solver, name, fn)

    def _phase(self, fn, name):
        metric = PHASES[name]

        def timed(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.ms[metric] += (time.perf_counter() - t) * 1e3

        return timed

    def _kernel(self, fn, name):
        def timed(obj, idx, lo, hi, offsets, targets, *args, **kwargs):
            tally = self.tally
            e0, s0 = tally.total, tally.seconds
            t = time.perf_counter()
            vals = fn(obj, idx, lo, hi, offsets, targets, *args, **kwargs)
            t1 = time.perf_counter()
            ctx = self._ctx
            if ctx is not None:
                starts = offsets[:-1]
                first, last = idx[starts], idx[offsets[1:] - 1]
                multi = np.searchsorted(ctx.s, last + 1) > np.searchsorted(ctx.s, first + 1)
                gap = np.maximum.reduceat(np.abs(vals - ctx.x_prev[idx]), starts)[multi]
                ctx.x_prev[idx] = vals
                ctx.merge_gaps.append(gap)
                ctx.rows.append(dict(zip(LEVEL_FIELDS, (
                    starts.size, idx.size, int(multi.sum()), 0,
                    (t1 - t) * 1e3, (tally.seconds - s0) * 1e3, tally.total - e0))))
            self.book_s += time.perf_counter() - t1
            return vals

        return timed

    def solve(self, inst: NestedInstance, eps: float | None):
        """`solver.solve` under the trace; returns (solution, stats, wall s)."""
        ctx = self._ctx = _SolveContext(inst)
        book0 = self.book_s
        self.tally.on = True
        t = time.perf_counter()
        try:
            sol, stats = solver.solve(inst, eps)
        finally:
            wall = time.perf_counter() - t
            self.tally.on = False
            self._ctx = None
        self.wall_s += wall
        self.solve_ms += (wall - (self.book_s - book0)) * 1e3
        self.counts["solver.rap_calls"] += stats.rap_calls
        self.counts["solver.levels"] += stats.recursion_levels
        # unchanged: merged output equals the children within the per-level
        # accuracy the solver asks of its kernels (exactly, for integers)
        tol = 0.0 if eps is None or not ctx.rows else eps / len(ctx.rows)
        for k, (row, gap) in enumerate(zip(ctx.rows, ctx.merge_gaps)):
            row["unchanged"] = int(np.count_nonzero(gap <= tol))
            acc = self.levels.setdefault(len(ctx.rows) - 1 - k, dict.fromkeys(LEVEL_FIELDS, 0))
            for field, v in row.items():
                acc[field] += v
        return sol, stats, wall

    def level_rows(self) -> list[dict]:
        return [{"depth": d, **self.levels[d]} for d in sorted(self.levels)]

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the solves since `reset()`, absent ones omitted."""
        out: dict[str, float] = {"solver.solve_ms": self.solve_ms}
        children = 0.0
        for name, metric in PHASES.items():
            if name not in self.absent:
                out[metric] = self.ms[metric]
                children += self.ms[metric]
        out["solver.rap_calls"] = self.counts["solver.rap_calls"]
        out["solver.levels"] = self.counts["solver.levels"]
        if any(k not in self.absent for k in KERNELS):
            sums = {f: sum(row[f] for row in self.levels.values()) for f in LEVEL_FIELDS}
            children += sums["kernel_ms"]
            out["rap.kernel_ms"] = sums["kernel_ms"]
            out["rap.self_ms"] = sums["kernel_ms"] - sums["model_ms"]
            out["rap.segments"] = sums["segments"]
            out["rap.elements"] = sums["elements"]
            out["rap.evals_per_elem_level"] = sums["evals"] / max(sums["elements"], 1)
            out["rap.merges_unchanged_frac"] = sums["unchanged"] / max(sums["multi_block"], 1)
        out["solver.self_ms"] = self.solve_ms - children
        out["model.evals"] = self.tally.total
        out["model.eval_ms"] = self.tally.seconds * 1e3
        for name in MODEL_METHODS:
            out[f"model.evals.{name}"] = self.tally.evals[name]
        return out
