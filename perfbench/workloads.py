"""The benchmark's workloads: which instances one run solves, made from its seed.

Every instance comes from `generators.generate_instance`, so any of them can
be regenerated with `nested-alloc gen --family F --n N --m M --seed S` (plus
`--mode int --scale 1e6` for integer items).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from nested_alloc.cli import _scaled_integer_instance
from nested_alloc.generators import generate_instance
from nested_alloc.model import NestedInstance

from certificate import fill_feasible

EPS = 1e-8  # continuous accuracy, as `nested-alloc solve` defaults
INT_SCALE = 10**6  # integer grid, as `nested-alloc gen --mode int` defaults
# Draws tried per family before a large workload gives up on finding a
# feasible one; crashing at n = 1e5 needs a handful.
MAX_DRAWS = 100

# Why each workload exists is in BENCHMARK.json, next to its name.
WORKLOADS = ("dense-cont", "sparse-cont", "dense-int", "batch-small")
# Workloads whose solves are timed cold, as a one-shot CLI solve is: one pass
# takes a whole run there, and a warm-up solve would cost a third of it. A run
# of any other solves its first instance once, untimed, before timing, as the
# first solves of a process at n = 1e5 run up to a fifth slower.
COLD = ("sparse-cont",)


@dataclass(frozen=True)
class Item:
    """One instance of a workload and how to regenerate it."""

    family: str
    n: int
    m: int
    seed: int
    integer: bool
    inst: NestedInstance

    @property
    def eps(self) -> float | None:
        return None if self.integer else EPS

    def describe(self) -> dict:
        return {"family": self.family, "n": self.n, "m": self.m, "seed": self.seed,
                "mode": "int" if self.integer else "cont"}


@dataclass
class Build:
    items: list[Item]
    generate_s: float  # inside generate_instance, infeasible draws included
    total_s: float


def _draw(family, n, m, seed, integer, timer):
    t = time.perf_counter()
    inst = generate_instance(family, n, m, seed)
    timer[0] += time.perf_counter() - t
    if integer:
        inst = _scaled_integer_instance(inst, INT_SCALE)
    return Item(family, n, m, seed, integer, inst)


def _first_feasible(family, n, m, seed, integer, timer):
    for s in range(seed, seed + MAX_DRAWS):
        item = _draw(family, n, m, s, integer, timer)
        if fill_feasible(item.inst):
            return item
    raise RuntimeError(f"no feasible {family} draw for n={n} m={m} in seeds {seed}..{s}")


def build(workload: str, seed: int) -> Build:
    """Instances of `workload` for `seed`; the same seed gives the same ones."""
    timer = [0.0]
    t0 = time.perf_counter()
    if workload == "dense-cont":
        items = [_first_feasible(f, 10**5, 10**5, seed, False, timer)
                 for f in ("crashing", "fuelopt", "f-uniform")]
    elif workload == "sparse-cont":
        items = [_first_feasible(f, 10**6, 10, seed, False, timer)
                 for f in ("crashing", "f-uniform")]
    elif workload == "dense-int":
        items = [_first_feasible(f, 3000, 3000, seed, True, timer) for f in ("fuelopt", "f")]
    elif workload == "batch-small":
        items = [_draw(f, n, n, seed + k, False, timer)
                 for f in ("f", "f-uniform", "f-active", "crashing", "fuelopt")
                 for n in (100, 1000)
                 for k in range(20)]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    return Build(items, timer[0], time.perf_counter() - t0)
