"""Geometric solver for scale-invariant objectives without binding upper bounds.

When every cost has the shape f_i(x) = g_i * h(x / g_i) for one convex h and
per-variable scales g_i > 0, the equal-marginal conditions collapse to
"x_i / g_i equal within blocks, nondecreasing across active bounds". Plotting
the points (G_{s[j]}, a_j), with G the prefix sums of g, the optimal
allocation reads off the lower convex hull: x_i = Phi(G_i) - Phi(G_{i-1})
where Phi is the hull's piecewise-linear lower envelope. Interior hull
vertices correspond one-to-one to active partial-sum bounds, which is what
the growth experiment measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    Family,
    Mode,
    NestedInstance,
    ObjectiveSpec,
    Solution,
    Status,
    objective_value,
)

SLOPE_REL_TOL = 2.0**-40


class HullEligibilityError(ValueError):
    """Objective family does not have the scale-invariant shape."""


class HullNotApplicableError(RuntimeError):
    """A box bound binds, so the unbounded geometric solution is invalid.

    Carries the offending solution for inspection.
    """

    def __init__(self, message: str, solution: Solution):
        super().__init__(message)
        self.solution = solution


def scale_parameters(inst: NestedInstance) -> np.ndarray:
    """Per-variable scales g_i of an eligible family.

    crashing: g = sqrt(p); fuelopt: g = c * p**(1/4); quadratic needs all
    targets at zero and gives g = 1/w (power law with exponent 2).
    """
    obj = inst.objective
    if obj.family is Family.CRASHING:
        return np.sqrt(obj.params["p"])
    if obj.family is Family.FUELOPT:
        return obj.params["c"] * obj.params["p"] ** 0.25
    if obj.family is Family.QUADRATIC:
        if np.any(obj.params["t"] != 0):
            raise HullEligibilityError("quadratic is scale-invariant only with zero targets")
        return 1.0 / obj.params["w"]
    raise HullEligibilityError(f"family '{obj.family.value}' is not hull-eligible")


@dataclass(frozen=True)
class HullInstance:
    """Point set of the geometric reduction plus the data to map back."""

    gamma: np.ndarray
    Gamma: np.ndarray  # prefix sums, length n+1, Gamma[0] = 0
    points_x: np.ndarray  # abscissas Gamma[s[j]], j = 0..m
    points_y: np.ndarray  # ordinates 0, a_1, ..., a_{m-1}, B
    instance: NestedInstance


def build_hull_instance(inst: NestedInstance) -> HullInstance:
    gamma = scale_parameters(inst)
    if np.any(gamma <= 0):
        raise HullEligibilityError("scales must be positive")
    Gamma = np.concatenate([[0.0], np.cumsum(gamma)])
    px = Gamma[inst.positions]
    py = np.concatenate([[0.0], inst.a, [inst.B]])
    return HullInstance(gamma=gamma, Gamma=Gamma, points_x=px, points_y=py, instance=inst)


def lower_hull_vertices(px: np.ndarray, py: np.ndarray, rel_tol: float = SLOPE_REL_TOL) -> np.ndarray:
    """Indices of the lower convex hull of points sorted by abscissa.

    A middle point survives only when the slope strictly increases through
    it; collinear points are dropped, judged on cross products with a
    relative tolerance so round-off cannot fabricate vertices.
    """
    n = px.size
    if n <= 2:
        return np.arange(n)
    keep = [0]
    for k in range(1, n):
        while len(keep) >= 2:
            a, b = keep[-2], keep[-1]
            dx1, dy1 = px[b] - px[a], py[b] - py[a]
            dx2, dy2 = px[k] - px[b], py[k] - py[b]
            cross = dx1 * dy2 - dx2 * dy1
            scale = abs(dx1 * dy2) + abs(dx2 * dy1)
            if cross <= rel_tol * scale:
                keep.pop()
            else:
                break
        keep.append(k)
    return np.asarray(keep, dtype=np.int64)


def hull_solve(hi: HullInstance) -> Solution:
    """Exact solution read off the lower envelope of the reduction points."""
    inst = hi.instance
    verts = lower_hull_vertices(hi.points_x, hi.points_y)
    vx = hi.points_x[verts]
    vy = hi.points_y[verts]
    slopes = np.diff(vy) / np.diff(vx)
    # each variable spans (Gamma[i-1], Gamma[i]) inside exactly one segment
    seg = np.clip(np.searchsorted(vx, hi.Gamma[:-1], side="right") - 1, 0, slopes.size - 1)
    x = hi.gamma * slopes[seg]
    sol = Solution(x, objective_value(inst, x), Status.OPTIMAL)
    tol = 1e-9 * (1.0 + np.abs(x))
    if np.any(x > inst.upper + tol):
        raise HullNotApplicableError(
            "upper bound binds: geometric solution exceeds it for "
            f"{int(np.count_nonzero(x > inst.upper + tol))} variable(s)",
            sol,
        )
    if np.any(x < inst.lower - tol):
        raise HullNotApplicableError(
            "lower bound binds: geometric solution undercuts it for "
            f"{int(np.count_nonzero(x < inst.lower - tol))} variable(s)",
            sol,
        )
    return sol


def hull_solve_instance(inst: NestedInstance) -> Solution:
    return hull_solve(build_hull_instance(inst))


def lifted_crashing_instance(n: int, seed: int) -> NestedInstance:
    """Hull-eligible benchmark: crashing costs, zero lower bounds, upper
    bounds lifted to the total so no box can bind. Used to cross-check the
    decomposition solver against the exact geometric solution."""
    rng = np.random.Generator(np.random.PCG64(seed))
    p = rng.exponential(1.0, size=n)
    alpha = rng.exponential(0.75, size=n)
    cum = np.cumsum(alpha)
    B = float(cum[-1])
    return NestedInstance(
        n=n,
        m=n,
        s=np.arange(1, n + 1),
        a=cum[:-1],
        B=B,
        lower=np.zeros(n),
        upper=np.full(n, B),
        objective=ObjectiveSpec(Family.CRASHING, {"k": np.zeros(n), "p": p}),
        mode=Mode.CONTINUOUS,
    )


def _sample_scales(family: Family, rng: np.random.Generator, m: int):
    if family is Family.CRASHING:
        gamma = np.sqrt(rng.exponential(1.0, size=m))
        alpha = rng.exponential(0.75, size=m)
    elif family is Family.FUELOPT:
        gamma = rng.uniform(0.7, 1.0, size=m) * rng.uniform(0.8, 1.2, size=m) ** 0.25
        alpha = rng.uniform(1.0, 1.2, size=m)
    else:
        raise HullEligibilityError(f"no sampling recipe for family '{family.value}'")
    return gamma, alpha


def active_growth_experiment(
    family: Family | str, m_list: list[int], trials: int, seed: int
) -> list[tuple[int, int, float, float]]:
    """Mean and standard deviation of the interior hull vertex count at each
    problem size, one independent seeded draw per trial.

    Returns rows (m, trials, mean_active, std_active), CSV-ready.
    """
    family = Family(family)
    rows = []
    for pos, m in enumerate(m_list):
        counts = np.empty(trials)
        for t in range(trials):
            rng = np.random.Generator(np.random.PCG64(seed + 100_000 * pos + t))
            gamma, alpha = _sample_scales(family, rng, m)
            px = np.concatenate([[0.0], np.cumsum(gamma)])
            py = np.concatenate([[0.0], np.cumsum(alpha)])
            counts[t] = lower_hull_vertices(px, py).size - 2
        rows.append((m, trials, float(counts.mean()), float(counts.std())))
    return rows


def growth_rows_to_csv(rows) -> str:
    lines = ["m,trials,mean_active,std_active"]
    for m, trials, mean, std in rows:
        lines.append(f"{m},{trials},{mean!r},{std!r}")
    return "\n".join(lines) + "\n"
