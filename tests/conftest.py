"""Shared builders for randomized cross-checks at oracle scale."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from nested_alloc import Family, Mode, NestedInstance, ObjectiveSpec

settings.register_profile("ci", deadline=None, max_examples=40)
settings.load_profile("ci")

OBJECTIVE_FAMILIES = [Family.F, Family.CRASHING, Family.FUELOPT, Family.QUADRATIC]


def random_objective(rng: np.random.Generator, family: Family, n: int) -> ObjectiveSpec:
    if family is Family.F:
        return ObjectiveSpec(Family.F, {"p": rng.uniform(0.0, 2.0, n)})
    if family is Family.CRASHING:
        return ObjectiveSpec(
            Family.CRASHING, {"k": rng.uniform(-1.0, 1.0, n), "p": rng.uniform(0.2, 3.0, n)}
        )
    if family is Family.FUELOPT:
        return ObjectiveSpec(
            Family.FUELOPT, {"p": rng.uniform(0.5, 2.0, n), "c": rng.uniform(0.5, 2.0, n)}
        )
    if family is Family.QUADRATIC:
        return ObjectiveSpec(
            Family.QUADRATIC, {"w": rng.uniform(0.3, 2.0, n), "t": rng.uniform(-2.0, 4.0, n)}
        )
    raise ValueError(family)


class _VectorCustom(ObjectiveSpec):
    """CUSTOM objective w e^x + x^2 / 2 with its derivative and curvature
    evaluated as array expressions, so calls of thousands of elements invert
    f' by bisection quickly; it has no closed-form inverse."""

    def derivative_at(self, idx, x):
        return self.w[idx] * np.exp(x) + x

    def second_derivative_at(self, idx, x):
        return self.w[idx] * np.exp(x) + 1.0


def vector_custom(rng: np.random.Generator, n: int) -> ObjectiveSpec:
    w = rng.uniform(0.5, 2.0, n)
    obj = _VectorCustom(
        Family.CUSTOM,
        {},
        value_fn=lambda i, x: w[i] * np.exp(x) + 0.5 * x * x,
        derivative_fn=lambda i, x: w[i] * np.exp(x) + x,
    )
    object.__setattr__(obj, "w", w)
    return obj


def one_segment(c, d, target, idx=None):
    """Kernel arguments after the objective for a single RAP: one segment over
    the variables `idx` (default 0..len(c)-1), box [c, d], sum `target`."""
    c = np.asarray(c, dtype=float)
    idx = np.arange(c.size) if idx is None else np.asarray(idx)
    return idx, c, np.asarray(d, dtype=float), np.array([0, c.size]), np.array([float(target)])


def small_integer_instance(seed: int, family: Family) -> NestedInstance:
    """Random integer-mode instance inside the oracle guard rails
    (n <= 12, B <= 40). Feasibility is deliberately not guaranteed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(1, 13))
    m = int(rng.integers(1, n + 1))
    if m == n:
        s = np.arange(1, n + 1)
    else:
        s = np.sort(rng.choice(np.arange(1, n), size=m - 1, replace=False))
        s = np.concatenate([s, [n]])
    lo_base = 1 if family in (Family.CRASHING, Family.FUELOPT) else 0
    lower = rng.integers(lo_base, lo_base + 2, n).astype(float)
    upper = lower + rng.integers(0, 5, n)
    alpha = rng.integers(0, 4, n).astype(float)
    cum = np.cumsum(alpha)
    a = cum[s[:-1] - 1]
    # half the time aim at the alpha total, otherwise anywhere in range
    if rng.random() < 0.5:
        B = float(min(cum[-1] + lower.sum(), 40))
    else:
        B = float(rng.integers(0, min(int(upper.sum()), 40) + 1))
    return NestedInstance(
        n=n, m=m, s=s, a=a + np.cumsum(lower)[s - 1][:-1] if m > 1 else a,
        B=B, lower=lower, upper=upper,
        objective=random_objective(rng, family, n), mode=Mode.INTEGER,
    )


def quadratic_instance(n: int, seed: int, mode: Mode = Mode.CONTINUOUS) -> NestedInstance:
    """Dense quadratic benchmark with loose boxes, always feasible."""
    rng = np.random.Generator(np.random.PCG64(seed))
    alpha = rng.uniform(0.5, 1.5, n)
    cum = np.cumsum(alpha)
    return NestedInstance(
        n=n, m=n, s=np.arange(1, n + 1), a=cum[:-1], B=float(cum[-1]),
        lower=np.zeros(n), upper=np.full(n, float(cum[-1])),
        objective=ObjectiveSpec(
            Family.QUADRATIC, {"w": rng.uniform(0.5, 2.0, n), "t": np.zeros(n)}
        ),
        mode=mode,
    )


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))
