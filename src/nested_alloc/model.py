"""Core data model: instances, objective families, solutions, solve statistics.

An instance asks to minimize a separable convex cost sum(f_i(x_i)) subject to
an exact total resource B, box bounds lower <= x <= upper, and upper bounds
a_1 <= ... <= a_{m-1} on the partial sums of x up to a set of m breakpoints
(the last breakpoint is n and carries the total B). Variables are either all
integer or all continuous.

Objective families evaluate vectorized over variable indices. For the
continuous multiplier search, `ObjectiveSpec.inverse_map` gathers a family's
per-variable constants once and returns x(lam) = (f')^-1(lam) as a function
of one multiplier per segment; `inverse_derivative_at` is its per-element case.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np


class Mode(str, enum.Enum):
    """Variable domain of an instance."""

    INTEGER = "integer"
    CONTINUOUS = "continuous"


class Family(str, enum.Enum):
    """Built-in separable convex objective families."""

    F = "f"                  # x^4/4 + p*x
    CRASHING = "crashing"    # k + p/x, task-compression cost
    FUELOPT = "fuelopt"      # p*c*(c/x)^3, cubic fuel burn over travel time
    QUADRATIC = "quadratic"  # w*(x - t)^2
    CUSTOM = "custom"        # user-supplied callbacks


class Status(str, enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


class ValidationError(ValueError):
    """Instance data violates the model contract; `field` names the culprit."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"{field_name}: {message}")


class DomainError(ValueError):
    """Objective evaluated outside the domain of its formula."""


_PARAM_KEYS = {
    Family.F: ("p",),
    Family.CRASHING: ("k", "p"),
    Family.FUELOPT: ("p", "c"),
    Family.QUADRATIC: ("w", "t"),
    Family.CUSTOM: (),
}

# Families whose formulas have a pole at x = 0.
POLE_FAMILIES = (Family.CRASHING, Family.FUELOPT)


def _at(v: np.ndarray, seg_of: np.ndarray | None) -> np.ndarray:
    """Per-segment values spread to elements (per-element values as given)."""
    return v if seg_of is None else v.take(seg_of)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ObjectiveSpec:
    """Separable objective: a family tag plus per-variable parameter arrays.

    CUSTOM objectives supply `value_fn(i, x)` and, optionally,
    `derivative_fn(i, x)`. A CUSTOM objective without a derivative can only
    be used with integer variables.
    """

    family: Family
    params: Mapping[str, np.ndarray] = field(default_factory=dict)
    value_fn: Callable[[int, float], float] | None = None
    derivative_fn: Callable[[int, float], float] | None = None

    def __post_init__(self):
        family = Family(self.family)
        object.__setattr__(self, "family", family)
        keys = _PARAM_KEYS[family]
        missing = [k for k in keys if k not in self.params]
        if missing:
            raise ValidationError("objective", f"family '{family.value}' needs params {missing}")
        params = {k: _readonly(np.asarray(self.params[k])) for k in keys}
        object.__setattr__(self, "params", params)
        if family is Family.CUSTOM and self.value_fn is None:
            raise ValidationError("objective", "custom family needs a value_fn")
        lengths = {v.shape[0] for v in params.values()}
        if len(lengths) > 1:
            raise ValidationError("objective", "parameter arrays differ in length")

    @property
    def n(self) -> int | None:
        """Number of variables covered, or None for CUSTOM."""
        for v in self.params.values():
            return int(v.shape[0])
        return None

    @property
    def differentiable(self) -> bool:
        return self.family is not Family.CUSTOM or self.derivative_fn is not None

    # -- scalar API ---------------------------------------------------------

    def value(self, i: int, x: float) -> float:
        """Cost f_i(x). Raises DomainError left of a pole; returns inf at it."""
        if self.family in POLE_FAMILIES:
            if x < 0:
                raise DomainError(f"f_{i} undefined for x={x} < 0")
            if x == 0:
                return math.inf
        if self.family is Family.CUSTOM:
            return float(self.value_fn(i, float(x)))
        return float(self.value_at(np.array([i]), np.array([float(x)]))[0])

    def derivative(self, i: int, x: float) -> float:
        """Marginal cost f'_i(x)."""
        if not self.differentiable:
            raise ValueError("objective has no derivative")
        if self.family in POLE_FAMILIES:
            if x < 0:
                raise DomainError(f"f'_{i} undefined for x={x} < 0")
            if x == 0:
                return -math.inf
        if self.family is Family.CUSTOM:
            return float(self.derivative_fn(i, float(x)))
        return float(self.derivative_at(np.array([i]), np.array([float(x)]))[0])

    # -- vectorized API (no domain checks; poles produce +/-inf) ------------

    def value_at(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        fam = self.family
        with np.errstate(divide="ignore", invalid="ignore"):
            if fam is Family.F:
                p = self.params["p"][idx]
                return 0.25 * x**4 + p * x
            if fam is Family.CRASHING:
                return self.params["k"][idx] + self.params["p"][idx] / x
            if fam is Family.FUELOPT:
                p, c = self.params["p"][idx], self.params["c"][idx]
                return p * c**4 / x**3
            if fam is Family.QUADRATIC:
                w, t = self.params["w"][idx], self.params["t"][idx]
                return w * (x - t) ** 2
        return np.array([self.value_fn(int(i), float(v)) for i, v in zip(idx, x)])

    def derivative_at(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        fam = self.family
        with np.errstate(divide="ignore", invalid="ignore"):
            if fam is Family.F:
                return x**3 + self.params["p"][idx]
            if fam is Family.CRASHING:
                return -self.params["p"][idx] / x**2
            if fam is Family.FUELOPT:
                p, c = self.params["p"][idx], self.params["c"][idx]
                return -3.0 * p * c**4 / x**4
            if fam is Family.QUADRATIC:
                w, t = self.params["w"][idx], self.params["t"][idx]
                return 2.0 * w * (x - t)
        if self.derivative_fn is None:
            raise ValueError("objective has no derivative")
        return np.array([self.derivative_fn(int(i), float(v)) for i, v in zip(idx, x)])

    def second_derivative_at(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Curvature f''_i(x); used to calibrate verification tolerances."""
        fam = self.family
        with np.errstate(divide="ignore", invalid="ignore"):
            if fam is Family.F:
                return 3.0 * x**2
            if fam is Family.CRASHING:
                return 2.0 * self.params["p"][idx] / x**3
            if fam is Family.FUELOPT:
                p, c = self.params["p"][idx], self.params["c"][idx]
                return 12.0 * p * c**4 / x**5
            if fam is Family.QUADRATIC:
                return 2.0 * self.params["w"][idx] * np.ones_like(x)
        raise ValueError("no closed-form curvature for custom objectives")

    def inverse_derivative_at(self, idx: np.ndarray, lam: np.ndarray) -> np.ndarray | None:
        """Solve f'_i(x) = lam for x, unclamped. None if no closed form."""
        inv = self.inverse_map(idx)
        return None if inv is None else inv(lam)

    def inverse_map(
        self, idx: np.ndarray
    ) -> Callable[[np.ndarray, np.ndarray | None], np.ndarray] | None:
        """Unclamped x_k(lam) = (f'_{idx[k]})^-1(lam), constants gathered once.

        The returned `inv(lam, seg_of=None)` takes one multiplier per segment
        and evaluates element k at lam[seg_of[k]] (at lam[k] when seg_of is
        None). Work that depends on lam alone runs on the per-segment array,
        which leaves a gather and one or two arithmetic operations per
        element. The pole families give +inf for lam >= 0 and 0 at
        lam = -inf. None for CUSTOM, which has no closed form.
        """
        fam = self.family
        if fam is Family.CUSTOM:
            return None
        if fam is Family.F:
            p = self.params["p"][idx]
            return lambda lam, seg_of=None: np.cbrt(_at(lam, seg_of) - p)
        if fam is Family.QUADRATIC:
            t = self.params["t"][idx]
            two_w = 2.0 * self.params["w"][idx]
            return lambda lam, seg_of=None: t + _at(lam, seg_of) / two_w
        if fam is Family.CRASHING:
            p = self.params["p"][idx]

            def inv(lam, seg_of=None):  # x = sqrt(p / -lam)
                with np.errstate(divide="ignore"):
                    x = p / _at(np.maximum(-lam, 0.0), seg_of)
                return np.sqrt(x, out=x)

            return inv
        p, c = self.params["p"][idx], self.params["c"][idx]
        g = (3.0 * p * c**4) ** 0.25

        def inv(lam, seg_of=None):  # x = (3 p c^4 / -lam)^(1/4)
            with np.errstate(divide="ignore"):
                return g / _at(np.sqrt(np.sqrt(np.maximum(-lam, 0.0))), seg_of)

        return inv


def _is_integral(a: np.ndarray) -> bool:
    a = np.asarray(a, dtype=np.float64)
    return bool(np.all(np.isfinite(a)) and np.all(a == np.floor(a)))


@dataclass(frozen=True, eq=False)
class NestedInstance:
    """Full problem data; immutable and validated on construction.

    `s` holds the m breakpoint positions (1-based, strictly increasing,
    s[-1] == n); `a` the m-1 interior partial-sum bounds. Upper bounds may be
    +inf in continuous mode. Interior bounds larger than B are legal and get
    capped during tightening.
    """

    n: int
    m: int
    s: np.ndarray
    a: np.ndarray
    B: float
    lower: np.ndarray
    upper: np.ndarray
    objective: ObjectiveSpec
    mode: Mode

    def __post_init__(self):
        object.__setattr__(self, "mode", Mode(self.mode))
        s = np.ascontiguousarray(self.s, dtype=np.int64)
        s.setflags(write=False)
        object.__setattr__(self, "s", s)
        for name in ("a", "lower", "upper"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name))))
        object.__setattr__(self, "B", float(self.B))
        self.validate()

    def validate(self) -> None:
        n, m = self.n, self.m
        if not isinstance(n, int) or n < 1:
            raise ValidationError("n", f"need n >= 1, got {n!r}")
        if not isinstance(m, int) or not 1 <= m <= n:
            raise ValidationError("m", f"need 1 <= m <= n={n}, got {m!r}")
        s, a = self.s, self.a
        if s.shape != (m,):
            raise ValidationError("s", f"need {m} breakpoints, got shape {s.shape}")
        if s[0] < 1 or s[-1] != n or np.any(np.diff(s) <= 0):
            raise ValidationError("s", "breakpoints must be strictly increasing and end at n")
        if a.shape != (m - 1,):
            raise ValidationError("a", f"need {m - 1} interior bounds, got shape {a.shape}")
        if not np.all(np.isfinite(a)) or np.any(a < 0):
            raise ValidationError("a", "bounds must be finite and nonnegative")
        if np.any(np.diff(a) < 0):
            raise ValidationError("a", "ascending-constraint model needs nondecreasing bounds")
        if not math.isfinite(self.B) or self.B < 0:
            raise ValidationError("B", f"need finite B >= 0, got {self.B}")
        lo, up = self.lower, self.upper
        if lo.shape != (n,) or up.shape != (n,):
            raise ValidationError("lower", f"bound arrays must have length {n}")
        if not np.all(np.isfinite(lo)) or np.any(lo < 0):
            raise ValidationError("lower", "lower bounds must be finite and nonnegative")
        if np.any(up < lo):
            raise ValidationError("upper", "need lower <= upper for every variable")
        obj = self.objective
        if obj.n is not None and obj.n != n:
            raise ValidationError("objective", f"parameter arrays have length {obj.n}, expected {n}")
        if obj.family is Family.CRASHING and np.any(obj.params["p"] <= 0):
            raise ValidationError("objective", "crashing needs p > 0")
        if obj.family is Family.FUELOPT and (
            np.any(obj.params["p"] <= 0) or np.any(obj.params["c"] <= 0)
        ):
            raise ValidationError("objective", "fuelopt needs p > 0 and c > 0")
        if obj.family is Family.QUADRATIC and np.any(obj.params["w"] <= 0):
            raise ValidationError("objective", "quadratic needs w > 0")
        if self.mode is Mode.INTEGER:
            for name, arr in (("a", a), ("lower", lo), ("upper", up)):
                if not _is_integral(arr):
                    raise ValidationError(name, "integer mode needs integral data")
            if not _is_integral(np.array([self.B])):
                raise ValidationError("B", "integer mode needs an integral total")
            if obj.family in POLE_FAMILIES and np.any(lo < 1):
                raise ValidationError(
                    "lower", f"{obj.family.value} needs lower >= 1 in integer mode (pole at 0)"
                )

    @property
    def positions(self) -> np.ndarray:
        """Breakpoint positions including the leading 0: blocks are
        [positions[j-1], positions[j]) as 0-based half-open ranges."""
        return np.concatenate([[0], self.s])

    def __eq__(self, other) -> bool:
        if not isinstance(other, NestedInstance):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and self.mode == other.mode
            and self.B == other.B
            and np.array_equal(self.s, other.s)
            and np.array_equal(self.a, other.a)
            and np.array_equal(self.lower, other.lower)
            and np.array_equal(self.upper, other.upper)
            and self.objective.family == other.objective.family
            and all(
                np.array_equal(self.objective.params[k], other.objective.params[k])
                for k in self.objective.params
            )
        )


@dataclass(frozen=True)
class Solution:
    """Allocation plus status. `x` is None when infeasible."""

    x: np.ndarray | None
    objective: float
    status: Status
    epsilon: float | None = None

    def __post_init__(self):
        if self.x is not None:
            object.__setattr__(self, "x", _readonly(np.asarray(self.x)))


@dataclass
class SolveStats:
    """Counts of one solve.

    `kernel_steps` sums the multiplier steps of every RAP kernel call.
    `kernel_evals` counts per-element objective evaluations inside the
    kernels: x(lam) evaluations plus the bracket's derivatives in continuous
    mode, unit marginals in integer mode.
    """

    rap_calls: int = 0
    recursion_levels: int = 0
    active_constraints: int = 0
    wall_ms: float = 0.0
    kernel_steps: int = 0
    kernel_evals: int = 0


def objective_value(inst: NestedInstance, x: np.ndarray) -> float:
    """Canonical objective of an allocation: exact sum of per-variable costs.

    All solvers and oracles report objectives through this one function so
    that equal allocations always compare equal.
    """
    x = np.asarray(x, dtype=np.float64)
    vals = inst.objective.value_at(np.arange(inst.n), x)
    return math.fsum(vals.tolist())


def prefix_sums(inst: NestedInstance, x: np.ndarray) -> np.ndarray:
    """Partial sums y_j = sum(x_k, k <= s[j]) for all m breakpoints."""
    return np.cumsum(np.asarray(x, dtype=np.float64))[inst.s - 1]
