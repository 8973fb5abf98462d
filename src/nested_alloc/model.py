"""Core data model: instances, objective families, solutions, solve statistics.

An instance asks to minimize a separable convex cost sum(f_i(x_i)) subject to
an exact total resource B, box bounds lower <= x <= upper, and upper bounds
a_1 <= ... <= a_{m-1} on the partial sums of x up to a set of m breakpoints
(the last breakpoint is n and carries the total B). Variables are either all
integer or all continuous.

Objective families evaluate vectorized over variable indices, without
domain checks: the pole families give +/-inf at 0. For the continuous
multiplier search, `ObjectiveSpec.inverse_map` gathers a family's
per-variable constants once and returns x(lam) = (f')^-1(lam) as a function
of one multiplier per segment, or of one per element at chosen positions.
`ObjectiveSpec.multiplier_coordinate` names the coordinate h(lam) in which
the pole families' x(lam) is linear, where the search interpolates. The
integer kernel probes the same maps at single elements and prices units
with `ObjectiveSpec.marginal_map`, which gathers the constants once per
kernel call and evaluates f(t) - f(t - 1) in closed form; the greedy oracles
price through its one-off case, `marginal`. Costs go through
`ObjectiveSpec.value_at` alone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
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


_PARAM_KEYS = {
    Family.F: ("p",),
    Family.CRASHING: ("k", "p"),
    Family.FUELOPT: ("p", "c"),
    Family.QUADRATIC: ("w", "t"),
    Family.CUSTOM: (),
}

# Families whose formulas have a pole at x = 0.
POLE_FAMILIES = (Family.CRASHING, Family.FUELOPT)

# Their x(lam) = g h(lam): h = (-lam)^(-1/2) for crashing and (-lam)^(-1/4)
# for fuelopt, +inf for lam >= 0 and 0 at lam = -inf.
_POLE_H = {
    Family.CRASHING: lambda lam: 1.0 / np.sqrt(np.maximum(-lam, 0.0)),
    Family.FUELOPT: lambda lam: 1.0 / np.sqrt(np.sqrt(np.maximum(-lam, 0.0))),
}


def _at(v: np.ndarray, seg_len: np.ndarray | None) -> np.ndarray:
    """Per-segment values spread to elements (per-element values as given)."""
    return v if seg_len is None else np.repeat(v, seg_len)


def _pick(a: np.ndarray, k: np.ndarray | None) -> np.ndarray:
    """Per-element constants at positions k (all of them when k is None)."""
    return a if k is None else a[k]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ObjectiveSpec:
    """Separable objective: a family tag plus per-variable parameter arrays.

    Every evaluation is vectorized over variable indices; `marginal` is the
    one scalar entry, for the greedy oracles. CUSTOM objectives supply
    `value_fn(i, x)` and, optionally, `derivative_fn(i, x)`, called per
    point. A CUSTOM objective without a derivative can only be used with
    integer variables. Fuelopt's per-variable constants p c^4 and
    (3 p c^4)^(1/4) are built once, on first use, and every map and
    derivative gathers them.
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

    def marginal(self, i: int, t: float) -> float:
        """Unit marginal f_i(t) - f_i(t - 1), `marginal_map` at one element and
        bit for bit its value."""
        return float(self.marginal_map(np.array([i]))(np.array([float(t)]))[0])

    @cached_property
    def _fuel_constants(self) -> tuple[np.ndarray, np.ndarray]:
        """Fuelopt's p c^4, its cost's numerator, and g = (3 p c^4)^(1/4), the
        factor of x(lam) = g h(lam), per variable."""
        p, c = self.params["p"], self.params["c"]
        c4 = c**4
        return p * c4, (3.0 * p * c4) ** 0.25

    def value_at(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Costs f_idx(x), idx broadcast against x, so rows of x price several
        points of each element. CUSTOM objectives call `value_fn` per point."""
        fam = self.family
        if fam is Family.CUSTOM:
            i, x = np.broadcast_arrays(idx, x)
            vals = [self.value_fn(int(j), float(v)) for j, v in zip(i.flat, x.flat)]
            return np.array(vals).reshape(x.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            if fam is Family.F:
                return 0.25 * x**4 + self.params["p"][idx] * x
            if fam is Family.CRASHING:
                return self.params["k"][idx] + self.params["p"][idx] / x
            if fam is Family.FUELOPT:
                return self._fuel_constants[0][idx] / x**3
            w, t = self.params["w"][idx], self.params["t"][idx]
            return w * (x - t) ** 2

    def derivative_at(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        fam = self.family
        with np.errstate(divide="ignore", invalid="ignore"):
            if fam is Family.F:
                return x * x * x + self.params["p"][idx]
            if fam is Family.CRASHING:
                return -self.params["p"][idx] / x**2
            if fam is Family.FUELOPT:
                # -3 p c^4 / x^4 in the gathered copy
                d = np.take(self._fuel_constants[0], idx)
                d *= -3.0
                x4 = x * x
                x4 *= x4
                d /= x4
                return d
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
                return 2.0 * self.params["p"][idx] / (x * x * x)
            if fam is Family.FUELOPT:
                p, c = self.params["p"][idx], self.params["c"][idx]
                return 12.0 * p * np.square(np.square(c)) / (np.square(np.square(x)) * x)
            if fam is Family.QUADRATIC:
                return 2.0 * self.params["w"][idx] * np.ones_like(x)
        raise ValueError("no closed-form curvature for custom objectives")

    def marginal_map(
        self, idx: np.ndarray
    ) -> Callable[[np.ndarray, np.ndarray | None], np.ndarray]:
        """Unit marginals f_{idx[k]}(t) - f_{idx[k]}(t - 1), constants gathered once.

        The returned `marg(t, k=None)` prices units t of the elements at
        positions k of `idx` (all of them when k is None); t broadcasts against
        them, so rows of t price several units of each element. The built-in
        families evaluate the difference in closed form, without subtracting
        two costs, so it keeps its accuracy where the costs are huge against
        it (F near t = 1e9). With u = t(t - 1): crashing -p / u, fuelopt
        -p c^4 (3 + 1/u) / u^2, F v^3 + v/4 + p with v = t - 1/2, quadratic
        w (2 (t - T) - 1). Each is a chain of roundings monotone in t, so the
        computed marginals never decrease in t (right of the pole). The pole
        families give -inf at t = 1 and +inf at t = 0, as the costs' difference
        does. CUSTOM objectives difference two `value_at` costs. `marginal` is
        its one-off case.
        """
        fam = self.family
        if fam is Family.CUSTOM:

            def marg(t, k=None):
                i = _pick(idx, k)
                return self.value_at(i, t) - self.value_at(i, t - 1.0)

            return marg
        if fam is Family.F:
            p = self.params["p"][idx]

            def marg(t, k=None):
                v = t - 0.5
                m = v * v
                m += 0.25
                m *= v
                return m + _pick(p, k)

            return marg
        if fam is Family.QUADRATIC:
            w, tq = self.params["w"][idx], self.params["t"][idx]
            return lambda t, k=None: _pick(w, k) * (2.0 * (t - _pick(tq, k)) - 1.0)
        if fam is Family.CRASHING:
            neg_p = -self.params["p"][idx]

            def marg(t, k=None):
                with np.errstate(divide="ignore"):
                    return _pick(neg_p, k) / (t * (t - 1.0))

            return marg
        neg_pc4 = -self._fuel_constants[0][idx]

        def marg(t, k=None):
            u = t * (t - 1.0)
            with np.errstate(divide="ignore"):
                m = 1.0 / u
            m += 3.0
            m /= u * u
            return m * _pick(neg_pc4, k)

        return marg

    def inverse_map(self, idx: np.ndarray) -> Callable[..., np.ndarray] | None:
        """Unclamped x_k(lam) = (f'_{idx[k]})^-1(lam), constants gathered once.

        The returned `inv(lam, seg_len=None, k=None)` takes one multiplier per
        segment of consecutive elements, segment j holding seg_len[j] of them,
        and evaluates each element at its segment's multiplier (element k at
        lam[k] when seg_len is None). Work that depends on lam alone runs on
        the per-segment array, which leaves a run-length spread and one or two
        arithmetic operations per element: the pole families' x = g h(lam) is
        one multiply by g, gathered here. Given positions `k`, it evaluates
        only the elements at positions k of `idx`: element k[j] at lam[j],
        or, with seg_len, the segments of those positions at one multiplier
        each. The pole families give +inf for lam >= 0 and 0 at lam = -inf.
        None for CUSTOM, which has no closed form; the continuous kernel
        inverts its f' by bisection instead.
        """
        fam = self.family
        if fam is Family.CUSTOM:
            return None
        if fam is Family.F:
            p = self.params["p"][idx]

            def inv(lam, seg_len=None, k=None):
                x = _at(lam, seg_len) - _pick(p, k)
                return np.cbrt(x, out=x)

            return inv
        if fam is Family.QUADRATIC:
            t = self.params["t"][idx]
            two_w = 2.0 * self.params["w"][idx]
            return lambda lam, seg_len=None, k=None: (
                _pick(t, k) + _at(lam, seg_len) / _pick(two_w, k)
            )
        if fam is Family.CRASHING:
            g = np.sqrt(self.params["p"][idx])
        else:
            g = self._fuel_constants[1][idx]
        h = _POLE_H[fam]

        def inv(lam, seg_len=None, k=None):  # x = g h(lam)
            with np.errstate(divide="ignore"):
                return _pick(g, k) * _at(h(lam), seg_len)

        return inv

    def multiplier_coordinate(
        self,
    ) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]] | None:
        """A coordinate h(lam) in which every unclamped x_i(lam) is g_i h(lam),
        as the pair (h, h^-1), or None where there is none.

        Crashing has h = (-lam)^(-1/2) and fuelopt h = (-lam)^(-1/4), so
        between clamp changes sum(x) is affine in h and one regula falsi step
        in h lands on the root. Quadratic x is affine in lam itself; F and
        CUSTOM have no such coordinate. lam >= 0 maps to h = inf.
        """
        if self.family is Family.CRASHING:
            return _POLE_H[Family.CRASHING], lambda h: -1.0 / (h * h)
        if self.family is Family.FUELOPT:
            return _POLE_H[Family.FUELOPT], lambda h: -1.0 / (h * h) ** 2
        return None


def _is_integral(a: np.ndarray) -> bool:
    a = np.asarray(a, dtype=np.float64)
    return bool(np.all(np.isfinite(a)) and np.all(a == np.floor(a)))


@dataclass(frozen=True, eq=False)
class NestedInstance:
    """Full problem data; immutable and validated on construction.

    `s` holds the m breakpoint positions (1-based, strictly increasing,
    s[-1] == n); `a` the m-1 interior partial-sum bounds. Upper bounds may be
    +inf in continuous mode, never NaN. Interior bounds larger than B are
    legal and get capped during tightening.
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
        if np.any(np.isnan(up)):
            raise ValidationError("upper", "upper bounds must not be NaN")
        if np.any(up < lo):
            raise ValidationError("upper", "need lower <= upper for every variable")
        obj = self.objective
        if obj.n is not None and obj.n != n:
            raise ValidationError("objective", f"parameter arrays have length {obj.n}, expected {n}")
        if not all(np.all(np.isfinite(v)) for v in obj.params.values()):
            raise ValidationError("objective", "parameters must be finite")
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
    kernels, of the movable elements (upper > lower) of open segments only:
    x(lam) evaluations plus the bracket's derivatives in continuous mode,
    unit marginals priced through `ObjectiveSpec.marginal_map` plus the
    probe's continuous points in integer mode. A continuous call evaluates x at its bracket ends only for
    segments whose bracket passes through an interior point (a pole or an
    unbounded box at an end) and for segments that end stuck without a hit;
    elsewhere x there is the box end itself.
    """

    rap_calls: int = 0
    recursion_levels: int = 0
    active_constraints: int = 0
    wall_ms: float = 0.0
    kernel_steps: int = 0
    kernel_evals: int = 0


def objective_value(inst: NestedInstance, x: np.ndarray) -> float:
    """Canonical objective of an allocation: the per-variable costs summed
    correctly rounded, the double `math.fsum` gives (`_fsum`).

    All solvers and oracles report objectives through this one function so
    that equal allocations always compare equal.
    """
    return _fsum(inst.objective.value_at(np.arange(inst.n), np.asarray(x, dtype=np.float64)))


def _fsum(v: np.ndarray) -> float:
    """`math.fsum(v.tolist())`, the same double, at array speed: error-free
    extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 2008). For sigma =
    2^k > (n + 2) max|v|, q = (v + sigma) - sigma and v - q are exact and
    `np.sum` adds the q, all on one grid, exactly; a round leaves v 53 -
    log2(n + 2) bits smaller. Non-finite, huge or all-zero input goes to fsum
    whole (its raises and sign of zero), what is left after eight rounds too."""
    parts = []
    for _ in range(8):
        mu = float(np.max(np.abs(v), initial=0.0))  # NaN and inf propagate
        k = math.frexp(mu)[1] + (v.size + 2).bit_length()
        if not 0.0 < mu < math.inf or k > 1023:
            break
        q = (v + math.ldexp(1.0, k)) - math.ldexp(1.0, k)
        parts.append(float(np.sum(q)))
        v = v - q
    return math.fsum(parts + (v[v != 0] if parts else v).tolist())


def prefix_sums(inst: NestedInstance, x: np.ndarray) -> np.ndarray:
    """Partial sums y_j = sum(x_k, k <= s[j]) for all m breakpoints."""
    return np.cumsum(np.asarray(x, dtype=np.float64))[inst.s - 1]
