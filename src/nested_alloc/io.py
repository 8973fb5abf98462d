"""JSON serialization of instances and solutions.

Instance schema (arrays are 0-indexed on the wire, "a" has length m-1,
numbers keep full precision via shortest-roundtrip floats):

    {"n": int, "m": int, "s": [int], "a": [num], "B": num,
     "lower": [num], "upper": [num], "mode": "integer"|"continuous",
     "objective": {"family": "f"|"crashing"|"fuelopt"|"quadratic",
                   "params": {...per family}}}
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .model import (
    Family,
    Mode,
    NestedInstance,
    ObjectiveSpec,
    Solution,
    SolveStats,
    Status,
    ValidationError,
    _PARAM_KEYS,
)


def write_instance(inst: NestedInstance) -> bytes:
    """Serialize an instance to JSON bytes. CUSTOM objectives do not travel."""
    if inst.objective.family is Family.CUSTOM:
        raise ValidationError("objective", "custom objectives are not serializable")
    doc = {
        "n": inst.n,
        "m": inst.m,
        "s": inst.s.tolist(),
        "a": inst.a.tolist(),
        "B": inst.B,
        "lower": inst.lower.tolist(),
        "upper": inst.upper.tolist(),
        "mode": inst.mode.value,
        "objective": {
            "family": inst.objective.family.value,
            "params": {k: v.tolist() for k, v in inst.objective.params.items()},
        },
    }
    return json.dumps(doc).encode("utf-8")


def _require(doc: dict, key: str, kinds, where: str = "instance") -> Any:
    if key not in doc:
        raise ValidationError(key, f"missing from {where} JSON")
    val = doc[key]
    if not isinstance(val, kinds):
        raise ValidationError(key, f"expected {kinds}, got {type(val).__name__}")
    return val


def read_instance(data: bytes | str) -> NestedInstance:
    """Parse and fully validate an instance JSON document."""
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ValidationError("json", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("json", "top level must be an object")
    n = _require(doc, "n", int)
    m = _require(doc, "m", int)
    s = _require(doc, "s", list)
    a = _require(doc, "a", list)
    B = _require(doc, "B", (int, float))
    lower = _require(doc, "lower", list)
    upper = _require(doc, "upper", list)
    mode = _require(doc, "mode", str)
    try:
        mode = Mode(mode)
    except ValueError:
        raise ValidationError("mode", f"unknown mode {mode!r}") from None
    obj_doc = _require(doc, "objective", dict)
    fam_tag = _require(obj_doc, "family", str, where="objective")
    try:
        family = Family(fam_tag)
    except ValueError:
        raise ValidationError("objective.family", f"unknown family {fam_tag!r}") from None
    if family is Family.CUSTOM:
        raise ValidationError("objective.family", "custom objectives are not serializable")
    params_doc = _require(obj_doc, "params", dict, where="objective")
    params = {}
    for key in _PARAM_KEYS[family]:
        arr = _require(params_doc, key, list, where=f"objective.params for '{fam_tag}'")
        params[key] = np.asarray(arr, dtype=np.float64)
    objective = ObjectiveSpec(family, params)
    return NestedInstance(
        n=n, m=m, s=s, a=a, B=B, lower=lower, upper=upper, objective=objective, mode=mode
    )


def write_solution(sol: Solution, stats: SolveStats | None = None) -> bytes:
    doc = {
        "status": sol.status.value,
        "x": None if sol.x is None else sol.x.tolist(),
        "objective": sol.objective if sol.x is not None else None,
        "epsilon": sol.epsilon,
    }
    if stats is not None:
        doc["stats"] = {
            "rap_calls": stats.rap_calls,
            "recursion_levels": stats.recursion_levels,
            "active_constraints": stats.active_constraints,
            "wall_ms": stats.wall_ms,
            "kernel_steps": stats.kernel_steps,
            "kernel_evals": stats.kernel_evals,
        }
    return json.dumps(doc).encode("utf-8")


def read_solution(data: bytes | str) -> Solution:
    doc = json.loads(data)
    status = Status(_require(doc, "status", str, where="solution"))
    x = doc.get("x")
    if status is Status.OPTIMAL and x is None:
        raise ValidationError("x", "optimal solution must carry an allocation")
    return Solution(
        x=None if x is None else np.asarray(x, dtype=np.float64),
        objective=float(doc["objective"]) if doc.get("objective") is not None else float("nan"),
        status=status,
        epsilon=doc.get("epsilon"),
    )
