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
import math
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


def _load_object(data: bytes | str) -> dict:
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ValidationError("json", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("json", "top level must be an object")
    return doc


def _optional_number(doc: dict, key: str) -> float | None:
    val = doc.get(key)
    if val is not None and (isinstance(val, bool) or not isinstance(val, (int, float))):
        raise ValidationError(key, f"expected a number or null, got {type(val).__name__}")
    return val


def read_instance(data: bytes | str) -> NestedInstance:
    """Parse and fully validate an instance JSON document."""
    doc = _load_object(data)
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
    """Parse and validate a solution JSON document: `x` is null or a flat
    list of numbers, `objective` and `epsilon` are numbers or null."""
    doc = _load_object(data)
    tag = _require(doc, "status", str, where="solution")
    try:
        status = Status(tag)
    except ValueError:
        raise ValidationError("status", f"unknown status {tag!r}") from None
    x = doc.get("x")
    if x is not None:
        try:
            x = np.asarray(x) if isinstance(x, list) else None
        except ValueError:  # ragged nesting
            x = None
        if x is None or x.ndim != 1 or x.dtype.kind not in "iuf":
            raise ValidationError("x", "expected null or a flat list of numbers")
        x = x.astype(np.float64, copy=False)
    if status is Status.OPTIMAL and x is None:
        raise ValidationError("x", "optimal solution must carry an allocation")
    objective = _optional_number(doc, "objective")
    return Solution(
        x=x,
        objective=math.nan if objective is None else float(objective),
        status=status,
        epsilon=_optional_number(doc, "epsilon"),
    )
