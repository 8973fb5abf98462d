"""JSON serialization of instances and solutions.

Instance schema (arrays are 0-indexed on the wire, "a" has length m-1):

    {"n": int, "m": int, "s": [int], "a": [num], "B": num,
     "lower": [num], "upper": [num], "mode": "integer"|"continuous",
     "objective": {"family": "f"|"crashing"|"fuelopt"|"quadratic",
                   "params": {...per family}}}

Writers hand the numpy arrays to orjson, which prints each double as its
shortest round-trip decimal straight from the array buffer, in compact form
(`0.00001`, `1e16`, `-0.0`). orjson would print inf and NaN as `null`, so a
document holding a non-finite float (a continuous `upper = inf`, an `inf`
objective) goes through `json.dumps` instead, which spells them `Infinity`
and `NaN`. Readers parse with orjson and fall back to `json.loads` for text
orjson rejects, such as those literals. Either way every value reads back
bit for bit, the sign of zero included.

Every array field goes through one checker: a flat list of numbers, of
integers for `s`, or a ValidationError naming the field. JSON booleans are
not numbers, although Python's `bool` is an `int`: `n`, `m`, `B` and every
array element refuse them. Looking at each element's type costs about 36 ms
per 1e6 numbers, so arrays are scanned only when the document's text holds a
`true` or `false` literal.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np
import orjson

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


def _all_finite(val: Any) -> bool:
    """No inf or NaN anywhere in a document of dicts, arrays and scalars."""
    if isinstance(val, dict):
        return all(_all_finite(v) for v in val.values())
    if isinstance(val, np.ndarray):
        return val.dtype.kind != "f" or bool(np.isfinite(val).all())
    return not isinstance(val, float) or math.isfinite(val)


def _dumps(doc: dict) -> bytes:
    if _all_finite(doc):
        return orjson.dumps(doc, option=orjson.OPT_SERIALIZE_NUMPY)
    return json.dumps(doc, default=lambda v: v.tolist()).encode("utf-8")


def write_instance(inst: NestedInstance) -> bytes:
    """Serialize an instance to JSON bytes. CUSTOM objectives do not travel."""
    if inst.objective.family is Family.CUSTOM:
        raise ValidationError("objective", "custom objectives are not serializable")
    return _dumps({
        "n": inst.n,
        "m": inst.m,
        "s": inst.s,
        "a": inst.a,
        "B": inst.B,
        "lower": inst.lower,
        "upper": inst.upper,
        "mode": inst.mode.value,
        "objective": {
            "family": inst.objective.family.value,
            "params": inst.objective.params,
        },
    })


def _require(doc: dict, key: str, kinds, where: str = "instance") -> Any:
    if key not in doc:
        raise ValidationError(key, f"missing from {where} JSON")
    val = doc[key]
    if isinstance(val, bool) or not isinstance(val, kinds):
        raise ValidationError(key, f"expected {kinds}, got {type(val).__name__}")
    return val


def _array(
    doc: dict, key: str, where: str = "instance", integral: bool = False, scan: bool = False
) -> np.ndarray:
    """doc[key] as a 1-D float64 array, or int64 when `integral`. Anything but
    a flat list of numbers (of integral values when `integral`) is refused.
    `scan` looks for booleans, which `np.asarray` would read as 0 and 1 among
    numbers; pass it when the document's text may hold one."""
    val = _require(doc, key, list, where)
    if scan and any(type(v) is bool for v in val):
        raise ValidationError(key, "expected a flat list of numbers, got a boolean")
    try:
        arr = np.asarray(val)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in "iuf":
        raise ValidationError(key, "expected a flat list of numbers")
    if not integral:
        return arr.astype(np.float64, copy=False)
    with np.errstate(invalid="ignore"):  # non-finite or out of range: unequal below
        ints = arr.astype(np.int64)
    if not np.array_equal(ints, arr):
        raise ValidationError(key, "expected a flat list of integers")
    return ints


def _load_object(data: bytes | str) -> tuple[dict, bool]:
    """The document's top-level object, and whether its text holds a `true`
    or `false` literal."""
    try:
        doc = orjson.loads(data)
    except orjson.JSONDecodeError:  # Infinity/NaN literals among others
        try:
            doc = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ValidationError("json", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("json", "top level must be an object")
    return doc, any(_holds(data, lit) for lit in ("true", "false"))


def _holds(data: bytes | str, literal: str) -> bool:
    """`literal in data` for "true" or "false", looked for at each occurrence
    of its third letter. No number, `Infinity` and `NaN` included, holds the
    u of "true" or the l of "false", so this runs at `memchr` speed where a
    plain substring search would crawl over the exponents' e's."""
    if not isinstance(data, str):
        literal = literal.encode()
    i = data.find(literal[2:3], 2)
    while i >= 0 and not data.startswith(literal, i - 2):
        i = data.find(literal[2:3], i + 1)
    return i >= 0


def _optional_number(doc: dict, key: str) -> float | None:
    val = doc.get(key)
    if val is not None and (isinstance(val, bool) or not isinstance(val, (int, float))):
        raise ValidationError(key, f"expected a number or null, got {type(val).__name__}")
    return val


def read_instance(data: bytes | str) -> NestedInstance:
    """Parse and fully validate an instance JSON document."""
    doc, scan = _load_object(data)
    n = _require(doc, "n", int)
    m = _require(doc, "m", int)
    s = _array(doc, "s", integral=True, scan=scan)
    a = _array(doc, "a", scan=scan)
    B = _require(doc, "B", (int, float))
    lower = _array(doc, "lower", scan=scan)
    upper = _array(doc, "upper", scan=scan)
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
    where = f"objective.params for '{fam_tag}'"
    params = {key: _array(params_doc, key, where, scan=scan) for key in _PARAM_KEYS[family]}
    objective = ObjectiveSpec(family, params)
    return NestedInstance(
        n=n, m=m, s=s, a=a, B=B, lower=lower, upper=upper, objective=objective, mode=mode
    )


def stats_doc(stats: SolveStats) -> dict:
    """The `stats` object of a solution document."""
    return {
        "rap_calls": stats.rap_calls,
        "recursion_levels": stats.recursion_levels,
        "active_constraints": stats.active_constraints,
        "wall_ms": stats.wall_ms,
        "kernel_steps": stats.kernel_steps,
        "kernel_evals": stats.kernel_evals,
    }


def write_solution(sol: Solution, stats: SolveStats | None = None) -> bytes:
    doc = {
        "status": sol.status.value,
        "x": sol.x,
        "objective": sol.objective if sol.x is not None else None,
        "epsilon": sol.epsilon,
    }
    if stats is not None:
        doc["stats"] = stats_doc(stats)
    return _dumps(doc)


def read_solution(data: bytes | str) -> Solution:
    """Parse and validate a solution JSON document: `x` is null or a flat
    list of numbers, `objective` and `epsilon` are numbers or null."""
    doc, scan = _load_object(data)
    tag = _require(doc, "status", str, where="solution")
    try:
        status = Status(tag)
    except ValueError:
        raise ValidationError("status", f"unknown status {tag!r}") from None
    x = None if doc.get("x") is None else _array(doc, "x", where="solution", scan=scan)
    if status is Status.OPTIMAL and x is None:
        raise ValidationError("x", "optimal solution must carry an allocation")
    objective = _optional_number(doc, "objective")
    return Solution(
        x=x,
        objective=math.nan if objective is None else float(objective),
        status=status,
        epsilon=_optional_number(doc, "epsilon"),
    )
