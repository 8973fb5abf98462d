import json

import numpy as np
import pytest

from nested_alloc import (
    Family,
    Mode,
    NestedInstance,
    ObjectiveSpec,
    Solution,
    Status,
    ValidationError,
    generate_instance,
    read_instance,
    read_solution,
    write_instance,
    write_solution,
)


def canonical_doc():
    return {
        "n": 2,
        "m": 2,
        "s": [1, 2],
        "a": [1.0],
        "B": 4.0,
        "lower": [0.0, 0.0],
        "upper": [3.0, 3.0],
        "mode": "continuous",
        "objective": {"family": "quadratic", "params": {"w": [1.0, 1.0], "t": [0.0, 0.0]}},
    }


def test_roundtrip_identity_modulo_key_order():
    doc = canonical_doc()
    data = json.dumps(doc)
    back = json.loads(write_instance(read_instance(data)))
    assert back == doc


def test_roundtrip_generated_instances():
    for family in ("f", "crashing", "fuelopt"):
        inst = generate_instance(family, 30, 7, seed=9)
        assert read_instance(write_instance(inst)) == inst


def test_full_precision_survives():
    inst = generate_instance("crashing", 5, 5, seed=1)
    again = read_instance(write_instance(inst))
    assert np.array_equal(again.a, inst.a)
    assert again.B == inst.B


def test_rejects_decreasing_s_naming_field():
    doc = canonical_doc()
    doc["s"] = [3, 2]
    doc["n"] = 2
    with pytest.raises(ValidationError) as exc:
        read_instance(json.dumps(doc))
    assert exc.value.field == "s"


def test_rejects_decreasing_a_naming_field():
    doc = canonical_doc()
    doc.update(n=3, m=3, s=[1, 2, 3], a=[2.0, 1.0], lower=[0, 0, 0], upper=[3, 3, 3])
    doc["objective"]["params"] = {"w": [1, 1, 1], "t": [0, 0, 0]}
    with pytest.raises(ValidationError) as exc:
        read_instance(json.dumps(doc))
    assert exc.value.field == "a"


def test_missing_key_is_named():
    doc = canonical_doc()
    del doc["B"]
    with pytest.raises(ValidationError) as exc:
        read_instance(json.dumps(doc))
    assert exc.value.field == "B"


def test_unknown_family_rejected():
    doc = canonical_doc()
    doc["objective"]["family"] = "cubic"
    with pytest.raises(ValidationError) as exc:
        read_instance(json.dumps(doc))
    assert "family" in exc.value.field


def test_unknown_mode_rejected():
    doc = canonical_doc()
    doc["mode"] = "mixed"
    with pytest.raises(ValidationError):
        read_instance(json.dumps(doc))


def test_not_json():
    with pytest.raises(ValidationError):
        read_instance(b"not json {")


def test_custom_objective_not_serializable():
    spec = ObjectiveSpec(Family.CUSTOM, {}, value_fn=lambda i, x: x)
    inst = NestedInstance(
        n=1, m=1, s=[1], a=[], B=1.0, lower=[0.0], upper=[2.0],
        objective=spec, mode=Mode.INTEGER,
    )
    with pytest.raises(ValidationError):
        write_instance(inst)


def test_solution_roundtrip():
    sol = Solution(x=np.array([1.0, 3.0]), objective=10.0, status=Status.OPTIMAL, epsilon=1e-8)
    back = read_solution(write_solution(sol))
    assert back.status is Status.OPTIMAL
    assert np.array_equal(back.x, sol.x)
    assert back.objective == 10.0 and back.epsilon == 1e-8


def test_infeasible_solution_roundtrip():
    sol = Solution(x=None, objective=float("nan"), status=Status.INFEASIBLE)
    back = read_solution(write_solution(sol))
    assert back.status is Status.INFEASIBLE and back.x is None


# -- malformed arrays ---------------------------------------------------------


@pytest.mark.parametrize(
    "field, value",
    [
        ("s", [1.5, 2]),  # used to be truncated to [1, 2]
        ("s", ["1", 2]),
        ("s", [None, 2]),
        ("a", [[1.0]]),
        ("lower", ["0", 0.0]),
        ("lower", [True, False]),
        ("upper", ["x", 3.0]),
        ("upper", [None, 3.0]),  # would read as a NaN bound
        ("upper", [[3.0], 3.0]),
        ("w", [[1, 1], [1, 1]]),
        ("t", ["0", 0.0]),
        ("w", 1.0),
        # JSON booleans are Python ints, but not numbers of the schema
        ("n", True),
        ("m", True),
        ("B", False),
        ("s", [True, 2]),  # used to read as [1, 2]
        ("lower", [True, 0.0]),  # used to read as [1.0, 0.0]
        ("upper", [3.0, False]),
        ("upper", [float("inf"), True]),  # read by `json`, not orjson
        ("w", [1.0, True]),
        ("t", [0, False]),
    ],
)
def test_malformed_array_names_field(field, value):
    doc = canonical_doc()
    if field in ("w", "t"):
        doc["objective"]["params"][field] = value
    else:
        doc[field] = value
    with pytest.raises(ValidationError) as exc:
        read_instance(json.dumps(doc))
    assert exc.value.field == field


def test_boolean_literal_elsewhere_reads_the_same():
    """A `true` outside the arrays turns the element scan on; the values
    read are those of the same document without it."""
    doc = canonical_doc()
    plain = read_instance(json.dumps(doc))
    doc["note"] = True
    assert read_instance(json.dumps(doc)) == plain


def test_integral_floats_accepted_for_s():
    doc = canonical_doc()
    doc["s"] = [1.0, 2.0]
    inst = read_instance(json.dumps(doc))
    assert inst.s.dtype == np.int64 and inst.s.tolist() == [1, 2]


def test_malformed_solution_x_names_field():
    for x in (["1", 2.0], [[1.0, 2.0]], [None, 1.0], "1,2", [1.0, True]):
        doc = {"status": "optimal", "x": x, "objective": 1.0, "epsilon": None}
        with pytest.raises(ValidationError) as exc:
            read_solution(json.dumps(doc))
        assert exc.value.field == "x"


# -- values on the wire -------------------------------------------------------

TINY = 5e-324
BIG = np.finfo(np.float64).max
EDGE = [TINY, -0.0, 1e-5, 1e16, BIG, 2.0**53 - 1, float(2**53 + 1), 2.0**53 + 2]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_instance(back, inst):
    assert back == inst
    for name in ("s", "a", "lower", "upper"):
        assert same_bits(getattr(back, name), getattr(inst, name)), name
    for key, arr in inst.objective.params.items():
        assert same_bits(back.objective.params[key], arr), key
    assert same_bits(back.B, inst.B)


def edge_instance(upper_last=None):
    n = len(EDGE)
    upper = np.array(EDGE) + 1.0
    upper[1] = 0.0  # a box [-0.0, 0.0]
    if upper_last is not None:
        upper[-1] = upper_last
    return NestedInstance(
        n=n, m=4, s=[2, 4, 7, n], a=[TINY, 1e-5, 1e16], B=2.0**53 - 1,
        lower=np.array(EDGE), upper=upper,
        objective=ObjectiveSpec(
            Family.QUADRATIC, {"w": np.abs(EDGE) + TINY, "t": -np.array(EDGE)}
        ),
        mode=Mode.CONTINUOUS,
    )


def integer_instance_near_2_53():
    big = [2.0**53 - 1, float(2**53 + 1), 2.0**53 + 2]
    return NestedInstance(
        n=3, m=2, s=[1, 3], a=[2.0**53 - 1], B=2.0**53 + 2,
        lower=[0.0, 1.0, 0.0], upper=big,
        objective=ObjectiveSpec(Family.QUADRATIC, {"w": np.ones(3), "t": big}),
        mode=Mode.INTEGER,
    )


@pytest.mark.parametrize("make", [edge_instance, integer_instance_near_2_53])
def test_instance_round_trip_is_exact(make):
    inst = make()
    blob = write_instance(inst)
    assert b"null" not in blob and b"Infinity" not in blob
    assert_same_instance(read_instance(blob), inst)


def test_solution_round_trip_is_exact():
    for objective in (1e16, -0.0, TINY):
        sol = Solution(np.array(EDGE), objective, Status.OPTIMAL, epsilon=TINY)
        blob = write_solution(sol)
        assert b"Infinity" not in blob
        back = read_solution(blob)
        assert same_bits(back.x, sol.x)
        assert same_bits(back.objective, objective) and back.epsilon == TINY


def test_integers_beyond_2_53_read_as_python_rounds_them():
    doc = {
        "n": 3, "m": 1, "s": [3], "a": [], "B": 1.0, "lower": [0, 0, 0],
        "mode": "continuous",
        "objective": {"family": "quadratic", "params": {"w": [1, 1, 1], "t": [0, 0, 0]}},
    }
    expected = [float(2**53 - 1), float(2**53 + 1)]
    for last in (5, float("inf")):  # read by orjson, then by json
        doc["upper"] = [2**53 - 1, 2**53 + 1, last]
        inst = read_instance(json.dumps(doc))
        assert same_bits(inst.upper, np.array(expected + [float(last)]))


def test_infinite_upper_goes_through_json():
    inst = edge_instance(upper_last=np.inf)
    blob = write_instance(inst)
    assert b"Infinity" in blob and b"null" not in blob
    back = read_instance(blob)
    assert back.upper[-1] == np.inf
    assert_same_instance(back, inst)


def test_infinite_objective_goes_through_json():
    sol = Solution(np.array([0.0, 2.0]), np.inf, Status.OPTIMAL, epsilon=1e-8)
    blob = write_solution(sol)
    assert b"Infinity" in blob
    back = read_solution(blob)
    assert back.objective == np.inf and same_bits(back.x, sol.x)


def write_instance_with_json(inst):
    """The document `json.dumps` makes of an instance, `Infinity` included."""
    doc = {
        "n": inst.n, "m": inst.m, "s": inst.s.tolist(), "a": inst.a.tolist(), "B": inst.B,
        "lower": inst.lower.tolist(), "upper": inst.upper.tolist(), "mode": inst.mode.value,
        "objective": {
            "family": inst.objective.family.value,
            "params": {k: v.tolist() for k, v in inst.objective.params.items()},
        },
    }
    return json.dumps(doc).encode("utf-8")


@pytest.mark.parametrize(
    "make",
    [
        edge_instance,
        lambda: edge_instance(upper_last=np.inf),
        integer_instance_near_2_53,
        lambda: generate_instance("fuelopt", 50, 9, seed=4),
    ],
)
def test_json_dumps_documents_read_like_new_ones(make):
    inst = make()
    old, new = write_instance_with_json(inst), write_instance(inst)
    assert_same_instance(read_instance(old), inst)
    assert_same_instance(read_instance(old), read_instance(new))


def test_output_is_compact_and_deterministic():
    inst = generate_instance("crashing", 40, 8, seed=3)
    blob = write_instance(inst)
    assert blob == write_instance(inst)
    assert b", " not in blob and b": " not in blob
