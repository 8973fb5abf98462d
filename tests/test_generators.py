import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nested_alloc import Mode, generate_instance, read_instance, write_instance
from nested_alloc.generators import InstanceFamily

FAMILIES = [f.value for f in InstanceFamily]


@pytest.mark.parametrize("family", FAMILIES)
def test_determinism_byte_identical(family):
    a = generate_instance(family, 100, 100, seed=7)
    b = generate_instance(family, 100, 100, seed=7)
    assert write_instance(a) == write_instance(b)
    assert a == b


def test_crashing_determinism_spec_example():
    a = generate_instance("crashing", 100, 100, seed=7)
    b = generate_instance("crashing", 100, 100, seed=7)
    assert write_instance(a) == write_instance(b)


def test_f_family_shape():
    inst = generate_instance("f", 10, 10, seed=1)
    p = inst.objective.params["p"]
    # sorted so that the hungriest (cheapest) variables come last
    assert np.all(np.diff(p) <= 0)
    assert np.all(inst.upper == 1.0)
    assert np.all(inst.lower == 0.0)


def test_fuelopt_bounds_relation():
    inst = generate_instance("fuelopt", 50, 50, seed=3)
    assert np.all(inst.lower >= 0.7) and np.all(inst.lower <= 1.0)
    assert np.allclose(inst.upper, 1.5 * inst.lower)


def test_supports_large_sample():
    n = 10_000
    f = generate_instance("f", n, n, 11)
    assert np.all((f.objective.params["p"] >= 0) & (f.objective.params["p"] <= 1))
    incr = np.diff(np.concatenate([[0.0], f.a, [f.B]]))
    assert np.all((incr >= 0) & (incr <= 1))

    fu = generate_instance("f-uniform", n, n, 11)
    incr = np.diff(np.concatenate([[0.0], fu.a, [fu.B]]))
    assert np.all((incr >= 0) & (incr <= 0.5))

    fa = generate_instance("f-active", n, n, 11)
    incr = np.diff(np.concatenate([[0.0], fa.a, [fa.B]]))
    assert np.all(np.diff(incr) >= 0)  # bound increments ascend

    cr = generate_instance("crashing", n, n, 11)
    assert np.all(cr.objective.params["p"] > 0)
    incr = np.diff(np.concatenate([[0.0], cr.a, [cr.B]]))
    assert np.all(cr.lower <= np.minimum(incr, cr.upper / 2) + 1e-12)

    fo = generate_instance("fuelopt", n, n, 11)
    assert np.all((fo.objective.params["p"] >= 0.8) & (fo.objective.params["p"] <= 1.2))
    incr = np.diff(np.concatenate([[0.0], fo.a, [fo.B]]))
    assert np.all((incr >= 1.0) & (incr <= 1.2))


def test_exponential_means_within_five_percent():
    n = 100_000
    cr = generate_instance("crashing", n, n, 5)
    incr = np.diff(np.concatenate([[0.0], cr.a, [cr.B]]))
    assert abs(incr.mean() - 0.75) < 0.05 * 0.75
    assert abs(cr.objective.params["p"].mean() - 1.0) < 0.05
    assert abs(cr.upper.mean() - 1.0) < 0.05


def test_breakpoints_when_m_less_than_n():
    inst = generate_instance("fuelopt", 1000, 10, seed=3)
    assert inst.m == 10 and inst.s.shape == (10,)
    assert inst.s[-1] == 1000
    assert np.all(np.diff(inst.s) > 0)
    assert inst.a.shape == (9,)
    # B covers the whole increment mass, bounds read off at breakpoints
    assert inst.B > inst.a[-1]


def test_errors():
    with pytest.raises(ValueError):
        generate_instance("f", 10, 20, 1)
    with pytest.raises(ValueError):
        generate_instance("nope", 10, 10, 1)
    with pytest.raises(ValueError):
        generate_instance("f", 0, 0, 1)


@given(
    family=st.sampled_from(FAMILIES),
    n=st.integers(1, 60),
    seed=st.integers(0, 2**63 - 1),
    data=st.data(),
)
def test_generated_instances_validate_and_roundtrip(family, n, seed, data):
    m = data.draw(st.integers(1, n))
    inst = generate_instance(family, n, m, seed)
    assert inst.mode is Mode.CONTINUOUS
    again = read_instance(write_instance(inst))
    assert again == inst
