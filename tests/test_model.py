import math

import numpy as np
import pytest

from nested_alloc import Family, Mode, NestedInstance, ObjectiveSpec, ValidationError
from nested_alloc.model import DomainError, objective_value
from nested_alloc import rap

from conftest import OBJECTIVE_FAMILIES, random_objective


def quad_spec(n=2, w=1.0, t=0.0):
    return ObjectiveSpec(Family.QUADRATIC, {"w": np.full(n, w), "t": np.full(n, t)})


def make_instance(**kw):
    base = dict(
        n=2, m=2, s=[1, 2], a=[1.0], B=4.0, lower=[0.0, 0.0], upper=[3.0, 3.0],
        objective=quad_spec(), mode=Mode.CONTINUOUS,
    )
    base.update(kw)
    return NestedInstance(**base)


class TestObjectiveValues:
    def test_f_family_value(self):
        spec = ObjectiveSpec(Family.F, {"p": np.array([0.0])})
        assert spec.value(0, 2.0) == 4.0  # 2**4 / 4

    def test_crashing_value(self):
        spec = ObjectiveSpec(Family.CRASHING, {"k": np.array([1.0]), "p": np.array([2.0])})
        assert spec.value(0, 2.0) == 2.0  # 1 + 2/2

    def test_fuelopt_value(self):
        spec = ObjectiveSpec(Family.FUELOPT, {"p": np.array([1.0]), "c": np.array([1.0])})
        assert spec.value(0, 2.0) == 0.125  # (1/2)**3

    def test_f_derivative(self):
        spec = ObjectiveSpec(Family.F, {"p": np.array([1.0])})
        assert spec.derivative(0, 1.0) == 2.0

    def test_quadratic_derivative(self):
        assert quad_spec().derivative(0, 3.0) == 6.0

    def test_crashing_derivative(self):
        spec = ObjectiveSpec(Family.CRASHING, {"k": np.array([0.0]), "p": np.array([4.0])})
        assert spec.derivative(0, 2.0) == -1.0

    def test_pole_domain_error(self):
        spec = ObjectiveSpec(Family.CRASHING, {"k": np.array([0.0]), "p": np.array([1.0])})
        with pytest.raises(DomainError):
            spec.value(0, -0.5)
        assert spec.value(0, 0.0) == math.inf

    def test_custom_needs_value_fn(self):
        with pytest.raises(ValidationError):
            ObjectiveSpec(Family.CUSTOM, {})

    def test_custom_callbacks(self):
        spec = ObjectiveSpec(
            Family.CUSTOM, {}, value_fn=lambda i, x: x * x, derivative_fn=lambda i, x: 2 * x
        )
        assert spec.value(1, 3.0) == 9.0
        assert spec.derivative(1, 3.0) == 6.0
        assert spec.differentiable


class TestDerivativeConsistency:
    @pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
    def test_derivative_matches_central_difference(self, family, rng):
        n = 100
        spec = random_objective(rng, family, n)
        idx = np.arange(n)
        x = rng.uniform(0.5, 3.0, n)
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        fd = (spec.value_at(idx, x + h) - spec.value_at(idx, x - h)) / (2 * h)
        g = spec.derivative_at(idx, x)
        assert np.all(np.abs(fd - g) <= 1e-6 * np.maximum(1.0, np.abs(g)))

    @pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
    def test_second_derivative_matches_difference(self, family, rng):
        n = 50
        spec = random_objective(rng, family, n)
        idx = np.arange(n)
        x = rng.uniform(0.5, 3.0, n)
        h = 1e-5 * np.maximum(1.0, np.abs(x))
        fd = (spec.derivative_at(idx, x + h) - spec.derivative_at(idx, x - h)) / (2 * h)
        g = spec.second_derivative_at(idx, x)
        assert np.all(np.abs(fd - g) <= 1e-4 * np.maximum(1.0, np.abs(g)))

    @pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
    def test_convexity_probe(self, family, rng):
        n = 100
        spec = random_objective(rng, family, n)
        for _ in range(100):
            i = int(rng.integers(0, n))
            x1, x2, x3 = np.sort(rng.uniform(0.3, 4.0, 3))
            if x3 - x1 < 1e-9:
                continue
            f1, f2, f3 = (spec.value(i, float(v)) for v in (x1, x2, x3))
            chord = f1 + (f3 - f1) * (x2 - x1) / (x3 - x1)
            assert f2 <= chord + 1e-9 * (1 + abs(chord))


def _parent_inverse(spec, idx, lam):
    """`inverse_derivative_at` as it was before inverse maps, kept verbatim
    as the reference for the map formulas."""
    fam = spec.family
    with np.errstate(divide="ignore", invalid="ignore"):
        if fam is Family.F:
            return np.cbrt(lam - spec.params["p"][idx])
        if fam is Family.CRASHING:
            p = spec.params["p"][idx]
            return np.where(lam < 0, np.sqrt(p / np.where(lam < 0, -lam, 1.0)), np.inf)
        if fam is Family.FUELOPT:
            p, c = spec.params["p"][idx], spec.params["c"][idx]
            num = 3.0 * p * c**4
            return np.where(lam < 0, (num / np.where(lam < 0, -lam, 1.0)) ** 0.25, np.inf)
        if fam is Family.QUADRATIC:
            w, t = spec.params["w"][idx], spec.params["t"][idx]
            return t + lam / (2.0 * w)
    return None


def _segment_multipliers(rng, family, n_seg):
    """Multipliers with finite, positive-room inverses: negative for the pole
    families, and clear of the cancellation f'(x) = x^3 + p or 2w(x - t)
    suffers when lam is tiny against the parameters."""
    mag = np.exp(rng.uniform(-3.0, 3.0, n_seg))
    if family in (Family.CRASHING, Family.FUELOPT):
        return -mag
    if family is Family.F:
        return 2.0 + mag
    return np.where(rng.random(n_seg) < 0.5, -1.0, 1.0) * (1.0 + mag)


class TestInverseMap:
    N = 300

    def _case(self, rng, family):
        spec = random_objective(rng, family, self.N)
        idx = rng.permutation(self.N)[:200]
        seg_of = np.sort(rng.integers(0, 37, idx.size))
        return spec, idx, _segment_multipliers(rng, family, 37), seg_of

    @pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
    def test_map_is_per_element_inverse_bit_for_bit(self, family, rng):
        spec, idx, lam, seg_of = self._case(rng, family)
        x = spec.inverse_map(idx)(lam, seg_of)
        assert np.array_equal(x, spec.inverse_derivative_at(idx, lam[seg_of]))

    @pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
    def test_map_matches_previous_formulas(self, family, rng):
        spec, idx, lam, seg_of = self._case(rng, family)
        x = spec.inverse_map(idx)(lam, seg_of)
        ref = _parent_inverse(spec, idx, lam[seg_of])
        assert np.all(np.abs(x - ref) <= 4 * np.spacing(np.abs(ref)))

    @pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
    def test_derivative_gives_back_the_multiplier(self, family, rng):
        spec, idx, lam, seg_of = self._case(rng, family)
        x = spec.inverse_map(idx)(lam, seg_of)
        back = spec.derivative_at(idx, x)
        assert np.all(np.abs(back - lam[seg_of]) <= 1e-12 * np.abs(lam[seg_of]))

    @pytest.mark.parametrize("family", [Family.CRASHING, Family.FUELOPT])
    def test_pole_families_at_the_ends(self, family, rng):
        spec = random_objective(rng, family, 5)
        idx = np.arange(5)
        lam = np.array([0.0, -0.0, 2.5, np.inf, -np.inf])
        expected = [np.inf, np.inf, np.inf, np.inf, 0.0]
        assert np.array_equal(spec.inverse_map(idx)(lam, idx), expected)
        assert np.array_equal(spec.inverse_derivative_at(idx, lam), expected)

    def test_custom_has_no_map_and_still_solves(self, monkeypatch):
        spec = ObjectiveSpec(
            Family.CUSTOM, {},
            value_fn=lambda i, x: (x - 1.0) ** 2, derivative_fn=lambda i, x: 2.0 * (x - 1.0),
        )
        assert spec.inverse_map(np.arange(3)) is None
        assert spec.inverse_derivative_at(np.arange(3), np.zeros(3)) is None
        calls = []
        bisect = rap._bisect_inverse
        monkeypatch.setattr(
            rap, "_bisect_inverse", lambda *args: calls.append(1) or bisect(*args)
        )
        c, d = np.zeros(3), np.full(3, 4.0)
        x = rap.solve_segments_continuous(
            spec, np.arange(3), c, d, np.array([0, 3]), np.array([6.0]), 1e-9
        )
        assert calls and np.allclose(x, [2.0, 2.0, 2.0], atol=1e-8)


class TestValidation:
    def test_valid_instance(self):
        inst = make_instance()
        assert inst.n == 2 and inst.m == 2

    def test_s_not_increasing_names_field(self):
        with pytest.raises(ValidationError) as exc:
            make_instance(n=2, m=2, s=[2, 2], a=[1.0])
        assert exc.value.field == "s"

    def test_s_must_end_at_n(self):
        with pytest.raises(ValidationError) as exc:
            make_instance(s=[1, 3])
        assert exc.value.field == "s"

    def test_a_decreasing_names_field(self):
        with pytest.raises(ValidationError) as exc:
            make_instance(
                n=3, m=3, s=[1, 2, 3], a=[3.0, 2.0],
                lower=np.zeros(3), upper=np.full(3, 3.0), objective=quad_spec(3),
            )
        assert exc.value.field == "a"

    def test_negative_lower_rejected(self):
        with pytest.raises(ValidationError) as exc:
            make_instance(lower=[-1.0, 0.0])
        assert exc.value.field == "lower"

    def test_upper_below_lower_rejected(self):
        with pytest.raises(ValidationError) as exc:
            make_instance(lower=[2.0, 0.0], upper=[1.0, 3.0])
        assert exc.value.field == "upper"

    def test_m_out_of_range(self):
        with pytest.raises(ValidationError) as exc:
            NestedInstance(
                n=2, m=3, s=[1, 2, 2], a=[1.0, 1.0], B=2.0, lower=[0, 0], upper=[2, 2],
                objective=quad_spec(), mode=Mode.CONTINUOUS,
            )
        assert exc.value.field == "m"

    def test_integer_mode_needs_integral_data(self):
        with pytest.raises(ValidationError) as exc:
            make_instance(B=3.5, mode=Mode.INTEGER)
        assert exc.value.field == "B"

    def test_integer_mode_pole_family_needs_positive_lower(self):
        spec = ObjectiveSpec(Family.CRASHING, {"k": np.zeros(2), "p": np.ones(2)})
        with pytest.raises(ValidationError) as exc:
            make_instance(objective=spec, B=4.0, mode=Mode.INTEGER)
        assert exc.value.field == "lower"

    def test_continuous_mode_pole_family_allows_zero_lower(self):
        spec = ObjectiveSpec(Family.CRASHING, {"k": np.zeros(2), "p": np.ones(2)})
        inst = make_instance(objective=spec)
        assert inst.objective.family is Family.CRASHING

    def test_zero_bounds_allowed(self):
        # degenerate but meaningful: a fully blocked prefix
        inst = make_instance(a=[0.0], B=2.0, upper=[2.0, 2.0])
        assert inst.a[0] == 0.0

    def test_param_length_mismatch(self):
        with pytest.raises(ValidationError) as exc:
            make_instance(objective=quad_spec(3))
        assert exc.value.field == "objective"


class TestImmutability:
    def test_arrays_read_only(self):
        inst = make_instance()
        for arr in (inst.s, inst.a, inst.lower, inst.upper):
            with pytest.raises(ValueError):
                arr[0] = 99

    def test_equality(self):
        assert make_instance() == make_instance()
        assert make_instance() != make_instance(B=5.0)


def test_objective_value_is_fsum():
    inst = make_instance()
    x = np.array([1.0, 3.0])
    expected = math.fsum([inst.objective.value(0, 1.0), inst.objective.value(1, 3.0)])
    assert objective_value(inst, x) == expected
