import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nested_alloc import Family, Mode, NestedInstance, ObjectiveSpec, ValidationError
from nested_alloc.model import POLE_FAMILIES, DomainError, _fsum, objective_value
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
    SEGMENTS = 37

    def _case(self, rng, family):
        """200 elements in 37 segments, some of them empty (the first, the
        last and a run in the middle among them); returns per-segment
        multipliers, the segment lengths and each element's multiplier."""
        spec = random_objective(rng, family, self.N)
        idx = rng.permutation(self.N)[:200]
        seg_of = np.sort(rng.integers(1, self.SEGMENTS - 1, idx.size))
        seg_of[(seg_of >= 10) & (seg_of < 13)] = 13
        seg_len = np.bincount(seg_of, minlength=self.SEGMENTS)
        assert seg_len[0] == seg_len[-1] == 0 and not seg_len[10:13].any()
        lam = _segment_multipliers(rng, family, self.SEGMENTS)
        return spec, idx, lam, seg_len, lam[seg_of]

    @pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
    def test_map_is_per_element_inverse_bit_for_bit(self, family, rng):
        spec, idx, lam, seg_len, lam_e = self._case(rng, family)
        x = spec.inverse_map(idx)(lam, seg_len)
        assert np.array_equal(x, spec.inverse_map(idx)(lam_e))

    @pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
    def test_map_matches_previous_formulas(self, family, rng):
        spec, idx, lam, seg_len, lam_e = self._case(rng, family)
        x = spec.inverse_map(idx)(lam, seg_len)
        ref = _parent_inverse(spec, idx, lam_e)
        assert np.all(np.abs(x - ref) <= 4 * np.spacing(np.abs(ref)))

    @pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
    def test_derivative_gives_back_the_multiplier(self, family, rng):
        spec, idx, lam, seg_len, lam_e = self._case(rng, family)
        x = spec.inverse_map(idx)(lam, seg_len)
        back = spec.derivative_at(idx, x)
        assert np.all(np.abs(back - lam_e) <= 1e-12 * np.abs(lam_e))

    @pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
    def test_positions_select_elements(self, family, rng):
        spec, idx, lam, seg_len, lam_e = self._case(rng, family)
        k = rng.integers(0, idx.size, 80)
        x = spec.inverse_map(idx)(lam_e[k], k=k)
        assert np.array_equal(x, spec.inverse_map(idx)(lam, seg_len)[k])

    def test_custom_map_is_per_element_bisection(self, rng):
        """The continuous kernel's map for CUSTOM runs `_bisect_inverse`
        inside the boxes: per segment and at positions k, bit for bit."""
        ref, idx, lam, seg_len, lam_e = self._case(rng, Family.QUADRATIC)
        w, t = ref.params["w"], ref.params["t"]
        spec = ObjectiveSpec(
            Family.CUSTOM, {},
            value_fn=lambda i, x: w[i] * (x - t[i]) ** 2,
            derivative_fn=lambda i, x: 2.0 * w[i] * (x - t[i]),
        )
        lo = rng.uniform(-5.0, 0.0, idx.size)
        hi = np.where(rng.random(idx.size) < 0.2, np.inf, lo + rng.uniform(0.0, 10.0, idx.size))
        inv = rap._inverse_map(spec, idx, lo, hi)
        x = inv(lam, seg_len)
        assert np.array_equal(x, rap._bisect_inverse(spec, idx, lam_e, lo, hi))
        k = rng.integers(0, idx.size, 80)
        x_k = inv(lam_e[k], k=k)
        assert np.array_equal(x_k, rap._bisect_inverse(spec, idx[k], lam_e[k], lo[k], hi[k]))
        assert np.array_equal(x_k, x[k])

    @pytest.mark.parametrize("family", [Family.CRASHING, Family.FUELOPT])
    def test_pole_families_at_the_ends(self, family, rng):
        spec = random_objective(rng, family, 5)
        idx = np.arange(5)
        lam = np.array([0.0, -0.0, 2.5, np.inf, -np.inf])
        expected = [np.inf, np.inf, np.inf, np.inf, 0.0]
        assert np.array_equal(spec.inverse_map(idx)(lam, np.ones(5, dtype=np.int64)), expected)
        assert np.array_equal(spec.inverse_map(idx)(lam), expected)

    def test_pole_maps_multiply_past_the_overflow(self):
        """At the smallest subnormal multiplier, lam = -2^-1074, p / -lam
        overflows, so a crashing map that divides before its root returns
        +inf. x = g h(lam) takes the root of -lam first and stays finite:
        crashing with p = 1 gives sqrt(1 / -lam) = 2^537, fuelopt with
        p = c = 1 gives (3 / -lam)^(1/4) = 3^(1/4) 2^268.5, each within 4
        ulp."""
        lam = np.array([-5e-324])
        assert lam[0] == -(2.0**-1074)
        crashing = ObjectiveSpec(Family.CRASHING, {"k": [0.0], "p": [1.0]})
        fuelopt = ObjectiveSpec(Family.FUELOPT, {"p": [1.0], "c": [1.0]})
        for spec, ref in (
            (crashing, 2.0**537),
            (fuelopt, 3.0**0.25 * 2.0**268 * math.sqrt(2.0)),
        ):
            x = spec.inverse_map(np.arange(1))(lam)
            assert np.isfinite(x).all()
            assert abs(x[0] - ref) <= 4 * np.spacing(ref)

    def test_custom_has_no_map_and_still_solves(self, monkeypatch):
        spec = ObjectiveSpec(
            Family.CUSTOM, {},
            value_fn=lambda i, x: (x - 1.0) ** 2, derivative_fn=lambda i, x: 2.0 * (x - 1.0),
        )
        assert spec.inverse_map(np.arange(3)) is None
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


def _parent_value(spec, idx, x):
    """`value_at` as it was before value maps, kept verbatim as the
    reference for the map formulas: reported objectives depend on their bits."""
    fam = spec.family
    with np.errstate(divide="ignore", invalid="ignore"):
        if fam is Family.F:
            p = spec.params["p"][idx]
            return 0.25 * x**4 + p * x
        if fam is Family.CRASHING:
            return spec.params["k"][idx] + spec.params["p"][idx] / x
        if fam is Family.FUELOPT:
            p, c = spec.params["p"][idx], spec.params["c"][idx]
            return p * c**4 / x**3
        if fam is Family.QUADRATIC:
            w, t = spec.params["w"][idx], spec.params["t"][idx]
            return w * (x - t) ** 2
    return None


class TestValueMap:
    """`value_map` evaluates the costs that `value_at`, the scalar `value` and
    `objective_value` report: they must agree bit for bit, and with the
    formulas the costs were computed with before the maps."""

    N = 300

    def _case(self, rng, family):
        """Positions into 200 of N variables, repeats included, at integer
        points: small ones, the pole at 0 for the pole families, and ones
        just below 2^53."""
        spec = random_objective(rng, family, self.N)
        idx = rng.permutation(self.N)[:200]
        k = rng.integers(0, idx.size, 120)
        lo = 0 if family in (Family.CRASHING, Family.FUELOPT) else -5
        x = rng.integers(lo, 50, k.size).astype(float)
        x[::3] = 2.0**53 - rng.integers(0, 64, x[::3].size)
        x[1::7] = 0.0
        return spec, idx, k, x

    @pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
    def test_map_equals_value_at_and_value(self, family, rng):
        spec, idx, k, x = self._case(rng, family)
        v = spec.value_map(idx)(x, k)
        assert np.array_equal(v, spec.value_at(idx[k], x))
        assert np.array_equal(v, _parent_value(spec, idx[k], x))
        scalar = [spec.value(int(i), float(t)) for i, t in zip(idx[k], x)]
        assert np.array_equal(v, scalar)
        if family in (Family.CRASHING, Family.FUELOPT):
            assert np.all(v[x == 0.0] == np.inf)

    @pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
    def test_all_elements_without_positions(self, family, rng):
        spec, idx, _, _ = self._case(rng, family)
        x = rng.integers(1, 2**53, idx.size).astype(float)
        assert np.array_equal(spec.value_map(idx)(x), spec.value_at(idx, x))

    def test_custom_calls_value_fn(self):
        spec = ObjectiveSpec(Family.CUSTOM, {}, value_fn=lambda i, x: i * 10.0 + x)
        val = spec.value_map(np.array([3, 5, 7]))
        assert val(np.array([1.0, 2.0]), np.array([2, 0])).tolist() == [71.0, 32.0]
        assert val(np.array([0.0, 0.0, 0.0])).tolist() == [30.0, 50.0, 70.0]


def _exact_cost(spec, i, t):
    """Cost of variable i at integer t in exact rational arithmetic, from the
    constants the family's formula reads (fuelopt's rounded p c^4)."""
    t = Fraction(t)
    par = {key: Fraction(float(v[i])) for key, v in spec.params.items()}
    if spec.family is Family.F:
        return t**4 / 4 + par["p"] * t
    if spec.family is Family.CRASHING:
        return par["k"] + par["p"] / t
    if spec.family is Family.FUELOPT:
        return Fraction(float(spec._fuel_constants[0][i])) / t**3
    return par["w"] * (t - par["t"]) ** 2


class TestMarginalMap:
    """`marginal_map` prices the integer kernel's units, and the greedy
    oracles price them with its one-off case, the scalar `marginal`. The
    closed forms must be accurate and increasing where differences of two
    costs are neither (F near 1e9 units)."""

    UNITS = (2.0, 1e3, 1e9, 2.0**50)

    @pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
    def test_closed_forms_match_exact_differences(self, family, rng):
        spec = random_objective(rng, family, 40)
        idx = rng.permutation(40)[:30]
        marg = spec.marginal_map(idx)
        for t in self.UNITS:
            for m, i in zip(marg(np.full(idx.size, t)).tolist(), idx):
                exact = _exact_cost(spec, i, int(t)) - _exact_cost(spec, i, int(t) - 1)
                # within 4 ulp, relative
                assert abs(Fraction(m) - exact) <= 4 * 2.0**-52 * abs(exact)
        if family in POLE_FAMILIES:
            k = rng.integers(0, idx.size, 10)
            assert np.all(marg(np.ones(10), k) == -np.inf)
            assert np.all(marg(np.zeros(10), k) == np.inf)

    @pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
    def test_strictly_increasing_over_200_units(self, family, rng):
        spec = random_objective(rng, family, 30)
        idx = np.arange(30)
        marg, val = spec.marginal_map(idx), spec.value_map(idx)
        for t in self.UNITS[1:]:
            units = t + np.arange(200.0)[:, None]  # a row per unit, a column per element
            assert np.all(np.diff(marg(units), axis=0) > 0)
            if family is Family.F and t == 1e9:
                # what the closed form mends: there two costs' difference
                # rounds to a coarser grid than the marginals' steps
                assert not np.all(np.diff(val(units) - val(units - 1.0), axis=0) > 0)

    @pytest.mark.parametrize("family", OBJECTIVE_FAMILIES)
    def test_scalar_and_rows_are_the_map_bit_for_bit(self, family, rng):
        spec = random_objective(rng, family, 50)
        idx = rng.permutation(50)[:40]
        k = rng.integers(0, idx.size, 100)
        t = rng.integers(0 if family in POLE_FAMILIES else -5, 60, k.size).astype(float)
        t[::4] = rng.choice(self.UNITS, t[::4].size)
        marg = spec.marginal_map(idx)
        m = marg(t, k)
        assert np.array_equal(m, [spec.marginal(int(i), u) for i, u in zip(idx[k], t)])
        # rows of units t and t + 1, as the kernel's probe prices them
        rows = marg(t + np.array([[0.0], [1.0]]), k)
        assert np.array_equal(rows[0], m) and np.array_equal(rows[1], marg(t + 1.0, k))
        assert np.array_equal(marg(t[:idx.size]), [spec.marginal(int(i), u) for i, u in zip(idx, t)])

    def test_custom_differences_value_fn(self):
        def cost(i, x):
            return i * x * x + x / 3.0

        spec = ObjectiveSpec(Family.CUSTOM, {}, value_fn=cost)
        marg = spec.marginal_map(np.array([3, 5, 7]))
        want = [cost(7, 1.0) - cost(7, 0.0), cost(3, 4.0) - cost(3, 3.0)]
        assert marg(np.array([1.0, 4.0]), np.array([2, 0])).tolist() == want
        assert [spec.marginal(7, 1.0), spec.marginal(3, 4.0)] == want
        assert marg(np.array([2.0, 2.0, 2.0])).tolist() == [
            cost(i, 2.0) - cost(i, 1.0) for i in (3, 5, 7)
        ]


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

    def test_nan_upper_rejected(self):
        # NaN compares False against lower, so only an explicit check catches it
        with pytest.raises(ValidationError) as exc:
            make_instance(upper=[math.nan, 3.0])
        assert exc.value.field == "upper"

    def test_infinite_upper_allowed(self):
        assert make_instance(upper=[math.inf, 3.0]).upper[0] == math.inf

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_param_rejected(self, bad):
        spec = ObjectiveSpec(Family.QUADRATIC, {"w": np.ones(2), "t": np.array([0.0, bad])})
        with pytest.raises(ValidationError) as exc:
            make_instance(objective=spec)
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


def _fsum_outcome(f, values):
    """What f gives over `values`: ("value", bits of the double), or the
    exception type and message it raises."""
    try:
        out = f(values)
    except (OverflowError, ValueError) as e:
        return type(e).__name__, str(e)
    return "value", np.float64(out).tobytes()  # NaN, inf and the sign of zero included


def _assert_fsum_equal(values):
    lst = [float(v) for v in values]
    arr = np.array(lst, dtype=np.float64)
    assert _fsum_outcome(_fsum, arr) == _fsum_outcome(math.fsum, lst)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=60),
       st.lists(st.integers(0, 59), max_size=20))
def test_fsum_equals_math_fsum_on_any_finite_values(values, negate):
    """Values drawn over the whole double range, huge and subnormal, with
    exact +-v cancellations; sums past the largest double raise as in fsum."""
    values += [-values[k] for k in negate if k < len(values)]
    _assert_fsum_equal(values)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5000), st.integers(-1074, 1023), st.integers(0, 2100),
       st.integers(0, 2**32 - 1), st.floats(0.0, 0.5))
def test_fsum_equals_math_fsum_on_long_arrays(n, e_min, span, seed, cancel):
    """Lengths 0-5000 with exponents drawn from [e_min, e_min + span], which
    reaches subnormals and the largest doubles, and a share of exact +-v."""
    rng = np.random.Generator(np.random.PCG64(seed))
    exps = rng.integers(e_min, min(e_min + span, 1023), n, endpoint=True)
    v = np.ldexp(rng.uniform(0.5, 1.0, n), exps + 1) * rng.choice([-1.0, 1.0], n)
    k = rng.random(n) < cancel
    v[k] = -v[rng.permutation(n)[: np.count_nonzero(k)]] if n else v[k]
    _assert_fsum_equal(v)


@pytest.mark.parametrize(
    "values",
    [
        [],
        [0.0],
        [-0.0],
        [-0.0, -0.0, 0.0],
        [1.5, -1.5],
        [5e-324, -5e-324, 1e-310],
        [math.inf, 1.0],
        [-math.inf, 2.0, -1e308],
        [math.nan, 1.0],
        [math.inf, math.nan],
        [math.inf, -math.inf],
        [1e308, 1e308],
        [1e308, 1e308, -1e308],
        [1e308, -1e308, 3.0],
        [2.0**1023, 2.0**970, -(2.0**1023)],
    ],
)
def test_fsum_special_values_as_math_fsum(values):
    """Infinities, NaN, inf - inf, overflow and zeros give what fsum gives,
    raises included."""
    _assert_fsum_equal(values)


def test_objective_value_sum_is_fsum_on_large_allocations():
    """`objective_value` at n = 20000 over costs spanning many decades,
    crashing costs with huge terms near the pole, equals fsum bit for bit."""
    rng = np.random.Generator(np.random.PCG64(7))
    n = 20000
    obj = ObjectiveSpec(Family.CRASHING, {"k": rng.uniform(-1e6, 1e6, n),
                                          "p": 10.0 ** rng.uniform(-8, 8, n)})
    inst = NestedInstance(n=n, m=1, s=[n], a=[], B=float(n), lower=np.full(n, 1e-9),
                          upper=np.full(n, 10.0), objective=obj, mode=Mode.CONTINUOUS)
    x = 10.0 ** rng.uniform(-9, 1, n)
    expected = math.fsum(obj.value_at(np.arange(n), x).tolist())
    assert np.float64(objective_value(inst, x)).tobytes() == np.float64(expected).tobytes()
