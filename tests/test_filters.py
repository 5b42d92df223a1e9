"""Filter step tests: hand-derived examples, reduction identities, the
published-form discrepancy, and equivalence against a naive oracle.

The naive oracle below re-implements every update rule with plain
Python floats, sequential sums and the standard library's Gamma; it
shares no code with the package.
"""

import math
import tracemalloc

import numpy as np
import pytest

from lmslab.experiment import ScenarioConfig
from lmslab.filters import (
    DivergenceError,
    FilterParams,
    FilterState,
    Variant,
    WEIGHT_LIMIT,
    _pairwise_sum,
    advance,
    default_muf,
    diverged_rows,
    step,
    update_rule,
    workspace,
)

# --- naive reference implementation (oracle) ---------------------------


def naive_step(variant, w, w_prev, v, u, d, mu1, muf, f, alpha):
    """Loop-based reference for one update; returns (w', v', e)."""
    w, w_prev, v, u = list(w), list(w_prev), list(v), list(u)
    e = d
    for ui, wi in zip(u, w):
        e -= ui * wi
    coeff = muf / math.gamma(2.0 - f)
    frac = [coeff * e * ui * abs(wi) ** (1.0 - f) for ui, wi in zip(u, w)]
    plain = [mu1 * e * ui for ui in u]
    if variant is Variant.LMS:
        return [wi + gi for wi, gi in zip(w, plain)], v, e
    if variant is Variant.MOMENTUM_LMS:
        v_new = [alpha * vi + gi for vi, gi in zip(v, plain)]
        return [wi + vi for wi, vi in zip(w, v_new)], v_new, e
    if variant is Variant.FLMS:
        return [wi + gi + fi for wi, gi, fi in zip(w, plain, frac)], v, e
    if variant is Variant.MFLMS_ASSEMBLED:
        v_new = [alpha * vi + gi + fi for vi, gi, fi in zip(v, plain, frac)]
        return [wi + vi for wi, vi in zip(w, v_new)], v_new, e
    if variant is Variant.MFLMS_PUBLISHED16:
        return [
            wi + alpha * (wi - wpi) + mu1 * e * ui * abs(wi) ** (1.0 - f)
            for wi, wpi, ui in zip(w, w_prev, u)
        ], v, e
    if variant is Variant.MFLMS_CORRECTED:
        return [
            wi + alpha * (wi - wpi) + mu1 * e * (ui + ui * abs(wi) ** (1.0 - f))
            for wi, wpi, ui in zip(w, w_prev, u)
        ], v, e
    raise AssertionError(variant)


def state_of(w, w_prev=None, v=None):
    w = np.asarray(w, dtype=float)
    return FilterState(
        w=w.copy(),
        w_prev=w.copy() if w_prev is None else np.asarray(w_prev, dtype=float),
        v=np.zeros_like(w) if v is None else np.asarray(v, dtype=float),
    )


def params_of(variant, mu1=0.1, muf=0.0, f=0.5, alpha=0.0):
    return FilterParams(mu1=mu1, muf=muf, f=f, alpha=alpha, variant=variant)


def random_case(rng, variant):
    m = int(rng.integers(1, 9))
    mu1 = float(rng.uniform(0.01, 0.4))
    f = float(rng.uniform(0.05, 0.95))
    if variant is Variant.LMS:
        muf, alpha = 0.0, 0.0
    elif variant is Variant.MOMENTUM_LMS:
        muf, alpha = 0.0, float(rng.uniform(0, 0.95))
    elif variant is Variant.FLMS:
        muf, alpha = float(rng.uniform(0, 0.3)), 0.0
    else:
        muf, alpha = float(rng.uniform(0, 0.3)), float(rng.uniform(0, 0.95))
    if variant in (Variant.MFLMS_PUBLISHED16, Variant.MFLMS_CORRECTED):
        muf = 0.0  # drawn all the same, so the draws after it do not move
    params = FilterParams(mu1=mu1, muf=muf, f=f, alpha=alpha, variant=variant)
    state = state_of(rng.normal(0, 2, m), rng.normal(0, 2, m), rng.normal(0, 1, m))
    u = rng.normal(0, 1.5, m)
    d = float(rng.normal(0, 2))
    return state, u, d, params


class TestParamsValidation:
    def test_ranges(self):
        with pytest.raises(ValueError):
            params_of(Variant.LMS, mu1=0.0)
        with pytest.raises(ValueError):
            params_of(Variant.FLMS, muf=-0.1)
        with pytest.raises(ValueError):
            params_of(Variant.FLMS, f=0.0)
        with pytest.raises(ValueError):
            params_of(Variant.FLMS, f=1.0)
        with pytest.raises(ValueError):
            params_of(Variant.MFLMS_ASSEMBLED, alpha=1.0)
        with pytest.raises(ValueError):
            params_of(Variant.MFLMS_ASSEMBLED, alpha=-0.2)

    @pytest.mark.parametrize("field", ["mu1", "muf"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_steps_rejected(self, field, value):
        with pytest.raises(ValueError):
            params_of(Variant.MFLMS_ASSEMBLED, **{field: value})

    @pytest.mark.parametrize("variant, name", [
        (Variant.MFLMS_PUBLISHED16, "mFLMS-published"), (Variant.MFLMS_CORRECTED, "mFLMS-corrected"),
    ], ids=["mflms_published16", "mflms_corrected"])
    def test_collapsed_forms_take_no_muf(self, variant, name):
        # Their b reads mu1, so a muf would be ignored: it is refused, and
        # None resolves to 0 as for LMS.
        for muf in (5.0, default_muf(0.01, 0.25)):
            with pytest.raises(ValueError, match=f"^{name} requires muf = 0$"):
                params_of(variant, mu1=0.01, muf=muf, f=0.25, alpha=0.2)
        assert params_of(variant, mu1=0.01, muf=None, f=0.25, alpha=0.2).muf == 0.0

    # Each FilterParams field, the ScenarioConfig field that sets it, and
    # values just outside its range.
    BOUNDARY = {"mu1": ("mflms_mu1", [0.0]), "muf": ("mflms_muf", [-5e-324]),
                "f": ("f", [0.0, 1.0]), "alpha": ("alpha", [-5e-324, 1.0])}

    @pytest.mark.parametrize("field, value", [
        (field, value) for field, (_, outside) in BOUNDARY.items()
        for value in [True, "0.1", math.nan, math.inf, -math.inf, *outside, None]
        # None is a value of both step-size fields of a scenario: mflms_mu1
        # calibrates, and mflms_muf, like muf, selects the default.
        if not (value is None and field in ("mu1", "muf"))
    ])
    def test_boundary_agrees_with_scenario_config(self, field, value):
        scenario_field = self.BOUNDARY[field][0]
        with pytest.raises((TypeError, ValueError), match=f"^{field}: must") as library:
            params_of(Variant.MFLMS_ASSEMBLED, **{field: value})
        with pytest.raises((TypeError, ValueError), match=f"^{scenario_field}: must") as scenario:
            ScenarioConfig(**{"noise_std": 0.5, "alpha": 0.2, "f": 0.25, "lms_eta": 0.027, scenario_field: value})
        assert type(library.value) is type(scenario.value)

    def test_variant_constraints(self):
        with pytest.raises(ValueError):
            params_of(Variant.LMS, muf=0.1)
        with pytest.raises(ValueError):
            params_of(Variant.LMS, alpha=0.1)
        with pytest.raises(ValueError):
            params_of(Variant.MOMENTUM_LMS, muf=0.1)
        with pytest.raises(ValueError):
            params_of(Variant.FLMS, alpha=0.1)


class TestMakeFilter:
    """A filter as demo 01 makes one: a :class:`FilterParams` and a cold-start :class:`FilterState`."""

    def test_cold_start(self):
        w0 = np.zeros(8)
        state = FilterState(w0.copy(), w0.copy(), np.zeros(8))
        assert state.n == 0
        np.testing.assert_array_equal(state.w, np.zeros(8))
        np.testing.assert_array_equal(state.w_prev, np.zeros(8))
        np.testing.assert_array_equal(state.v, np.zeros(8))
        assert state.w is not state.w_prev

    def test_gaussian_init_accepted(self):
        rng = np.random.default_rng(0)
        w0 = rng.standard_normal(8)
        state = FilterState(w0.copy(), w0.copy(), np.zeros(8))
        params = FilterParams(mu1=0.027, muf=0.027 * math.gamma(1.75), f=0.25, alpha=0.2,
                              variant=Variant.MFLMS_ASSEMBLED)
        np.testing.assert_array_equal(state.w, w0)
        assert params.muf == pytest.approx(default_muf(0.027, 0.25), rel=1e-12)

    def test_default_muf(self):
        params = FilterParams(mu1=0.1, muf=None, f=0.25, alpha=0.2, variant=Variant.MFLMS_ASSEMBLED)
        assert params.muf == pytest.approx(0.1 * math.gamma(1.75), rel=1e-12)
        params = FilterParams(mu1=0.1, muf=None, f=0.5, alpha=0.0, variant=Variant.LMS)
        assert params.muf == 0.0

    def test_boundary_rejection(self):
        with pytest.raises(ValueError):
            FilterParams(mu1=0.1, muf=None, f=0.5, alpha=1.0, variant=Variant.MFLMS_ASSEMBLED)
        with pytest.raises(ValueError):
            FilterState(np.zeros(3), np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError, match="^iteration counter must be non-negative$"):
            FilterState(np.zeros(3), np.zeros(3), np.zeros(3), n=-1)
        with pytest.raises(ValueError, match="regressor length 4 does not match filter length 3"):
            step(state_of(np.zeros(3)), np.zeros(4), 0.0, params_of(Variant.LMS))


class TestHandDerivedExamples:
    def test_lms_one_step(self):
        state = state_of([0.0, 0.0])
        new, err = step(state, [1.0, 0.0], 1.0, params_of(Variant.LMS, mu1=0.5))
        assert err == 1.0
        np.testing.assert_array_equal(new.w, [0.5, 0.0])
        np.testing.assert_array_equal(new.w_prev, [0.0, 0.0])
        assert new.n == 1

    def test_no_noise_fixed_point_all_variants(self):
        rng = np.random.default_rng(21)
        theta = rng.normal(0, 1, 6)
        u = rng.normal(0, 1, 6)
        d = float((u * theta).sum())
        for variant in Variant:
            state = state_of(theta, theta, np.zeros(6))
            params = random_case(rng, variant)[3]
            new, err = step(state, u, d, params)
            assert err == 0.0
            np.testing.assert_array_equal(new.w, theta)

    def test_zero_regressor(self):
        state = state_of([1.0])
        new, err = step(state, [0.0], 7.0, params_of(Variant.LMS))
        assert err == 7.0
        np.testing.assert_array_equal(new.w, [1.0])

    def test_flms_hand_value(self):
        # fractional coefficient collapses to mu1, |1|**0.5 = 1:
        # w' = 1 + 0.1 + 0.1 = 1.2
        params = params_of(Variant.FLMS, mu1=0.1, muf=0.1 * math.gamma(1.5), f=0.5)
        new, err = step(state_of([1.0]), [1.0], 2.0, params)
        assert err == 1.0
        assert new.w[0] == pytest.approx(1.2, abs=1e-15)

    def test_flms_zero_weights_equal_lms(self):
        params_f = params_of(Variant.FLMS, mu1=0.2, muf=0.15, f=0.3)
        params_l = params_of(Variant.LMS, mu1=0.2)
        u, d = np.array([0.7, -1.1]), 0.9
        new_f, _ = step(state_of([0.0, 0.0]), u, d, params_f)
        new_l, _ = step(state_of([0.0, 0.0]), u, d, params_l)
        np.testing.assert_array_equal(new_f.w, new_l.w)

    def test_momentum_coasting(self):
        # After a step with a gradient, a zero-error step still moves the
        # weights by alpha * v.
        params = params_of(Variant.MOMENTUM_LMS, mu1=0.1, alpha=0.5)
        s1, _ = step(state_of([0.0]), [1.0], 1.0, params)
        v1 = s1.v.copy()
        assert v1[0] != 0.0
        s2, err = step(s1, [0.0], 0.0, params)
        assert err == 0.0
        np.testing.assert_array_equal(s2.w, s1.w + 0.5 * v1)

    def test_assembled_cold_start_equals_lms(self):
        params_m = params_of(Variant.MFLMS_ASSEMBLED, mu1=0.1, muf=0.2, f=0.4, alpha=0.6)
        params_l = params_of(Variant.LMS, mu1=0.1)
        u, d = np.array([1.3, -0.2]), 0.5
        new_m, _ = step(state_of([0.0, 0.0]), u, d, params_m)
        new_l, _ = step(state_of([0.0, 0.0]), u, d, params_l)
        np.testing.assert_array_equal(new_m.w, new_l.w)

    def test_published16_hand_value(self):
        params = params_of(Variant.MFLMS_PUBLISHED16, mu1=0.1, f=0.5, alpha=0.0)
        new, err = step(state_of([1.0]), [1.0], 2.0, params)
        assert err == 1.0
        assert new.w[0] == pytest.approx(1.1, abs=1e-15)

    def test_published16_origin_fixed_point(self):
        params = params_of(Variant.MFLMS_PUBLISHED16, mu1=0.3, f=0.25, alpha=0.7)
        new, _ = step(state_of([0.0, 0.0]), [1.0, 2.0], 5.0, params)
        np.testing.assert_array_equal(new.w, [0.0, 0.0])

    def test_corrected_escapes_origin(self):
        params = params_of(Variant.MFLMS_CORRECTED, mu1=0.3, f=0.25, alpha=0.7)
        u, d = np.array([1.0, 2.0]), 5.0
        new, err = step(state_of([0.0, 0.0]), u, d, params)
        np.testing.assert_array_equal(new.w, 0.3 * err * u)

    def test_corrected_hand_value(self):
        params = params_of(Variant.MFLMS_CORRECTED, mu1=0.1, f=0.5, alpha=0.2)
        new, err = step(state_of([1.0], w_prev=[0.5]), [1.0], 2.0, params)
        assert err == 1.0
        assert new.w[0] == pytest.approx(1.3, abs=1e-15)

    def test_corrected_zero_weights_reduce_to_lms(self):
        params_c = params_of(Variant.MFLMS_CORRECTED, mu1=0.25, f=0.6, alpha=0.0)
        params_l = params_of(Variant.LMS, mu1=0.25)
        u, d = np.array([0.4, 1.7, -2.0]), -0.8
        new_c, _ = step(state_of([0.0] * 3), u, d, params_c)
        new_l, _ = step(state_of([0.0] * 3), u, d, params_l)
        np.testing.assert_array_equal(new_c.w, new_l.w)


class TestReductionChain:
    """Bit-level reduction identities on shared random inputs."""

    N_DRAWS = 1000

    def _pairs(self, variant_a, kwargs_a, variant_b, kwargs_b):
        rng = np.random.default_rng(99)
        for _ in range(self.N_DRAWS):
            m = int(rng.integers(1, 9))
            w = rng.normal(0, 2, m)
            v = rng.normal(0, 1, m)
            u = rng.normal(0, 1.5, m)
            d = float(rng.normal(0, 2))
            mu1 = float(rng.uniform(0.01, 0.4))
            f = float(rng.uniform(0.05, 0.95))
            muf = float(rng.uniform(0.0, 0.3))
            pa = FilterParams(mu1=mu1, variant=variant_a, f=f,
                              **{**dict(muf=muf, alpha=0.0), **kwargs_a})
            pb = FilterParams(mu1=mu1, variant=variant_b, f=f,
                              **{**dict(muf=muf, alpha=0.0), **kwargs_b})
            sa = state_of(w, w, v)
            sb = state_of(w, w, v)
            na, ea = step(sa, u, d, pa)
            nb, eb = step(sb, u, d, pb)
            assert ea == eb
            np.testing.assert_array_equal(na.w, nb.w)

    def test_assembled_alpha0_is_flms(self):
        self._pairs(Variant.MFLMS_ASSEMBLED, dict(alpha=0.0), Variant.FLMS, {})

    def test_flms_muf0_is_lms(self):
        self._pairs(Variant.FLMS, dict(muf=0.0), Variant.LMS, dict(muf=0.0))

    def test_assembled_muf0_is_momentum(self):
        rng = np.random.default_rng(123)
        alpha = float(rng.uniform(0, 0.95))
        self._pairs(
            Variant.MFLMS_ASSEMBLED, dict(muf=0.0, alpha=alpha),
            Variant.MOMENTUM_LMS, dict(muf=0.0, alpha=alpha),
        )

    def test_momentum_alpha0_is_lms(self):
        self._pairs(Variant.MOMENTUM_LMS, dict(muf=0.0), Variant.LMS, dict(muf=0.0))

    def test_assembled_muf0_alpha0_is_lms(self):
        self._pairs(
            Variant.MFLMS_ASSEMBLED, dict(muf=0.0, alpha=0.0),
            Variant.LMS, dict(muf=0.0),
        )


class TestDiscrepancyIdentity:
    def test_corrected_minus_published_is_plain_gradient(self):
        # Both collapsed forms read mu1 where the others read
        # muf/Gamma(2-f), so they differ by exactly mu1*e*u.
        rng = np.random.default_rng(42)
        for _ in range(1000):
            m = int(rng.integers(1, 9))
            w = rng.normal(0, 1.5, m)
            w_prev = rng.normal(0, 1.5, m)
            u = rng.normal(0, 1.5, m)
            d = float(rng.normal(0, 2))
            mu1 = float(rng.uniform(0.01, 0.4))
            f = float(rng.uniform(0.05, 0.95))
            alpha = float(rng.uniform(0, 0.95))
            pc = FilterParams(mu1=mu1, muf=0.0, f=f, alpha=alpha,
                              variant=Variant.MFLMS_CORRECTED)
            pp = FilterParams(mu1=mu1, muf=0.0, f=f, alpha=alpha,
                              variant=Variant.MFLMS_PUBLISHED16)
            nc, ec = step(state_of(w, w_prev), u, d, pc)
            np_, rp = step(state_of(w, w_prev), u, d, pp)
            expected = mu1 * ec * u
            diff = nc.w - np_.w
            # The residual is rounding at the weight scale, so measure
            # relative to the larger of the update and the weights.
            scale = max(np.linalg.norm(expected), np.linalg.norm(w))
            assert np.linalg.norm(diff - expected) <= 1e-14 * scale


class TestErrorDefinition:
    def test_error_is_pre_update_residual(self):
        rng = np.random.default_rng(31)
        for variant in Variant:
            state, u, d, params = random_case(rng, variant)
            w_before = state.w.copy()
            _, err = step(state, u, d, params)
            assert err == float(d - (u * w_before).sum())


class TestStepOracle:
    def test_all_variants_match_naive_oracle(self):
        rng = np.random.default_rng(77)
        variants = list(Variant)
        for i in range(1000):
            variant = variants[i % len(variants)]
            state, u, d, params = random_case(rng, variant)
            w_exp, v_exp, e_exp = naive_step(
                variant, state.w, state.w_prev, state.v, u, d,
                params.mu1, params.muf, params.f, params.alpha,
            )
            new, err = step(state, u, d, params)
            assert err == pytest.approx(e_exp, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(new.w, w_exp, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(new.v, v_exp, rtol=1e-12, atol=1e-12)


class TestKernel:
    """The batched in-place kernel the experiment engine drives."""

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_batch_rows_match_unbatched_step_and_oracle(self, variant):
        rng = np.random.default_rng(list(Variant).index(variant))
        for _ in range(50):
            params = random_case(rng, variant)[3]
            rows, m = int(rng.integers(1, 12)), int(rng.integers(1, 9))
            w = rng.normal(0, 2, (rows, m))
            w_prev = rng.normal(0, 2, (rows, m))
            v = rng.normal(0, 1, (rows, m))
            u = rng.normal(0, 1.5, m)
            d = rng.normal(0, 2, rows)
            v_new, out = v.copy(), w_prev.copy()
            e = advance(update_rule(params), w, out, v_new, u, d)
            for r in range(rows):
                new, err = step(state_of(w[r], w_prev[r], v[r]), u, d[r], params)
                assert e[r] == err
                np.testing.assert_array_equal(out[r], new.w)
                np.testing.assert_array_equal(v_new[r], new.v)
                w_exp, v_exp, e_exp = naive_step(
                    variant, w[r], w_prev[r], v[r], u, d[r],
                    params.mu1, params.muf, params.f, params.alpha,
                )
                assert e[r] == pytest.approx(e_exp, rel=1e-12, abs=1e-12)
                np.testing.assert_allclose(out[r], w_exp, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(v_new[r], v_exp, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_in_place_step_matches_pure_step(self, variant):
        # The engine's path: the state's buffers are reused and swapped.
        rng = np.random.default_rng(17 + list(Variant).index(variant))
        params = random_case(rng, variant)[3]
        w = rng.normal(0, 2, (5, 3))
        state = FilterState(w=w, w_prev=rng.normal(0, 2, (5, 3)), v=rng.normal(0, 1, (5, 3)))
        buffers = {id(state.w), id(state.w_prev), id(state.v)}
        pure = FilterState(w=state.w.copy(), w_prev=state.w_prev.copy(), v=state.v.copy())
        for k in range(3):
            u, d = rng.normal(0, 1.5, 3), rng.normal(0, 2, 5)
            pure, err = step(pure, u, d, params)
            np.testing.assert_array_equal(step(state, u, d, params, in_place=True), err)
            np.testing.assert_array_equal(state.w, pure.w)
            np.testing.assert_array_equal(state.w_prev, pure.w_prev)
            np.testing.assert_array_equal(state.v, pure.v)
            assert state.n == pure.n == k + 1
        assert {id(state.w), id(state.w_prev), id(state.v)} == buffers

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_workspace_steps_match_allocating_steps(self, variant):
        # The engine's workspace, also once its batch has shrunk to the
        # leading rows, gives the bits of a step that allocates its own.
        rng = np.random.default_rng(41 + list(Variant).index(variant))
        params = random_case(rng, variant)[3]
        buffers = rng.normal(0, 2, (3, 8, 30))
        state = FilterState(*(b.T for b in buffers))
        pure = FilterState(*(a.copy() for a in (state.w, state.w_prev, state.v)))
        work = workspace(state.w)
        for rows in (30, 30, 17, 17, 5):
            state.w, state.w_prev, state.v = (a[:rows] for a in (state.w, state.w_prev, state.v))
            pure.w, pure.w_prev, pure.v = (a[:rows] for a in (pure.w, pure.w_prev, pure.v))
            work = tuple(a[:rows] for a in work)
            u, d = rng.normal(0, 1.5, 8), rng.normal(0, 2, rows)
            e = step(state, u, d, params, in_place=True, work=work)
            np.testing.assert_array_equal(e, step(pure, u, d, params, in_place=True))
            for a, b in zip((state.w, state.w_prev, state.v), (pure.w, pure.w_prev, pure.v)):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_warm_step_with_workspace_allocates_no_rows_by_m_array(self, variant):
        # A (1000, 8) batch array takes 64,000 bytes.  Measured peak with
        # numpy 2.4.6: 137,352 bytes for every variant, the two 64 KiB
        # iterator buffers of a broadcasting multiply plus row vectors;
        # the same step allocating its scratch peaks at 337,760.
        rng = np.random.default_rng(53 + list(Variant).index(variant))
        params = random_case(rng, variant)[3]
        state = FilterState(*(b.T for b in rng.normal(0, 2, (3, 8, 1000))))
        work = workspace(state.w)
        u, d = rng.normal(0, 1.5, 8), rng.normal(0, 2, 1000)
        step(state, u, d, params, in_place=True, work=work)
        tracemalloc.start()
        try:
            step(state, u, d, params, in_place=True, work=work)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 160_000


class TestLayout:
    """The kernel gives the same bits on a row-major batch and on the
    transposed view of a component-major buffer, as the engine holds it."""

    @pytest.mark.parametrize("m", [*range(1, 21), 64, 128, 129, 300])
    def test_pairwise_sum_matches_numpy_sum(self, m):
        rng = np.random.default_rng(m)
        # Magnitudes spread over 16 decades make any change of order show.
        x = rng.normal(0, 1, (37, m)) * 10.0 ** rng.integers(-8, 9, (37, m))
        expected = x.sum(axis=-1).view(np.int64)
        for layout in (x, np.asfortranarray(x)):
            np.testing.assert_array_equal(_pairwise_sum(layout).view(np.int64), expected)
        assert np.float64(_pairwise_sum(x[5])).view(np.int64) == expected[5]

    def test_pairwise_sum_keeps_numpy_signed_zero(self):
        x = np.full((3, 9), -0.0)
        np.testing.assert_array_equal(np.signbit(_pairwise_sum(x.T.copy().T)), np.signbit(x.sum(axis=-1)))

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_component_major_views_match_row_major(self, variant):
        rng = np.random.default_rng(31 + list(Variant).index(variant))
        for _ in range(20):
            params = random_case(rng, variant)[3]
            rows, m = int(rng.integers(1, 40)), int(rng.integers(1, 20))
            arrays = [rng.normal(0, 2, (rows, m)) for _ in range(3)]
            u, d = rng.normal(0, 1.5, m), rng.normal(0, 2, rows)
            views = [np.ascontiguousarray(a.T).T for a in arrays]
            e_row = advance(update_rule(params), *arrays, u, d)
            e_col = advance(update_rule(params), *views, u, d)
            np.testing.assert_array_equal(e_col, e_row)
            for a, b in zip(views, arrays):
                np.testing.assert_array_equal(a, b)


class TestGuardsAndErrors:
    def test_divergence_guard_raises_unbatched(self):
        params = params_of(Variant.LMS, mu1=1.0)
        state = state_of([WEIGHT_LIMIT * 0.999])
        with pytest.raises(DivergenceError):
            step(state, [1.0], 3.0 * WEIGHT_LIMIT, params)

    def test_divergence_mask_batched(self):
        params = params_of(Variant.LMS, mu1=1.0)
        w = np.array([[WEIGHT_LIMIT * 0.999], [0.0]])
        state = FilterState(w=w, w_prev=w.copy(), v=np.zeros_like(w))
        new, _ = step(state, np.array([1.0]), np.array([3.0 * WEIGHT_LIMIT, 0.5]), params)
        mask = diverged_rows(new.w)
        assert mask.tolist() == [True, False]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_divergence_mask_flags_non_finite(self, bad):
        w = np.array([[bad, 0.0], [0.0, 0.0], [WEIGHT_LIMIT, -WEIGHT_LIMIT]])
        assert diverged_rows(w).tolist() == [True, False, False]

    @pytest.mark.parametrize("layout", ["row-major", "component-major"])
    def test_divergence_mask_matches_magnitude_test(self, layout):
        # Every edge value, in every column: the mask equals the textbook
        # "not |w| <= WEIGHT_LIMIT in some column".
        edges = [math.nan, math.inf, -math.inf, WEIGHT_LIMIT, -WEIGHT_LIMIT,
                 np.nextafter(WEIGHT_LIMIT, math.inf), np.nextafter(-WEIGHT_LIMIT, -math.inf),
                 np.nextafter(WEIGHT_LIMIT, 0.0), 0.0, -0.0, 1.0]
        rows = np.zeros((len(edges) * 3, 3))
        for i, value in enumerate(edges):
            rows[3 * i + np.arange(3), np.arange(3)] = value
        w = rows if layout == "row-major" else np.ascontiguousarray(rows.T).T
        with np.errstate(invalid="ignore"):
            expected = ~(np.abs(w) <= WEIGHT_LIMIT).all(axis=-1)
        np.testing.assert_array_equal(diverged_rows(w), expected)
        assert expected.sum() == 3 * 5

    @pytest.mark.parametrize("layout", ["row-major", "component-major"])
    def test_divergence_mask_allocates_no_float_temporary(self, layout):
        # A 4000-row call: measured 64,296 traced bytes with numpy 2.4.6,
        # two (rows, M) boolean comparisons; |w| alone would add 256,000.
        w = np.zeros((4000, 8)) if layout == "row-major" else np.zeros((8, 4000)).T
        w[17, 3] = math.nan
        diverged_rows(w)
        tracemalloc.start()
        try:
            mask = diverged_rows(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mask.sum() == 1 and mask[17]
        assert peak < 2 * w.size + 4096

    def test_divergence_guard_raises_on_nan_unbatched(self):
        params = params_of(Variant.LMS, mu1=1.0)
        with pytest.raises(DivergenceError):
            step(state_of([0.0]), [1.0], math.nan, params)

    def test_dimension_mismatch(self):
        params = params_of(Variant.LMS)
        with pytest.raises(ValueError):
            step(state_of([0.0, 0.0]), [1.0], 1.0, params)

    def test_state_shape_validation(self):
        with pytest.raises(ValueError):
            FilterState(w=np.zeros(3), w_prev=np.zeros(2), v=np.zeros(3))
