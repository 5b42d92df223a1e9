"""Kernel tests: Gamma against a high-precision oracle, the properties
of the fractional magnitude ``|w|**p`` that the batched kernel forms: from
square roots at the default orders' exponents, with ``np.power`` elsewhere,
and the bits of a step and of the checkpoint metrics at any size of
numpy's ufunc buffer.

Expected values marked "frozen" were computed with mpmath at 50 digits
(the oracle is also evaluated live so the frozen literals cannot drift).
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmslab.filters import KINDS, FilterParams, Form, Rule, Variant, advance, gamma, workspace
from lmslab.metrics import nwd
from lmslab.signal_model import FREQUENCIES, THETA_APHI, THETA_BC, aphi_from_bc, regressor

mpmath.mp.dps = 50


def oracle_gamma(x: float) -> float:
    return float(mpmath.gamma(mpmath.mpf(repr(x))))


class TestGamma:
    def test_integer_points(self):
        assert abs(gamma(1.0) - 1.0) <= 1e-12
        assert abs(gamma(2.0) - 1.0) <= 1e-12

    def test_half_point_frozen(self):
        # Gamma(1.5) = sqrt(pi)/2, frozen from the 50-digit oracle.
        assert gamma(1.5) == pytest.approx(0.8862269254527580, abs=1e-12)
        assert gamma(1.5) == pytest.approx(float(mpmath.sqrt(mpmath.pi) / 2), abs=1e-12)

    def test_quarter_points_frozen(self):
        assert gamma(1.25) == pytest.approx(0.9064024770554771, abs=1e-12)
        assert gamma(1.75) == pytest.approx(0.9190625268488832, abs=1e-12)

    @pytest.mark.parametrize("x", [0.1, 0.25, 0.5, 0.77, 1.0, 1.31, 1.9, 2.5, 3.0])
    def test_against_oracle_across_domain(self, x):
        assert gamma(x) == pytest.approx(oracle_gamma(x), abs=1e-12)

    def test_recurrence_property(self):
        # Gamma(x + 1) = x * Gamma(x) on 100 random points in (0.5, 2].
        rng = np.random.default_rng(2024)
        for x in rng.uniform(0.5, 2.0, 100):
            x = float(x)
            lhs = gamma(x + 1.0)
            rhs = x * gamma(x)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5, 3.0001, math.inf, math.nan])
    def test_domain_errors(self, x):
        with pytest.raises(ValueError):
            gamma(x)


def abs_pow(w, p: float) -> np.ndarray:
    """``|w|**p`` as :func:`advance` forms it, read from its gradient scratch.

    Each value ``x`` is a row ``[x, -x]`` stepped by a plain rule with
    ``a = 0`` and ``b = 1`` at ``u = [1, 1]`` and ``d = 1``: the error
    ``1 - (x + -x)`` is exactly 1, so the gradient is ``|w|**p`` unscaled.
    """
    x = np.asarray(w, dtype=np.float64)
    rows = np.stack([x, -x], axis=-1)
    work = workspace(rows)
    advance(Rule(Form.PLAIN, 0.0, 1.0, p, 0.0), rows, np.empty_like(rows), np.empty_like(rows),
            np.ones(2), np.ones(x.shape), work)
    return work[0][..., 0].copy()


class TestAbsPow:
    def test_p_one_is_absolute_value(self):
        np.testing.assert_array_equal(abs_pow([-2.0, 0.0, 3.0], 1.0), [2.0, 0.0, 3.0])

    def test_p_zero_convention(self):
        # x**0 == 1 including 0**0.
        np.testing.assert_array_equal(abs_pow([5.0, -5.0], 0.0), [1.0, 1.0])
        np.testing.assert_array_equal(abs_pow([0.0], 0.0), [1.0])

    def test_square_root(self):
        np.testing.assert_array_equal(abs_pow([-4.0], 0.5), [2.0])

    def test_zero_base_positive_exponent(self):
        np.testing.assert_array_equal(abs_pow([0.0], 0.75), [0.0])

    def test_fractional_power_frozen(self):
        # 0.3**0.75 = exp(0.75 * ln 0.3), frozen from the 50-digit oracle.
        expected = 0.4053600464421103
        live = float(mpmath.e ** (mpmath.mpf("0.75") * mpmath.log(mpmath.mpf("0.3"))))
        assert expected == pytest.approx(live, abs=1e-15)
        assert abs_pow([0.3], 0.75)[0] == pytest.approx(expected, rel=1e-12)

    def test_output_shape_and_sign(self):
        rng = np.random.default_rng(7)
        w = rng.normal(0, 3, size=64)
        out = abs_pow(w, 0.6)
        assert out.shape == w.shape
        assert np.all(out >= 0)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=16),
           st.floats(0.0, 1.0))
    def test_even_function(self, values, p):
        w = np.asarray(values)
        np.testing.assert_array_equal(abs_pow(w, p), abs_pow(-w, p))

    def test_monotone_in_magnitude(self):
        rng = np.random.default_rng(11)
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            mags = np.sort(np.abs(rng.normal(0, 2, 50)))
            out = abs_pow(mags, p)
            assert np.all(np.diff(out) >= 0)

    @pytest.mark.parametrize("p, formula", [
        (0.25, lambda x: np.sqrt(np.sqrt(x))),
        (0.5, np.sqrt),
        (0.75, lambda x: np.sqrt(x) * np.sqrt(np.sqrt(x))),
    ])
    def test_quarter_exponents_are_square_roots(self, p, formula):
        # The default fractional orders' exponents come from correctly
        # rounded square roots and a product, so their bits do not depend
        # on which of numpy's SIMD loops np.power would take.
        rng = np.random.default_rng(5)
        w = np.concatenate([rng.normal(0, 3, 1000), [0.0, -0.0, 5e-324, 2.5e-310, 1e-300, 1e300, -1e308]])
        np.testing.assert_array_equal(abs_pow(w, p), formula(np.abs(w)))

    @pytest.mark.parametrize("p, ulps", [(0.25, 1.0), (0.5, 0.5), (0.75, 2.5)])
    def test_quarter_exponents_against_oracle(self, p, ulps):
        # Within a few ulp of the 50-digit power: sqrt is correctly rounded
        # (0.5 ulp), its square root adds at most half an ulp more, and the
        # product of the two rounds once more.  An infinite weight cannot be
        # read here (its row's error is NaN); the engine's guard freezes
        # such a row before it steps again.
        sample = [0.0, 2.5e-310, 1e-300, 0.3, 1e6, 1e300]
        got = abs_pow(sample, p)
        assert got[0] == 0.0
        for x, y in zip(sample[1:], got[1:]):
            exact = mpmath.mpf(x) ** mpmath.mpf(p)
            assert abs(mpmath.mpf(y) - exact) <= ulps * math.ulp(float(exact)), (x, y)
        assert np.isnan(abs_pow([math.nan], p)).all()

    def test_other_exponents_keep_numpy_power(self):
        w = np.random.default_rng(9).normal(0, 3, 1000)
        np.testing.assert_array_equal(abs_pow(w, 0.6), np.power(np.abs(w), 0.6))

    @pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
    def test_exponent_range(self, p):
        # The kernel takes p = 1 - f unchecked: FilterParams refuses each f
        # that would give it an exponent outside (0, 1).
        with pytest.raises(ValueError, match="^f: must"):
            FilterParams(mu1=0.1, muf=None, f=1.0 - p, alpha=0.0, variant=Variant.FLMS)


def at_buffer(size: int, f, *args):
    """``f(*args)`` with numpy's ufunc buffer holding ``size`` elements."""
    caller = np.setbufsize(size)
    try:
        return f(*args)
    finally:
        np.setbufsize(caller)


@st.composite
def component_major_batches(draw):
    """A kernel branch's rule and a component-major batch, as the engine holds one."""
    kind = KINDS[draw(st.sampled_from(list(Variant)))]
    columns = draw(st.sets(st.sampled_from(["a", "b", "alpha"])))
    used = {"a": kind.a is not None, "b": kind.b is not None, "alpha": kind.form is not Form.PLAIN}
    rows = draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def coefficient(name, lo, hi):
        if not used[name]:
            return 0.0
        return rng.uniform(lo, hi, (rows, 1)) if name in columns else float(rng.uniform(lo, hi))

    rule = Rule(kind.form, coefficient("a", 1e-3, 0.1), coefficient("b", 1e-3, 0.1),
                draw(st.sampled_from([0.25, 0.5, 0.75, 0.6])), coefficient("alpha", 0.1, 0.9))
    # Rows past the batch: a [:rows] view of larger buffers is a batch
    # after frozen rows were compacted away.
    spare = draw(st.sampled_from([0, 1, 37, 400]))
    buffers = rng.normal(0.0, 3.0, (3, 8, rows + spare))
    u = regressor(FREQUENCIES, draw(st.integers(1, 1000)))
    return rule, buffers, u, rng.normal(0.0, 5.0, rows)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(component_major_batches())
def test_step_bits_do_not_depend_on_the_ufunc_buffer(batch):
    # The engine steps with a small ufunc buffer: every kernel output must
    # carry the same bits as at numpy's default, whatever the buffer.
    rule, buffers, u, d = batch

    def stepped():
        state = buffers.copy()
        w, w_prev, v = (x.T[:len(d)] for x in state)
        work = tuple(x[:len(d)] for x in workspace(state[0].T))
        return advance(rule, w, w_prev, v, u, d, work), w_prev, v

    want = at_buffer(8192, stepped)
    for size in (16, 256):
        for a, b in zip(at_buffer(size, stepped), want):
            np.testing.assert_array_equal(a, b)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(1, 8), st.integers(1, 600), st.integers(0, 2**32 - 1))
def test_checkpoint_metric_bits_do_not_depend_on_the_ufunc_buffer(slots, runs, seed):
    ck = np.random.default_rng(seed).normal(0.0, 3.0, (slots, runs, 8))

    def metrics():
        return nwd(aphi_from_bc(ck), THETA_APHI), nwd(ck, THETA_BC)

    want = at_buffer(8192, metrics)
    for size in (16, 256):
        for a, b in zip(at_buffer(size, metrics), want):
            np.testing.assert_array_equal(a, b)
