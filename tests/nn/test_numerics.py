"""Tests for the blessed guarded helpers and the stabilized kernels.

Two contracts:
- **Stability**: extreme inputs (huge logits, zeros, fully-masked rows)
  produce finite outputs and finite gradients.
- **Byte-identity**: well-conditioned inputs take the identical arithmetic
  path, bit-for-bit, so golden decode outputs cannot move.
"""

import numpy as np
import pytest

from repro.nn.numerics import (
    EXP_MAX,
    GATE_EPS,
    TINY,
    np_bernoulli_entropy,
    np_safe_div,
    np_safe_exp,
    np_safe_log,
    np_smoothed_log,
    safe_div,
    safe_exp,
    safe_log,
    safe_sqrt,
    saturating_sigmoid,
)
from repro.tensor import Tensor, check_gradients, log_softmax, sigmoid, softmax


def _t(values):
    return Tensor(np.asarray(values, dtype=float), requires_grad=True)


# ----------------------------------------------------------------------
# Stabilized softmax / log_softmax
# ----------------------------------------------------------------------
def test_softmax_byte_identical_on_well_conditioned_input():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(4, 7))
    got = softmax(Tensor(data.copy()), axis=-1).data
    reference = np.exp(data - data.max(axis=-1, keepdims=True))
    reference /= reference.sum(axis=-1, keepdims=True)
    np.testing.assert_array_equal(got, reference)  # bit-for-bit


def test_log_softmax_byte_identical_on_well_conditioned_input():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(3, 5))
    got = log_softmax(Tensor(data.copy()), axis=-1).data
    shifted = data - data.max(axis=-1, keepdims=True)
    reference = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    np.testing.assert_array_equal(got, reference)


def test_softmax_extreme_logits_stay_finite():
    x = _t([[1e9, 0.0, -1e9], [-1e9, -1e9, -1e9]])
    out = softmax(x, axis=-1)
    assert np.isfinite(out.data).all()
    out.sum().backward()
    assert np.isfinite(x.grad).all()


def test_softmax_fully_masked_row_returns_zeros():
    x = _t([[-np.inf, -np.inf], [0.0, 0.0]])
    out = softmax(x, axis=-1)
    np.testing.assert_array_equal(out.data[0], [0.0, 0.0])
    np.testing.assert_allclose(out.data[1], [0.5, 0.5])
    out.sum().backward()
    assert np.isfinite(x.grad[1]).all()


def test_log_softmax_fully_masked_row_is_neg_inf_not_nan():
    x = Tensor(np.array([[-np.inf, -np.inf], [1.0, 2.0]]))
    out = log_softmax(x, axis=-1)
    assert np.isneginf(out.data[0]).all()
    assert np.isfinite(out.data[1]).all()


def test_softmax_partial_mask_matches_renormalization():
    x = Tensor(np.array([[-np.inf, 1.0, 1.0]]))
    out = softmax(x, axis=-1).data
    np.testing.assert_allclose(out, [[0.0, 0.5, 0.5]])


def test_softmax_does_not_launder_nan():
    # NaN must propagate so divergence detection still fires downstream.
    out = softmax(Tensor(np.array([[np.nan, 1.0]])), axis=-1)
    assert np.isnan(out.data).any()


def test_softmax_gradcheck_still_passes():
    x = _t(np.random.default_rng(2).normal(size=(2, 4)))
    check_gradients(lambda: (softmax(x, axis=-1) * softmax(x, axis=-1)).sum(), [x])


# ----------------------------------------------------------------------
# Tensor helpers
# ----------------------------------------------------------------------
def test_safe_log_floors_zero():
    x = _t([0.0, 1.0])
    out = safe_log(x)
    assert out.data[0] == np.log(TINY)
    assert out.data[1] == 0.0
    out.sum().backward()
    assert np.isfinite(x.grad).all()


def test_safe_log_identity_inside_range():
    values = np.array([0.25, 0.5, 1.0])
    np.testing.assert_array_equal(safe_log(Tensor(values)).data, np.log(values))


def test_safe_exp_caps_overflow():
    out = safe_exp(_t([1000.0, 0.0]))
    assert np.isfinite(out.data).all()
    assert out.data[0] == np.exp(EXP_MAX)
    assert out.data[1] == 1.0


def test_safe_sqrt_clamps_negative_cancellation_noise():
    x = _t([-1e-18, 4.0])
    out = safe_sqrt(x)
    assert out.data[0] == 0.0
    assert out.data[1] == 2.0


def test_safe_div_guards_zero_denominator():
    out = safe_div(_t([1.0]), _t([0.0]))
    assert np.isfinite(out.data).all()
    assert out.data[0] == 1.0 / TINY


def test_safe_div_identity_on_healthy_denominator():
    np.testing.assert_array_equal(
        safe_div(Tensor(np.array([3.0])), Tensor(np.array([2.0]))).data, [1.5]
    )


def test_saturating_sigmoid_never_exactly_zero_or_one():
    x = _t([-1e9, 1e9, 0.0])
    out = saturating_sigmoid(x)
    assert out.data[0] == GATE_EPS
    assert out.data[1] == 1.0 - GATE_EPS
    assert out.data[2] == 0.5
    out.sum().backward()
    assert np.isfinite(x.grad).all()


def test_saturating_sigmoid_byte_identical_in_linear_region():
    values = np.linspace(-20, 20, 17)
    raw = sigmoid(Tensor(values.copy())).data
    clamped = saturating_sigmoid(Tensor(values.copy())).data
    np.testing.assert_array_equal(raw, clamped)


def test_helpers_gradcheck():
    x = _t([0.3, 0.7, 2.5])
    check_gradients(lambda: safe_log(x).sum(), [x])
    check_gradients(lambda: safe_exp(x).sum(), [x])
    check_gradients(lambda: safe_sqrt(x).sum(), [x])
    check_gradients(lambda: saturating_sigmoid(x).sum(), [x])


# ----------------------------------------------------------------------
# Array helpers
# ----------------------------------------------------------------------
def test_np_safe_log_and_smoothed_log():
    zeros = np.array([0.0, 1.0])
    assert np.isfinite(np_safe_log(zeros)).all()
    np.testing.assert_array_equal(np_smoothed_log(zeros), np.log(zeros + TINY))


def test_np_safe_exp_and_div():
    assert np.isfinite(np_safe_exp(np.array([1e4]))).all()
    assert np.isfinite(np_safe_div(np.array([1.0]), np.array([0.0]))).all()


def test_np_bernoulli_entropy_at_saturation():
    entropy = np_bernoulli_entropy(np.array([0.0, 0.5, 1.0]))
    assert np.isfinite(entropy).all()
    assert entropy[0] == pytest.approx(0.0, abs=1e-9)
    assert entropy[1] == pytest.approx(np.log(2.0))
    assert entropy[2] == pytest.approx(0.0, abs=1e-9)


def test_np_bernoulli_entropy_matches_legacy_arithmetic():
    # Must equal the historical inline formula bit-for-bit (gate stats).
    z = np.array([0.1, 0.42, 0.9999])
    clipped = np.clip(z, 1e-12, 1.0 - 1e-12)
    legacy = -(clipped * np.log(clipped) + (1 - clipped) * np.log(1 - clipped))
    np.testing.assert_array_equal(np_bernoulli_entropy(z), legacy)


# ----------------------------------------------------------------------
# Fused-kernel array twins: np_fast_sigmoid / np_stable_softmax
# ----------------------------------------------------------------------
def test_np_fast_sigmoid_matches_gate_formula_bytes():
    from repro.nn.numerics import np_fast_sigmoid

    x = np.linspace(-30.0, 30.0, 101)
    # Twin of the historical LSTM gate nonlinearity (plain formulation),
    # not of ops.sigmoid's split-sign kernel — those agree only to ulps.
    expected = 1.0 / (1.0 + np.exp(-x))
    np.testing.assert_array_equal(np_fast_sigmoid(x), expected)
    np.testing.assert_allclose(np_fast_sigmoid(x), sigmoid(Tensor(x)).data, rtol=1e-15)


def test_np_fast_sigmoid_saturates_and_propagates_nan():
    from repro.nn.numerics import np_fast_sigmoid

    assert np_fast_sigmoid(np.array([-1e4]))[0] == 0.0  # overflow -> correct limit
    assert np_fast_sigmoid(np.array([1e4]))[0] == 1.0
    assert np.isnan(np_fast_sigmoid(np.array([np.nan]))[0])  # never laundered


def test_np_stable_softmax_matches_tape_softmax_bytes():
    from repro.nn.numerics import np_stable_softmax

    rng = np.random.default_rng(0)
    for scores in [
        rng.standard_normal((4, 7)),
        rng.standard_normal((4, 7)) * 1e4,  # extreme logits
        np.where(rng.random((4, 7)) < 0.4, -1e9, rng.standard_normal((4, 7))),
    ]:
        expected = softmax(Tensor(scores), axis=1).data
        np.testing.assert_array_equal(np_stable_softmax(scores, axis=1), expected)


def test_np_stable_softmax_fully_masked_row_returns_zeros():
    from repro.nn.numerics import np_stable_softmax

    scores = np.array([[-np.inf, -np.inf], [0.0, 1.0]])
    result = np_stable_softmax(scores, axis=1)
    np.testing.assert_array_equal(result[0], 0.0)
    assert result[1].sum() == pytest.approx(1.0)
    # identical to the tape op's guarded kernel
    np.testing.assert_array_equal(result, softmax(Tensor(scores), axis=1).data)


def test_np_stable_softmax_does_not_launder_nan():
    from repro.nn.numerics import np_stable_softmax

    scores = np.array([[0.0, np.nan, 1.0]])
    assert np.isnan(np_stable_softmax(scores, axis=1)).any()


def test_np_log_softmax_matches_tape_log_softmax_bytes():
    from repro.nn.numerics import np_log_softmax

    rng = np.random.default_rng(2)
    for scores in [
        rng.standard_normal((4, 7)),
        rng.standard_normal((4, 7)) * 1e4,  # extreme logits
        np.where(rng.random((4, 7)) < 0.4, -1e9, rng.standard_normal((4, 7))),
        np.array([[-np.inf, -np.inf, -np.inf], [0.0, -np.inf, 1.0]]),  # fully masked row
    ]:
        expected = log_softmax(Tensor(scores), axis=1).data
        np.testing.assert_array_equal(np_log_softmax(scores, axis=1), expected)
        assert np_log_softmax(scores, axis=1).tobytes() == expected.tobytes()


def test_np_log_softmax_does_not_launder_nan():
    from repro.nn.numerics import np_log_softmax

    assert np.isnan(np_log_softmax(np.array([[0.0, np.nan, 1.0]]), axis=1)).all()


def test_np_stable_sigmoid_matches_tape_sigmoid_bytes():
    from repro.nn.numerics import np_saturating_sigmoid, np_stable_sigmoid

    rng = np.random.default_rng(3)
    for x in [
        np.linspace(-40.0, 40.0, 161),
        rng.standard_normal((5, 6)) * 8.0,
        np.array([-1e4, -0.0, 0.0, 1e4, -800.0, 800.0]),
    ]:
        expected = sigmoid(Tensor(x)).data
        assert np_stable_sigmoid(x).tobytes() == expected.tobytes()
        assert np_saturating_sigmoid(x).tobytes() == saturating_sigmoid(Tensor(x)).data.tobytes()


def test_np_stable_sigmoid_propagates_nan():
    from repro.nn.numerics import np_stable_sigmoid

    assert np.isnan(np_stable_sigmoid(np.array([np.nan, 1.0, -1.0]))[0])
