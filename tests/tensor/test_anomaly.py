"""Tests for tape-level anomaly detection and op provenance."""

import numpy as np
import pytest

from repro.observability import MemorySink, Telemetry, use_telemetry
from repro.tensor import (
    NumericalAnomaly,
    Tensor,
    detect_anomaly,
    exp,
    is_anomaly_enabled,
    log,
    provenance_of,
    softmax,
    sqrt,
    tanh,
)


def test_disabled_by_default():
    assert not is_anomaly_enabled()
    x = Tensor(np.array([-1.0]), requires_grad=True)
    out = log(x)  # produces nan silently when the mode is off
    assert np.isnan(out.data[0])
    assert provenance_of(out) is None


def test_context_toggles_flag():
    with detect_anomaly():
        assert is_anomaly_enabled()
    assert not is_anomaly_enabled()


def test_forward_nan_names_culprit_op():
    x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
    with detect_anomaly(emit_telemetry=False):
        with pytest.raises(NumericalAnomaly) as excinfo:
            log(x)
    anomaly = excinfo.value
    assert anomaly.op == "log"
    assert anomaly.phase == "forward"
    assert anomaly.kind == "nan"
    assert "test_anomaly.py" in anomaly.record.site


def test_forward_inf_detected():
    x = Tensor(np.array([1000.0]), requires_grad=True)
    with detect_anomaly(emit_telemetry=False):
        with pytest.raises(NumericalAnomaly) as excinfo:
            exp(x)
    assert excinfo.value.op == "exp"
    assert excinfo.value.kind == "inf"


def test_causal_chain_tracks_producers():
    x = Tensor(np.array([500.0]), requires_grad=True)
    with detect_anomaly(emit_telemetry=False):
        with pytest.raises(NumericalAnomaly) as excinfo:
            doubled = x * 2.0
            exp(doubled)  # exp(1000) -> inf
    chain_ops = [record.op for record in excinfo.value.chain]
    assert chain_ops[0] == "exp"
    assert "__mul__" in chain_ops


def test_backward_anomaly_attributed_to_op():
    # sqrt'(0) = 0.5 / 0 = inf: forward is clean, backward mints the inf.
    x = Tensor(np.array([0.0, 4.0]), requires_grad=True)
    with detect_anomaly(emit_telemetry=False):
        out = sqrt(x).sum()
        with pytest.raises(NumericalAnomaly) as excinfo:
            out.backward()
    anomaly = excinfo.value
    assert anomaly.phase == "backward"
    assert anomaly.kind == "inf"
    assert anomaly.op == "sqrt"


def test_check_backward_only():
    x = Tensor(np.array([-1.0]), requires_grad=True)
    with detect_anomaly(check_forward=False, emit_telemetry=False):
        out = log(x)  # nan allowed through
        assert np.isnan(out.data[0])


def test_clean_graph_raises_nothing():
    x = Tensor(np.array([0.5, -0.5]), requires_grad=True)
    with detect_anomaly(emit_telemetry=False):
        loss = (tanh(x) * tanh(x)).sum()
        loss.backward()
    assert np.isfinite(x.grad).all()


def test_provenance_recorded_inside_context():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with detect_anomaly(emit_telemetry=False):
        out = softmax(x, axis=-1)
    record = provenance_of(out)
    assert record is not None
    assert record.op == "softmax"
    assert record.output_shape == (2,)


def test_poisoned_input_noted_in_message():
    x = Tensor(np.array([np.nan]), requires_grad=True)
    with detect_anomaly(emit_telemetry=False):
        with pytest.raises(NumericalAnomaly, match="already non-finite"):
            x * 2.0


def test_telemetry_emission():
    sink = MemorySink()
    hub = Telemetry([sink])
    x = Tensor(np.array([-1.0]), requires_grad=True)
    with use_telemetry(hub):
        with detect_anomaly():
            with pytest.raises(NumericalAnomaly):
                log(x)
    markers = [r for r in sink.of_kind("run") if r["name"] == "anomaly"]
    assert len(markers) == 1
    payload = markers[0]["data"]
    assert payload["op"] == "log"
    assert payload["phase"] == "forward"
    assert payload["chain"]
    counters = [r for r in sink.of_kind("counter") if r["name"] == "anomaly.forward"]
    assert counters


def test_nested_contexts_do_not_interfere():
    x = Tensor(np.array([-1.0]), requires_grad=True)
    with detect_anomaly(emit_telemetry=False):
        with detect_anomaly(emit_telemetry=False):
            with pytest.raises(NumericalAnomaly):
                log(x)
        assert is_anomaly_enabled()
    assert not is_anomaly_enabled()


def test_scatter_overflow_in_indexed_accumulation_detected():
    """Regression: embedding/gather backwards write into the sparse grad
    buffer with ``np.add.at``, bypassing ``_accumulate_grad``. Each incoming
    gradient here is finite, so the per-node check passes — the inf is
    *minted inside the accumulation* (two ~1e308 updates at one row).
    The seed code raised nothing and silently poisoned the buffer; the
    scatter path must check the written region."""
    from repro.tensor import embedding_lookup

    weight = Tensor(np.zeros((4, 2)), requires_grad=True)
    out = embedding_lookup(weight, np.array([1, 1]))  # duplicate row
    with detect_anomaly(emit_telemetry=False):
        with pytest.raises(NumericalAnomaly) as excinfo:
            with np.errstate(over="ignore"):
                out.backward(np.full((2, 2), 1e308))
    assert excinfo.value.kind == "inf"
    assert excinfo.value.phase == "backward"


def test_scatter_checks_incoming_gradient_too():
    """A NaN arriving at the scatter site is reported even when the target
    buffer write alone would mask it (NaN + 0 scatter regions)."""
    from repro.tensor import gather_rows

    x = Tensor(np.zeros((3, 4)), requires_grad=True)
    picked = gather_rows(x, np.array([0, 2, 1]))
    seed = np.array([1.0, np.nan, 1.0])
    with detect_anomaly(emit_telemetry=False):
        with pytest.raises(NumericalAnomaly) as excinfo:
            picked.backward(seed)
    assert excinfo.value.kind == "nan"


def test_slice_backward_through_checked_scatter():
    """Basic-slice backwards also route through the checked scatter path
    and stay correct (values accumulate exactly as before the fix)."""
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    (x[:, 1:] * 2.0).sum().backward()
    np.testing.assert_array_equal(x.grad, [[0.0, 2.0, 2.0], [0.0, 2.0, 2.0]])


def test_lstm_cell_step_reports_its_own_name():
    """The fused decode cell is named after its public kernel, not a
    private helper, when it mints an inf (an inf cell state carries
    through the forget gate)."""
    from repro.nn import LSTMCell

    cell = LSTMCell(2, 3, np.random.default_rng(0))
    x = Tensor(np.ones((1, 2)), requires_grad=True)
    h = Tensor(np.zeros((1, 3)))
    c = Tensor(np.array([[np.inf, 0.0, 0.0]]))
    with detect_anomaly(emit_telemetry=False):
        with pytest.raises(NumericalAnomaly) as excinfo:
            cell(x, (h, c))
    assert excinfo.value.op == "lstm_cell_step"
    assert excinfo.value.kind == "inf"
    assert "already non-finite" in str(excinfo.value)


def test_lstm_sequence_reports_its_own_name():
    """A whole encoder layer is one ``lstm_sequence`` node; an inf initial
    cell state surfaces there, attributed to the LSTM's call site."""
    from repro.nn import LSTM

    lstm = LSTM(2, 3, num_layers=1, rng=np.random.default_rng(1))
    x = Tensor(np.ones((1, 4, 2)), requires_grad=True)
    h0 = Tensor(np.zeros((1, 3)))
    c0 = Tensor(np.array([[np.inf, 0.0, 0.0]]))
    with detect_anomaly(emit_telemetry=False):
        with pytest.raises(NumericalAnomaly) as excinfo:
            lstm(x, initial_states=[(h0, c0)])
    assert excinfo.value.op == "lstm_sequence"
    assert excinfo.value.kind == "inf"
    assert "lstm.py" in excinfo.value.record.site
