"""Microbenchmarks for the performance-critical kernels.

These give pytest-benchmark stable per-operation timings: the fused LSTM
step (forward and forward+backward), the attention layer, a full ACNN
training step, beam-search decode throughput (batched engine vs the
per-example baseline, at batch sizes 1/8/32), and the corpus metrics.
The decode-throughput comparison is also written to
``results/decode_throughput.txt`` so regressions are visible in the
committed artifacts.
"""

import time

import numpy as np
import pytest

from conftest import write_result

from repro.data import BatchIterator, QGDataset, collate, generate_corpus
from repro.data.synthetic import SyntheticConfig
from repro.decoding import batched_beam_decode, beam_decode_example
from repro.metrics import corpus_bleu, corpus_rouge_l
from repro.models import ModelConfig, build_model
from repro.nn import GlobalAttention, LSTMCell
from repro.nn.functional import lstm_cell_step
from repro.tensor import Tensor, no_grad


@pytest.fixture(scope="module")
def micro_setup():
    corpus = generate_corpus(SyntheticConfig(num_train=64, num_dev=8, num_test=8, seed=3))
    encoder_vocab, decoder_vocab = QGDataset.build_vocabs(corpus.train, 500, 120)
    dataset = QGDataset(corpus.train, encoder_vocab, decoder_vocab)
    batch = collate(dataset.encoded[:32], pad_id=0)
    config = ModelConfig(embedding_dim=32, hidden_size=48, num_layers=2, dropout=0.0, seed=0)
    model = build_model("acnn", config, len(encoder_vocab), len(decoder_vocab))
    return model, dataset, batch


def test_fused_lstm_step_forward(benchmark):
    cell = LSTMCell(48, 48, np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).standard_normal((64, 48)))
    h, c = cell.initial_state(64)
    benchmark(lambda: lstm_cell_step(x, h, c, cell.weight_ih, cell.weight_hh, cell.bias))


def test_fused_lstm_step_with_backward(benchmark):
    cell = LSTMCell(48, 48, np.random.default_rng(0))
    x_data = np.random.default_rng(1).standard_normal((64, 48))

    def step():
        x = Tensor(x_data, requires_grad=True)
        h, c = cell.initial_state(64)
        h_new, c_new = lstm_cell_step(x, h, c, cell.weight_ih, cell.weight_hh, cell.bias)
        (h_new.sum() + c_new.sum()).backward()
        cell.zero_grad()

    benchmark(step)


def test_global_attention_forward(benchmark):
    attention = GlobalAttention(48, 96, np.random.default_rng(0))
    d = Tensor(np.random.default_rng(1).standard_normal((32, 48)))
    h = Tensor(np.random.default_rng(2).standard_normal((32, 100, 96)))
    benchmark(lambda: attention(d, h))


def test_acnn_training_step(benchmark, micro_setup):
    model, _, batch = micro_setup
    from repro.optim import SGD, clip_grad_norm

    optimizer = SGD(model.parameters(), lr=0.1)

    def step():
        model.train()
        loss = model.loss(batch)
        loss.backward()
        clip_grad_norm(model.parameters(), 5.0)
        optimizer.step()
        model.zero_grad()

    benchmark(step)


def test_acnn_loss_forward_only(benchmark, micro_setup):
    model, _, batch = micro_setup
    model.eval()
    from repro.tensor import no_grad

    def forward():
        with no_grad():
            return model.loss(batch).item()

    benchmark(forward)


def test_beam_decode_batch(benchmark, micro_setup):
    model, dataset, _ = micro_setup
    small = collate(dataset.encoded[:8], pad_id=0)
    benchmark(lambda: batched_beam_decode(model, small, beam_size=3, max_length=12))


def _per_example_beam(model, batch, beam_size, max_length):
    """The pre-engine decode strategy: one independent beam per example."""
    model.eval()
    with no_grad():
        context = model.encode(batch)
        return [
            beam_decode_example(
                model, context, index, beam_size=beam_size, max_length=max_length
            )
            for index in range(context.batch_size)
        ]


@pytest.mark.parametrize("batch_size", [1, 8, 32])
def test_batched_beam_decode_throughput(benchmark, micro_setup, batch_size):
    model, dataset, _ = micro_setup
    batch = collate(dataset.encoded[:batch_size], pad_id=0)
    benchmark(lambda: batched_beam_decode(model, batch, beam_size=3, max_length=12))


def test_decode_throughput_report(micro_setup, results_dir):
    """Batched engine vs per-example baseline, written to results/.

    The acceptance bar for the engine: >= 2x throughput over the
    per-example baseline at batch 32, beam 3.
    """
    model, dataset, _ = micro_setup
    beam_size, max_length, repeats = 3, 12, 3

    lines = [
        "decode throughput: batched beam engine vs per-example baseline",
        f"beam_size={beam_size} max_length={max_length} best-of-{repeats}",
        "",
        f"{'batch':>5} {'per-example (s)':>16} {'batched (s)':>12} {'speedup':>8}",
    ]
    speedups = {}
    for batch_size in (1, 8, 32):
        batch = collate(dataset.encoded[:batch_size], pad_id=0)

        def best_of(fn):
            timings = []
            for _ in range(repeats):
                start = time.perf_counter()
                fn()
                timings.append(time.perf_counter() - start)
            return min(timings)

        baseline = best_of(
            lambda: _per_example_beam(model, batch, beam_size, max_length)
        )
        batched = best_of(
            lambda: batched_beam_decode(
                model, batch, beam_size=beam_size, max_length=max_length
            )
        )
        speedups[batch_size] = baseline / batched
        lines.append(
            f"{batch_size:>5} {baseline:>16.4f} {batched:>12.4f} "
            f"{speedups[batch_size]:>7.2f}x"
        )

    # Both paths must still agree on what they decode.
    batch = collate(dataset.encoded[:8], pad_id=0)
    per_example = _per_example_beam(model, batch, beam_size, max_length)
    batched = batched_beam_decode(model, batch, beam_size=beam_size, max_length=max_length)
    assert [h.token_ids for h in per_example] == [h.token_ids for h in batched]

    write_result(results_dir, "decode_throughput.txt", "\n".join(lines) + "\n")
    assert speedups[32] >= 2.0


def test_telemetry_disabled_overhead_report(micro_setup, results_dir):
    """Instrumentation cost with telemetry off, written to results/.

    Every report site goes through the ambient hub unconditionally; with no
    hub installed that is a :class:`NullTelemetry` whose emitters are
    no-ops. The acceptance bar: the instrumentation of one training step
    (the exact call pattern of ``Trainer.train_batch``) must cost < 3% of
    the bare step's wall-clock when telemetry is disabled.

    The two quantities are measured separately — the no-op call pattern in
    a tight loop, the bare step best-of-N — rather than by differencing two
    step timings, which would put the microsecond-scale quantity of
    interest under millisecond-scale run-to-run noise.
    """
    from repro.observability import NullTelemetry, nonfinite_sentinel
    from repro.optim import SGD, clip_grad_norm

    model, _, batch = micro_setup
    optimizer = SGD(model.parameters(), lr=0.1)
    telemetry = NullTelemetry()
    num_tokens = batch.num_target_tokens

    def step():
        model.train()
        loss = model.loss(batch)
        loss_value = loss.item()
        loss.backward()
        norm = clip_grad_norm(model.parameters(), 5.0)
        optimizer.step()
        model.zero_grad()
        return loss_value, norm

    def per_step_instrumentation():
        with telemetry.span("forward"):
            pass
        nonfinite_sentinel(telemetry, "loss", 1.0)
        with telemetry.span("backward"):
            pass
        nonfinite_sentinel(telemetry, "grad_norm", 1.0)
        with telemetry.span("optimizer_step"):
            pass
        telemetry.gauge("train.loss", 1.0)
        telemetry.gauge("train.grad_norm", 1.0)
        telemetry.counter("train.tokens", num_tokens)
        telemetry.observe("train.batch_seconds", 0.0)

    step()  # warm up before timing
    per_step_instrumentation()

    timings = []
    for _ in range(5):
        start = time.perf_counter()
        step()
        timings.append(time.perf_counter() - start)
    step_seconds = min(timings)

    calls = 2000
    start = time.perf_counter()
    for _ in range(calls):
        per_step_instrumentation()
    instrumentation_seconds = (time.perf_counter() - start) / calls

    overhead = instrumentation_seconds / step_seconds
    write_result(
        results_dir,
        "telemetry_overhead.txt",
        "telemetry-disabled overhead on the ACNN training step\n"
        f"bare step:       {1e3 * step_seconds:.3f} ms (best of 5)\n"
        f"instrumentation: {1e6 * instrumentation_seconds:.2f} us per step "
        "(NullTelemetry call pattern)\n"
        f"overhead:        {100 * overhead:.3f}%\n",
    )
    assert overhead < 0.03, f"disabled telemetry costs {100 * overhead:.2f}% (> 3%)"


def test_corpus_bleu_speed(benchmark):
    rng = np.random.default_rng(0)
    vocabulary = [f"w{i}" for i in range(200)]
    hyps = [[vocabulary[i] for i in rng.integers(0, 200, size=10)] for _ in range(500)]
    refs = [[[vocabulary[i] for i in rng.integers(0, 200, size=10)]] for _ in range(500)]
    benchmark(lambda: corpus_bleu(hyps, refs))


def test_corpus_rouge_speed(benchmark):
    rng = np.random.default_rng(1)
    vocabulary = [f"w{i}" for i in range(200)]
    hyps = [[vocabulary[i] for i in rng.integers(0, 200, size=10)] for _ in range(500)]
    refs = [[[vocabulary[i] for i in rng.integers(0, 200, size=10)]] for _ in range(500)]
    benchmark(lambda: corpus_rouge_l(hyps, refs))


def test_acnn_loss_tape_node_count(benchmark, micro_setup):
    """Track the tape-node budget of a full ACNN loss (regression guard)."""
    from repro.tensor.profiler import TapeProfile

    model, _, batch = micro_setup
    model.train()

    def profiled():
        with TapeProfile() as profile:
            model.loss(batch)
        return profile

    profile = benchmark(profiled)
    # Sentence-scale batch: the graph must stay well under ~10k nodes; the
    # pre-fusion implementation was several times larger.
    assert profile.nodes < 10000
