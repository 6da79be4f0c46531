"""The trace and UNK-replacement decoders against their hand-written loops.

``trace_generation`` and ``greedy_decode_with_attention`` run on the shared
greedy loop (``decode_tokens``) over each model's ``decode_step``. The
references below are the per-family loops they replaced, kept inline: each
calls ``_decode_step`` itself and rebuilds the step's internals. Both must
agree byte for byte: every ``StepTrace`` field of an ACNN trace (with and
without coverage), and the tokens, ``log_prob`` and attention rows of the
Du-attention decode.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import QGDataset, QGExample, Vocabulary, collate
from repro.data.vocabulary import BOS_ID, EOS_ID, PAD_ID, UNK_ID
from repro.decoding import Hypothesis, extended_ids_to_tokens, greedy_decode_with_attention
from repro.decoding.greedy import greedy_decode
from repro.evaluation import trace_generation
from repro.evaluation.introspection import GenerationTrace, StepTrace
from repro.models import ModelConfig, build_model
from repro.models.base import DecoderStepState
from repro.nn.loss import PROBABILITY_FLOOR
from repro.nn.numerics import np_smoothed_log
from repro.tensor import Tensor, no_grad
from repro.tensor.ops import log_softmax, softmax

# Source words: mostly decoder-OOV (copyable only through the extended
# vocabulary), two in the decoder vocabulary.
_WORDS = ["zorvex", "karlin", "tower", "river", "1887", "ostavia", "the", "is"]
_QWORDS = ["where", "what", "who", "is", "was", "the", "?"]


def _reference_trace(model, encoded, decoder_vocab, max_length):
    model.eval()
    batch = collate([encoded], pad_id=PAD_ID)
    steps = []
    with no_grad():
        context = model.encode(batch)
        state = model.initial_decoder_state(context)
        prev = np.array([BOS_ID], dtype=np.int64)
        for _ in range(max_length):
            token_ids = model.map_to_decoder_vocab(prev, model.decoder_vocab_size, UNK_ID)
            embedded = model.decoder_embedding(token_ids)
            coverage = Tensor(state.coverage) if state.coverage is not None else None
            d_k, c_k, attn, logits, new_lstm = model._decode_step(
                embedded,
                state.lstm_states,
                context.encoder_states,
                context.src_pad_mask,
                coverage=coverage,
            )
            p_att = softmax(logits, axis=-1).data
            p_cop = model.copy_distribution(
                d_k, c_k, context.encoder_states, context.src_pad_mask
            ).data
            z = model.switch(d_k, c_k, embedded).data
            extended = model._extended_mixture(p_att, p_cop, z, context.src_ext, context.max_oov)[0]
            step_lp = np_smoothed_log(extended, PROBABILITY_FLOOR)
            step_lp[[PAD_ID, BOS_ID]] = -np.inf
            choice = int(step_lp.argmax())
            state = DecoderStepState(
                new_lstm,
                coverage=state.coverage + attn.data if state.coverage is not None else None,
            )
            if choice == EOS_ID:
                break
            token = extended_ids_to_tokens([choice], decoder_vocab, encoded.oov_tokens)[0]
            steps.append(
                StepTrace(
                    token=token,
                    token_id=choice,
                    copied=choice >= model.decoder_vocab_size,
                    switch=float(z[0]),
                    attention=attn.data[0].copy(),
                    copy_distribution=p_cop[0].copy(),
                )
            )
            prev = np.array([choice], dtype=np.int64)
    return GenerationTrace(
        source_tokens=encoded.src_tokens,
        generated_tokens=tuple(step.token for step in steps),
        steps=tuple(steps),
    )


def _reference_greedy_with_attention(model, batch, max_length):
    model.eval()
    with no_grad():
        context = model.encode(batch)
        state = model.initial_decoder_state(context)
        batch_size = context.batch_size
        prev = np.full(batch_size, BOS_ID, dtype=np.int64)
        sequences = [[] for _ in range(batch_size)]
        attentions = [[] for _ in range(batch_size)]
        log_probs = np.zeros(batch_size)
        finished = np.zeros(batch_size, dtype=bool)
        for _ in range(max_length):
            token_ids = model.map_to_decoder_vocab(prev, model.decoder_vocab_size, UNK_ID)
            embedded = model.decoder_embedding(token_ids)
            _, _, attn, logits, new_states = model._decode_step(
                embedded, state.lstm_states, context.encoder_states, context.src_pad_mask
            )
            state = DecoderStepState(new_states)
            step_lp = log_softmax(logits, axis=-1).data
            step_lp[:, PAD_ID] = -np.inf
            step_lp[:, BOS_ID] = -np.inf
            choices = step_lp.argmax(axis=1)
            chosen_lp = step_lp[np.arange(batch_size), choices]
            for row in range(batch_size):
                if finished[row]:
                    continue
                log_probs[row] += chosen_lp[row]
                if choices[row] == EOS_ID:
                    finished[row] = True
                    continue
                sequences[row].append(int(choices[row]))
                attentions[row].append(attn.data[row].copy())
            if finished.all():
                break
            prev = np.where(finished, EOS_ID, choices)
    hypotheses = [
        Hypothesis(tuple(sequences[row]), float(log_probs[row]), finished=bool(finished[row]))
        for row in range(batch_size)
    ]
    return hypotheses, attentions


def _fleet(seed, family, num_examples, num_layers, **model_kwargs):
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(num_examples):
        # Ragged sources: 1 to 8 tokens, so the batch pads most rows.
        sentence = tuple(rng.choice(_WORDS, size=rng.integers(1, 9)))
        question = tuple(rng.choice(_QWORDS, size=rng.integers(2, 5)))
        examples.append(QGExample(sentence=sentence, paragraph=sentence, question=question))
    encoder = Vocabulary.build([e.sentence for e in examples])
    decoder = Vocabulary(_QWORDS)
    dataset = QGDataset(examples, encoder, decoder)
    config = ModelConfig(
        embedding_dim=int(rng.integers(4, 10)),
        hidden_size=int(rng.integers(4, 12)),
        num_layers=num_layers,
        dropout=0.0,
        seed=seed,
    )
    model = build_model(family, config, len(encoder), len(decoder), **model_kwargs)
    # A fresh init is near-uniform and nearly constant across steps:
    # sharpen it so the picks vary from step to step, give EOS a random
    # bias so the fleet ends at ragged lengths, and give the ACNN gate one
    # so it generates as well as copies.
    for parameter in model.parameters():
        parameter.data *= 5.0
    model.output_projection.bias.data[EOS_ID] = rng.uniform(-1.0, 3.0)
    if family == "acnn":
        model.switch_bias.data[:] = rng.uniform(-4.0, 2.0)
    if model_kwargs.get("use_coverage"):
        # The coverage weight starts at 0; give the history a real say.
        model.attention.coverage_weight.data[:] = rng.uniform(-6.0, 6.0)
    return model, dataset, decoder


def _bytes(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


@given(
    seed=st.integers(0, 10_000),
    use_coverage=st.booleans(),
    num_examples=st.integers(1, 4),
    num_layers=st.integers(1, 2),
    max_length=st.integers(1, 10),
)
@settings(max_examples=40, deadline=None)
def test_trace_matches_reference_loop(seed, use_coverage, num_examples, num_layers, max_length):
    model, dataset, decoder = _fleet(
        seed, "acnn", num_examples, num_layers, use_coverage=use_coverage
    )
    for encoded in dataset:
        got = trace_generation(model, encoded, decoder, max_length=max_length)
        want = _reference_trace(model, encoded, decoder, max_length)
        assert got.source_tokens == want.source_tokens
        assert got.generated_tokens == want.generated_tokens
        assert len(got.steps) == len(want.steps)
        for got_step, want_step in zip(got.steps, want.steps):
            assert got_step.token == want_step.token
            assert got_step.token_id == want_step.token_id
            assert type(got_step.token_id) is type(want_step.token_id)
            assert got_step.copied == want_step.copied
            assert _bytes(got_step.switch) == _bytes(want_step.switch)
            for field in ("attention", "copy_distribution"):
                got_array, want_array = getattr(got_step, field), getattr(want_step, field)
                assert got_array.shape == want_array.shape
                assert got_array.dtype == want_array.dtype
                assert got_array.tobytes() == want_array.tobytes()


@given(
    seed=st.integers(0, 10_000),
    num_examples=st.integers(1, 4),
    num_layers=st.integers(1, 2),
    max_length=st.integers(1, 10),
)
@settings(max_examples=40, deadline=None)
def test_du_greedy_with_attention_matches_reference_loop(
    seed, num_examples, num_layers, max_length
):
    model, dataset, _ = _fleet(seed, "du-attention", num_examples, num_layers)
    batch = collate(list(dataset), pad_id=PAD_ID)
    got, got_attentions = greedy_decode_with_attention(model, batch, max_length=max_length)
    want, want_attentions = _reference_greedy_with_attention(model, batch, max_length)
    assert [h.token_ids for h in got] == [h.token_ids for h in want]
    assert [_bytes(h.log_prob) for h in got] == [_bytes(h.log_prob) for h in want]
    assert [h.finished for h in got] == [h.finished for h in want]
    assert len(got_attentions) == len(want_attentions) == num_examples
    for got_rows, want_rows in zip(got_attentions, want_attentions):
        assert [row.tobytes() for row in got_rows] == [row.tobytes() for row in want_rows]


def test_trace_and_greedy_pick_alike_where_the_smoothed_log_ties(monkeypatch):
    """The trace and greedy decoding share one pick rule, the argmax of the
    step log-probs: where ``log(p + 1e-12)`` rounds two near-tied top
    probabilities into one, both take the lower id, so the trace reports
    the token that decoding emits."""
    model, dataset, decoder = _fleet(3, "acnn", 1, 1)
    low, high = 4, 5  # two decoder-vocab ids above PAD/BOS/EOS/UNK
    top = 0.01
    tied = np.nextafter(top, 1.0)
    assert np_smoothed_log(np.array([top]), 1e-12) == np_smoothed_log(np.array([tied]), 1e-12)
    original = model.decode_step

    def near_tie(prev_tokens, state, context, row_indices=None):
        record = original(prev_tokens, state, context, row_indices)
        record.probs[:] = 0.0
        record.probs[:, low] = top
        record.probs[:, high] = tied
        record.log_probs = np_smoothed_log(record.probs, 1e-12)
        return record

    monkeypatch.setattr(model, "decode_step", near_tie)
    trace = trace_generation(model, dataset[0], decoder, max_length=2)
    (greedy,) = greedy_decode(model, collate([dataset[0]], pad_id=PAD_ID), max_length=2)
    assert [step.token_id for step in trace.steps] == list(greedy.token_ids) == [low, low]
