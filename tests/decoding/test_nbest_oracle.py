"""N-best against a per-example reference beam.

``beam_decode_nbest`` returns the batch-parallel beam's pools, deduplicated
by surface and cut to ``n_best``. The reference below is the per-example
n-best loop it replaced, kept inline: one example at a time, ``row_indices``
gathers, its own candidate walk and stop rule. Both must agree on every
token id and on the bytes of every ``log_prob``, in order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import QGDataset, QGExample, Vocabulary, collate
from repro.data.vocabulary import BOS_ID, EOS_ID, PAD_ID
from repro.decoding import Hypothesis, beam_decode_nbest
from repro.decoding.batched_beam import select_step_candidates, should_stop_row
from repro.models import ModelConfig, build_model
from repro.tensor import no_grad

_WORDS = ["zorvex", "karlin", "tower", "river", "1887", "ostavia", "velkin"]
_QWORDS = ["where", "what", "who", "is", "was", "the", "?"]


def _reference_nbest(model, context, example_index, n_best, beam_size, max_length, length_penalty):
    live = [Hypothesis((), 0.0)]
    state = model.initial_decoder_state(context).select(np.array([example_index]))
    finished = []
    for step in range(max_length):
        prev = np.array(
            [hyp.token_ids[-1] if hyp.token_ids else BOS_ID for hyp in live], dtype=np.int64
        )
        rows = np.full(len(live), example_index)
        step_lp, new_state = model.step_log_probs(prev, state, context, row_indices=rows)
        step_lp[:, PAD_ID] = -np.inf
        step_lp[:, BOS_ID] = -np.inf
        totals = step_lp + np.array([hyp.log_prob for hyp in live])[:, None]
        eos_picks, continuations = select_step_candidates(totals, step_lp, beam_size)
        for source, token_lp in eos_picks:
            grown = live[source].extended(EOS_ID, token_lp, finished=True)
            finished.append(Hypothesis(grown.token_ids[:-1], grown.log_prob, finished=True))
        if not continuations:
            break
        state = new_state.select(np.array([source for source, _, _ in continuations]))
        live = [
            live[source].extended(token, token_lp, finished=False)
            for source, token, token_lp in continuations
        ]
        if should_stop_row(
            finished,
            [hyp.log_prob for hyp in live],
            step + 1,
            max(n_best, beam_size),
            max_length,
            length_penalty,
        ):
            break
    if not finished:
        finished = [Hypothesis(h.token_ids, h.log_prob, finished=False) for h in live]
    unique = {}
    for hypothesis in finished:
        existing = unique.get(hypothesis.token_ids)
        if existing is None or hypothesis.log_prob > existing.log_prob:
            unique[hypothesis.token_ids] = hypothesis
    return sorted(unique.values(), key=lambda h: -h.score(length_penalty))[:n_best]


def _problem(seed, family, num_examples):
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(num_examples):
        # Ragged sources: 1 to 8 tokens, so the batch pads most rows.
        sentence = tuple(rng.choice(_WORDS, size=rng.integers(1, 9)))
        question = tuple(rng.choice(_QWORDS, size=rng.integers(2, 5)))
        examples.append(QGExample(sentence=sentence, paragraph=sentence, question=question))
    encoder = Vocabulary.build([e.sentence for e in examples])
    decoder = Vocabulary(_QWORDS)
    batch = collate(list(QGDataset(examples, encoder, decoder)), pad_id=0)
    config = ModelConfig(
        embedding_dim=int(rng.integers(4, 10)),
        hidden_size=int(rng.integers(4, 12)),
        num_layers=int(rng.integers(1, 3)),
        dropout=0.0,
        seed=seed,
    )
    return build_model(family, config, len(encoder), len(decoder)), batch


@given(
    seed=st.integers(0, 10_000),
    family=st.sampled_from(["acnn", "du-attention", "seq2seq"]),
    num_examples=st.integers(1, 4),
    n_best=st.integers(1, 4),
    extra_beam=st.integers(0, 2),
    max_length=st.integers(3, 10),
    length_penalty=st.sampled_from([0.0, 0.5, 1.0]),
)
@settings(max_examples=40, deadline=None)
def test_nbest_matches_per_example_reference(
    seed, family, num_examples, n_best, extra_beam, max_length, length_penalty
):
    model, batch = _problem(seed, family, num_examples)
    beam_size = n_best + extra_beam
    got = beam_decode_nbest(
        model, batch, n_best=n_best, beam_size=beam_size,
        max_length=max_length, length_penalty=length_penalty,
    )
    model.eval()
    with no_grad():
        context = model.encode(batch)
        want = [
            _reference_nbest(
                model, context, index, n_best, beam_size, max_length, length_penalty
            )
            for index in range(context.batch_size)
        ]
    assert len(got) == len(want) == num_examples
    for got_list, want_list in zip(got, want):
        assert [h.token_ids for h in got_list] == [h.token_ids for h in want_list]
        assert [np.float64(h.log_prob).tobytes() for h in got_list] == [
            np.float64(h.log_prob).tobytes() for h in want_list
        ]
        assert [h.finished for h in got_list] == [h.finished for h in want_list]


def test_nbest_rejects_beam_narrower_than_n_best():
    model, batch = _problem(0, "acnn", 2)
    with pytest.raises(ValueError, match="beam_size must be >= n_best"):
        beam_decode_nbest(model, batch, n_best=3, beam_size=2)
    assert len(beam_decode_nbest(model, batch, n_best=3, max_length=4)) == 2
