"""Quickstart: train a small ACNN and generate questions.

Runs in about a minute on one CPU core:

    python examples/quickstart.py

Steps: generate a synthetic SQuAD-style corpus, build vocabularies, train
the adaptive copying model for a few epochs, then beam-decode questions for
unseen test sentences — including copied entity names that are not in the
decoder vocabulary (the paper's headline capability).
"""

from repro.data import BatchIterator, QGDataset, SyntheticConfig, detokenize, generate_corpus
from repro.decoding import batched_beam_decode, extended_ids_to_tokens
from repro.data.batching import collate
from repro.models import ModelConfig, build_model
from repro.training import Trainer, TrainerConfig


def main() -> None:
    print("1. generating a synthetic SQuAD-style corpus...")
    corpus = generate_corpus(SyntheticConfig(num_train=1200, num_dev=100, num_test=80, seed=7))
    encoder_vocab, decoder_vocab = QGDataset.build_vocabs(
        corpus.train, encoder_vocab_size=1200, decoder_vocab_size=130
    )
    train_set = QGDataset(corpus.train, encoder_vocab, decoder_vocab)
    dev_set = QGDataset(corpus.dev, encoder_vocab, decoder_vocab)
    test_set = QGDataset(corpus.test, encoder_vocab, decoder_vocab)
    print(
        f"   {len(train_set)} train / {len(dev_set)} dev / {len(test_set)} test; "
        f"encoder vocab {len(encoder_vocab)}, decoder vocab {len(decoder_vocab)}"
    )
    print(
        f"   {100 * test_set.copyable_oov_rate():.1f}% of gold question tokens are "
        "decoder-OOV and only reachable through the copy mechanism"
    )

    print("2. training ACNN-sent (bi-LSTM + attention + adaptive copying)...")
    config = ModelConfig(embedding_dim=24, hidden_size=48, num_layers=1, dropout=0.1, seed=1)
    # use_coverage suppresses the repeated-phrase stutter of small,
    # briefly-trained attentional decoders (see the coverage ablation).
    model = build_model("acnn", config, len(encoder_vocab), len(decoder_vocab), use_coverage=True)
    trainer = Trainer(
        model,
        BatchIterator(train_set, batch_size=32, seed=1),
        BatchIterator(dev_set, batch_size=32, shuffle=False),
        TrainerConfig(epochs=16, learning_rate=1.0, halve_at_epoch=12),
        epoch_callback=lambda r: print(
            f"   epoch {r.epoch}: train loss {r.train_loss:.3f}, dev loss {r.dev_loss:.3f}"
        ),
    )
    trainer.train()

    print("3. generating questions for unseen test sentences (beam=3):")
    batch = collate(test_set.encoded[:6], pad_id=0)
    hypotheses = batched_beam_decode(model, batch, beam_size=3, max_length=20)
    for hypothesis, encoded in zip(hypotheses, batch.examples):
        tokens = extended_ids_to_tokens(hypothesis.token_ids, decoder_vocab, encoded.oov_tokens)
        copied = [t for t in tokens if t not in decoder_vocab]
        print(f"   source:    {detokenize(list(encoded.src_tokens))}")
        print(f"   gold:      {detokenize(list(encoded.example.question))}")
        print(f"   generated: {detokenize(tokens)}")
        if copied:
            print(f"   copied out-of-vocabulary tokens: {copied}")
        print()


if __name__ == "__main__":
    main()
