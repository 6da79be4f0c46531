"""Interactive question generation from your own sentences.

    python examples/interactive_generation.py            # stdin loop
    python examples/interactive_generation.py --demo     # canned sentences

Trains an ACNN on the synthetic corpus (once, ~30s), then reads sentences,
tokenizes them, and beam-decodes a question for each. Entities the decoder
has never seen are handled by the copy mechanism — type a sentence with a
made-up name and watch it reappear in the question.
"""

import argparse
import sys

from repro.data import (
    BatchIterator,
    QGDataset,
    QGExample,
    SyntheticConfig,
    detokenize,
    generate_corpus,
    tokenize,
)
from repro.data.batching import collate
from repro.decoding import batched_beam_decode, extended_ids_to_tokens
from repro.models import ModelConfig, build_model
from repro.training import Trainer, TrainerConfig

DEMO_SENTENCES = [
    "velkorim was born in porzana in 1873 .",
    "the glass spire in almira was designed by tovenka .",
    "frostline acquired brightora for 420 million dollars in 2011 .",
]


def train_model():
    print("training an ACNN on the synthetic corpus (one-time, ~30s)...")
    corpus = generate_corpus(SyntheticConfig(num_train=1200, num_dev=150, num_test=150, seed=13))
    encoder_vocab, decoder_vocab = QGDataset.build_vocabs(
        corpus.train, encoder_vocab_size=1200, decoder_vocab_size=140
    )
    train_set = QGDataset(corpus.train, encoder_vocab, decoder_vocab)
    dev_set = QGDataset(corpus.dev, encoder_vocab, decoder_vocab)
    config = ModelConfig(embedding_dim=28, hidden_size=48, num_layers=1, dropout=0.2, seed=2)
    model = build_model("acnn", config, len(encoder_vocab), len(decoder_vocab))
    Trainer(
        model,
        BatchIterator(train_set, batch_size=32, seed=2),
        BatchIterator(dev_set, batch_size=32, shuffle=False),
        TrainerConfig(epochs=10, learning_rate=1.0, halve_at_epoch=8),
    ).train()
    return model, encoder_vocab, decoder_vocab


def generate(model, encoder_vocab, decoder_vocab, sentence: str) -> str:
    tokens = tuple(tokenize(sentence))
    if not tokens:
        return "(no tokens)"
    example = QGExample(sentence=tokens, paragraph=tokens, question=("?",))
    dataset = QGDataset([example], encoder_vocab, decoder_vocab)
    batch = collate(list(dataset), pad_id=0)
    hypothesis = batched_beam_decode(model, batch, beam_size=3, max_length=20)[0]
    out_tokens = extended_ids_to_tokens(
        hypothesis.token_ids, decoder_vocab, batch.examples[0].oov_tokens
    )
    return detokenize(out_tokens)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--demo", action="store_true", help="run on canned sentences and exit")
    args = parser.parse_args()

    model, encoder_vocab, decoder_vocab = train_model()

    if args.demo:
        for sentence in DEMO_SENTENCES:
            print(f"> {sentence}")
            print(f"  {generate(model, encoder_vocab, decoder_vocab, sentence)}")
        return

    print("enter a sentence (empty line or Ctrl-D to quit):")
    for line in sys.stdin:
        line = line.strip()
        if not line:
            break
        print(f"  {generate(model, encoder_vocab, decoder_vocab, line)}")
        print("> ", end="", flush=True)


if __name__ == "__main__":
    main()
