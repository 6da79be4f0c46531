"""The ``acnn`` command-line interface.

Subcommands:

- ``acnn stats``     — corpus statistics (synthetic by default, or a real
  SQuAD JSON / Du-split via flags).
- ``acnn train``     — train any model family and save a reusable bundle.
- ``acnn evaluate``  — BLEU-1..4 / ROUGE-L of a saved bundle on a test split.
- ``acnn generate``  — generate questions for sentences from a file or stdin.
- ``acnn serve``     — run sentences through the hardened inference service
  (admission, deadlines, degradation ladder, breaker; optional chaos).

Every subcommand is offline-first: with no data flags it uses the synthetic
SQuAD-style corpus, so the full train → evaluate → generate loop works on an
air-gapped machine.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

import numpy as np

from repro.data import (
    BatchIterator,
    LoadReport,
    QGDataset,
    QGExample,
    ShardedCorpus,
    SourceMode,
    StreamingQGDataset,
    SyntheticConfig,
    collate,
    corpus_statistics,
    detokenize,
    generate_corpus,
    ingest_examples,
    load_du_split,
    load_squad_json,
    split_corpus,
    tokenize,
    vocabulary_coverage,
)
from repro.decoding import batched_beam_decode, extended_ids_to_tokens
from repro.evaluation import analyse_predictions, evaluate_model
from repro.models import ModelConfig, build_model
from repro.observability import JsonlSink, Telemetry, TerminalSink
from repro.training import (
    ElasticConfig,
    ElasticTrainer,
    ResilienceConfig,
    Trainer,
    TrainerConfig,
    TrainingInterrupted,
)
from repro.training.bundle import ModelBundle

__all__ = ["main"]


def _build_telemetry(telemetry_dir: str | None) -> Telemetry | None:
    """JSONL + terminal hub under ``telemetry_dir`` (None = no telemetry)."""
    if not telemetry_dir:
        return None
    os.makedirs(telemetry_dir, exist_ok=True)
    return Telemetry(
        [JsonlSink(os.path.join(telemetry_dir, "trace.jsonl")), TerminalSink()]
    )


def _load_report(args) -> LoadReport:
    return LoadReport(max_skip_fraction=getattr(args, "max_skip_fraction", None))


def _print_load_report(report: LoadReport) -> None:
    if report.skipped:
        print(f"[data] {report.summary()}", file=sys.stderr)


def _load_examples(args):
    """Examples from --shards / --squad-json / --du-src+--du-tgt / synthetic.

    The shard-store path returns a lazy memory-mapped sequence; the others
    return lists. Either way the result is indexable and iterable, and the
    file-backed paths count (and bound, via ``--max-skip-fraction``)
    skipped records.
    """
    if getattr(args, "shards", None):
        report = _load_report(args)
        corpus = ShardedCorpus.open(args.shards, strict=args.strict_data, report=report)
        _print_load_report(report)
        return corpus
    if args.squad_json:
        report = _load_report(args)
        examples = load_squad_json(args.squad_json, report=report)
        _print_load_report(report)
        return examples
    if args.du_src and args.du_tgt:
        report = _load_report(args)
        examples = load_du_split(
            args.du_src, args.du_tgt, args.du_para, report=report
        )
        _print_load_report(report)
        return examples
    corpus = generate_corpus(
        SyntheticConfig(
            num_train=args.train_size,
            num_dev=max(1, args.train_size // 8),
            num_test=max(1, args.train_size // 8),
            seed=args.seed,
        )
    )
    return list(corpus.train) + list(corpus.dev) + list(corpus.test)


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--squad-json", help="path to a SQuAD v1.1 JSON file")
    parser.add_argument("--du-src", help="Du et al. split: source sentences file")
    parser.add_argument("--du-tgt", help="Du et al. split: questions file")
    parser.add_argument("--du-para", help="Du et al. split: paragraphs file (optional)")
    parser.add_argument(
        "--shards",
        help=(
            "directory of an ingested shard store (see `acnn ingest`): "
            "memory-mapped, checksummed, shared across elastic workers"
        ),
    )
    parser.add_argument(
        "--max-skip-fraction",
        type=float,
        default=0.5,
        help=(
            "fail with a typed error when loaders skip more than this "
            "fraction of records instead of training on the survivors"
        ),
    )
    parser.add_argument(
        "--strict-data",
        action="store_true",
        help=(
            "shard store: fail fast on the first corrupt record instead of "
            "quarantining and counting it"
        ),
    )
    parser.add_argument("--train-size", type=int, default=1500, help="synthetic corpus size")
    parser.add_argument("--seed", type=int, default=13)


def _cmd_ingest(args) -> int:
    from repro.data import save_vocabs, vocab_params

    examples = _load_examples(args)
    result = ingest_examples(
        examples,
        args.out,
        shard_records=args.shard_records,
        resume=not args.no_resume,
    )
    manifest = result.manifest
    if result.ingested == 0 and result.resumed_from == manifest.total_records:
        print(f"shard store {args.out} already complete; nothing to do")
    elif result.resumed_from:
        print(
            f"resumed at record {result.resumed_from}, "
            f"ingested {result.ingested} more"
        )
    else:
        print(f"ingested {result.ingested} records")
    print(
        f"{manifest.total_records} records in {len(manifest.shards)} shards "
        f"({args.shard_records}/shard), manifest digest {result.digest[:16]}…"
    )
    if not args.no_vocabs:
        # One streaming pass over the mmapped store (never materialized):
        # the record covers the whole corpus, so it is independent of any
        # later split seed and every consumer agrees on the token ids.
        source_mode = (
            SourceMode.PARAGRAPH if args.mode == "paragraph" else SourceMode.SENTENCE
        )
        corpus = ShardedCorpus.open(args.out)
        try:
            encoder_vocab, decoder_vocab = QGDataset.build_vocabs(
                iter(corpus),
                encoder_vocab_size=args.encoder_vocab_size,
                decoder_vocab_size=args.decoder_vocab_size,
                source_mode=source_mode,
                paragraph_length=args.paragraph_length,
            )
        finally:
            corpus.close()
        save_vocabs(
            args.out,
            encoder_vocab,
            decoder_vocab,
            result.digest,
            vocab_params(
                args.encoder_vocab_size,
                args.decoder_vocab_size,
                source_mode,
                args.paragraph_length,
            ),
        )
        print(
            f"recorded vocabularies ({len(encoder_vocab)} encoder / "
            f"{len(decoder_vocab)} decoder) — `acnn train --shards` skips the re-scan"
        )
    print(f"train from it with: acnn train --shards {args.out} ...")
    return 0


def _cmd_stats(args) -> int:
    examples = _load_examples(args)
    stats = corpus_statistics(examples)
    print(stats.render())
    if args.decoder_vocab_size:
        encoder_vocab, decoder_vocab = QGDataset.build_vocabs(
            examples, args.encoder_vocab_size, args.decoder_vocab_size
        )
        coverage = vocabulary_coverage(examples, decoder_vocab, side="question")
        print(f"decoder vocab ({len(decoder_vocab)}) question coverage: {100 * coverage:.1f}%")
    return 0


def _cmd_train(args) -> int:
    from repro.data import split_examples

    examples = _load_examples(args)
    from_shards = bool(getattr(args, "shards", None))
    if from_shards:
        # Same seeded shuffle and cut points as split_examples, but the
        # splits stay lazy views over the shared mmap-backed corpus.
        train_examples, dev_examples, _ = split_corpus(
            examples, dev_fraction=0.15, test_fraction=0.0, seed=args.seed
        )
    else:
        train_examples, dev_examples, _ = split_examples(
            examples, dev_fraction=0.15, test_fraction=0.0, seed=args.seed
        )

    source_mode = SourceMode.PARAGRAPH if args.mode == "paragraph" else SourceMode.SENTENCE
    recorded = None
    if from_shards:
        from repro.data import load_vocabs, vocab_params

        # Vocabularies recorded at ingest time (whole-corpus, digest-stamped)
        # make the re-scan unnecessary. A record that no longer matches the
        # store or these flags raises VocabsMismatchError instead of
        # silently shifting every token id.
        recorded = load_vocabs(
            args.shards,
            examples.corpus_digest,
            vocab_params(
                args.encoder_vocab_size,
                args.decoder_vocab_size,
                source_mode,
                args.paragraph_length,
            ),
        )
    if recorded is not None:
        encoder_vocab, decoder_vocab = recorded
        print("using vocabularies recorded at ingest time (corpus re-scan skipped)")
    else:
        encoder_vocab, decoder_vocab = QGDataset.build_vocabs(
            iter(train_examples),
            encoder_vocab_size=args.encoder_vocab_size,
            decoder_vocab_size=args.decoder_vocab_size,
            source_mode=source_mode,
            paragraph_length=args.paragraph_length,
        )
    dataset_cls = StreamingQGDataset if from_shards else QGDataset
    train_set = dataset_cls(
        train_examples, encoder_vocab, decoder_vocab,
        source_mode=source_mode, paragraph_length=args.paragraph_length,
    )
    dev_set = dataset_cls(
        dev_examples, encoder_vocab, decoder_vocab,
        source_mode=source_mode, paragraph_length=args.paragraph_length,
    )

    model_config = ModelConfig(
        embedding_dim=args.embedding_dim,
        hidden_size=args.hidden_size,
        num_layers=args.num_layers,
        dropout=args.dropout,
        seed=args.seed,
    )
    model_kwargs = {}
    if args.family == "acnn":
        if args.coverage:
            model_kwargs["use_coverage"] = True
        if args.answer_features:
            model_kwargs["use_answer_features"] = True
    model = build_model(args.family, model_config, len(encoder_vocab), len(decoder_vocab), **model_kwargs)
    print(f"{args.family}: {model.num_parameters():,} parameters")

    snapshot_dir = args.snapshot_dir
    if args.resume and not snapshot_dir:
        snapshot_dir = args.out + ".snapshots"
    resilience = None
    if snapshot_dir:
        resilience = ResilienceConfig(
            directory=snapshot_dir,
            every_n_batches=args.snapshot_every,
            max_retries=args.max_retries,
            handle_signals=True,
        )

    telemetry = _build_telemetry(args.telemetry_dir)

    def epoch_callback(r):
        line = (
            f"epoch {r.epoch}: train {r.train_loss:.4f} "
            f"dev {r.dev_loss:.4f} lr {r.learning_rate:g}"
        )
        if telemetry is not None:
            telemetry.log(line)
        else:
            print(line)

    trainer_config = TrainerConfig(
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        halve_at_epoch=args.halve_at_epoch,
        log_every=args.log_every,
        detect_anomaly=args.detect_anomaly,
        overflow_policy=args.overflow_policy,
    )
    use_elastic = args.elastic or args.workers is not None
    if use_elastic:
        workers = args.workers if args.workers is not None else 2
        trainer = ElasticTrainer(
            model,
            train_set,
            batch_size=args.batch_size,
            dev_iterator=BatchIterator(dev_set, batch_size=args.batch_size, shuffle=False),
            config=trainer_config,
            elastic=ElasticConfig(workers=workers, worker_timeout=args.worker_timeout),
            epoch_callback=epoch_callback,
            resilience=resilience,
            telemetry=telemetry,
            run_seed=args.seed,
        )
    else:
        trainer = Trainer(
            model,
            BatchIterator(train_set, batch_size=args.batch_size, seed=args.seed),
            BatchIterator(dev_set, batch_size=args.batch_size, shuffle=False),
            trainer_config,
            epoch_callback=epoch_callback,
            resilience=resilience,
            telemetry=telemetry,
        )
    try:
        history = trainer.train(resume_from=snapshot_dir if args.resume else None)
    except TrainingInterrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        print(
            f"resume with: acnn train --resume --snapshot-dir {snapshot_dir} "
            f"--out {args.out} (plus the original flags)",
            file=sys.stderr,
        )
        return 130
    finally:
        if telemetry is not None:
            telemetry.close()

    bundle = ModelBundle(
        model=model,
        encoder_vocab=encoder_vocab,
        decoder_vocab=decoder_vocab,
        family=args.family,
        model_config=model_config,
        model_kwargs=model_kwargs,
        metadata={
            "mode": args.mode,
            "paragraph_length": args.paragraph_length,
            "best_dev_epoch": history.best_dev_epoch,
            "best_dev_loss": history.best_dev_loss,
        },
    )
    bundle.save(args.out)
    print(f"bundle saved to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    bundle = ModelBundle.load(args.bundle)
    examples = _load_examples(args)
    test_examples = examples[-args.num_examples:] if args.num_examples else examples
    mode = bundle.metadata.get("mode", "sentence")
    source_mode = SourceMode.PARAGRAPH if mode == "paragraph" else SourceMode.SENTENCE
    dataset = QGDataset(
        test_examples,
        bundle.encoder_vocab,
        bundle.decoder_vocab,
        source_mode=source_mode,
        paragraph_length=bundle.metadata.get("paragraph_length", 100),
    )
    telemetry = _build_telemetry(args.telemetry_dir)
    try:
        result = evaluate_model(
            bundle.model,
            dataset,
            beam_size=args.beam_size,
            max_length=args.max_length,
            telemetry=telemetry,
        )
    finally:
        if telemetry is not None:
            telemetry.close()
    print(result.summary())
    analysis = analyse_predictions(result.predictions, result.references, bundle.decoder_vocab)
    print(analysis.summary())
    return 0


def _cmd_generate(args) -> int:
    bundle = ModelBundle.load(args.bundle)
    if args.input:
        with open(args.input, encoding="utf-8") as handle:
            lines = [line.strip() for line in handle if line.strip()]
    else:
        lines = [line.strip() for line in sys.stdin if line.strip()]

    for line in lines:
        tokens = tuple(tokenize(line))
        if not tokens:
            continue
        example = QGExample(sentence=tokens, paragraph=tokens, question=("?",))
        dataset = QGDataset([example], bundle.encoder_vocab, bundle.decoder_vocab)
        batch = collate(list(dataset), pad_id=0)
        hypothesis = batched_beam_decode(
            bundle.model, batch, beam_size=args.beam_size, max_length=args.max_length
        )[0]
        question = extended_ids_to_tokens(
            hypothesis.token_ids, bundle.decoder_vocab, batch.examples[0].oov_tokens
        )
        print(detokenize(question))
    return 0


def _print_outcomes(outcomes) -> None:
    for outcome in sorted(outcomes, key=lambda o: o.request_id):
        if outcome.status == "served":
            rung = outcome.result.rung
            print(f"[{outcome.request_id}] ({rung}) {outcome.result.question}")
        else:
            detail = outcome.reason or outcome.error or ""
            print(f"[{outcome.request_id}] {outcome.status}: {detail}")


def _cmd_serve(args) -> int:
    import json

    from repro.serving import (
        AdmissionPolicy,
        ContinuousBatchingEngine,
        DrainGuard,
        EncoderStateCache,
        EngineConfig,
        FaultPlan,
        GenerationRequest,
        InferenceService,
        PoolConfig,
        RequestOutcome,
        ServiceConfig,
        ServingPool,
    )

    bundle = ModelBundle.load(args.bundle)
    # Signal handlers go in before the (possibly blocking) input read: a
    # SIGTERM or SIGHUP while waiting on a pipe must latch, not kill.
    drain_guard = DrainGuard().install()
    # SIGHUP latches a weight reload that the serve loop runs between submissions.
    hup = [signal.SIGHUP] if args.reload_on_hup and hasattr(signal, "SIGHUP") else []
    reload_guard = DrainGuard(signals=hup).install()
    if args.input:
        with open(args.input, encoding="utf-8") as handle:
            lines = [line.strip() for line in handle if line.strip()]
    else:
        lines = [line.strip() for line in sys.stdin if line.strip()]

    telemetry = _build_telemetry(args.telemetry_dir)
    policy = AdmissionPolicy(max_unk_density=args.max_unk_density)
    service_config = ServiceConfig(default_deadline_seconds=args.deadline)
    engine_config = EngineConfig(
        max_rows=args.max_rows,
        queue_limit=args.queue_limit,
        admit_per_step=args.admit_per_step,
    )

    if args.pool_workers > 0:
        # Multi-process fleet: the coordinator owns admission + the ledger;
        # each worker runs its own continuous-batching engine over the
        # fork-shared weights. (The model-level chaos seam is per-process;
        # --fault-rate applies to single-process serving only.)
        if args.fault_rate > 0:
            print("[serve] --fault-rate is ignored with --pool-workers", file=sys.stderr)
        pool = ServingPool(
            bundle.model,
            bundle.encoder_vocab,
            bundle.decoder_vocab,
            policy=policy,
            service_config=service_config,
            engine_config=engine_config,
            config=PoolConfig(workers=args.pool_workers, queue_limit=args.queue_limit),
            telemetry=telemetry,
            cache_size=args.cache_size,
        )
        try:
            outcomes = []
            for index, line in enumerate(lines):
                if reload_guard.signum is not None:
                    reload_guard.signum = None
                    fingerprint = pool.reload_weights(args.bundle)
                    print(f"[serve] reloaded weights → {fingerprint[:16]}…", file=sys.stderr)
                if drain_guard.draining:
                    pool.begin_drain()
                request = GenerationRequest(
                    line,
                    request_id=f"req-{index}",
                    beam_size=args.beam_size,
                    max_length=args.max_length,
                )
                # The queue limit bounds memory, not input length: make
                # room before submitting instead of shedding the line.
                while pool.queue_depth >= args.queue_limit:
                    outcomes.extend(pool.pump())
                outcome = pool.submit(request)
                if outcome is not None:
                    outcomes.append(outcome)
            outcomes.extend(pool.drain())
            _print_outcomes(outcomes)
            print(json.dumps(pool.report(), indent=2), file=sys.stderr)
        finally:
            pool.shutdown()
            drain_guard.restore()
            reload_guard.restore()
            if telemetry is not None:
                telemetry.close()
        return 0

    fault_plan = None
    if args.fault_rate > 0:
        fault_plan = FaultPlan(
            seed=args.fault_seed,
            nan_rate=args.fault_rate,
            slow_rate=args.fault_rate,
            error_rate=args.fault_rate,
            per_request=True,
        )
    cache = EncoderStateCache(args.cache_size, telemetry=telemetry) if args.cache_size else None
    service = InferenceService(
        bundle.model,
        bundle.encoder_vocab,
        bundle.decoder_vocab,
        policy=policy,
        config=service_config,
        telemetry=telemetry,
        fault_plan=fault_plan,
        encoder_cache=cache,
    )
    engine = ContinuousBatchingEngine(service, engine_config)
    try:
        outcomes = []
        for index, line in enumerate(lines):
            if reload_guard.signum is not None:
                reload_guard.signum = None
                from repro.training.checkpoint import load_checkpoint

                load_checkpoint(os.path.join(args.bundle, "model"), bundle.model)
                if cache is not None:
                    cache.refresh(bundle.model)
                print("[serve] reloaded weights from bundle", file=sys.stderr)
            if drain_guard.draining:
                # Graceful drain: admission stops, in-flight work still
                # resolves through the deadline machinery below.
                service.note_shed("draining")
                outcomes.append(
                    RequestOutcome(
                        f"req-{index}", "shed", error="RequestShed", reason="draining"
                    )
                )
                continue
            request = GenerationRequest(
                line,
                request_id=f"req-{index}",
                beam_size=args.beam_size,
                max_length=args.max_length,
            )
            outcomes.extend(engine.make_room())
            outcome = engine.submit(request)
            if outcome is not None:
                outcomes.append(outcome)
        outcomes.extend(engine.drain())
        _print_outcomes(outcomes)
        print(json.dumps(service.report(), indent=2), file=sys.stderr)
    finally:
        drain_guard.restore()
        reload_guard.restore()
        if telemetry is not None:
            telemetry.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="acnn", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    ingest = subparsers.add_parser(
        "ingest",
        help=(
            "ingest a corpus into a crash-safe memory-mapped shard store; "
            "resumable — re-running after a kill continues from the last "
            "published manifest entry, bit-identical to an uninterrupted run"
        ),
    )
    _add_data_flags(ingest)
    ingest.add_argument("--out", required=True, help="shard store output directory")
    ingest.add_argument(
        "--shard-records",
        type=int,
        default=2048,
        help="records per shard file (must match on resume)",
    )
    ingest.add_argument(
        "--no-resume",
        action="store_true",
        help="discard any existing shards/manifest in --out and rebuild",
    )
    ingest.add_argument("--mode", default="sentence", choices=["sentence", "paragraph"])
    ingest.add_argument("--paragraph-length", type=int, default=100)
    ingest.add_argument("--encoder-vocab-size", type=int, default=1500)
    ingest.add_argument("--decoder-vocab-size", type=int, default=150)
    ingest.add_argument(
        "--no-vocabs",
        action="store_true",
        help=(
            "skip recording vocabularies in the store (training will then "
            "re-scan the corpus to build them)"
        ),
    )
    ingest.set_defaults(handler=_cmd_ingest)

    stats = subparsers.add_parser("stats", help="corpus statistics")
    _add_data_flags(stats)
    stats.add_argument("--encoder-vocab-size", type=int, default=45000)
    stats.add_argument("--decoder-vocab-size", type=int, default=0)
    stats.set_defaults(handler=_cmd_stats)

    train = subparsers.add_parser("train", help="train a model and save a bundle")
    _add_data_flags(train)
    train.add_argument("--family", default="acnn", choices=["acnn", "du-attention", "seq2seq"])
    train.add_argument("--mode", default="sentence", choices=["sentence", "paragraph"])
    train.add_argument("--paragraph-length", type=int, default=100)
    train.add_argument("--encoder-vocab-size", type=int, default=1500)
    train.add_argument("--decoder-vocab-size", type=int, default=150)
    train.add_argument("--embedding-dim", type=int, default=32)
    train.add_argument("--hidden-size", type=int, default=48)
    train.add_argument("--num-layers", type=int, default=2)
    train.add_argument("--dropout", type=float, default=0.3)
    train.add_argument("--batch-size", type=int, default=32)
    train.add_argument("--epochs", type=int, default=10)
    train.add_argument("--learning-rate", type=float, default=1.0)
    train.add_argument("--halve-at-epoch", type=int, default=8)
    train.add_argument("--coverage", action="store_true", help="enable the coverage extension")
    train.add_argument("--answer-features", action="store_true", help="enable answer tags")
    train.add_argument("--out", required=True, help="bundle output directory")
    train.add_argument(
        "--snapshot-dir",
        help=(
            "enable fault-tolerant training: write rotating run snapshots "
            "here and take a final graceful snapshot on SIGINT/SIGTERM "
            "(default with --resume: <out>.snapshots)"
        ),
    )
    train.add_argument(
        "--snapshot-every",
        type=int,
        default=0,
        help="also snapshot every N batches (0 = per-epoch snapshots only)",
    )
    train.add_argument(
        "--resume",
        action="store_true",
        help="restart bit-exactly from the latest valid snapshot in --snapshot-dir",
    )
    train.add_argument(
        "--detect-anomaly",
        action="store_true",
        help=(
            "debug mode: check every tape op's forward output and backward "
            "gradient for NaN/inf; the first hit fails with the culprit op, "
            "its shapes, and the creation site (slower — per-op bookkeeping)"
        ),
    )
    train.add_argument(
        "--overflow-policy",
        choices=["skip", "rollback", "raise"],
        default="rollback",
        help=(
            "reaction to a non-finite loss/gradient: 'skip' quarantines the "
            "batch and keeps training (escalates after repeated hits), "
            "'rollback' (default) lets --max-retries restore a snapshot, "
            "'raise' fails immediately even with snapshots configured"
        ),
    )
    train.add_argument(
        "--max-retries",
        type=int,
        default=0,
        help=(
            "divergence-recovery budget: on a non-finite loss, roll back to "
            "the last good snapshot with a halved learning rate up to this "
            "many times (default 0 = fail fast)"
        ),
    )
    train.add_argument(
        "--telemetry-dir",
        help=(
            "append a structured JSONL event trace (training gauges, span "
            "tree, health sentinels) to <dir>/trace.jsonl; resumed runs "
            "continue the same trace without gaps"
        ),
    )
    train.add_argument(
        "--log-every",
        type=int,
        default=0,
        help="emit a per-batch progress line every N batches (0 = per-epoch only)",
    )
    train.add_argument(
        "--elastic",
        action="store_true",
        help=(
            "train on the elastic multiprocess runtime: a coordinator "
            "supervises gradient workers with heartbeats, restarts or "
            "retires dead ones, and degrades to inline computation rather "
            "than dying; bit-identical parameters at any worker count"
        ),
    )
    train.add_argument(
        "--workers",
        type=int,
        help=(
            "gradient worker processes for --elastic (implies --elastic; "
            "default 2; 0 computes inline in the coordinator)"
        ),
    )
    train.add_argument(
        "--worker-timeout",
        type=float,
        default=30.0,
        help=(
            "seconds without a worker heartbeat before the supervisor "
            "declares it dead and re-shards its micro-batches"
        ),
    )
    train.set_defaults(handler=_cmd_train)

    evaluate = subparsers.add_parser("evaluate", help="score a saved bundle")
    _add_data_flags(evaluate)
    evaluate.add_argument("--bundle", required=True)
    evaluate.add_argument("--beam-size", type=int, default=3)
    evaluate.add_argument("--max-length", type=int, default=24)
    evaluate.add_argument("--num-examples", type=int, default=0, help="use only the last N examples")
    evaluate.add_argument(
        "--telemetry-dir",
        help="append decode/eval telemetry to <dir>/trace.jsonl",
    )
    evaluate.set_defaults(handler=_cmd_evaluate)

    generate = subparsers.add_parser("generate", help="generate questions for sentences")
    generate.add_argument("--bundle", required=True)
    generate.add_argument("--input", help="file with one sentence per line (default: stdin)")
    generate.add_argument("--beam-size", type=int, default=3)
    generate.add_argument("--max-length", type=int, default=24)
    generate.set_defaults(handler=_cmd_generate)

    serve = subparsers.add_parser(
        "serve", help="hardened inference service over sentences (file or stdin)"
    )
    serve.add_argument("--bundle", required=True)
    serve.add_argument("--input", help="file with one sentence per line (default: stdin)")
    serve.add_argument("--beam-size", type=int, default=3)
    serve.add_argument("--max-length", type=int, default=24)
    serve.add_argument("--deadline", type=float, default=5.0, help="per-request seconds")
    serve.add_argument(
        "--queue-limit", type=int, default=32,
        help=(
            "bounded request queue; when full, queued work is served "
            "before the next line is submitted"
        ),
    )
    serve.add_argument(
        "--max-rows", type=int, default=12,
        help="frontier row budget (a request uses beam-size rows)",
    )
    serve.add_argument(
        "--admit-per-step", type=int, default=4,
        help="max admissions per decode step",
    )
    serve.add_argument(
        "--cache-size", type=int, default=128,
        help="encoder-state cache capacity (0 disables the cache)",
    )
    serve.add_argument("--max-unk-density", type=float, default=0.8)
    serve.add_argument(
        "--pool-workers",
        type=int,
        default=0,
        help=(
            "serve through a supervised multi-process decode pool: N forked "
            "workers share the read-only weights, dead workers restart with "
            "backoff and their in-flight requests re-dispatch to survivors "
            "(0 = single-process serving)"
        ),
    )
    serve.add_argument(
        "--reload-on-hup",
        action="store_true",
        help=(
            "hot-reload the bundle's checkpoint on SIGHUP without dropping "
            "traffic (pool: prepare/commit handshake across workers; "
            "single-process: in-place swap between requests)"
        ),
    )
    serve.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="chaos mode: per-request probability of each injected fault kind",
    )
    serve.add_argument("--fault-seed", type=int, default=0)
    serve.add_argument(
        "--telemetry-dir",
        help="append serving telemetry to <dir>/trace.jsonl",
    )
    serve.set_defaults(handler=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``acnn`` console script."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
