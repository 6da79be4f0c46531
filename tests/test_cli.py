"""End-to-end tests for the ``acnn`` CLI (stats/train/evaluate/generate)."""

import json

import pytest

from repro.cli import build_parser, main


def test_stats_synthetic(capsys):
    assert main(["stats", "--train-size", "60"]) == 0
    out = capsys.readouterr().out
    assert "examples:" in out
    assert "overlap" in out


def test_stats_with_vocab_coverage(capsys):
    assert main(["stats", "--train-size", "60", "--decoder-vocab-size", "50"]) == 0
    assert "coverage" in capsys.readouterr().out


def test_stats_squad_json(tmp_path, capsys):
    context = "The tower was designed by Eiffel. It opened in 1889."
    payload = {
        "data": [
            {
                "paragraphs": [
                    {
                        "context": context,
                        "qas": [
                            {
                                "question": "Who designed the tower?",
                                "answers": [{"text": "Eiffel", "answer_start": context.index("Eiffel")}],
                            }
                        ],
                    }
                ]
            }
        ]
    }
    path = tmp_path / "squad.json"
    path.write_text(json.dumps(payload))
    assert main(["stats", "--squad-json", str(path)]) == 0
    assert "examples:                 1" in capsys.readouterr().out


@pytest.fixture(scope="module")
def trained_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle") / "run"
    code = main(
        [
            "train",
            "--train-size", "120",
            "--epochs", "2",
            "--hidden-size", "12",
            "--embedding-dim", "10",
            "--num-layers", "1",
            "--dropout", "0.0",
            "--encoder-vocab-size", "300",
            "--decoder-vocab-size", "80",
            "--batch-size", "16",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def test_train_writes_bundle(trained_bundle):
    assert (trained_bundle / "config.json").exists()
    assert (trained_bundle / "model.npz").exists()


def test_evaluate_bundle(trained_bundle, capsys):
    code = main(
        [
            "evaluate",
            "--bundle", str(trained_bundle),
            "--train-size", "120",
            "--num-examples", "20",
            "--beam-size", "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "BLEU-1" in out
    assert "exact=" in out


def test_generate_from_file(trained_bundle, tmp_path, capsys):
    sentences = tmp_path / "sentences.txt"
    sentences.write_text("velkorim was born in porzana in 1873 .\n")
    code = main(["generate", "--bundle", str(trained_bundle), "--input", str(sentences)])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert out, "generate produced no output"


def test_serve_continuous_default(trained_bundle, tmp_path, capsys):
    sentences = tmp_path / "sentences.txt"
    sentences.write_text(
        "velkorim was born in porzana in 1873 .\n"
        "the obrenta canal links mirova and telsk .\n"
    )
    code = main(["serve", "--bundle", str(trained_bundle), "--input", str(sentences)])
    assert code == 0
    captured = capsys.readouterr()
    assert "[req-0]" in captured.out and "[req-1]" in captured.out
    report = json.loads(captured.err)
    assert report["served"] == 2
    assert "encoder_cache" in report  # cache is on by default


def test_serve_without_encoder_cache(trained_bundle, tmp_path, capsys):
    sentences = tmp_path / "sentences.txt"
    sentences.write_text("velkorim was born in porzana in 1873 .\n")
    code = main(
        [
            "serve", "--bundle", str(trained_bundle), "--input", str(sentences),
            "--cache-size", "0",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    report = json.loads(captured.err)
    assert report["served"] == 1
    assert "encoder_cache" not in report


@pytest.mark.parametrize(
    "queue_limit, workers",
    [("4", "0"), ("4", "1"), ("2", "1")],
    ids=["single", "pool", "pool-limit-below-worker-in-flight"],
)
def test_serve_input_longer_than_queue_limit_is_all_served(
    trained_bundle, tmp_path, capsys, queue_limit, workers
):
    """The queue limit bounds memory, not input length: no line is shed,
    neither by the frontend queue nor by a pool worker's engine queue."""
    lines = [
        "velkorim was born in porzana in 1873 .",
        "the obrenta canal links mirova and telsk .",
    ] * 5
    sentences = tmp_path / "sentences.txt"
    sentences.write_text("\n".join(lines) + "\n")
    code = main(
        [
            "serve", "--bundle", str(trained_bundle), "--input", str(sentences),
            "--queue-limit", queue_limit, "--pool-workers", workers,
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().err)
    assert report["served"] == 10
    assert report["shed"] == 0


def test_serve_parser_defaults():
    args = build_parser().parse_args(["serve", "--bundle", "x"])
    assert args.max_rows == 12
    assert args.admit_per_step == 4
    assert args.cache_size == 128


def test_train_with_coverage_flag(tmp_path):
    out = tmp_path / "cov"
    code = main(
        [
            "train",
            "--train-size", "60",
            "--epochs", "1",
            "--hidden-size", "8",
            "--embedding-dim", "8",
            "--num-layers", "1",
            "--dropout", "0.0",
            "--coverage",
            "--out", str(out),
        ]
    )
    assert code == 0
    config = json.loads((out / "config.json").read_text())
    assert config["model_kwargs"] == {"use_coverage": True}


def test_stats_du_split(tmp_path, capsys):
    src = tmp_path / "src.txt"
    tgt = tmp_path / "tgt.txt"
    src.write_text("the tower was designed by eiffel .\n")
    tgt.write_text("who designed the tower ?\n")
    assert main(["stats", "--du-src", str(src), "--du-tgt", str(tgt)]) == 0
    assert "examples:                 1" in capsys.readouterr().out


def test_train_on_du_split(tmp_path):
    lines_src = [f"entity{i} was born in town{i} .\n" for i in range(40)]
    lines_tgt = [f"where was entity{i} born ?\n" for i in range(40)]
    src = tmp_path / "src.txt"
    tgt = tmp_path / "tgt.txt"
    src.write_text("".join(lines_src))
    tgt.write_text("".join(lines_tgt))
    out = tmp_path / "du-bundle"
    code = main(
        [
            "train",
            "--du-src", str(src),
            "--du-tgt", str(tgt),
            "--epochs", "1",
            "--hidden-size", "8",
            "--embedding-dim", "8",
            "--num-layers", "1",
            "--dropout", "0.0",
            "--batch-size", "8",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "model.npz").exists()


def test_train_parser_numerics_flags_default_off():
    args = build_parser().parse_args(["train", "--out", "x"])
    assert args.detect_anomaly is False
    assert args.overflow_policy == "rollback"


def test_train_parser_accepts_numerics_flags():
    args = build_parser().parse_args(
        ["train", "--out", "x", "--detect-anomaly", "--overflow-policy", "skip"]
    )
    assert args.detect_anomaly is True
    assert args.overflow_policy == "skip"


def test_train_parser_rejects_unknown_overflow_policy(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["train", "--out", "x", "--overflow-policy", "ignore"])
    assert "invalid choice" in capsys.readouterr().err


def test_train_with_numerics_flags_end_to_end(tmp_path):
    out = tmp_path / "numerics"
    code = main(
        [
            "train",
            "--train-size", "60",
            "--epochs", "1",
            "--hidden-size", "8",
            "--embedding-dim", "8",
            "--num-layers", "1",
            "--dropout", "0.0",
            "--detect-anomaly",
            "--overflow-policy", "skip",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "model.npz").exists()


def test_ingest_records_vocabs_and_train_skips_rescan(tmp_path, capsys):
    store = tmp_path / "store"
    code = main(
        [
            "ingest",
            "--train-size", "60",
            "--out", str(store),
            "--encoder-vocab-size", "300",
            "--decoder-vocab-size", "80",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "recorded vocabularies" in out
    assert (store / "VOCABS.json").exists()

    out_dir = tmp_path / "bundle"
    code = main(
        [
            "train",
            "--shards", str(store),
            "--epochs", "1",
            "--hidden-size", "8",
            "--embedding-dim", "8",
            "--num-layers", "1",
            "--dropout", "0.0",
            "--encoder-vocab-size", "300",
            "--decoder-vocab-size", "80",
            "--batch-size", "16",
            "--out", str(out_dir),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "recorded at ingest time" in out
    assert (out_dir / "model.npz").exists()


def test_train_rebuilds_vocabs_when_record_params_differ(tmp_path, capsys):
    store = tmp_path / "store"
    assert main(["ingest", "--train-size", "60", "--out", str(store)]) == 0
    capsys.readouterr()
    from repro.data import VocabsMismatchError

    # Different vocab sizes than the record: the stale record must be a
    # typed rejection, not a silent id shift.
    with pytest.raises(VocabsMismatchError):
        main(
            [
                "train",
                "--shards", str(store),
                "--epochs", "1",
                "--hidden-size", "8",
                "--embedding-dim", "8",
                "--num-layers", "1",
                "--dropout", "0.0",
                "--encoder-vocab-size", "77",
                "--out", str(tmp_path / "bundle"),
            ]
        )


def test_ingest_no_vocabs_flag_keeps_old_behaviour(tmp_path, capsys):
    store = tmp_path / "store"
    code = main(["ingest", "--train-size", "60", "--out", str(store), "--no-vocabs"])
    assert code == 0
    assert "recorded vocabularies" not in capsys.readouterr().out
    assert not (store / "VOCABS.json").exists()


def test_serve_parser_pool_flags_default_off():
    args = build_parser().parse_args(["serve", "--bundle", "x"])
    assert args.pool_workers == 0
    assert args.reload_on_hup is False


def test_serve_with_pool_workers(trained_bundle, tmp_path, capsys):
    sentences = tmp_path / "sentences.txt"
    sentences.write_text(
        "velkorim was born in porzana in 1873 .\n"
        "the obrenta canal links mirova and telsk .\n"
        "the tarnel museum opened in 1911 .\n"
    )
    code = main(
        [
            "serve", "--bundle", str(trained_bundle), "--input", str(sentences),
            "--pool-workers", "2",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "[req-0]" in captured.out and "[req-2]" in captured.out
    report = json.loads(captured.err)
    assert report["served"] == 3
    assert report["finished"] == report["submitted"] == 3
    assert report["workers"].keys() == {"0", "1"}
