"""Pure-unit tests of the experiment result logic (no training involved)."""

from repro.experiments.configs import SMOKE
from repro.experiments.table1 import Table1Result
from repro.experiments.table2 import Table2Result
from repro.experiments.learning_curve import LearningCurveResult
from repro.experiments.runner import SystemSpec, SystemRun
from repro.evaluation.evaluator import EvaluationResult
from repro.training.history import TrainingHistory


def _fake_run(label, scores):
    spec = SystemSpec(key=label, label=label, family="acnn", source_mode="sentence")
    result = EvaluationResult(scores=scores, predictions=(), references=())
    return SystemRun(
        spec=spec,
        model=None,
        result=result,
        history=TrainingHistory(),
        train_seconds=0.0,
        eval_seconds=0.0,
    )


def _scores(b1, b2, b3, b4, rouge):
    return {"BLEU-1": b1, "BLEU-2": b2, "BLEU-3": b3, "BLEU-4": b4, "ROUGE-L": rouge}


def _table1(**rows):
    result = Table1Result(scale=SMOKE)
    for label, scores in rows.items():
        result.runs[label.replace("_", "-")] = _fake_run(label, scores)
    return result


def test_table1_orderings_all_true_when_paper_shape():
    result = Table1Result(scale=SMOKE)
    for label, b4, rouge in [
        ("Seq2Seq", 4.0, 30.0),
        ("Du-sent", 12.0, 40.0),
        ("Du-para", 11.0, 39.0),
        ("ACNN-sent", 14.0, 41.0),
        ("ACNN-para", 13.0, 40.5),
    ]:
        result.runs[label] = _fake_run(label, _scores(40, 25, 17, b4, rouge))
    orderings = result.ordering_holds()
    assert all(orderings.values())


def test_table1_detects_baseline_win():
    result = Table1Result(scale=SMOKE)
    for label, b4, rouge in [
        ("Seq2Seq", 4.0, 30.0),
        ("Du-sent", 20.0, 45.0),  # baseline beats ACNN
        ("Du-para", 11.0, 39.0),
        ("ACNN-sent", 14.0, 41.0),
        ("ACNN-para", 13.0, 40.5),
    ]:
        result.runs[label] = _fake_run(label, _scores(40, 25, 17, b4, rouge))
    orderings = result.ordering_holds()
    assert not orderings["acnn_sent_beats_du_sent"]
    assert not orderings["acnn_beats_all_baselines"]


def test_table1_detects_paragraph_row_win():
    result = Table1Result(scale=SMOKE)
    for label, b4, rouge in [
        ("Seq2Seq", 4.0, 30.0),
        ("Du-sent", 12.0, 40.0),
        ("Du-para", 11.0, 39.0),
        ("ACNN-sent", 14.0, 41.0),
        ("ACNN-para", 13.0, 41.5),  # paragraph row wins on ROUGE-L only
    ]:
        result.runs[label] = _fake_run(label, _scores(40, 25, 17, b4, rouge))
    orderings = result.ordering_holds()
    assert not orderings["acnn_sent_beats_acnn_para"]
    assert orderings["acnn_beats_all_baselines"]


def test_table2_ordering_logic():
    result = Table2Result(scale=SMOKE)
    result.runs["ACNN-para-150"] = _fake_run("ACNN-para-150", _scores(43, 25, 17, 12.0, 39.0))
    result.runs["ACNN-para-120"] = _fake_run("ACNN-para-120", _scores(44, 25, 17, 13.0, 40.0))
    result.runs["ACNN-para-100"] = _fake_run("ACNN-para-100", _scores(44, 26, 18, 13.5, 40.5))
    orderings = result.ordering_holds()
    assert orderings["len100_beats_len150"]
    assert orderings["len100_best_rouge"]


def test_table2_detects_reversed_shape():
    result = Table2Result(scale=SMOKE)
    result.runs["ACNN-para-150"] = _fake_run("ACNN-para-150", _scores(44, 26, 18, 14.0, 41.0))
    result.runs["ACNN-para-120"] = _fake_run("ACNN-para-120", _scores(44, 25, 17, 13.0, 40.0))
    result.runs["ACNN-para-100"] = _fake_run("ACNN-para-100", _scores(43, 25, 17, 12.0, 39.0))
    orderings = result.ordering_holds()
    assert not orderings["len100_beats_len150"]
    assert not orderings["len100_best_rouge"]


def test_learning_curve_series_and_gaps():
    result = LearningCurveResult(scale=SMOKE, sizes=(100, 200))
    for size, du, acnn in [(100, 5.0, 9.0), (200, 8.0, 11.0)]:
        result.runs[("Du-attention", size)] = _fake_run("Du", _scores(0, 0, 0, du, du))
        result.runs[("ACNN", size)] = _fake_run("ACNN", _scores(0, 0, 0, acnn, acnn))
    assert result.series("ACNN") == [9.0, 11.0]
    assert result.gaps() == [4.0, 3.0]
    assert result.acnn_always_ahead("BLEU-4")


def test_learning_curve_render_contains_gap_row():
    result = LearningCurveResult(scale=SMOKE, sizes=(100,))
    result.runs[("Du-attention", 100)] = _fake_run("Du", _scores(1, 1, 1, 1.0, 1.0))
    result.runs[("ACNN", 100)] = _fake_run("ACNN", _scores(2, 2, 2, 2.0, 2.0))
    text = result.render()
    assert "gap (ACNN-Du)" in text
    assert "+1.00" in text


def test_variance_spread_logic():
    from repro.experiments.variance import VarianceResult

    result = VarianceResult(scale=SMOKE, label="acnn-sent")
    for seed, b4 in [(0, 10.0), (1, 14.0), (2, 12.0)]:
        result.runs[seed] = _fake_run("acnn-sent", _scores(20, 18, 15, b4, 30))
    assert result.values("BLEU-4") == [10.0, 14.0, 12.0]
    spread = result.spread("BLEU-4")
    assert spread["mean"] == 12.0
    assert spread["min"] == 10.0
    assert spread["max"] == 14.0
    assert spread["std"] == 2.0
    assert "range" in result.render()


def test_variance_single_seed_std_zero():
    from repro.experiments.variance import VarianceResult

    result = VarianceResult(scale=SMOKE, label="acnn-sent")
    result.runs[0] = _fake_run("acnn-sent", _scores(1, 1, 1, 1.0, 1.0))
    assert result.spread("BLEU-4")["std"] == 0.0


def test_domain_transfer_copy_transfers_logic():
    from repro.experiments.domain_transfer import DomainTransferResult

    result = DomainTransferResult(scale=SMOKE)
    result.oov_recall = {
        "ACNN": {"in": 0.6, "out": 0.2},
        "Du-attention": {"in": 0.0, "out": 0.0},
    }
    assert result.copy_transfers()
    result.oov_recall["ACNN"]["out"] = 0.0
    assert not result.copy_transfers()
