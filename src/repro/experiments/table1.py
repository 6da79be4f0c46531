"""Table 1 — main comparison: Seq2Seq, Du-sent, Du-para, ACNN-sent, ACNN-para.

The paper's reported numbers (SQuAD, Du et al. split) are kept in
``PAPER_TABLE1`` for side-by-side comparison. Absolute values from this
harness come from the synthetic corpus at a CPU scale and will differ; the
claims under reproduction are the *orderings*: both ACNN variants beat both
Du variants and Seq2Seq on every metric, and sentence inputs edge out
paragraph inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.synthetic import generate_corpus
from repro.evaluation.reporting import format_table
from repro.experiments.configs import DEFAULT, ExperimentScale
from repro.experiments.runner import TABLE1_SYSTEMS, SystemRun, run_system

__all__ = ["PAPER_TABLE1", "Table1Result", "run_table1"]

PAPER_TABLE1: dict[str, dict[str, float]] = {
    "Seq2Seq": {"BLEU-1": 31.34, "BLEU-2": 13.79, "BLEU-3": 7.36, "BLEU-4": 4.26, "ROUGE-L": 29.75},
    "Du-sent": {"BLEU-1": 43.09, "BLEU-2": 25.96, "BLEU-3": 17.50, "BLEU-4": 12.28, "ROUGE-L": 39.75},
    "Du-para": {"BLEU-1": 42.54, "BLEU-2": 25.33, "BLEU-3": 16.98, "BLEU-4": 11.86, "ROUGE-L": 39.37},
    "ACNN-sent": {"BLEU-1": 44.78, "BLEU-2": 26.83, "BLEU-3": 18.72, "BLEU-4": 13.97, "ROUGE-L": 41.08},
    "ACNN-para": {"BLEU-1": 44.37, "BLEU-2": 26.15, "BLEU-3": 18.02, "BLEU-4": 13.49, "ROUGE-L": 40.57},
}


@dataclass
class Table1Result:
    """Measured scores for each system plus run bookkeeping."""

    scale: ExperimentScale
    runs: dict[str, SystemRun] = field(default_factory=dict)

    @property
    def scores(self) -> dict[str, dict[str, float]]:
        return {label: run.scores for label, run in self.runs.items()}

    def render(self) -> str:
        measured = format_table(self.scores, title=f"Table 1 (measured, scale={self.scale.name})")
        paper = format_table(PAPER_TABLE1, title="Table 1 (paper, SQuAD)")
        return measured + "\n\n" + paper

    def ordering_holds(self) -> dict[str, bool]:
        """The paper's qualitative claims, checked on the measured numbers."""
        scores = self.scores
        bleu4 = {name: s["BLEU-4"] for name, s in scores.items()}
        rouge = {name: s["ROUGE-L"] for name, s in scores.items()}
        return {
            "acnn_sent_beats_du_sent": bleu4["ACNN-sent"] > bleu4["Du-sent"]
            and rouge["ACNN-sent"] > rouge["Du-sent"],
            "acnn_para_beats_du_para": bleu4["ACNN-para"] > bleu4["Du-para"]
            and rouge["ACNN-para"] > rouge["Du-para"],
            "attention_beats_seq2seq": min(bleu4["Du-sent"], bleu4["Du-para"]) > bleu4["Seq2Seq"],
            "acnn_beats_all_baselines": min(bleu4["ACNN-sent"], bleu4["ACNN-para"])
            > max(bleu4["Seq2Seq"], bleu4["Du-sent"], bleu4["Du-para"]),
            "acnn_sent_beats_acnn_para": bleu4["ACNN-sent"] > bleu4["ACNN-para"]
            and rouge["ACNN-sent"] > rouge["ACNN-para"],
        }


def run_table1(
    scale: ExperimentScale = DEFAULT,
    systems: tuple = TABLE1_SYSTEMS,
    verbose: bool = False,
    run_dir: str | None = None,
    resume: bool = False,
    max_retries: int = 0,
    snapshot_every: int = 0,
    telemetry_dir: str | None = None,
    log_every: int = 0,
    workers: int | None = None,
    worker_timeout: float = 30.0,
    elastic: bool = False,
) -> Table1Result:
    """Train and evaluate every Table 1 system on a shared corpus.

    With ``run_dir``/``resume`` an interrupted table run continues where it
    stopped: finished systems are reloaded from their completion markers and
    the in-flight system resumes from its latest valid snapshot. With
    ``telemetry_dir`` each system writes its structured event trace under
    ``<telemetry_dir>/<key>/trace.jsonl``.
    """
    corpus = generate_corpus(scale.synthetic_config())
    result = Table1Result(scale=scale)
    for spec in systems:
        if verbose:
            print(f"== {spec.label} ({spec.family}, {spec.source_mode}) ==")
        run = run_system(
            spec,
            scale,
            corpus=corpus,
            verbose=verbose,
            run_dir=run_dir,
            resume=resume,
            max_retries=max_retries,
            snapshot_every=snapshot_every,
            telemetry_dir=telemetry_dir,
            log_every=log_every,
            workers=workers,
            worker_timeout=worker_timeout,
            elastic=elastic,
        )
        result.runs[spec.label] = run
        if verbose:
            print(f"  {run.result.summary()}")
            print(f"  train {run.train_seconds:.1f}s, eval {run.eval_seconds:.1f}s")
    return result
