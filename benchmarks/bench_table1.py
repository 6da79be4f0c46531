"""Benchmark regenerating the paper's Table 1.

Trains and evaluates all five systems (Seq2Seq, Du-sent, Du-para,
ACNN-sent, ACNN-para) on the shared synthetic corpus and renders the
measured table next to the paper's. At ``ACNN_BENCH_SCALE=default`` this is
the run recorded in EXPERIMENTS.md and the qualitative orderings are
asserted; at smoke scale only the plumbing and table structure are checked.
"""

from conftest import write_result

from repro.evaluation import METRIC_NAMES
from repro.experiments.table1 import run_table1


def test_table1(benchmark, bench_scale, results_dir):
    result = benchmark.pedantic(
        lambda: run_table1(bench_scale), rounds=1, iterations=1
    )

    assert set(result.scores) == {"Seq2Seq", "Du-sent", "Du-para", "ACNN-sent", "ACNN-para"}
    for scores in result.scores.values():
        assert set(scores) == set(METRIC_NAMES)

    rendered = result.render()
    orderings = result.ordering_holds()
    rendered += "\n\norderings: " + ", ".join(f"{k}={v}" for k, v in orderings.items())
    write_result(results_dir, f"table1_{bench_scale.name}.txt", rendered)
    print("\n" + rendered)

    if bench_scale.name == "default":
        # The paper's qualitative claims must hold at the recorded scale.
        assert orderings["acnn_sent_beats_du_sent"]
        assert orderings["acnn_para_beats_du_para"]
        assert orderings["attention_beats_seq2seq"]
        assert orderings["acnn_sent_beats_acnn_para"]
