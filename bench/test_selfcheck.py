"""Self-check of the benchmark harness on 200-sample draws.

Run with `python3 -m pytest bench -q` from the repository root. Every
workload's set-up, command sequence and traced pass run end to end, so
the harness cannot drift from the CLI or from BENCHMARK.json unnoticed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# layers a workload's commands never reach; every other timed layer must show time
NOT_RUN = {
    "experiment": {"synthetic.load_ground_truth_s", "synthetic.oracle_effect_s", "explainers.read_effects_s"},
    "pipeline": {
        "explainers.fit_slearner_s",
        "explainers.explain_slearner_s",
        "explainers.explain_approx_s",
    },
    "wide": {
        "synthetic.load_ground_truth_s",
        "synthetic.oracle_effect_s",
        "explainers.explain_approx_s",
    },
}


def test_benchmark_json_names_the_harness_metrics_and_workloads():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    record = run.run_workload(run.WORKLOADS["pipeline"], 0, 0, trace=False, n=200, work_root=tmp_path)
    result = record["result"]
    assert result["correct"] and result["failed"] == 0, record["problems"]
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_run_reports_every_layer_it_reaches(name, tmp_path):
    record = run.run_workload(run.WORKLOADS[name], 0, 0, trace=True, n=200, work_root=tmp_path)
    result = record["result"]
    assert result["correct"] and result["failed"] == 0, record["problems"]
    metrics = result["metrics"]
    assert set(metrics) == set(run.PER_LAYER)
    timed = {f"{layer}_s" for layer in run.LAYER_TIMES} | {"cli.startup_s", "cli.self_s"}
    for metric in timed - NOT_RUN[name]:
        assert metrics[metric]["value"] > 0, metric
    for metric in NOT_RUN[name]:
        assert metrics[metric]["value"] == 0, metric
    assert metrics["trace.coverage"]["value"] > 0.99
