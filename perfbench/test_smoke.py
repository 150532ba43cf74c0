"""Smoke test of the benchmark at n=30-40.

Every metric named in BENCHMARK.json is printed with its unit, no op
fails, and two traced runs with one seed repeat their work counts, quality
values and output digests exactly (the untraced run's digests too).
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)

EXACT = ("graph.bytes_read", "graph.bytes_written", "model.sample_calls",
         "specialize.calls", "embedding.calls", "embedding.iterations",
         "embedding.converged_ratio", "community.kmeans_calls",
         "analysis.clustering_calls", "analysis.null_draws", "cli.calls", "trace.spans")


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    *_, report, result = proc.stdout.splitlines()
    return json.loads(report)["report"], json.loads(result)


def check_result(result, specs):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke(workload):
    plain_report, plain = run(workload, 0)
    check_result(plain, SPEC["end_to_end"])
    assert plain_report["fail_ratio"] == 0

    (first_report, first), (second_report, second) = run(workload, 1), run(workload, 1)
    for result in (first, second):
        check_result(result, SPEC["per_layer"])
    assert ({k: first["metrics"][k]["value"] for k in EXACT}
            == {k: second["metrics"][k]["value"] for k in EXACT})
    assert first_report["quality"] == second_report["quality"] == plain_report["quality"]
    assert first_report["digests"] == second_report["digests"] == plain_report["digests"]
    assert None not in plain_report["digests"]
