"""Checks that tracing leaves results alone and that the benchmark keeps
its output contract.  Run from the repository root:

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT, script: Path = RUN):
    done = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return done


def _parse(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_results_and_counts_alone(workload):
    untraced_record, untraced = _parse(_run(workload, 0))
    first_record, first = _parse(_run(workload, 1))
    second_record, second = _parse(_run(workload, 1))

    for record, result in ((untraced_record, untraced), (first_record, first),
                           (second_record, second)):
        assert result["correct"] and result["failed"] == 0, record["errors"]
        assert record["digests_agree"]
    # the results digest of a traced run equals the untraced one, and repeats
    assert untraced_record["digest"] == first_record["digest"] == second_record["digest"]
    # per-pass counts repeat exactly across two traced runs
    counts = {
        name: metric["value"] for name, metric in first["metrics"].items()
        if metric["unit"] in ("count", "flop", "B")
    }
    assert counts == {name: second["metrics"][name]["value"] for name in counts}
    assert first_record["inexact_counts"] == [] and first_record["missing"] == []


def test_metrics_match_benchmark_json():
    _, untraced = _parse(_run("positivity_small", 0))
    _, traced = _parse(_run("positivity_small", 1))
    for key, result in (("end_to_end", untraced), ("per_layer", traced)):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        reported = {name: m["unit"] for name, m in result["metrics"].items()}
        assert reported == declared


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("scan", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert done.stdout == ""
