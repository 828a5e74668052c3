"""Tests of the benchmark itself, on the tiny ``smoke`` configuration.

    python3 -m pytest perfbench/smoke.py -q

The file name keeps these tests out of the package's own test run; each
test drives the whole benchmark path in about a second.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(results: Path, trace: int, capsys, seed: int = 0):
    argv = ["--workload", "smoke", "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace)]
    code = run.main(argv, results_dir=results)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    record = json.loads((results / "smoke" / f"seed{seed}-trace{trace}.json").read_text())
    return code, json.loads(last), record


def _namespace() -> dict:
    from rbx import bounds, greedy, harness, reduced, surrogate

    owners = [
        bounds, greedy, harness, reduced, surrogate,
        harness.ExperimentConfig, bounds.ConstantBound, bounds.MinThetaBound,
    ]
    return {(repr(o), k): v for o in owners for k, v in vars(o).items()}


def test_benchmark_json_matches_the_code():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == layers.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_self_time_subtracts_child_spans():
    tracer = layers.Tracer()
    with tracer.span("outer"):
        time.sleep(0.002)
        with tracer.span("inner"):
            time.sleep(0.004)
    (outer,) = tracer.named("outer")
    (inner,) = tracer.named("inner")
    own = tracer.self_seconds(outer)
    assert own["inner"] == inner.seconds
    assert own["outer"] + own["inner"] == pytest.approx(outer.seconds, rel=1e-12)


def test_untraced_run_reports_end_to_end_metrics(tmp_path, capsys):
    code, result, record = _run(tmp_path, 0, capsys)
    assert code == 0
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {name: unit for name, unit, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(record["checks"]) == {"certified", "artifacts", "bound_holds", "single_matches_batch"}
    assert all(c["ok"] for c in record["checks"].values())
    assert len(record["setup_samples_s"]) == 2
    assert record["online"]["point_queries"] >= 50
    fingerprint = record["fingerprint"]
    assert len(fingerprint["snapshot_indices"]) == fingerprint["n_basis"]
    assert fingerprint["n_basis"] == result["metrics"]["n_basis"]["value"]
    env = record["environment"]
    assert env["nproc"] >= 1 and env["numpy"] and env["scipy"] and env["src_sha256"]
    assert set(env["blas_thread_env"]) == set(run.BLAS_THREAD_VARS)


def test_traced_run_restores_wrappers_and_keeps_behaviour(tmp_path, capsys):
    before = _namespace()
    code, result, traced = _run(tmp_path, 1, capsys)
    assert _namespace() == before
    assert code == 0 and result["correct"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {name: unit for name, unit, _ in layers.PER_LAYER}
    per_layer = traced["per_layer"]
    assert sum(traced["offline_self_s"].values()) == pytest.approx(
        per_layer["greedy.offline_traced_s"], rel=1e-9
    )
    assert per_layer["harness.build_calls"] == 5
    assert per_layer["greedy.sweeps_global"] >= 1 and per_layer["greedy.sweeps_surrogate"] >= 1
    assert per_layer["surrogate.pivot_steps"] == traced["fingerprint"]["counters"][
        "pivoted_cholesky_steps"
    ]

    _, _, plain = _run(tmp_path, 0, capsys)
    assert plain["fingerprint"] == traced["fingerprint"]


def test_compare_reports_changed_snapshots(tmp_path, capsys):
    _run(tmp_path / "a", 0, capsys)
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    same, ok = report.compare(report.load(tmp_path / "a"), report.load(tmp_path / "b"))
    assert ok and same["same_snapshots"] == {"smoke/seed0-trace0": True}

    path = tmp_path / "b" / "smoke" / "seed0-trace0.json"
    record = json.loads(path.read_text())
    record["fingerprint"]["snapshot_indices"].reverse()
    path.write_text(json.dumps(record))
    changed, ok = report.compare(report.load(tmp_path / "a"), report.load(tmp_path / "b"))
    assert not ok and changed["same_snapshots"] == {"smoke/seed0-trace0": False}


def test_compare_leaves_a_change_within_the_noise_unresolved():
    def rec(seed, offline_s):
        return {
            "result": {"correct": True},
            "end_to_end": {"offline_s": offline_s},
            "fingerprint": {"snapshot_indices": [3, 1], "n_basis": 2, "counters": {}},
        }

    steady = {("w", s, 0): rec(s, v) for s, v in enumerate([10.0, 10.1, 9.9, 10.0, 10.05])}
    noisy = {("w", s, 0): rec(s, v) for s, v in enumerate([10.0, 14.0, 7.0, 10.0, 13.0])}
    slower = {("w", s, 0): rec(s, 14.0) for s in range(5)}
    out, ok = report.compare(steady, slower)
    assert not ok and out["medians"]["w"]["offline_s"]["verdict"] == "fail"
    out, ok = report.compare(noisy, slower)
    assert ok and out["medians"]["w"]["offline_s"]["verdict"] == "unresolved"


def test_failed_check_zeroes_ok_ratio(tmp_path, capsys, monkeypatch):
    real = run.correctness_checks

    def failing(*args):
        checks = real(*args)
        checks["certified"]["ok"] = False
        return checks

    monkeypatch.setattr(run, "correctness_checks", failing)
    code, result, _ = _run(tmp_path, 0, capsys)
    assert code == 1 and not result["correct"] and result["failed"] == 1
    assert result["metrics"]["ok_ratio"]["value"] == 0.0


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "smoke", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
