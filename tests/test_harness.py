"""Experiment harness: config handling, artifacts, self-checks, CLI."""

import json

import numpy as np
import pytest

import rbx.harness as harness
from rbx.cli import main as cli_main
from rbx.errors import ConfigurationError, ResourceError
from rbx.greedy import GreedyConfig
from rbx.harness import ExperimentConfig, run_experiment, verify


def tiny_config_dict(**overrides):
    raw = {
        "problem": {"name": "diffusion2d", "n_x": 8},
        "training": {"kind": "grid", "n_per_dim": 4, "seed": 0},
        "methods": ["classical", "smm", "cdm"],
        "greedy": {"eps_tol": 1e-9, "n_max": 4, "seed": 0},
    }
    raw.update(overrides)
    return raw


class TestConfigParsing:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            ExperimentConfig.from_dict(tiny_config_dict(buget=3))

    def test_problem_required_and_known(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict({"methods": ["classical"]})
        with pytest.raises(ConfigurationError, match="unknown problem"):
            ExperimentConfig.from_dict(tiny_config_dict(problem={"name": "stokes"}))

    def test_problem_as_bare_name(self):
        config = ExperimentConfig.from_dict({"problem": "thermalblock"})
        assert config.problem_name == "thermalblock"
        assert config.training["kind"] == "random"  # per-problem default
        assert config.greedy_common["eps_tol"] == 1e-5

    def test_unknown_problem_parameter(self):
        with pytest.raises(ConfigurationError, match="problem parameters"):
            ExperimentConfig.from_dict(
                tiny_config_dict(problem={"name": "diffusion2d", "cells": 9})
            )

    def test_training_kind_checked(self):
        with pytest.raises(ConfigurationError, match="training.kind"):
            ExperimentConfig.from_dict(tiny_config_dict(training={"kind": "sobol"}))

    def test_methods_validated(self):
        with pytest.raises(ConfigurationError, match="unknown method"):
            ExperimentConfig.from_dict(tiny_config_dict(methods=["pod"]))
        with pytest.raises(ConfigurationError, match="distinct"):
            ExperimentConfig.from_dict(tiny_config_dict(methods=["smm", "smm"]))
        with pytest.raises(ConfigurationError, match="nonempty"):
            ExperimentConfig.from_dict(tiny_config_dict(methods=[]))

    def test_greedy_keys_checked_in_common_and_method_blocks(self):
        with pytest.raises(ConfigurationError, match="unknown greedy keys"):
            ExperimentConfig.from_dict(tiny_config_dict(greedy={"epsilon": 1.0}))
        with pytest.raises(ConfigurationError, match="unknown greedy.cdm keys"):
            ExperimentConfig.from_dict(
                tiny_config_dict(greedy={"eps_tol": 1.0, "cdm": {"anchors": 2}})
            )

    def test_removed_cdm_memory_cap_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown greedy keys"):
            ExperimentConfig.from_dict(
                tiny_config_dict(greedy={"eps_tol": 1.0, "cdm_memory_cap_bytes": 1 << 30})
            )

    def test_repetitions_and_workers_positive(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict(tiny_config_dict(repetitions=0))
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict(tiny_config_dict(workers=0))

    def test_from_file_errors(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            ExperimentConfig.from_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            ExperimentConfig.from_file(bad)

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tiny_config_dict()), encoding="utf-8")
        config = ExperimentConfig.from_file(path)
        assert config.problem_params == {"n_x": 8}
        assert config.methods == ["classical", "smm", "cdm"]


class TestGreedyConfigMerge:
    def test_method_defaults_applied(self):
        config = ExperimentConfig.from_dict(tiny_config_dict())
        smm = config.greedy_config("smm")
        cdm = config.greedy_config("cdm")
        assert smm.k_damp == 1 and cdm.k_damp == 10
        assert smm.budget(1) == 4 and cdm.budget(1) == 40
        assert config.greedy_config("classical").m_schedule is None

    def test_library_and_harness_run_the_same_cdm(self):
        harness_cdm = ExperimentConfig.from_dict({"problem": "thermalblock"}).greedy_config("cdm")
        assert GreedyConfig(eps_tol=1.0, method="cdm").k_damp == harness_cdm.k_damp

    def test_common_and_method_overrides(self):
        raw = tiny_config_dict(
            greedy={
                "eps_tol": 1e-2,
                "k_damp": 5,
                "cdm": {"k_damp": 7, "m_fixed": 13},
            }
        )
        config = ExperimentConfig.from_dict(raw)
        assert config.greedy_config("smm").k_damp == 5
        cdm = config.greedy_config("cdm")
        assert cdm.k_damp == 7
        assert cdm.m_schedule(1) == 13 and cdm.m_schedule(9) == 13

    def test_growth_and_fixed_conflict(self):
        raw = tiny_config_dict(greedy={"eps_tol": 1.0, "m_growth": 2, "m_fixed": 5})
        config = ExperimentConfig.from_dict(raw)
        with pytest.raises(ConfigurationError, match="not both"):
            config.greedy_config("smm")

    def test_bad_value_surfaces_as_configuration_error(self):
        raw = tiny_config_dict(greedy={"eps_tol": "high"})
        config = ExperimentConfig.from_dict(raw)
        with pytest.raises((ConfigurationError, TypeError)):
            config.greedy_config("classical")


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    config = ExperimentConfig.from_dict(tiny_config_dict())
    out = tmp_path_factory.mktemp("artifacts")
    return run_experiment(config, out_dir=out), config


class TestRunExperiment:
    def test_files_written(self, artifact_dir):
        target, _ = artifact_dir
        for name in ("convergence.csv", "sar.csv", "snapshots.csv", "summary.json"):
            assert (target / name).is_file()
        assert not (target / "INCOMPLETE").exists()

    def test_csv_headers_and_columns(self, artifact_dir):
        target, config = artifact_dir
        lines = (target / "convergence.csv").read_text().splitlines()
        assert lines[0].startswith("# config: ")
        echoed = json.loads(lines[0][len("# config: ") :])
        assert echoed["problem"] == {"name": "diffusion2d", "n_x": 8}
        assert lines[1] == "# seeds: training=0 greedy=0"
        assert lines[2] == "method,n,delta_max,cum_estimator_evals,cum_wall_ms"
        assert all(line.split(",")[0] in ("classical", "smm", "cdm") for line in lines[3:])

    def test_float_cells_use_full_precision(self, artifact_dir):
        target, _ = artifact_dir
        rows = (target / "convergence.csv").read_text().splitlines()[3:]
        for row in rows:
            cell = row.split(",")[2]
            assert cell == "%.17g" % float(cell)

    def test_sar_rows_only_for_enhanced_methods(self, artifact_dir):
        target, _ = artifact_dir
        lines = (target / "sar.csv").read_text().splitlines()
        assert lines[2] == "method,ell,E_ell,M_ell,N_ell,sar"
        body = [line.split(",") for line in lines[3:]]
        assert body, "enhanced runs must produce outer-loop rows"
        assert {row[0] for row in body} <= {"smm", "cdm"}
        for row in body:
            assert int(row[4]) <= int(row[3])  # inner additions within budget

    def test_snapshots_schema(self, artifact_dir):
        target, _ = artifact_dir
        lines = (target / "snapshots.csv").read_text().splitlines()
        assert lines[2] == "method,order,mu_1,mu_2"
        first = lines[3].split(",")
        assert first[0] == "classical" and first[1] == "1"
        assert -0.99 <= float(first[2]) <= 0.99

    def test_summary_contents(self, artifact_dir):
        target, config = artifact_dir
        summary = json.loads((target / "summary.json").read_text())
        assert summary["n_train"] == 16
        for method in ("classical", "smm", "cdm"):
            entry = summary["methods"][method]
            assert entry["n_final"] == 4 and entry["certified"] is False
            assert entry["estimator_evals"] == entry["counters"]["estimator_evals"]
        for method in ("smm", "cdm"):
            entry = summary["methods"][method]
            assert "speedup_vs_classical" in entry
            assert "mean_sar" in entry and 0.0 <= entry["mean_sar"] <= 1.0
            assert entry["eval_ratio_bound"] > 0

    def test_determinism_modulo_wall_times(self, tmp_path):
        config = ExperimentConfig.from_dict(tiny_config_dict())
        a = run_experiment(config, out_dir=tmp_path / "a")
        b = run_experiment(config, out_dir=tmp_path / "b")

        def strip_walls(path):
            rows = []
            for line in path.read_text().splitlines()[3:]:
                cells = line.split(",")
                rows.append(cells[:-1])  # last column is cumulative wall ms
            return rows

        assert strip_walls(a / "convergence.csv") == strip_walls(b / "convergence.csv")
        assert (a / "sar.csv").read_text() == (b / "sar.csv").read_text()
        assert (a / "snapshots.csv").read_text() == (b / "snapshots.csv").read_text()

    def test_enhanced_without_classical_has_no_speedup_fields(self, tmp_path):
        config = ExperimentConfig.from_dict(tiny_config_dict(methods=["smm"]))
        target = run_experiment(config, out_dir=tmp_path)
        summary = json.loads((target / "summary.json").read_text())
        entry = summary["methods"]["smm"]
        assert "speedup_vs_classical" not in entry
        assert "eval_ratio_vs_classical" not in entry
        assert "mean_sar" in entry

    def test_write_failure_leaves_marker(self, tmp_path, monkeypatch):
        config = ExperimentConfig.from_dict(tiny_config_dict())

        def broken(path, header_lines, columns, rows):
            raise OSError("disk full")

        monkeypatch.setattr(harness, "_write_csv", broken)
        with pytest.raises(ResourceError):
            run_experiment(config, out_dir=tmp_path)
        marker = tmp_path / "INCOMPLETE"
        assert marker.is_file() and "disk full" in marker.read_text()

    def test_workers_override_validated(self, tmp_path):
        config = ExperimentConfig.from_dict(tiny_config_dict())
        with pytest.raises(ConfigurationError):
            run_experiment(config, out_dir=tmp_path, workers=0)

    def test_repetitions_keep_all_walls(self):
        config = ExperimentConfig.from_dict(
            tiny_config_dict(methods=["classical"], repetitions=2)
        )
        results = harness.run_methods(config)
        assert len(results["classical"].wall_ms_all) == 2

    def test_cost_counters_shape(self):
        config = ExperimentConfig.from_dict(tiny_config_dict())
        problem = config.build_problem()
        counters = problem.counters.snapshot()
        assert counters["truth_solves"] == 0
        assert set(counters) >= {
            "truth_solves",
            "riesz_solves",
            "estimator_evals",
            "sweep_evals_global",
            "sweep_evals_surrogate",
            "reproduction_checks",
        }


class TestVerify:
    def test_quick_checks_pass(self):
        report = verify(quick=True)
        assert len(report) == 4
        for name, ok, detail in report:
            assert ok, f"{name}: {detail}"


class TestCli:
    def test_problems_listing(self, capsys):
        assert cli_main(["problems"]) == 0
        out = capsys.readouterr().out
        assert "diffusion2d" in out and "thermalblock" in out

    def test_run_with_missing_config_exits_2(self, tmp_path, capsys):
        code = cli_main(["run", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_run_with_invalid_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1,", encoding="utf-8")
        assert cli_main(["run", "--config", str(bad)]) == 2

    def test_run_writes_artifacts(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tiny_config_dict()), encoding="utf-8")
        out = tmp_path / "results"
        code = cli_main(["run", "--config", str(path), "--out", str(out)])
        assert code == 0
        assert (out / "summary.json").is_file()
        assert str(out) in capsys.readouterr().out

    def test_verify_quick_exits_0(self, capsys):
        assert cli_main(["verify", "--quick"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 4
