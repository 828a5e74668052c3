"""Experiment harness: config handling, artifacts, CLI, public surface."""

import errno
import importlib
import json
from types import SimpleNamespace

import numpy as np
import pytest

import rbx
import rbx.harness as harness
from rbx.cli import main as cli_main
from rbx.errors import ConfigurationError, NumericalFailureError, ResourceError
from rbx.greedy import GreedyConfig
from rbx.harness import ExperimentConfig, run_experiment


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
        # one integer rule, from the config root and from a greedy block
        for overrides, key in [
            ({"repetitions": 0}, "repetitions"),
            ({"workers": 0}, "workers"),
            ({"greedy": {"eps_tol": 1.0, "n_max": 0}}, "n_max"),
        ]:
            with pytest.raises(ConfigurationError, match=f"{key} must be at least 1, got 0"):
                ExperimentConfig.from_dict(tiny_config_dict(**overrides))

    def test_training_keys_checked(self):
        raw = {"problem": "thermalblock", "training": {"kind": "random", "cuont": 50}}
        with pytest.raises(ConfigurationError, match=r"unknown training keys: \['cuont'\]"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"repetitions": "two"}, "repetitions"),
            ({"workers": "two"}, "workers"),
            ({"training": {"kind": "random", "count": "two"}}, "training.count"),
            ({"training": {"kind": "grid", "n_per_dim": "two"}}, "training.n_per_dim"),
            ({"training": {"kind": "grid", "n_per_dim": 4, "seed": None}}, "training.seed"),
            # wrong types are rejected, not truncated or coerced
            (
                {"problem": {"name": "thermalblock", "nodes_per_side": 7.9}},
                "problem.nodes_per_side",
            ),
            ({"training": {"kind": "random", "count": "300"}}, "training.count"),
            ({"training": {"kind": "grid", "n_per_dim": 4, "seed": True}}, "training.seed"),
        ],
    )
    def test_non_integer_values_rejected(self, overrides, key):
        with pytest.raises(ConfigurationError, match=f"^{key} must be an integer"):
            ExperimentConfig.from_dict(tiny_config_dict(**overrides))

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
    @pytest.mark.parametrize("key", ["m_growth"])
    def test_non_integer_schedule_rejected(self, key):
        raw = tiny_config_dict(greedy={"eps_tol": 1.0, key: "two"})
        with pytest.raises(ConfigurationError, match=f"{key} must be an integer"):
            ExperimentConfig.from_dict(raw)

    def test_method_defaults_applied(self):
        config = ExperimentConfig.from_dict(tiny_config_dict())
        smm = config.greedy_config("smm")
        cdm = config.greedy_config("cdm")
        assert smm.k_damp == 1 and cdm.k_damp == 10
        assert smm.budget(1) == 4 and cdm.budget(1) == 40
        assert smm.m_growth == 2 and cdm.m_growth == 20

    def test_library_and_harness_run_the_same_cdm(self):
        harness_cdm = ExperimentConfig.from_dict({"problem": "thermalblock"}).greedy_config("cdm")
        assert GreedyConfig(eps_tol=1.0, method="cdm").k_damp == harness_cdm.k_damp

    def test_common_and_method_overrides(self):
        raw = tiny_config_dict(
            greedy={
                "eps_tol": 1e-2,
                "k_damp": 5,
                "m_growth": 3,
                "cdm": {"k_damp": 7, "m_growth": 13},
            }
        )
        config = ExperimentConfig.from_dict(raw)
        smm = config.greedy_config("smm")
        assert smm.k_damp == 5 and smm.budget(1) == 6
        cdm = config.greedy_config("cdm")
        assert cdm.k_damp == 7
        assert cdm.budget(1) == 26 and cdm.budget(9) == 130

    def test_bad_value_surfaces_as_configuration_error(self):
        raw = tiny_config_dict(greedy={"eps_tol": "high"})
        with pytest.raises(ConfigurationError, match="eps_tol must be a number"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "greedy, field",
        [
            ({"n_max": "four"}, "n_max"),
            ({"n_max": 4.0}, "n_max"),
            ({"smm": {"k_damp": True}}, "k_damp"),
            ({"seed": None}, "seed"),
            ({"cdm": {"m_growth": 1.5}}, "m_growth"),
        ],
    )
    def test_greedy_fields_type_checked_at_parse_time(self, greedy, field):
        raw = tiny_config_dict(greedy={"eps_tol": 1.0, **greedy})
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
            ExperimentConfig.from_dict(raw)


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

    def test_seeds_line_names_each_method_seed(self, tmp_path):
        raw = tiny_config_dict(
            methods=["classical", "cdm"], greedy={"eps_tol": 1e-9, "n_max": 4, "cdm": {"seed": 3}}
        )
        target = run_experiment(ExperimentConfig.from_dict(raw), out_dir=tmp_path)
        for name in ("convergence.csv", "sar.csv", "snapshots.csv"):
            lines = (target / name).read_text().splitlines()
            assert lines[1] == "# seeds: training=0 greedy=classical:0,cdm:3"

    @pytest.mark.parametrize(
        "greedy, line",
        [
            ({"seed": 5}, "# seeds: training=0 greedy=5"),
            ({"classical": {"seed": 2}, "cdm": {"seed": 2}}, "# seeds: training=0 greedy=2"),
            ({"seed": 5, "cdm": {"seed": 0}}, "# seeds: training=0 greedy=classical:5,cdm:0"),
        ],
    )
    def test_seeds_line_shared_seed_once(self, greedy, line):
        raw = tiny_config_dict(methods=["classical", "cdm"], greedy={"eps_tol": 1e-9, **greedy})
        assert harness._csv_header_lines(ExperimentConfig.from_dict(raw))[1] == line

    def test_csv_rows_round_trip_records(self, tmp_path, monkeypatch):
        config = ExperimentConfig.from_dict(tiny_config_dict())
        results = {}
        real = harness.run_methods

        def run_methods(config):
            results.update(real(config))
            return results

        monkeypatch.setattr(harness, "run_methods", run_methods)
        target = run_experiment(config, out_dir=tmp_path)

        def parsed(name, kinds):
            lines = (target / name).read_text().splitlines()[3:]
            return [
                (row[0], *(kind(cell) for kind, cell in zip(kinds, row[1:], strict=True)))
                for row in (line.split(",") for line in lines)
            ]

        traces = [(m, results[m].trace) for m in config.methods]
        convergence = [
            (m, r.n, r.delta_max, r.cum_estimator_evals, r.wall_ms)
            for m, trace in traces
            for r in trace.iterations
        ]
        sar = [
            (m, r.ell, r.e_ell, r.m_budget, r.n_added_inner, r.sar)
            for m, trace in traces
            for r in trace.outer_loops
        ]
        snapshots = [
            (m, order, *mu)
            for m in config.methods
            for order, mu in enumerate(results[m].model.snapshot_params, start=1)
        ]
        assert convergence and sar and snapshots
        assert parsed("convergence.csv", (int, float, int, float)) == convergence
        assert parsed("sar.csv", (int, float, int, int, float)) == sar
        assert parsed("snapshots.csv", (int, float, float)) == snapshots

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
        # cdm blends one approximate error per candidate per round
        cdm = summary["methods"]["cdm"]
        assert cdm["candidates"] == cdm["counters"]["approx_error_evals"]
        assert "candidates" not in summary["methods"]["smm"]

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
        real_csv, real_replace = harness._write_csv, harness.os.replace

        def broken(path, header_lines, columns, rows):
            raise OSError("disk full")

        monkeypatch.setattr(harness, "_write_csv", broken)
        with pytest.raises(ResourceError):
            run_experiment(config, out_dir=tmp_path)
        marker = tmp_path / "INCOMPLETE"
        assert marker.is_file() and "disk full" in marker.read_text()

        # the summary's temporary is complete when its rename fails
        def replace(src, dst):
            if str(dst).endswith("summary.json"):
                raise OSError("rename refused")
            return real_replace(src, dst)

        monkeypatch.setattr(harness, "_write_csv", real_csv)
        monkeypatch.setattr(harness.os, "replace", replace)
        out = tmp_path / "summary"
        with pytest.raises(ResourceError):
            run_experiment(config, out_dir=out)
        assert (out / "snapshots.csv").is_file()
        assert not (out / "summary.json").exists()
        assert not list(out.glob("*.tmp"))
        assert "rename refused" in (out / "INCOMPLETE").read_text()

    def test_workers_override_validated(self, tmp_path):
        # the same integer check as the "workers" config key
        config = ExperimentConfig.from_dict(tiny_config_dict())
        for bad in (0, 2.7, "3", True):
            with pytest.raises(ConfigurationError):
                run_experiment(config, out_dir=tmp_path, workers=bad)
            assert config.workers == 1

    def test_repetitions_keep_all_walls(self):
        config = ExperimentConfig.from_dict(
            tiny_config_dict(methods=["classical"], repetitions=2)
        )
        results = harness.run_methods(config)
        assert len(results["classical"].wall_ms_all) == 2

    def test_repetitions_keep_first_model_and_trace(self, monkeypatch):
        config = ExperimentConfig.from_dict(
            tiny_config_dict(methods=["classical"], repetitions=2)
        )
        runs = []
        real = harness.run_greedy

        def run_greedy(problem, train, gconf):
            runs.append(real(problem, train, gconf))
            return runs[-1]

        monkeypatch.setattr(harness, "run_greedy", run_greedy)
        result = harness.run_methods(config)["classical"]
        assert len(runs) == 2
        assert result.model is runs[0][0] and result.trace is runs[0][1]
        assert result.wall_ms_all == [trace.wall_ms_total for _, trace in runs]

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

    @pytest.mark.parametrize(
        "overrides",
        [
            {"training": {"kind": "grid", "cuont": 4}},
            {"repetitions": "two"},
            # the removed block-size knob is an unknown greedy key
            {"greedy": {"eps_tol": 1e-9, "sweep_chunk": 64}},
        ],
    )
    def test_run_with_bad_config_value_exits_2(self, tmp_path, capsys, overrides):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tiny_config_dict(**overrides)), encoding="utf-8")
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_with_zero_workers_exits_2_before_any_output(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tiny_config_dict()), encoding="utf-8")
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(path), "--out", str(out), "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "workers" in err
        assert not out.exists()

    def test_run_with_mistyped_greedy_field_exits_2_before_any_output(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        raw = tiny_config_dict(greedy={"eps_tol": 1e-9, "n_max": "four"})
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "n_max" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "raw",
        [
            pytest.param(tiny_config_dict(greedy=[1, 2]), id="greedy-list"),
            pytest.param(tiny_config_dict(greedy="abc"), id="greedy-string"),
            pytest.param(tiny_config_dict(greedy={"cdm": [1]}), id="method-block-list"),
            pytest.param(tiny_config_dict(problem={"name": ["x"]}), id="problem-name-list"),
            pytest.param(
                {"problem": {"name": "thermalblock", "nodes_per_side": "abc"}},
                id="nodes-per-side-string",
            ),
            pytest.param(
                {"problem": {"name": "thermalblock", "nodes_per_side": 5}}, id="nodes-per-side-5"
            ),
            pytest.param(
                {"problem": "thermalblock", "training": {"kind": "random", "count": 0}},
                id="training-count-0",
            ),
            pytest.param(tiny_config_dict(output_dir=5), id="output-dir-number"),
            pytest.param(
                tiny_config_dict(greedy={"eps_tol": 1e-9, "m_fixed": 5}), id="removed-m_fixed"
            ),
            pytest.param(
                tiny_config_dict(greedy={"cdm": {"cdm_q_cap": 3}}), id="removed-cdm_q_cap"
            ),
            pytest.param(tiny_config_dict(greedy={"workers": 2}), id="removed-workers"),
        ],
    )
    def test_bad_config_exits_2_before_any_output(self, tmp_path, capsys, monkeypatch, raw):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text(json.dumps(raw), encoding="utf-8")
        assert cli_main(["run", "--config", "config.json"]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_failing_truth_solve_exits_1_and_leaves_marker(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tiny_config_dict(methods=["classical"])), encoding="utf-8")
        out = tmp_path / "out"
        real = rbx.greedy.truth_solve
        calls = []

        def failing(problem, mu):
            calls.append(mu)
            if len(calls) == 3:
                raise NumericalFailureError("injected truth-solve failure")
            return real(problem, mu)

        monkeypatch.setattr(rbx.greedy, "truth_solve", failing)
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("run failed: ") and "injected truth-solve failure" in err
        assert len(err.strip().splitlines()) == 1
        marker = out / "INCOMPLETE"
        assert "NumericalFailureError" in marker.read_text()
        assert "injected truth-solve failure" in marker.read_text()
        assert not (out / "summary.json").exists()

        # a later successful run into the same directory clears the marker
        monkeypatch.setattr(rbx.greedy, "truth_solve", real)
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "summary.json").is_file() and not marker.exists()

    def test_memory_exhaustion_exits_1_and_leaves_marker(self, tmp_path, capsys, monkeypatch):
        # the training factor's rows are mapped as sweeps border them; a
        # refused mapping keeps the failure contract
        raw = tiny_config_dict(
            problem={"name": "thermalblock", "nodes_per_side": 7},
            training={"kind": "random", "count": 50, "seed": 0},
            methods=["classical"],
        )
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "out"
        refusal = OSError(errno.ENOMEM, "Cannot allocate memory")

        def refused(fileno, length):
            raise refusal

        monkeypatch.setattr(rbx.reduced, "mmap", SimpleNamespace(mmap=refused))
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        reason = f"out of memory: cannot map factor row 0: {refusal}"
        assert err == f"run failed: {reason}\n"
        assert (out / "INCOMPLETE").read_text() == f"run failed: ResourceError: {reason}\n"
        assert not (out / "summary.json").exists()


PUBLIC_NAMES = [
    "AffineProblem", "BasisRejectionError", "BoundStrategyError",
    "ConfigurationError", "ConstantBound", "ExperimentConfig", "GreedyConfig",
    "InvalidParameterError", "MinThetaBound", "NumericalFailureError",
    "PROBLEMS", "ParameterBox", "RbxError", "ResourceError",
    "TruthDiscretization", "TruthSolution", "__version__", "build_diffusion2d",
    "build_thermal_block", "error_estimate", "estimate_batch", "reconstruct",
    "reduced_output", "reduced_solve", "run_experiment", "run_greedy",
    "run_methods", "sample_training_set", "truth_solve", "x_norm",
]

# names that left the package namespace but stay in their modules
MODULE_NAMES = {
    "affine": ["TrainingSet"],
    "counters": ["Counters"],
    "greedy": ["GreedyTrace", "IterationRecord", "OuterLoopRecord"],
    "harness": ["MethodResult"],
    "reduced": ["ReducedModel", "ReducedSolution", "extend_basis", "residual_dual_norm_sq"],
    "surrogate": ["smm_construct", "cdm_construct", "pivoted_cholesky"],
    "truth": ["riesz_solve"],
}


class TestPublicSurface:
    # a change to the package's public names or subcommands shows up here
    def test_all_names(self):
        assert sorted(rbx.__all__) == PUBLIC_NAMES
        for name in rbx.__all__:
            assert getattr(rbx, name) is not None

    def test_module_names(self):
        for module, names in MODULE_NAMES.items():
            mod = importlib.import_module(f"rbx.{module}")
            for name in names:
                assert getattr(mod, name) is not None
                assert name not in rbx.__all__

    def test_cli_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["--help"])
        assert exit_info.value.code == 0
        assert "{run,problems}" in capsys.readouterr().out
