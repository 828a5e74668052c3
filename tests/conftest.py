"""Shared fixtures.

Small problem instances are rebuilt per test because runs mutate the
attached counters.  The two full-scale experiment
fixtures are expensive (tens of seconds each) and therefore session-scoped;
every consumer treats their contents as read-only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rbx
from rbx.harness import ExperimentConfig, run_methods

# registry of (number, passed, detail) rows filled by the acceptance tests
CRITERIA: dict[int, tuple[bool, str]] = {}
CRITERIA_TOTAL = 10


def record_criterion(number: int, passed: bool, detail: str) -> None:
    CRITERIA[number] = (bool(passed), detail)
    line = "[{}] criterion {}: {}".format("PASS" if passed else "FAIL", number, detail)
    print(line)
    assert passed, line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for number in range(1, CRITERIA_TOTAL + 1):
        if number in CRITERIA:
            passed, detail = CRITERIA[number]
            status = "PASS" if passed else "FAIL"
        else:
            status, detail = "FAIL", "test did not run to the recording point"
        terminalreporter.write_line(f"[{status}] criterion {number}: {detail}")


# ---------------------------------------------------------------------------
# small problems


@pytest.fixture
def diffusion_small():
    return rbx.build_diffusion2d(n_x=10)


@pytest.fixture
def thermal_small():
    return rbx.build_thermal_block(nodes_per_side=7)


@pytest.fixture
def diffusion_train_small(diffusion_small):
    return rbx.sample_training_set(diffusion_small.box, kind="grid", n_per_dim=6)


@pytest.fixture
def thermal_train_small(thermal_small):
    return rbx.sample_training_set(thermal_small.box, kind="random", count=150, seed=3)


# ---------------------------------------------------------------------------
# full-scale experiment runs shared by the acceptance tests


@pytest.fixture(scope="session")
def diffusion_experiment():
    """All three methods on the two-parameter diffusion problem, full scale."""
    config = ExperimentConfig.from_dict(
        {
            "problem": {"name": "diffusion2d", "n_x": 35},
            "methods": ["classical", "smm", "cdm"],
            "greedy": {"eps_tol": 1.0, "n_max": 100, "seed": 0},
        }
    )
    problem = config.build_problem()
    train = config.build_training(problem.box)
    return {
        "config": config,
        "train": train,
        "results": run_methods(config),
        "eps_tol": 1.0,
    }


@pytest.fixture(scope="session")
def thermal_experiment():
    """All three methods on the nine-parameter thermal block, full scale."""
    config = ExperimentConfig.from_dict(
        {
            "problem": {"name": "thermalblock", "nodes_per_side": 19},
            "methods": ["classical", "smm", "cdm"],
            "greedy": {"eps_tol": 1e-5, "n_max": 100, "seed": 0},
        }
    )
    problem = config.build_problem()
    train = config.build_training(problem.box)
    return {
        "config": config,
        "train": train,
        "results": run_methods(config),
        "eps_tol": 1e-5,
    }


@pytest.fixture(scope="session")
def both_experiments(diffusion_experiment, thermal_experiment):
    return {"diffusion2d": diffusion_experiment, "thermalblock": thermal_experiment}


# ---------------------------------------------------------------------------
# helpers shared across test modules


def explicit(a):
    """A component or an assembled operator as an explicit matrix: a
    ``KroneckerSum`` becomes a dense array, anything else is returned as is."""
    from rbx.affine import KroneckerSum

    return a.tocsr().toarray() if isinstance(a, KroneckerSum) else a


def sequential_sum(problem, mu):
    """A(mu) summed one explicit component at a time, independently of
    ``AffineProblem.assemble``; sparse components give a sparse sum, and
    Kronecker sums a dense one."""
    from rbx.affine import evaluate_theta_batch

    theta = evaluate_theta_batch(problem, problem.box.validate_rows(np.asarray(mu)[None]))[0]
    acc = explicit(problem.components[0]) * theta[0]
    for t, a in zip(theta[1:], problem.components[1:]):
        acc = acc + t * explicit(a)
    return acc


def direct_residual_dual_norm_sq(model, problem, mu, sol):
    """Residual dual norm squared via an explicit truth-space Riesz solve.

    Independent of the model's stored residual machinery: assembles the
    residual vector and solves with the inner-product factorization.
    """
    from rbx.affine import rhs_scale_batch

    lifted = model.basis[:, : sol.n] @ sol.coeffs
    a = sequential_sum(problem, mu)
    r = rhs_scale_batch(problem, np.atleast_2d(mu))[0] * problem.rhs - a @ lifted
    rep = problem.discretization.x_solve(r)
    return float(np.dot(rep, r))


def build_model(problem, train, n_target, seed=0):
    """Classical greedy run stopped at a fixed basis size."""
    config = rbx.GreedyConfig(eps_tol=1e-300, n_max=n_target, seed=seed)
    model, trace = rbx.run_greedy(problem, train, config)
    return model, trace


def call_in_subprocess(module: str, function: str, blas_threads: int):
    """The JSON-encoded result of ``module.function()``, called in a fresh
    interpreter whose BLAS runs ``blas_threads`` threads; ``module`` is a
    test module."""
    paths = [str(Path(rbx.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    script = f"import json, {module}; print(json.dumps({module}.{function}()))"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return json.loads(proc.stdout)
