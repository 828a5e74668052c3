"""Golden traces: the greedy's selections and counts on the small fixtures.

The literals pin the observable behaviour of every method: the snapshot
sequence, the final size and certificate, the operation counters, and the
per-outer-loop surrogate budget, domain size and inner extensions.  A
refactor of the driver must leave all of them unchanged.

The diffusion runs use a random training set rather than the symmetric grid
fixture: on the grid, distinct parameters share estimates up to round-off,
so the selected index would depend on BLAS summation order.  On these sets
the selected estimate leads the runner-up by at least 1e-4 relative in every
sweep, and the literals are the same with one and with two BLAS threads.
Every run uses ``k_damp=1`` (cdm's library default is 10).
"""

import pytest

import rbx
from rbx.greedy import GreedyConfig, run_greedy

EXPECTED = {
    ("diffusion", "classical"): {
        "snapshot_indices": [
            51, 52, 24, 43, 27, 45, 48, 42, 11, 4, 16, 46, 1, 30, 19, 15, 33, 8, 38, 55,
            35, 39, 57, 32, 0, 31, 58, 54,
        ],
        "n_final": 28,
        "certified": True,
        "counters": {
            "truth_solves": 28, "truth_factorizations": 28, "riesz_solves": 85,
            "reduced_solves": 1707, "estimator_evals": 1707, "sweep_evals_global": 1680,
            "sweep_evals_surrogate": 0, "reproduction_checks": 27,
            "approx_error_evals": 0, "pivoted_cholesky_steps": 0,
        },
        "outer_loops": [],
    },
    ("diffusion", "smm"): {
        "snapshot_indices": [
            51, 52, 33, 24, 19, 10, 27, 58, 45, 2, 43, 42, 41, 40, 48, 46, 12, 30, 16, 38,
            59, 35, 55, 36, 57, 32, 31, 3,
        ],
        "n_final": 28,
        "certified": True,
        "counters": {
            "truth_solves": 28, "truth_factorizations": 28, "riesz_solves": 85,
            "reduced_solves": 641, "estimator_evals": 641, "sweep_evals_global": 480,
            "sweep_evals_surrogate": 134, "reproduction_checks": 27,
            "approx_error_evals": 0, "pivoted_cholesky_steps": 0,
        },
        "outer_loops": [
            (4, 4, 1), (6, 6, 2), (8, 8, 3), (10, 7, 3), (12, 10, 4), (14, 10, 5), (16, 9, 2),
        ],
    },
    ("diffusion", "cdm"): {
        "snapshot_indices": [
            51, 52, 24, 43, 27, 38, 48, 42, 11, 4, 16, 46, 59, 1, 49, 19, 15, 33, 55, 45,
            35, 39, 57, 32, 14, 58, 3, 54, 9,
        ],
        "n_final": 29,
        "certified": True,
        "counters": {
            "truth_solves": 454, "truth_factorizations": 29, "riesz_solves": 88,
            "reduced_solves": 1342, "estimator_evals": 1086, "sweep_evals_global": 420,
            "sweep_evals_surrogate": 638, "reproduction_checks": 28,
            "approx_error_evals": 256, "pivoted_cholesky_steps": 133,
        },
        "outer_loops": [
            (40, 2, 2), (60, 14, 3), (80, 36, 4), (100, 40, 5), (120, 39, 8), (140, 2, 0),
        ],
    },
    ("thermal", "classical"): {
        "snapshot_indices": [
            127, 68, 2, 20, 138, 93, 144, 59, 35, 116, 25, 52, 81, 98, 18, 85, 69, 42, 31,
            28, 141, 33, 60, 139, 72,
        ],
        "n_final": 25,
        "certified": True,
        "counters": {
            "truth_solves": 25, "truth_factorizations": 25, "riesz_solves": 226,
            "reduced_solves": 3774, "estimator_evals": 3774, "sweep_evals_global": 3750,
            "sweep_evals_surrogate": 0, "reproduction_checks": 24,
            "approx_error_evals": 0, "pivoted_cholesky_steps": 0,
        },
        "outer_loops": [],
    },
    ("thermal", "smm"): {
        "snapshot_indices": [
            127, 68, 81, 92, 2, 93, 59, 52, 72, 144, 138, 25, 18, 116, 35, 20, 98, 42, 119,
            28, 85, 31, 33, 60, 139,
        ],
        "n_final": 25,
        "certified": True,
        "counters": {
            "truth_solves": 25, "truth_factorizations": 25, "riesz_solves": 226,
            "reduced_solves": 1184, "estimator_evals": 1184, "sweep_evals_global": 1050,
            "sweep_evals_surrogate": 110, "reproduction_checks": 24,
            "approx_error_evals": 0, "pivoted_cholesky_steps": 0,
        },
        "outer_loops": [(4, 4, 2), (6, 6, 4), (8, 7, 3), (10, 9, 5), (12, 10, 3), (14, 8, 1)],
    },
    ("thermal", "cdm"): {
        "snapshot_indices": [
            127, 68, 2, 93, 72, 20, 138, 59, 116, 52, 144, 25, 35, 98, 81, 28, 42, 18, 47,
            31, 105, 141, 85, 117, 49,
        ],
        "n_final": 25,
        "certified": True,
        "counters": {
            "truth_solves": 1020, "truth_factorizations": 25, "riesz_solves": 226,
            "reduced_solves": 1973, "estimator_evals": 1280, "sweep_evals_global": 900,
            "sweep_evals_surrogate": 356, "reproduction_checks": 24,
            "approx_error_evals": 693, "pivoted_cholesky_steps": 95,
        },
        "outer_loops": [(40, 8, 3), (60, 24, 4), (80, 24, 3), (100, 24, 7), (120, 15, 2)],
    },
}

EPS_TOL = {"diffusion": 1e-2, "thermal": 1e-3}


@pytest.fixture
def golden_setup(request, diffusion_small, thermal_small, thermal_train_small):
    if request.param == "diffusion":
        train = rbx.sample_training_set(diffusion_small.box, kind="random", count=60, seed=2)
        return "diffusion", diffusion_small, train
    return "thermal", thermal_small, thermal_train_small


@pytest.mark.parametrize("golden_setup", ["diffusion", "thermal"], indirect=True)
@pytest.mark.parametrize("method", ["classical", "smm", "cdm"])
def test_trace_matches_golden(golden_setup, method):
    name, problem, train = golden_setup
    config = GreedyConfig(eps_tol=EPS_TOL[name], n_max=30, seed=0, method=method, k_damp=1)
    model, trace = run_greedy(problem, train, config)
    expected = EXPECTED[(name, method)]
    assert model.snapshot_indices == expected["snapshot_indices"]
    assert trace.n_final == expected["n_final"]
    assert trace.certified is expected["certified"]
    assert trace.counters == expected["counters"]
    assert [
        (rec.m_budget, rec.surrogate_size, rec.n_added_inner) for rec in trace.outer_loops
    ] == expected["outer_loops"]
