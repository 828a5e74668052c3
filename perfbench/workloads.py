"""Workloads of the rbx benchmark.

Each workload is one ``rbx.harness.run_experiment`` call on a single method
(``workers: 1``, ``repetitions: 1``, the harness's per-method greedy
defaults), followed by an online phase on the model that run built.

The training-set draw and the greedy seed snapshot use seed 0, as the
acceptance-test configurations do; the benchmark's ``--seed`` drives only the
online query draw and the held-out checks.  cdm's number of outer loops moves
between 5 and 7 with the training draw, and with it the offline work by up to
a factor of two, so runs on different seeds repeat the same offline work.

Sizes are chosen so that each workload is dominated by a different layer
(see ``why``) while the whole benchmark, at 22 runs per workload, fits in
under an hour on a 2-core machine.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    problem: dict
    training: dict  # sampling settings without the seed
    method: str
    eps_tol: float
    setup_passes: int  # set-ups per run; setup_s is their median
    point_queries: int = 1000  # least number of parameters timed by single-point queries
    batch_points: int = 20000  # size of the fixed estimate_batch query set
    held_out: int = 3  # parameters checked against truth solves

    def config(self) -> dict:
        """The ``rbx run --config`` document of this workload."""
        return {
            "problem": dict(self.problem),
            "training": {**self.training, "seed": 0},
            "methods": [self.method],
            "greedy": {"eps_tol": self.eps_tol, "seed": 0},
            "repetitions": 1,
            "workers": 1,
        }


_TB19 = {"name": "thermalblock", "nodes_per_side": 19}
_TB_TRAIN = {"kind": "random", "count": 4000}

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="tb-classical",
            why="thermalblock 342 DoFs, 4000 random points, classical: the estimator "
            "sweep (batched reduced solves and residual norms) is nearly all of offline",
            problem=_TB19,
            training=_TB_TRAIN,
            method="classical",
            eps_tol=1e-5,
            setup_passes=21,
        ),
        Workload(
            name="tb-cdm",
            why="same problem and training set, cdm: the surrogate build (cdm_construct "
            "on its error-block path, pivoted Cholesky) takes a large share of offline",
            problem=_TB19,
            training=_TB_TRAIN,
            method="cdm",
            eps_tol=1e-5,
            setup_passes=21,
        ),
        Workload(
            name="dd-cdm",
            why="diffusion2d 1089 dense nonsymmetric DoFs, 160x160 grid, cdm: dense truth "
            "LU and the contracted cross-Gramian path of cdm_construct",
            problem={"name": "diffusion2d", "n_x": 35},
            training={"kind": "grid", "n_per_dim": 160},
            method="cdm",
            eps_tol=1.0,
            setup_passes=5,
        ),
        Workload(
            name="tb-fine",
            why="thermalblock 2352 DoFs, 400 random points, classical: the dense "
            "coercivity anchor dominates setup, basis extension and Riesz solves offline",
            problem={"name": "thermalblock", "nodes_per_side": 49},
            training={"kind": "random", "count": 400},
            method="classical",
            eps_tol=1e-5,
            setup_passes=5,
        ),
    ]
}

# Tiny configuration that drives the whole benchmark path in a few seconds;
# the benchmark's own tests run it.  It is not a measured workload.
SMOKE = Workload(
    name="smoke",
    why="tiny thermalblock cdm run for the benchmark's own tests",
    problem={"name": "thermalblock", "nodes_per_side": 7},
    training={"kind": "random", "count": 300},
    method="cdm",
    eps_tol=1e-4,
    setup_passes=2,
    point_queries=50,
    batch_points=500,
    held_out=2,
)
