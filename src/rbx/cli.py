"""Command-line entry point.

``rbx run --config FILE [--out DIR] [--workers K]``
    Run the configured experiment and write artifacts.
``rbx problems``
    List the built-in problems with their defaults.

Exit codes: 0 on success, 1 when a run fails (a failed truth solve, an
inapplicable coercivity bound, artifact writing, memory exhaustion), 2 on
configuration errors (bad JSON, unknown fields, invalid values).
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import ConfigurationError, InvalidParameterError, RbxError
from .harness import PROBLEMS, ExperimentConfig, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbx", description="certified reduced-basis experiments"
    )
    parser.add_argument("--version", action="version", version=f"rbx {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the JSON config file")
    run_p.add_argument("--out", default=None, help="output directory (overrides config)")
    run_p.add_argument(
        "--workers", type=int, default=None, help="threads for estimator sweeps"
    )

    sub.add_parser("problems", help="list built-in problems")
    return parser


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    target = run_experiment(config, out_dir=args.out, workers=args.workers)
    print(f"artifacts written to {target}")
    return 0


def _cmd_problems(_args) -> int:
    for name in sorted(PROBLEMS):
        entry = PROBLEMS[name]
        training = entry["default_training"]
        print(f"{name}: {entry['description']}")
        print(f"    parameters: {', '.join(entry['params'])}")
        print(f"    default training: {training}")
        print(f"    default eps_tol: {entry['default_eps_tol']:g}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "problems":
            return _cmd_problems(args)
    except (ConfigurationError, InvalidParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RbxError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
