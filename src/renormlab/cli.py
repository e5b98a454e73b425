"""Command-line front end.

Three subcommands: ``run`` executes an experiment config and writes its
artifacts, ``accept`` replays the acceptance suite, prints one verdict line
per check and writes the report (``--flip-sign TERM`` re-gates it with one
renormalized term negated), ``inspect`` prints the header of a saved
.fld/.flo artifact.
Exit codes: 0 ok, 1 at least one acceptance check failed, 2 bad option,
bad config or unreadable artifact; main returns the code and never raises
SystemExit.  RENORMLAB_THREADS sizes the worker pool; any value
produces bitwise-identical numbers.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import parallel
from .field import GridScalar, GridVector, load_field
from .flow import load_ensemble
from .lab import (
    EXPERIMENT_TAGS,
    ExperimentConfig,
    LabError,
    acceptance_suite,
    run_experiment,
    write_report_csv,
)
from .weakform import RENORMALIZED_TERMS

EXIT_OK = 0
EXIT_CHECK_FAIL = 1
EXIT_CONFIG_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renormlab",
        description="desk-scale checks for renormalized stochastic continuity equations",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log per-check progress to stderr"
    )
    sub = parser.add_subparsers(dest="command")
    p_run = sub.add_parser(
        "run", help=f"execute one experiment ({', '.join(EXPERIMENT_TAGS)})"
    )
    p_run.add_argument("config", help="JSON experiment config")
    p_acc = sub.add_parser("accept", help="run the full acceptance suite")
    p_acc.add_argument("config", help="JSON config supplying seed and output_dir")
    p_acc.add_argument(
        "--flip-sign", metavar="TERM", choices=RENORMALIZED_TERMS,
        help="negate this renormalized-ledger term and re-gate (expect failures)",
    )
    p_ins = sub.add_parser("inspect", help="print the header of a .fld or .flo file")
    p_ins.add_argument("artifact", help="field or flow-ensemble artifact")
    return parser


def _cmd_run(config_path: str) -> int:
    cfg = ExperimentConfig.from_json(config_path)
    if cfg.experiment == "acceptance_all":
        return _accept(cfg)
    for path in run_experiment(cfg):
        print(path)
    return EXIT_OK


def _accept(cfg: ExperimentConfig, flip: str | None = None) -> int:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)  # before the suite, whose run it would waste
    report = acceptance_suite(cfg)
    if flip is not None:
        report = report.flipped(flip)
    for line in report.summary_lines():
        print(line)
    report_path = out / "acceptance_report.csv"
    write_report_csv(report, report_path)
    passed = sum(c.passed for c in report.checks)
    print(f"{passed}/{len(report.checks)} checks passed -> {report_path}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAIL


def _cmd_inspect(artifact: str) -> int:
    path = Path(artifact)
    if not path.is_file():
        raise LabError(f"no such artifact: {artifact}")
    suffix = path.suffix.lower()
    # each artifact is loaded, and so its header checked, before anything is printed
    if suffix == ".fld":
        obj = load_field(path)
        kind = {GridScalar: "scalar", GridVector: "vector"}.get(type(obj), "time-indexed vector")
        grid = obj.grid
        print(f"{path}: field ({kind})")
        for key, value in (
            ("dim", grid.dim), ("L", grid.L), ("N", grid.N),
            ("components", 1 if kind == "scalar" else grid.dim),
        ):
            print(f"  {key} = {value}")
        if kind == "time-indexed vector":
            print(f"  times = {len(obj.times)} slices on [0, {obj.times[-1]:g}]")
        values = obj.slice_at(0.0).values if kind == "time-indexed vector" else obj.values
        print(
            f"  values: min {np.min(values):.6g}  max {np.max(values):.6g}"
            f"  mean {np.mean(values):.6g}"
        )
        return EXIT_OK
    if suffix == ".flo":
        ens = load_ensemble(path)
        grid, bm = ens.seeds_grid, ens.path
        print(f"{path}: flow ensemble")
        for key, value in (
            ("dim", grid.dim), ("L", grid.L), ("N", grid.N), ("T", bm.T), ("dt", bm.dt),
            ("k_count", bm.k_count), ("seed", bm.seed), ("steps", bm.steps),
        ):
            print(f"  {key} = {value}")
        return EXIT_OK
    raise LabError(f"cannot inspect {artifact!r}: expected a .fld or .flo file")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed help (0) or usage and its error (2)
        return exc.code
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG_ERROR
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command != "inspect":  # a bad worker count exits before any output is made
            parallel.worker_count()
        if args.command == "run":
            return _cmd_run(args.config)
        if args.command == "accept":
            return _accept(ExperimentConfig.from_json(args.config), args.flip_sign)
        return _cmd_inspect(args.artifact)
    except ValueError as exc:
        # LabError and every module error derive from ValueError; surface the
        # message with its origin and keep the config/artifact exit code.
        kind = type(exc).__name__
        print(f"{kind}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
