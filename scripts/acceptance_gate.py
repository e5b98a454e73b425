"""Run the acceptance suite, optionally re-gated with one term's sign flipped.

Equivalent to `renormlab accept`, but `--flip-sign TERM` prints the finished
report re-gated by `RunReport.flipped`: TERM is negated in every renormalized
ledger the renorm rows carry, and those rows are gated again without
recomputing a flow.  Running this with --flip-sign g_div_b is the quickest way
to convince yourself the suite is actually wired to the term signs and not
vacuously green.  Not every live term is watched yet: flipping g_gradsigma or
h_divsigma_sq (the twist of sigma and |Div sigma|^2) leaves the renorm rows
green, since at the current presets both sit below the discretization
residual, and the script then exits 0.
"""

from __future__ import annotations

import argparse

from renormlab.lab import ExperimentConfig, ScalarConfig, acceptance_suite
from renormlab.weakform import RENORMALIZED_TERMS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--master-seed", type=int, default=0)
    parser.add_argument(
        "--flip-sign", default=None, metavar="TERM", choices=RENORMALIZED_TERMS,
        help="negate this renormalized-ledger term (debug; expect failures)",
    )
    args = parser.parse_args()

    cfg = ExperimentConfig(
        experiment="acceptance_all",
        scalars=ScalarConfig(master_seed=args.master_seed),
    )
    report = acceptance_suite(cfg)
    if args.flip_sign is not None:
        report = report.flipped(args.flip_sign)
    for line in report.summary_lines():
        print(line)
    passed = sum(c.passed for c in report.checks)
    print(f"{passed}/{len(report.checks)} checks passed")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
