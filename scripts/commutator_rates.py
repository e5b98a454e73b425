"""Print mollifier-commutator convergence tables for both operator orders.

Runs the first- and second-order commutator studies on the sin/cos pair over
a dyadic epsilon ladder and prints per-epsilon errors, the fitted rate, and
the uniform-bound ratios.  Useful for eyeballing how far the desk-scale grid
is from the asymptotic regime before trusting a new coefficient preset.
"""

from __future__ import annotations

import argparse

import numpy as np

from renormlab import commutator
from renormlab.field import FieldError, Grid, GridScalar, GridVector


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid-points", type=int, default=64)
    parser.add_argument("--levels", type=int, default=3, help="epsilon halvings from L/8")
    parser.add_argument("--r", type=float, default=2.0, help="error norm exponent")
    args = parser.parse_args()

    try:
        grid = Grid(dim=1, L=2.0 * np.pi, N=args.grid_points)
    except FieldError as exc:
        parser.error(f"--grid-points: {exc}")  # exits 2, as the CLI does
    x = grid.coordinates()[0]
    sigma = GridVector(grid, np.sin(x)[None])
    f = GridScalar(grid, np.cos(x))
    epsilons = [grid.L / 8.0 / 2**j for j in range(args.levels)]

    for tag in (commutator.TAG_T, commutator.TAG_S):
        study = commutator.convergence_study(tag, sigma, f, epsilons, args.r)
        print(f"operator {tag} (fitted rate {study.fitted_rate:.3f})")
        print("  epsilon      error        bound ratio")
        for eps, err, ratio in zip(study.epsilons, study.errors, study.bound_ratios):
            print(f"  {eps:<11.5g}  {err:<11.5g}  {ratio:.5f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
