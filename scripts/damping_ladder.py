"""Sweep the damping parameter and print both relaxation diagnostics.

For each lambda on the ladder this solves the damped backward parabolic
problem on the trig preset drift, then prints (a) how far lambda * u is from
the drift it should relax to and (b) the four space-time norms measuring how
far the straightened coefficients are from the identity configuration.  Both
families must trend to zero as lambda grows; this script shows the actual
decay profile rather than the pass/fail digest of the acceptance suite.
"""

from __future__ import annotations

import argparse

import numpy as np

from renormlab import presets
from renormlab.field import FieldError, Grid
from renormlab.parabolic import mild_solve, relaxation_residuals
from renormlab.zvonkin import relaxation_metrics, transform_coeffs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lambdas", type=float, nargs="+", default=[4.0, 16.0, 64.0])
    parser.add_argument("--steps", type=int, default=128, help="time quadrature steps")
    parser.add_argument("--horizon", type=float, default=0.25)
    parser.add_argument("--grid-points", type=int, default=64)
    args = parser.parse_args()

    try:
        grid = Grid(dim=1, L=2.0 * np.pi, N=args.grid_points)
    except FieldError as exc:
        parser.error(f"--grid-points: {exc}")  # exits 2, as the CLI does
    b = presets.sample_constant_in_time(
        presets.trig_flow_drift(grid), args.horizon, args.steps
    )

    header = "lambda   |lam u - b|  |Div gap|   bhat_err   sigma_err   grad_sig    div_err"
    print(header)
    for lam in args.lambdas:
        sol = mild_solve(b, lam, args.steps)
        rel = relaxation_residuals(sol, b)
        coeffs = transform_coeffs(sol.u, lam)
        met = relaxation_metrics(coeffs, b, q=4.0, p=8.0, r=4.0)
        print(
            f"{lam:<8.4g} {rel.drift_residual:<12.5g} {rel.divergence_residual:<11.5g}"
            f" {met.bhat_err:<10.5g} {met.sigma_err:<11.5g} {met.grad_sigma_err:<11.5g}"
            f" {met.div_err:.5g}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
