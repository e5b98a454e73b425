"""Drift-straightening change of variables and its large-damping relaxation.

The map phi_t(x) = x + u(t, x), with u(t, x) the damped parabolic
displacement produced by mild_solve, is a diffeomorphism of the torus once
the displacement's Lipschitz constant

    lip = sup_t sup_x |grad u(t, x)|    (matrix operator norm)

is below one, and det(I + grad u) is then bracketed by (1 - lip)^n and
(1 + lip)^n at every point.  Pushing a unit-noise solution of the
continuity equation forward under phi trades the rough drift b for the
transformed coefficients

    b_hat(t, x)       = lam * u(t, y),              y = phi_t^{-1}(x),
    sigma_hat^k(t, x) = e_k + grad u(t, y) e_k,

i.e. lam u and the k-th column of I + grad u evaluated at the inverted
point.  The pushed path then satisfies the plain weak form against
(b_hat, sigma_hat^k) -- the very ledger residual_original assembles -- up
to the usual discretization debts.  As lam grows the transform relaxes:
b_hat -> b, sigma_hat^k -> e_k, grad sigma_hat^k -> 0 and
Div b_hat -> Div b in the space-time norms relaxation_metrics reports.

Inversion is the Banach iteration y <- x - u(t, y), contracting at rate
lip per sweep; off-node values come from the periodic spline interpolants,
so query points may sit anywhere in R^n.

transform_coeffs builds one Straightening per (u, lam), inverting the nodes
under each distinct slice of u once; pushforward_under_diffeo and
transformed_residual only read it, however many paths share it.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

from .field import (
    Grid,
    GridScalar,
    GridVector,
    TimeGridVector,
    divergence,
    jacobian,
    lp_norm,
    vector_laplacian,
)
from .flow import BrownianPath
from .interp import jacobian_interpolant, scalar_interpolant, vector_interpolant
from .weakform import TestFunction, WeakFormLedger, _at_times, residual_original

__all__ = [
    "ZvonkinError",
    "LipTooLarge",
    "Diffeo",
    "Straightening",
    "RelaxationRecord",
    "build_diffeo",
    "invert_diffeo",
    "transform_coeffs",
    "pushforward_under_diffeo",
    "transformed_residual",
    "relaxation_metrics",
    "write_relaxation_csv",
]

logger = logging.getLogger(__name__)


class ZvonkinError(ValueError):
    pass


class LipTooLarge(ZvonkinError):
    """Displacement too steep for x + u(t, x) to stay invertible."""

    def __init__(self, lip: float):
        self.lip = float(lip)
        super().__init__(
            f"displacement Lipschitz constant {self.lip:.6g} >= 1; "
            "x + u(t, x) need not be invertible"
        )


@dataclass(frozen=True)
class Diffeo:
    """Torus map x + u(t, x) with its measured steepness and det bracket."""

    u: TimeGridVector
    lip: float
    det_lo: float
    det_hi: float


@dataclass(frozen=True)
class Straightening:
    """Straightened drift lam*u and noise columns of I + grad u, both at the
    inverted nodes y and sampled on u's time grid.  inverted[i] is (y,
    det(I + grad u)(y)) for the i-th distinct slice of u, None where u = 0;
    slice_of maps each time sample of u to its distinct slice."""

    diffeo: Diffeo
    lam: float
    b_hat: TimeGridVector
    sigma_hat: list
    inverted: list
    slice_of: np.ndarray


@dataclass(frozen=True)
class RelaxationRecord:
    """The four space-time norms watched while the damping grows."""

    bhat_err: float
    sigma_err: float
    grad_sigma_err: float
    div_err: float


def _operator_norm_sup(jac: np.ndarray, dim: int) -> float:
    """Largest matrix 2-norm of a (dim, dim, *grid) Jacobian stack."""
    mats = np.moveaxis(jac.reshape(dim, dim, -1), -1, 0)
    return float(np.linalg.norm(mats, ord=2, axis=(1, 2)).max())


def build_diffeo(u: TimeGridVector) -> Diffeo:
    """Record the displacement's Lipschitz constant; refuse lip >= 1.

    The constant is the sup over slices and nodes of the operator norm of
    the spectral Jacobian.  With that choice the eigenvalues of I + grad u
    sit in the disc of radius lip around one, so the determinant bracket
    (1 -/+ lip)^n holds pointwise and not just on average.
    """
    if not isinstance(u, TimeGridVector):
        raise ZvonkinError(f"displacement must be a TimeGridVector, got {type(u).__name__}")
    dim = u.grid.dim
    lip = 0.0
    for sl in u.distinct()[0]:
        lip = max(lip, _operator_norm_sup(jacobian(sl), dim))
    if lip >= 1.0:
        raise LipTooLarge(lip)
    return Diffeo(u=u, lip=lip, det_lo=(1.0 - lip) ** dim, det_hi=(1.0 + lip) ** dim)


def _invert_slice(
    sl: GridVector, lip: float, pts: np.ndarray, tol: float
) -> np.ndarray:
    """Banach iteration y <- x - u(y) for one displacement slice (y = x exactly if u = 0)."""
    u_t = vector_interpolant(sl)
    # Error contracts by lip per sweep from an initial gap of sup|u|, so
    # the budget below is generous whenever the recorded constant is
    # honest; the slack absorbs spline wiggle between nodes.
    budget = 8
    if lip > 0.0:
        sup_u = float(np.max(np.linalg.norm(sl.values, axis=0)))
        if sup_u > tol:
            budget += int(math.ceil(math.log(tol / sup_u) / math.log(lip)))
    y = pts.copy()
    v = u_t(y)
    err = math.inf
    for _ in range(budget):
        y = pts - v
        v = u_t(y)
        err = float(np.sqrt(np.sum((y + v - pts) ** 2, axis=0).max()))
        if err <= tol:
            return y
    raise ZvonkinError(
        f"inversion stagnated at residual {err:.3e} after {budget} sweeps "
        f"(tol {tol:.1e}); the Lipschitz bound must have been optimistic"
    )


def invert_diffeo(diffeo: Diffeo, t: float, x: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Solve y + u(t, y) = x; returns y with the shape of x.

    x carries physical coordinates on a leading axis of length dim (a bare
    (dim,) point or any (dim, ...) batch).  The returned y satisfies
    |y + u(t, y) - x| <= tol in the Euclidean norm at every query point.
    """
    if tol <= 0.0:
        raise ZvonkinError(f"inversion tolerance must be positive, got {tol}")
    sl = diffeo.u.slice_at(t)
    pts = np.asarray(x, dtype=np.float64)
    if pts.ndim == 0 or pts.shape[0] != sl.grid.dim:
        raise ZvonkinError(
            f"query points need a leading axis of length {sl.grid.dim}, got shape {pts.shape}"
        )
    return _invert_slice(sl, diffeo.lip, pts, tol)


def transform_coeffs(u: TimeGridVector, lam: float, tol: float = 1e-12) -> Straightening:
    """Straighten u at damping lam: invert the nodes under each distinct
    slice once, and sample lam*u(y) and e_k + grad u(y) e_k there."""
    if lam <= 0.0:
        raise ZvonkinError(f"damping lambda must be positive, got {lam}")
    diffeo = build_diffeo(u)
    grid = u.grid
    dim = grid.dim
    nodes = np.stack(grid.coordinates())
    eye = np.eye(dim).reshape((dim, dim) + (1,) * dim)

    slices, slice_of = u.distinct()
    b_distinct, cols_distinct, inverted = [], [], []
    for sl in slices:
        if np.any(sl.values):
            y = _invert_slice(sl, diffeo.lip, nodes, tol)
            u_at, cols = vector_interpolant(sl)(y), eye + jacobian_interpolant(sl)(y)
            inverted.append((y, np.linalg.det(np.moveaxis(cols, (0, 1), (-2, -1)))))
        else:  # x + u is the identity: nothing to invert or interpolate
            u_at, cols = np.zeros_like(nodes), eye + np.zeros((dim, dim) + grid.shape)
            inverted.append(None)
        b_distinct.append(GridVector(grid, lam * u_at))
        cols_distinct.append([GridVector(grid, cols[:, k]) for k in range(dim)])

    b_hat = TimeGridVector(grid, u.times.copy(), [b_distinct[i] for i in slice_of])
    sigma_hat = [
        TimeGridVector(grid, u.times.copy(), [cols_distinct[i][k] for i in slice_of])
        for k in range(dim)
    ]
    return Straightening(diffeo, lam, b_hat, sigma_hat, inverted, slice_of)


def pushforward_under_diffeo(f: GridScalar, straightening: Straightening, t: float) -> GridScalar:
    """Transfer f under x + u(t, x): h(x) = f(y) / det(I + grad u)(y).

    The density is divided, not multiplied, because the Jacobian of the
    inverse map is the inverse matrix of I + grad u at the inverted point;
    mass is conserved up to interpolation and quadrature error.  y and the
    determinant come from the straightening; only f is interpolated here.
    """
    u = straightening.diffeo.u
    if f.grid != u.grid:
        raise ZvonkinError("field and displacement live on different grids")
    node = straightening.inverted[straightening.slice_of[u.slice_indices(t)]]
    if node is None:
        return GridScalar(f.grid, f.values.copy())
    y, det = node
    return GridScalar(f.grid, scalar_interpolant(f)(y) / det)


def _warn_if_displacement_mismatches(
    u: TimeGridVector, b: TimeGridVector, lam: float
) -> None:
    """Smoke alarm: the straightening only closes the ledger when u solves
    d_t u + b . grad u + (1/2) Lap u = lam u - b backward from zero, so a
    gross violation of that balance means the caller paired the wrong
    displacement with this drift."""
    steps = len(u.times) - 1
    dt = float(u.times[1] - u.times[0])
    worst = 0.0
    for l in {0, steps // 2} - {steps}:
        u_l = u.slices[l]
        b_l = b.slice_at(float(u.times[l]))
        d_t = (u.slices[l + 1].values - u_l.values) / dt
        advect = np.einsum("j...,ij...->i...", b_l.values, jacobian(u_l))
        defect = d_t + advect + 0.5 * vector_laplacian(u_l) - lam * u_l.values + b_l.values
        scale = lam * float(np.abs(u_l.values).max()) + float(np.abs(b_l.values).max())
        if scale > 0.0:
            worst = max(worst, float(np.abs(defect).max()) / scale)
    if worst > 0.5:
        logger.warning(
            "displacement misses its parabolic balance by %.2f of the drift "
            "scale at lambda=%g; the transformed ledger will not close",
            worst,
            lam,
        )


def transformed_residual(
    fpath,
    straightening: Straightening,
    b: TimeGridVector,
    phi_test: TestFunction,
    path: BrownianPath,
) -> WeakFormLedger:
    """Ledger of the straightened weak form along one driving path.

    fpath must sample a solution of the original equation with drift b and
    one unit noise per coordinate.  Every slice is pushed forward under
    x + u(t, x) and the plain ledger is assembled against the transformed
    coefficients, reusing the path's own increments for the Ito sums.
    """
    u = straightening.diffeo.u
    grid = u.grid
    if b.grid != grid:
        raise ZvonkinError("drift and displacement live on different grids")
    if path.k_count != grid.dim:
        raise ZvonkinError(
            f"the untransformed problem carries one unit noise per coordinate; "
            f"path has {path.k_count} components for dim {grid.dim}"
        )
    expected = np.linspace(0.0, path.T, path.steps + 1)
    if len(u.times) != path.steps + 1 or np.abs(u.times - expected).max() > 1e-9 * max(
        path.T, 1.0
    ):
        raise ZvonkinError("displacement time grid must match the driving path")
    _warn_if_displacement_mismatches(u, b, straightening.lam)

    hpath = [
        pushforward_under_diffeo(f_l, straightening, float(t_l))
        for f_l, t_l in zip(fpath, u.times)
    ]
    return residual_original(hpath, straightening.b_hat, straightening.sigma_hat, phi_test, path)


def _time_lq(values: np.ndarray, dt: float, q: float) -> float:
    """Left-endpoint L^q norm in time of per-slice values (last node unused)."""
    v = values[:-1]
    return float((np.abs(v) ** q).sum() * dt) ** (1.0 / q)


def relaxation_metrics(
    coeffs: Straightening, b: TimeGridVector, q: float, p: float, r: float
) -> RelaxationRecord:
    """The four straightening errors as space-time norms.

    bhat_err       |b_hat - b|            in L^q_t(L^p)
    sigma_err      |sigma_hat^k - e_k|    in L^q_t(L^p)   (Frobenius over i, k)
    grad_sigma_err |grad sigma_hat^k|     in L^q_t(L^r)   (Frobenius, r < p)
    div_err        |Div b_hat - Div b|    in L^1_t(L^1)

    Spatial magnitudes are Euclidean/Frobenius pointwise, time integrals
    left-endpoint like every other quadrature in the package.
    """
    if min(q, p, r) < 1.0:
        raise ZvonkinError(f"norm exponents must be >= 1, got q={q}, p={p}, r={r}")
    if not r < p:
        raise ZvonkinError(f"gradient norm wants r < p, got r={r} and p={p}")
    grid = b.grid
    if coeffs.b_hat.grid != grid:
        raise ZvonkinError("coefficients and drift live on different grids")
    if len(coeffs.b_hat.times) != len(b.times) or np.abs(
        coeffs.b_hat.times - b.times
    ).max() > 1e-9 * max(float(b.times[-1]), 1.0):
        raise ZvonkinError("coefficients and drift use different time grids")
    dim = grid.dim
    dt = float(b.times[1] - b.times[0])
    steps = len(b.times) - 1

    div_b, div_bh = (
        _at_times(c, c.times, lambda sl: divergence(sl).values) for c in (b, coeffs.b_hat)
    )
    eye = np.eye(dim).reshape((dim, dim) + (1,) * dim)
    b_norms = np.empty(steps + 1)
    s_norms = np.empty(steps + 1)
    g_norms = np.empty(steps + 1)
    d_norms = np.empty(steps + 1)
    for l in range(steps + 1):
        b_sl = b.slices[l]
        bh_sl = coeffs.b_hat.slices[l]
        diff = bh_sl.values - b_sl.values
        b_norms[l] = lp_norm(GridScalar(grid, np.sqrt((diff**2).sum(axis=0))), p)

        stack = np.stack([coeffs.sigma_hat[k].slices[l].values for k in range(dim)], axis=1)
        dev = stack - eye
        s_norms[l] = lp_norm(GridScalar(grid, np.sqrt((dev**2).sum(axis=(0, 1)))), p)

        grads = np.stack(
            [jacobian(coeffs.sigma_hat[k].slices[l]) for k in range(dim)]
        )
        g_norms[l] = lp_norm(GridScalar(grid, np.sqrt((grads**2).sum(axis=(0, 1, 2)))), r)

        d_norms[l] = lp_norm(GridScalar(grid, np.abs(div_bh[l] - div_b[l])), 1.0)

    return RelaxationRecord(
        bhat_err=_time_lq(b_norms, dt, q),
        sigma_err=_time_lq(s_norms, dt, q),
        grad_sigma_err=_time_lq(g_norms, dt, q),
        div_err=_time_lq(d_norms, dt, 1.0),
    )


def write_relaxation_csv(rows, path_name) -> None:
    """Rows of (lambda, RelaxationRecord) to CSV for trend analysis."""
    with open(path_name, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["lambda", "bhat_err", "sigma_err", "grad_sigma_err", "div_err"])
        for lam, rec in rows:
            writer.writerow(
                [
                    f"{lam:.12g}",
                    f"{rec.bhat_err:.12g}",
                    f"{rec.sigma_err:.12g}",
                    f"{rec.grad_sigma_err:.12g}",
                    f"{rec.div_err:.12g}",
                ]
            )
