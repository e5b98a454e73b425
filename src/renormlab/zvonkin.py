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
(b_hat, sigma_hat^k) -- the ledger residual_renormalized assembles with the
linear renormalizer -- up to the usual discretization debts.  As lam grows the transform relaxes:
b_hat -> b, sigma_hat^k -> e_k, grad sigma_hat^k -> 0 and
Div b_hat -> Div b in the space-time norms relaxation_metrics reports.

Inversion is Newton on y + u(t, y) = x with flow._newton_rows, the solver
that also inverts the stochastic flow; off-node values come from periodic
cubic splines, so query points may sit anywhere in R^n.  It runs on a
block of rows of u at once (field's block rule: 32 rows on 64 nodes, one
on 64^2), with one spline of the block's u and grad u, a row per row of
u: each row iterates until its own residual max|y + u(y) - x| is below
tol, so its iterates are those of a Newton on that row alone.  invert_diffeo is its
one-slice call and starts from y = x: its query points need not be nodes,
so it takes no node start.

transform_coeffs builds one Straightening per (u, lam), inverting the nodes
under each row of u once; per block it takes the Jacobians from one FFT,
starts Newton with the flow inversion's node-exact step (from a node near
each preimage), reads lam u and I + grad u at the inverted nodes off
the solver's last spline call, and takes the determinants in one batched
call; b_hat and sigma_hat share u's index.  Readers of it
(pushforward_path_under_diffeo, transformed_residual) invert nothing, and
the pushforward splines a block of fields at once, one row each.
build_diffeo and relaxation_metrics take their spectral derivatives and
norms a block of rows at a time too, and every norm and time sum equals its
one-slice-at-a-time value bit for bit, so no number changes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .field import (
    GridScalar,
    TimeGridVector,
    _blocks,
    _check_exponents,
    _positive_float,
    _step_axis,
    divergence_stack,
    jacobian_stack,
    lp_norm_stack,
)
from .flow import (
    BrownianPath,
    _det_stack,
    _identity_plus,
    _newton_rows,
)
from .interp import PeriodicInterpolant
from .parabolic import backward_defect
from .weakform import WeakFormLedger, make_renormalizer, residual_renormalized

__all__ = [
    "ZvonkinError",
    "LipTooLarge",
    "Diffeo",
    "Straightening",
    "RelaxationRecord",
    "build_diffeo",
    "invert_diffeo",
    "transform_coeffs",
    "pushforward_path_under_diffeo",
    "transformed_residual",
    "relaxation_metrics",
]

logger = logging.getLogger(__name__)

# transform_coeffs stops a slice once its max|y + u(y) - x| is below this.
_STRAIGHTEN_TOL = 1e-12


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
    """Torus map x + u(t, x) with its measured steepness and det bracket.

    det_lo and det_hi are the bracket (1 -/+ lip)^n; det_min and det_max are
    the smallest and largest det(I + grad u) over the nodes of every row
    of u, which the bracket must hold.
    """

    u: TimeGridVector
    lip: float
    det_lo: float
    det_hi: float
    det_min: float
    det_max: float


@dataclass(frozen=True)
class Straightening:
    """Straightened drift lam*u and noise columns of I + grad u, both at the
    inverted nodes y and sampled on u's time grid: row i of each is taken
    at row i of u, and each shares u's index.  inverted[i] is (y,
    det(I + grad u)(y)) for row i of u, None where that row is 0."""

    diffeo: Diffeo
    lam: float
    b_hat: TimeGridVector
    sigma_hat: list
    inverted: list


@dataclass(frozen=True)
class RelaxationRecord:
    """The four space-time norms watched while the damping grows."""

    bhat_err: float
    sigma_err: float
    grad_sigma_err: float
    div_err: float


def build_diffeo(u: TimeGridVector) -> Diffeo:
    """Record the displacement's Lipschitz constant; refuse lip >= 1.

    The constant is the sup over slices and nodes of the operator norm of
    the spectral Jacobian.  With that choice the eigenvalues of I + grad u
    sit in the disc of radius lip around one, so the determinant bracket
    (1 -/+ lip)^n holds pointwise and not just on average.  The Jacobians
    come from one FFT per block of rows.
    """
    if not isinstance(u, TimeGridVector):
        raise ZvonkinError(f"displacement must be a TimeGridVector, got {type(u).__name__}")
    dim = u.grid.dim
    lip, det_min, det_max = 0.0, math.inf, -math.inf
    for rows in _blocks(u.grid, len(u.values)):
        jac = jacobian_stack(u.grid, u.values[rows.start : rows.stop])
        if dim == 1:
            # a 1x1 matrix has 2-norm |a|; the SVD returns those bits too, short
            # of entries beyond about 1e+-146, which it rescales first
            norms = np.abs(jac)
        else:
            mats = np.moveaxis(jac.reshape(len(rows), dim, dim, -1), -1, 1)
            norms = np.linalg.norm(mats, ord=2, axis=(2, 3))
        lip = max(lip, float(norms.max()))
        det = _det_stack(_identity_plus(np.moveaxis(jac, 0, 2)))
        det_min, det_max = min(det_min, float(det.min())), max(det_max, float(det.max()))
    if lip >= 1.0:
        raise LipTooLarge(lip)
    return Diffeo(
        u=u, lip=lip, det_lo=(1.0 - lip) ** dim, det_hi=(1.0 + lip) ** dim,
        det_min=det_min, det_max=det_max,
    )


def invert_diffeo(diffeo: Diffeo, t: float, x: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Solve y + u(t, y) = x; returns y with the shape of x.

    x carries finite physical coordinates on a leading axis of length dim
    (a bare (dim,) point or any (dim, ...) batch).  Newton starts from y = x
    itself, not from a node near the preimage as transform_coeffs does, since
    x need not be a node; the returned y satisfies
    max_i |y_i + u_i(t, y) - x_i| < tol over the components and every query
    point.
    """
    tol = _positive_float(ZvonkinError, "inversion tolerance", tol)
    sl = diffeo.u.slice_at(t)
    pts = np.asarray(x, dtype=np.float64)
    if pts.ndim == 0 or pts.shape[0] != sl.grid.dim:
        raise ZvonkinError(
            f"query points need a leading axis of length {sl.grid.dim}, got shape {pts.shape}"
        )
    if not np.isfinite(pts).all():
        raise ZvonkinError("query points must be finite")
    values = sl.values[None]
    X = pts.reshape(len(pts), 1, -1)
    y, *_ = _newton_rows(sl.grid, values, jacobian_stack(sl.grid, values), X, X.copy(), tol)
    return y[:, 0].reshape(pts.shape)


def transform_coeffs(u: TimeGridVector, lam: float) -> Straightening:
    """Straighten u at damping lam: invert the nodes under each row of u
    once, and sample lam*u(y) and e_k + grad u(y) e_k there.

    The non-zero rows go a block at a time: one FFT for their Jacobians, one
    Newton on the block, whose first step is taken on node data (from a node
    near each preimage, flow._start_nodes) and whose last spline call gives
    u and grad u at the inverted nodes, and one batched determinant.  A zero
    row keeps x + u the identity: nothing to invert or interpolate.
    """
    _positive_float(ZvonkinError, "damping lambda", lam)
    diffeo = build_diffeo(u)
    grid = u.grid
    dim = grid.dim
    nodes = np.stack(grid.coordinates()).reshape(dim, 1, -1)
    eye = np.eye(dim).reshape((dim, dim) + (1,) * dim)

    u_at = np.zeros_like(u.values)
    cols = np.broadcast_to(eye, (len(u.values), dim, dim) + grid.shape).copy()  # [n, i, k]
    inverted = [None] * len(u.values)
    live = np.flatnonzero(u.values.reshape(len(u.values), -1).any(axis=1))
    for span in _blocks(grid, len(live)):
        block = live[span.start : span.stop]
        values = u.values[block]
        y, at, *_ = _newton_rows(
            grid, values, jacobian_stack(grid, values), nodes, None, _STRAIGHTEN_TOL
        )
        block_cols = eye[:, :, None] + at[dim:].reshape((dim, dim, len(block)) + grid.shape)
        det = _det_stack(block_cols)
        u_at[block] = np.moveaxis(at[:dim].reshape((dim, len(block)) + grid.shape), 1, 0)
        cols[block] = np.moveaxis(block_cols, 2, 0)
        for r, n in enumerate(block):
            inverted[n] = (y[:, r].reshape((dim,) + grid.shape), det[r])

    b_hat = TimeGridVector(grid, u.times.copy(), lam * u_at, u.index)
    sigma_hat = [
        TimeGridVector(grid, u.times.copy(), np.ascontiguousarray(cols[:, :, k]), u.index)
        for k in range(dim)
    ]
    return Straightening(diffeo, lam, b_hat, sigma_hat, inverted)


def pushforward_path_under_diffeo(fields, straightening: Straightening, times) -> list:
    """Transfer each f = fields[l] under x + u(times[l], x): h(x) = f(y) / det(I + grad u)(y).

    The density is divided, not multiplied, because the Jacobian of the
    inverse map is the inverse matrix of I + grad u at the inverted point;
    mass is conserved up to interpolation and quadrature error.  y and the
    determinant come from the straightening; only the fields are
    interpolated here, a block at a time, one spline per block with a row
    per field, each read at the inverted nodes of the slice in force at its
    own time.  A field where that slice is 0 is copied.
    """
    u = straightening.diffeo.u
    grid = u.grid
    fields = list(fields)
    if any(f.grid != grid for f in fields):
        raise ZvonkinError("field and displacement live on different grids")
    times = np.asarray(times, dtype=np.float64)
    if times.shape != (len(fields),):
        raise ZvonkinError(f"{len(fields)} fields need as many times, got shape {times.shape}")
    stored = [straightening.inverted[i] for i in u.rows_at(times)]
    out, moved = [None] * len(fields), []
    for l, (f, at) in enumerate(zip(fields, stored)):
        if at is None:
            out[l] = GridScalar(grid, f.values.copy())
        else:
            moved.append(l)
    for rows in _blocks(grid, len(moved)):
        block = [moved[n] for n in rows]
        spline = PeriodicInterpolant(grid, np.stack([fields[l].values for l in block])[:, None])
        y = np.stack([stored[l][0] for l in block], axis=1)
        for l, f_at in zip(block, spline(y, np.arange(len(block)))[0]):
            out[l] = GridScalar(grid, f_at / stored[l][1])
    return out


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
        u_l = u.values[u.index[l]]
        b_l = b.slice_at(float(u.times[l])).values
        defect = backward_defect(u.grid, u_l, u.values[u.index[l + 1]], b_l, lam, dt)
        scale = lam * float(np.abs(u_l).max()) + float(np.abs(b_l).max())
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
    phi_test: GridScalar,
    path: BrownianPath,
) -> WeakFormLedger:
    """Ledger of the straightened weak form along one driving path.

    fpath must sample a solution of the original equation with drift b and
    one unit noise per coordinate.  Every slice is pushed forward under
    x + u(t, x) and the plain ledger (the linear renormalizer's) is assembled
    against the transformed coefficients, reusing the path's own increments
    for the Ito sums.
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
    axis = np.linspace(0.0, path.T, path.steps + 1)
    _step_axis(axis, ZvonkinError, "driving path", like=(u.times, "displacement"))
    _warn_if_displacement_mismatches(u, b, straightening.lam)

    hpath = pushforward_path_under_diffeo(fpath, straightening, u.times)
    linear = make_renormalizer("linear")
    return residual_renormalized(
        hpath, straightening.b_hat, straightening.sigma_hat, phi_test, linear, path
    )


def _time_lq(values, dt: float, q: float) -> float:
    """Left-endpoint L^q norm in time of per-slice values (last node unused)."""
    return float((np.abs(values[:-1]) ** q).sum() * dt) ** (1.0 / q)


def _relaxation_exponents(q: float, p: float, r: float) -> None:
    """relaxation_metrics' exponents: q, p, r >= 1, and r < p for grad sigma's norm."""
    _check_exponents(ZvonkinError, "q, p, r", q, p, r)
    if min(q, p, r) < 1.0:
        raise ZvonkinError(f"norm exponents must be >= 1, got q={q}, p={p}, r={r}")
    if not r < p:
        raise ZvonkinError(f"gradient norm wants r < p, got r={r} and p={p}")


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
    _relaxation_exponents(q, p, r)
    grid = b.grid
    if coeffs.b_hat.grid != grid:
        raise ZvonkinError("coefficients and drift live on different grids")
    dt = _step_axis(b.times, ZvonkinError, "drift", like=(coeffs.b_hat.times, "coefficients"))
    dim = grid.dim

    # per row of the straightening, a block at a time: Div b_hat,
    # |sigma_hat - I| in L^p and |grad sigma_hat| in L^r
    eye = np.eye(dim).reshape((dim, dim) + (1,) * dim)
    b_hat = coeffs.b_hat
    per_row = []
    for rows in _blocks(grid, len(b_hat.values)):
        # [n, i, k] = sigma_hat^k_i
        cols = np.stack([s.values[rows] for s in coeffs.sigma_hat], axis=2)
        dev = np.sqrt(((cols - eye) ** 2).sum(axis=(1, 2)))
        grads = jacobian_stack(grid, np.swapaxes(cols, 1, 2))  # [n, k, i, j] = d_j sigma_hat^k_i
        grad_mag = np.sqrt((grads**2).sum(axis=(1, 2, 3)))
        norms = lp_norm_stack(grid, dev, p), lp_norm_stack(grid, grad_mag, r)
        per_row += zip(divergence_stack(grid, b_hat.values[rows]), *norms)
    div_b = b.per_sample(lambda values: divergence_stack(grid, values))

    # per time sample, a block at a time: |b_hat - b| in L^p, |Div b_hat - Div b| in L^1
    div_bh, s_norms, g_norms = zip(*(per_row[n] for n in b_hat.index))
    b_norms, d_norms = [], []
    for rows in _blocks(grid, len(b.times)):
        diff = b_hat.values[b_hat.index[rows]] - b.values[b.index[rows]]
        b_norms += lp_norm_stack(grid, np.sqrt((diff**2).sum(axis=1)), p)
        d_norms += lp_norm_stack(grid, np.stack([div_bh[l] - div_b[l] for l in rows]), 1.0)

    return RelaxationRecord(
        bhat_err=_time_lq(b_norms, dt, q),
        sigma_err=_time_lq(s_norms, dt, q),
        grad_sigma_err=_time_lq(g_norms, dt, q),
        div_err=_time_lq(d_norms, dt, 1.0),
    )
