"""Damped parabolic solves and their large-damping asymptotics.

The backward problem

    d_t u + b . grad u + (1/2) Laplace u = lambda u - b,   u(T) = 0,

is solved through its forward twin (drift time-reversed) in mild form,

    v(t) = integral_0^t e^{-lambda (t-s)} P_{t-s} (b + b . grad v)(s) ds,

with P_t the heat semigroup of (1/2) Laplace.  The Duhamel integral uses
left-endpoint sub-intervals with the damping factor integrated exactly
(exponential Euler): one step reads

    v_{l+1} = P_dt ( e^{-lambda dt} v_l + (1 - e^{-lambda dt})/lambda * g_l ),

g_l the left-endpoint source.  This rule is a left-endpoint quadrature like
every other integral in the package, but it is *exact* for drifts that are
constant in space and time, which keeps the closed-form checks at round-off
instead of at O(dt).  Because g_l = b_l + (b_l . grad) v_l reads only the
left endpoint, one forward march computes v: it *is* the fixed point of the
discrete mild map, with no iteration.  mild_solve marches the spectrum of v,
one inverse and one forward transform a step, each written into a buffer
allocated once per solve; mild_defect re-applies the step in physical space,
an independent check that reads round-off.  u keeps the march array as its
rows, read backward through its index; spatial norms are taken a block of
rows at a time.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import parallel
from .field import (
    Grid,
    GridScalar,
    GridVector,
    TimeGridVector,
    _blocks,
    _check_exponents,
    _is_integer,
    _is_real,
    _partials,
    _spectral,
    _synthesize,
    _wavenumbers,
    divergence_stack,
    hessian_stack,
    jacobian_stack,
    lp_norm_stack,
)

__all__ = [
    "ParabolicError",
    "ParabolicSolution",
    "DecayStudy",
    "heat_apply",
    "mild_solve",
    "mild_defect",
    "pde_residual",
    "backward_defect",
    "decay_study",
    "relaxation_residuals",
    "space_time_norm",
]

class ParabolicError(ValueError):
    pass


def _float(value, name: str) -> float:
    """A real (_is_real) as a float64, refused by name if it is an int beyond float range."""
    try:
        return float(value)
    except OverflowError:
        raise ParabolicError(f"{name} must be finite, got an integer beyond float range") from None


@functools.lru_cache(maxsize=256)
def _heat_multiplier(dim: int, L: float, N: int, t: float) -> np.ndarray:
    k2 = sum(k**2 for k in _wavenumbers(dim, L, N))
    return np.exp(-0.5 * k2 * t)


def heat_apply(g, t: float):
    """Heat semigroup exp(t/2 * Laplace), spectral, for scalars or vectors."""
    if not 0 <= t < math.inf:
        raise ParabolicError(f"heat time must be finite and >= 0, got {t}")
    if not isinstance(g, (GridScalar, GridVector)):
        raise ParabolicError(f"heat_apply expects a grid field, got {type(g).__name__}")
    if t == 0.0:
        return type(g)(g.grid, g.values.copy())
    mult = _heat_multiplier(g.grid.dim, g.grid.L, g.grid.N, float(t))
    return type(g)(g.grid, _spectral(g.grid, g.values, [mult]).reshape(g.values.shape))


@dataclass
class ParabolicSolution:
    """Backward-time solution slices u(t_j) at damping lam."""

    lam: float
    u: TimeGridVector


def _check_uniform_times(times: np.ndarray) -> float:
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-10, atol=0.0):
        raise ParabolicError("drift must be sampled on a uniform time grid")
    return float(dts[0])


def mild_solve(b: TimeGridVector, lam: float, quad_steps: int) -> ParabolicSolution:
    """March the mild form forward once on the spectrum of v; return backward-time slices.

    The drift must be sampled on the quadrature grid itself (quad_steps
    uniform sub-intervals of [0, T]); quad_steps is an integer and lam a
    positive finite number.  Each step synthesizes grad v and transforms the
    source g_l into buffers allocated once per solve, reads the drift row in
    force through b's index, and updates the spectrum in place.  (b . grad) v
    is the einsum in 2-d and one multiply in 1-d, as in flow._product_stack:
    einsum's sum from +0.0 differs from it only in the sign of a zero of g_l,
    which reaches no bit of v: every zero part of the spectrum is +0.0, and
    adding a zero of either sign to +0.0 or to a nonzero part changes
    nothing.  Slices are synthesized a block of steps at a time.  Overflow is
    ignored in the march, as in the flow's Euler loop; one check afterwards
    names the first step that lost finiteness.
    """
    if not _is_integer(quad_steps):
        raise ParabolicError(f"quad_steps must be an integer, got {quad_steps!r}")
    if not _is_real(lam):
        raise ParabolicError(f"damping lambda must be a number, got {lam!r}")
    lam = _float(lam, "damping lambda")  # a float32 lambda would round the weight to float32
    if not 0 < lam < math.inf:
        raise ParabolicError(f"damping lambda must be positive and finite, got {lam}")
    if len(b.times) != quad_steps + 1:
        raise ParabolicError(
            f"drift has {len(b.times) - 1} steps, quadrature wants {quad_steps}"
        )
    grid, steps, dt = b.grid, quad_steps, _check_uniform_times(b.times)
    dim, cells = grid.dim, grid.shape
    grads = np.stack(_partials(grid, [(j,) for j in range(dim)]))
    heat = _heat_multiplier(dim, grid.L, grid.N, dt)
    decay = math.exp(-lam * dt)
    weight = (1.0 - decay) / lam
    v = np.empty((steps + 1, dim) + cells)
    blocks = _blocks(grid, steps + 1)
    spectra = np.empty((len(blocks[0]), dim) + cells, dtype=complex)
    spectrum = np.zeros((dim,) + cells, dtype=complex)
    spectrum_i = spectrum[:, None]  # a view: v_i's spectrum against each d_j
    jac_spectra = np.empty((dim, dim) + cells, dtype=complex)
    jac = np.empty_like(jac_spectra)
    grad_v = jac.real  # grad_v[i, j] = d_j v_i, synthesized into jac each step
    source = np.empty((dim,) + cells)
    source_spectrum = np.empty_like(spectrum)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in blocks:
            for row, l in enumerate(rows):
                spectra[row] = spectrum
                if l < steps:  # forward twin: drift reversed in time
                    b_l = b.values[b.index[steps - l]]
                    np.multiply(spectrum_i, grads, out=jac_spectra)
                    _synthesize(grid, jac_spectra, out=jac)
                    if dim == 1:
                        np.multiply(b_l, grad_v[0], out=source)
                    else:
                        np.einsum("j...,ij...->i...", b_l, grad_v, out=source)
                    source += b_l  # g_l
                    g_hat = _spectral(grid, source, out=source_spectrum)
                    np.multiply(decay, spectrum, out=spectrum)
                    np.multiply(weight, g_hat, out=g_hat)
                    np.add(spectrum, g_hat, out=spectrum)
                    np.multiply(heat, spectrum, out=spectrum)
            block = spectra[: len(rows)]
            v[rows.start : rows.stop] = _synthesize(grid, block, out=block)
    lost = np.flatnonzero(~np.isfinite(v.reshape(steps + 1, -1)).all(axis=1))
    if len(lost):
        raise ParabolicError(f"mild march at lambda = {lam} overflows at step {lost[0]} of {steps}")
    u = TimeGridVector(grid, b.times.copy(), v, steps - np.arange(steps + 1))  # u(t_j) = v(T - t_j)
    return ParabolicSolution(lam=lam, u=u)


def mild_defect(sol: ParabolicSolution, b: TimeGridVector) -> float:
    """Re-apply the mild map once in physical space, sources read off the stored
    slices; sup-norm distance to the stored solution.  It transforms each slice
    afresh, independent of mild_solve's spectral march, and reads round-off."""
    if not np.array_equal(sol.u.times, b.times):
        raise ParabolicError("solution and drift live on different time grids")
    grid, steps, dt = b.grid, len(b.times) - 1, _check_uniform_times(b.times)
    partials = _partials(grid, [(j,) for j in range(grid.dim)])
    heat = [_heat_multiplier(grid.dim, grid.L, grid.N, dt)]
    decay = math.exp(-sol.lam * dt)
    weight = (1.0 - decay) / sol.lam
    b_rows, u_rows = b.values[b.index], sol.u.values[sol.u.index]
    worst = 0.0
    prev = np.zeros((grid.dim,) + grid.shape)
    for l in range(steps):
        b_l, u_l = b_rows[steps - l], u_rows[steps - l]
        g_l = b_l + np.einsum("j...,ij...->i...", b_l, _spectral(grid, u_l, partials))
        prev = _spectral(grid, decay * prev + weight * g_l, heat).reshape(prev.shape)
        worst = max(worst, float(np.max(np.abs(prev - u_rows[steps - l - 1]))))
    return worst


def pde_residual(sol: ParabolicSolution, b: TimeGridVector) -> float:
    """Space-time L2 residual of d_t u + b.grad u + (1/2)Lap u - lam u + b."""
    if not np.array_equal(sol.u.times, b.times):
        raise ParabolicError("solution and drift live on different time grids")
    dt = _check_uniform_times(b.times)
    b_rows, u_rows = b.values[b.index], sol.u.values[sol.u.index]
    total = 0.0
    for j in range(len(b.times) - 1):
        resid = backward_defect(b.grid, u_rows[j], u_rows[j + 1], b_rows[j], sol.lam, dt)
        total += float(np.sum(resid**2)) * b.grid.cell_volume * dt
    return math.sqrt(total)


def backward_defect(
    grid: Grid, u_l: np.ndarray, u_next: np.ndarray, b_l: np.ndarray, lam: float, dt: float
) -> np.ndarray:
    """d_t u + (b.grad) u + (1/2)Lap u - lam u + b at one slice, d_t a forward difference."""
    d_t = (u_next - u_l) / dt
    advect = np.einsum("j...,ij...->i...", b_l, jacobian_stack(grid, u_l))  # (b . grad) u
    hess = hessian_stack(grid, u_l)  # [i, j, k] = d_j d_k u_i
    laplacian = sum(hess[:, a, a] for a in range(grid.dim))  # from 0, in axis order
    return d_t + advect + 0.5 * laplacian - lam * u_l + b_l


# ---------------------------------------------------------------------------
# Norms and lambda-asymptotics
# ---------------------------------------------------------------------------

def _check_order(alpha) -> None:
    if not (_is_integer(alpha) and alpha in (0, 1, 2)):
        raise ParabolicError(f"alpha must be 0, 1 or 2, got {alpha!r}")


def _magnitudes(grid: Grid, values: np.ndarray, alpha: int) -> np.ndarray:
    """Pointwise |grad^alpha v| of a stack of vector fields, (rows, dim) + grid shape;
    alpha is 0, 1 or 2 (_check_order)."""
    if alpha == 0:
        return np.sqrt(np.einsum("ri...,ri...->r...", values, values))
    if alpha == 1:
        jac = jacobian_stack(grid, values)
        return np.sqrt(np.einsum("rij...,rij...->r...", jac, jac))
    hess = hessian_stack(grid, values)  # [r, i, j, k] = d_j d_k v_i
    triples = itertools.product(range(grid.dim), repeat=3)
    return np.sqrt(sum(hess[:, i, j, k] ** 2 for i, j, k in triples))


def space_time_norm(u: TimeGridVector, alpha: int, r: float, q: float) -> float:
    """L^q in time (left endpoints) of the spatial L^r norm of |grad^alpha u|.

    The magnitudes and their L^r norms are taken a block of rows at a time;
    the time sum runs one slice at a time.
    """
    _check_order(alpha)
    _check_exponents(ParabolicError, "r, q", r, q)
    dt = _check_uniform_times(u.times)
    grid = u.grid
    per_step = u.per_sample(lambda v: lp_norm_stack(grid, _magnitudes(grid, v, alpha), r))[:-1]
    if math.isinf(q):
        return max(per_step)
    return float(sum(v**q for v in per_step) * dt) ** (1.0 / q)


@dataclass
class DecayStudy:
    """Norms of grad^alpha u_lambda along a damping ladder, with fitted slope."""

    lambdas: list
    norms: list
    fitted_slope: float
    theory_delta: float

    def __post_init__(self):
        lams = np.asarray(self.lambdas, dtype=float)
        if not np.all(np.diff(lams) > 0):
            raise ParabolicError("lambdas must be strictly increasing")
        if not all(n > 0 for n in self.norms):
            raise ParabolicError("norms must be positive")


def decay_study(
    b: TimeGridVector,
    lambda_list,
    alpha: int,
    r: float,
    p: float,
    q: float,
) -> DecayStudy:
    """Fit the decay rate of ||grad^alpha u_lambda||_{L^q_t(L^r)} in lambda.

    theory_delta = 1 - alpha/2 + (n/2)(1/r - 1/p); the integrability pair
    (p, q) must satisfy the subcritical condition 2/q + n/p < 1, and r <= p
    (strictly for alpha = 2).  The quadrature steps are the drift's own,
    the only ones mild_solve accepts.
    """
    _check_order(alpha)
    lams = list(lambda_list)
    if not all(map(_is_real, lams)):
        raise ParabolicError(f"lambdas must be numbers, got {lams!r}")
    lams = [_float(l, "lambdas") for l in lams]
    if len(lams) < 3:
        raise ParabolicError(f"need at least 3 lambdas, got {len(lams)}")
    if not (0 < lams[0] and lams[-1] < math.inf and np.all(np.diff(lams) > 0)):
        raise ParabolicError(f"lambdas must be positive, finite and strictly increasing: {lams}")
    _check_exponents(ParabolicError, "r, p, q", r, p, q)
    n = b.grid.dim
    if 2.0 / q + n / p >= 1.0:
        raise ParabolicError(f"(p, q) = ({p}, {q}) violates 2/q + n/p < 1 in dim {n}")
    if (alpha in (0, 1) and r > p) or (alpha == 2 and r >= p):
        raise ParabolicError(f"spatial exponent r = {r} incompatible with p = {p} at alpha = {alpha}")

    def solve_one(lam: float) -> float:
        return space_time_norm(mild_solve(b, lam, len(b.times) - 1).u, alpha, r, q)

    norms = parallel.ordered_map(solve_one, lams)
    slope, _ = np.polyfit(np.log(lams), np.log(norms), 1)
    delta = 1.0 - alpha / 2.0 + (n / 2.0) * (1.0 / r - 1.0 / p)
    return DecayStudy(
        lambdas=lams,
        norms=[float(v) for v in norms],
        fitted_slope=float(slope),
        theory_delta=float(delta),
    )


@dataclass
class ParabolicRelaxation:
    drift_residual: float
    divergence_residual: float


def relaxation_residuals(sol: ParabolicSolution, b: TimeGridVector) -> ParabolicRelaxation:
    """How far lambda * u_lambda is from b.

    Returns ||lam u - b||_{L^1_t(L^inf)} and ||Div(lam u - b)||_{L^1_t(L^1)},
    both with left-endpoint time quadrature.  The sup norm makes the
    constant-drift closed form free of box-volume factors.  The gaps, their
    divergences and their norms are taken a block of time samples at a time.
    """
    if not np.array_equal(sol.u.times, b.times):
        raise ParabolicError("solution and drift live on different time grids")
    dt = _check_uniform_times(b.times)
    grid = b.grid
    drift_total = 0.0
    div_total = 0.0
    for rows in _blocks(grid, len(b.times) - 1):
        gap = sol.lam * sol.u.values[sol.u.index[rows]] - b.values[b.index[rows]]
        drifts = lp_norm_stack(grid, _magnitudes(grid, gap, 0), math.inf)
        for drift, div in zip(drifts, lp_norm_stack(grid, divergence_stack(grid, gap), 1)):
            drift_total += drift * dt
            div_total += div * dt
    return ParabolicRelaxation(drift_residual=drift_total, divergence_residual=div_total)
