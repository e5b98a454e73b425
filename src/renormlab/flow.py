"""Stochastic flows of characteristics and the push-forward representation.

Euler-Maruyama integration of

    dX = b(t, X) dt + sum_k sigma^k(t, X) dW^k

with every grid node as an initial seed and one shared Brownian path per
ensemble, so the whole flow map Phi_t is sampled at once.  The spatial
Jacobian is then computed along two independent routes -- the variational
matrix recursion d(dPhi) = db dPhi dt + dsigma^k dPhi dW^k, and the scalar
log-determinant recursion

    d log det dPhi = Div b dt + Div sigma^k dW^k
                     - (1/2) d_i sigma^k_j d_j sigma^k_i dt

-- whose agreement is a genuine two-sided consistency check, since neither
feeds the other.

Coefficients are evaluated off the nodes by cubic splines.  The steps of a
path are grouped by the slices of [b, sigma^1, ...] in force at l*dt (one
group for a coefficient constant in time), and each group gets one stacked
spline: the values for the flow, the Jacobians for the variational
recursion, and (Div, twist) for the log-determinant.  The flow itself is
sequential, one spline call per step.  The two recursions read positions the
flow already stored, so they evaluate their spline on blocks of many steps
at once and only the cheap update runs step by step.  A spline evaluates
every point on its own, so the batching changes no bit of any result.  A
component constant in space (the unit noise e_k) is no spline at all: the
interpolant returns its exact value.

Inverse maps come from Newton iteration on the interpolated displacement
field (with pointwise step halving where full steps overshoot).  The first
step starts from y = x, where the splines of the displacement and of its
Jacobian reproduce the node arrays, so it is taken on those arrays with no
spline call.  Weak solutions are realized as

    f(t, x) = f0(Psi_t(x)) det(dPsi_t(x)),

with det(dPsi_t) = 1 / det(I + dD)(Psi_t) evaluated on the same interpolated
geometry, so discrete mass conservation is limited only by quadrature.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import parallel
from .field import (
    Grid,
    GridScalar,
    GridVector,
    TimeGridVector,
    build_grid,
    divergence,
    jacobian,
)
from .interp import PeriodicInterpolant, vector_interpolant
from .rng import stream

__all__ = [
    "FlowError",
    "SdeConfig",
    "BrownianPath",
    "FlowEnsemble",
    "InverseFlow",
    "MomentEstimate",
    "sample_brownian",
    "simulate_flow",
    "variational_jacobian",
    "logdet_stochastic_exponential",
    "logdet_gap",
    "invert_flow",
    "pushforward_solution",
    "ensemble_moment",
    "save_ensemble",
    "load_ensemble",
]


class FlowError(ValueError):
    pass


@dataclass(frozen=True)
class SdeConfig:
    """Time step of an Euler-Maruyama flow."""

    dt: float

    def __post_init__(self):
        if self.dt <= 0:
            raise FlowError(f"dt must be positive, got {self.dt}")


@dataclass
class BrownianPath:
    """Increments of k_count independent Wiener components on a uniform grid."""

    T: float
    dt: float
    k_count: int
    increments: np.ndarray  # (steps, k_count), each entry ~ N(0, dt)
    seed: int

    def __post_init__(self):
        self.increments = np.asarray(self.increments, dtype=np.float64)
        steps = int(round(self.T / self.dt))
        if self.increments.shape != (steps, self.k_count):
            raise FlowError(
                f"increments shape {self.increments.shape} != ({steps}, {self.k_count})"
            )
        if not np.all(np.isfinite(self.increments)):
            raise FlowError("non-finite Brownian increments")

    @property
    def steps(self) -> int:
        return self.increments.shape[0]


def sample_brownian(T: float, dt: float, k_count: int, stream_id: int) -> BrownianPath:
    """Draw one path from the counter-based stream with the given id."""
    if T <= 0 or dt <= 0:
        raise FlowError(f"need T > 0 and dt > 0, got T={T}, dt={dt}")
    if k_count < 0:
        raise FlowError(f"k_count must be >= 0, got {k_count}")
    steps = int(round(T / dt))
    if abs(steps * dt - T) > 1e-9 * max(T, 1.0):
        raise FlowError(f"T/dt = {T / dt} is not an integer step count")
    rng = stream(stream_id)
    increments = rng.normal(0.0, math.sqrt(dt), size=(steps, k_count))
    return BrownianPath(T=float(T), dt=float(dt), k_count=k_count, increments=increments, seed=int(stream_id))


def refine_brownian(path: BrownianPath, factor: int) -> BrownianPath:
    """Subdivide each increment into `factor` bridge-conditioned pieces.

    The result samples the *same* Brownian motion at dt/factor: fresh draws
    xi_i ~ N(0, dt/factor) are shifted by -(sum_i xi_i - dW)/factor within
    each coarse step, which is exactly the Brownian bridge conditional law.
    Deterministic given (path.seed, factor); refining twice with the same
    factor reproduces the same fine path.
    """
    if factor < 2:
        raise FlowError(f"refinement factor must be >= 2, got {factor}")
    fine_dt = path.dt / factor
    rng = stream(path.seed, factor)
    raw = rng.normal(0.0, math.sqrt(fine_dt), size=(path.steps, factor, path.k_count))
    correction = (raw.sum(axis=1) - path.increments) / factor
    fine = raw - correction[:, None, :]
    return BrownianPath(
        T=path.T,
        dt=fine_dt,
        k_count=path.k_count,
        increments=fine.reshape(path.steps * factor, path.k_count),
        seed=path.seed,
    )


@dataclass
class FlowEnsemble:
    """Flow map sampled at every grid node, driven by one shared path."""

    seeds_grid: Grid
    path: BrownianPath
    paths: np.ndarray  # (steps+1, dim) + grid.shape
    jac_variational: np.ndarray | None = None  # (steps+1, dim, dim) + grid.shape
    logdet_exponential: np.ndarray | None = None  # (steps+1,) + grid.shape


# Points per batched spline call in the two recursions over stored positions.
# Past a few thousand points the per-call overhead no longer shows, and a
# bounded block keeps the temporary arrays of each worker thread small.
_BLOCK_POINTS = 2048


def _validate_coefficients(b: TimeGridVector, sigmas, path: BrownianPath) -> Grid:
    grid = b.grid
    for s in sigmas:
        if s.grid != grid:
            raise FlowError("drift and noise coefficients live on different grids")
    if len(sigmas) != path.k_count:
        raise FlowError(
            f"{len(sigmas)} noise fields but path carries {path.k_count} components"
        )
    horizons = [b.T] + [s.T for s in sigmas]
    if min(horizons) < path.T - 1e-9:
        raise FlowError("coefficients are not defined up to the path horizon")
    return grid


def _slice_groups(b: TimeGridVector, sigmas, path: BrownianPath):
    """Group the steps of ``path`` by the slices of [b, sigma^1..] in force at l*dt.

    Returns the distinct slice tuples and the group of each step.  Slices are
    told apart by identity, so a coefficient that holds one slice at every
    time (every coefficient the lab builds) puts all steps in one group.
    """
    coefficients = [b, *sigmas]
    times = np.arange(path.steps) * path.dt
    columns = []
    for c in coefficients:
        first: dict[int, int] = {}
        owner = np.array([first.setdefault(id(s), j) for j, s in enumerate(c.slices)])
        columns.append(owner[c.slice_indices(times)])
    keys, group_of_step = np.unique(np.stack(columns, axis=1), axis=0, return_inverse=True)
    slice_sets = [tuple(c.slices[j] for c, j in zip(coefficients, key)) for key in keys]
    return slice_sets, group_of_step.reshape(-1)


def _along_paths(ensemble: FlowEnsemble, interpolants, group_of_step):
    """Yield (steps, values): each step's interpolant at its stored positions.

    Steps come in order, in blocks of about _BLOCK_POINTS points.  values
    carries the interpolant head axes, then one axis over the block's steps,
    then the grid axes.
    """
    grid = ensemble.seeds_grid
    per_block = max(1, _BLOCK_POINTS // grid.N**grid.dim)
    head_shape = interpolants[0].head_shape
    head = (slice(None),) * len(head_shape)
    for start in range(0, ensemble.path.steps, per_block):
        steps = range(start, min(start + per_block, ensemble.path.steps))
        points = np.moveaxis(ensemble.paths[steps.start : steps.stop], 0, 1)
        groups = group_of_step[steps.start : steps.stop]
        values = np.empty(head_shape + points.shape[1:])
        for g in np.unique(groups):
            pick = groups == g
            values[head + (pick,)] = interpolants[g](points[:, pick])
        yield steps, values


def simulate_flow(
    b: TimeGridVector,
    sigmas: list[TimeGridVector],
    config: SdeConfig,
    path: BrownianPath,
) -> FlowEnsemble:
    """Euler-Maruyama flow from every grid node, one shared Brownian path."""
    if abs(config.dt - path.dt) > 1e-12 * max(path.dt, 1.0):
        raise FlowError(f"config dt {config.dt} does not match path dt {path.dt}")
    grid = _validate_coefficients(b, sigmas, path)
    slice_sets, group_of_step = _slice_groups(b, sigmas, path)
    interpolants = [
        PeriodicInterpolant(grid, np.stack([s.values for s in slices])) for slices in slice_sets
    ]

    positions = np.empty((path.steps + 1, grid.dim) + grid.shape)
    X = np.stack(grid.coordinates())
    positions[0] = X
    for l in range(path.steps):
        coefficients = interpolants[group_of_step[l]](X)
        with np.errstate(over="ignore", invalid="ignore"):
            move = coefficients[0] * path.dt
            for k in range(len(sigmas)):
                move += coefficients[1 + k] * path.increments[l, k]
            X = X + move
        if not np.all(np.isfinite(X)):
            raise FlowError(f"trajectory lost finiteness at step {l + 1}")
        positions[l + 1] = X
    return FlowEnsemble(seeds_grid=grid, path=path, paths=positions)


def variational_jacobian(
    ensemble: FlowEnsemble, b: TimeGridVector, sigmas: list[TimeGridVector]
) -> FlowEnsemble:
    """Integrate the matrix recursion for dPhi along every stored trajectory."""
    grid = _validate_coefficients(b, sigmas, ensemble.path)
    path = ensemble.path
    slice_sets, group_of_step = _slice_groups(b, sigmas, path)
    interpolants = [
        PeriodicInterpolant(grid, np.stack([jacobian(s) for s in slices])) for slices in slice_sets
    ]

    J = np.zeros((path.steps + 1, grid.dim, grid.dim) + grid.shape)
    for i in range(grid.dim):
        J[0, i, i] = 1.0
    for steps, jacobians in _along_paths(ensemble, interpolants, group_of_step):
        for n, l in enumerate(steps):
            growth = jacobians[0, :, :, n] * path.dt
            for k in range(len(sigmas)):
                growth += jacobians[1 + k, :, :, n] * path.increments[l, k]
            J[l + 1] = J[l] + np.einsum("ik...,kj...->ij...", growth, J[l])
            if not np.all(np.isfinite(J[l + 1])):
                raise FlowError(f"variational recursion lost finiteness at step {l + 1}")
    ensemble.jac_variational = J
    return ensemble


def logdet_stochastic_exponential(
    ensemble: FlowEnsemble, b: TimeGridVector, sigmas: list[TimeGridVector]
) -> FlowEnsemble:
    """Integrate the scalar log-determinant recursion along every trajectory.

    Left-point sums of Div b dt + Div sigma^k dW^k minus the quadratic
    correction (1/2) d_i sigma^k_j d_j sigma^k_i dt.  Independent of the
    variational route: no matrix products, no determinants.
    """
    grid = _validate_coefficients(b, sigmas, ensemble.path)
    path = ensemble.path
    slice_sets, group_of_step = _slice_groups(b, sigmas, path)
    interpolants = []
    for drift, *noises in slice_sets:
        scalars = [divergence(drift).values]
        for s in noises:
            jac = jacobian(s)
            scalars += [divergence(s).values, np.einsum("ij...,ji...->...", jac, jac)]
        interpolants.append(PeriodicInterpolant(grid, np.stack(scalars)))

    logdet = np.zeros((path.steps + 1,) + grid.shape)
    for steps, scalars in _along_paths(ensemble, interpolants, group_of_step):
        dW = path.increments[steps.start : steps.stop].reshape(
            (len(steps), path.k_count) + (1,) * grid.dim
        )
        increment = scalars[0] * path.dt
        for k in range(len(sigmas)):
            increment += scalars[1 + 2 * k] * dW[:, k] - 0.5 * scalars[2 + 2 * k] * path.dt
        logdet[steps.start + 1 : steps.stop + 1] = increment
    # add.accumulate runs along time one step after the other: the same sums,
    # in the same order, as logdet[l + 1] = logdet[l] + increment[l]
    np.cumsum(logdet, axis=0, out=logdet)
    ensemble.logdet_exponential = logdet
    return ensemble


def logdet_gap(ensemble: FlowEnsemble, step: int | None = None) -> float:
    """Sup over nodes of |logdet_exponential - log det jac_variational|."""
    if ensemble.jac_variational is None or ensemble.logdet_exponential is None:
        raise FlowError("run variational_jacobian and logdet_stochastic_exponential first")
    dets = _det_stack(np.moveaxis(ensemble.jac_variational, 0, 2))
    if np.min(dets) <= 0:
        raise FlowError("variational determinant lost positivity")
    gap = np.abs(ensemble.logdet_exponential - np.log(dets))
    if step is not None:
        return float(np.max(gap[step]))
    return float(np.max(gap))


def invert_flow(
    ensemble: FlowEnsemble,
    t: float,
    tol: float = 1e-10,
    max_newton: int = 30,
) -> "InverseFlow":
    """Solve Phi_t(y) = x at every node x by Newton on the displacement."""
    grid = ensemble.seeds_grid
    path = ensemble.path
    step = int(round(t / path.dt))
    if step < 0 or step > path.steps or abs(step * path.dt - t) > 1e-9 * max(path.T, 1.0):
        raise FlowError(f"time {t} is not on the path step grid")
    X0 = np.stack(grid.coordinates())
    disp = GridVector(grid, ensemble.paths[step] - X0)

    disp_jac = jacobian(disp)
    node_det = _det_stack(_identity_plus(disp_jac))
    if float(np.min(node_det)) <= 0.0:
        raise FlowError(
            f"forward map is not injective at t={t}: min Jacobian determinant "
            f"{float(np.min(node_det)):.3e}"
        )
    lipschitz = float(np.max(np.sqrt(np.einsum("ij...,ij...->...", disp_jac, disp_jac))))

    D = vector_interpolant(disp)
    JD = PeriodicInterpolant(grid, disp_jac)
    # first Newton step from y = x: there the splines of D and dD reproduce
    # disp and disp_jac, so the node arrays stand in for them
    Y = X0 - _solve_stack(_identity_plus(disp_jac), disp.values)
    converged = False
    iterations = 0
    for iterations in range(1, max_newton + 1):
        F = Y + D(Y) - X0
        if float(np.max(np.abs(F))) < tol:
            converged = True
            break
        M = _identity_plus(JD(Y))
        Y = Y - _solve_stack(M, F)
        if not np.all(np.isfinite(Y)):
            raise FlowError("Newton iteration lost finiteness")
    if not converged:
        if lipschitz < 1.0:
            # displacement is a contraction: y = x - D(y) converges geometrically
            for _ in range(500):
                Y_next = X0 - D(Y)
                if float(np.max(np.abs(Y_next - Y))) < tol:
                    Y = Y_next
                    converged = True
                    break
                Y = Y_next
        if not converged:
            Y, extra, converged = _damped_newton(D, JD, X0, tol, max_newton)
            iterations += extra
        if not converged:
            residual = float(np.max(np.abs(Y + D(Y) - X0)))
            raise FlowError(f"flow inversion stagnated (residual {residual:.3e})")

    inverse_det = 1.0 / _det_stack(_identity_plus(JD(Y)))
    return InverseFlow(
        psi=GridVector(grid, Y),
        det=GridScalar(grid, inverse_det),
        newton_iterations=iterations,
    )


def _damped_newton(D, JD, X0: np.ndarray, tol: float, max_newton: int):
    """Newton on y + D(y) = x from y = x, each point halving its own step.

    A point takes the largest step 2^-m (m <= 30) of its Newton step that
    lowers its residual |F|.  The fallback for maps whose full Newton steps
    overshoot: a large displacement with a strong compression.  Returns
    (Y, iterations, converged).
    """
    Y = X0.copy()
    F = Y + D(Y) - X0
    for iterations in range(1, max_newton + 1):
        size = np.max(np.abs(F), axis=0)
        if float(np.max(size)) < tol:
            return Y, iterations, True
        step = _solve_stack(_identity_plus(JD(Y)), F)
        scale = np.ones_like(size)
        for _ in range(31):
            trial = Y - scale * step
            F_trial = trial + D(trial) - X0
            worse = (np.max(np.abs(F_trial), axis=0) >= size) & (size >= tol)
            if not np.any(worse):
                break
            scale[worse] *= 0.5
        Y, F = trial, F_trial
        if not np.all(np.isfinite(Y)):
            raise FlowError("Newton iteration lost finiteness")
    return Y, max_newton, float(np.max(np.abs(F))) < tol


@dataclass
class InverseFlow:
    """Inverse map Psi_t on the nodes and its Jacobian determinant.

    newton_iterations counts the Newton rounds that evaluate the residual on
    the splines, in the plain loop and in the step-halving fallback.  The
    first step, taken from y = x on node data, does not count, nor do the
    sweeps of the contraction fallback.
    """

    psi: GridVector
    det: GridScalar
    newton_iterations: int


def _identity_plus(jac: np.ndarray) -> np.ndarray:
    out = jac.copy()
    for i in range(jac.shape[0]):
        out[i, i] += 1.0
    return out


def _det_stack(mat: np.ndarray) -> np.ndarray:
    """Determinant of a (dim, dim, ...) stack, dim in {1, 2}."""
    dim = mat.shape[0]
    if dim == 1:
        return mat[0, 0]
    if dim == 2:
        return mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    raise FlowError(f"unsupported dimension {dim}")


def _solve_stack(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve mat @ out = rhs pointwise for (dim, dim, ...) / (dim, ...) stacks."""
    dim = mat.shape[0]
    det = _det_stack(mat)
    if float(np.min(np.abs(det))) < 1e-14:
        raise FlowError("singular Newton matrix")
    if dim == 1:
        return rhs / mat[0, 0]
    out = np.empty_like(rhs)
    out[0] = (mat[1, 1] * rhs[0] - mat[0, 1] * rhs[1]) / det
    out[1] = (mat[0, 0] * rhs[1] - mat[1, 0] * rhs[0]) / det
    return out


def pushforward_solution(f0: GridScalar, ensemble: FlowEnsemble, t: float) -> GridScalar:
    """Realize the weak solution f(t, x) = f0(Psi_t(x)) det(dPsi_t(x))."""
    if f0.grid != ensemble.seeds_grid:
        raise FlowError("initial datum lives on a different grid than the flow")
    inverse = invert_flow(ensemble, t)
    values = PeriodicInterpolant(f0.grid, f0.values)(inverse.psi.values)
    return GridScalar(f0.grid, values * inverse.det.values)


class MomentEstimate(tuple):
    """(mean, stderr) pair that unpacks like a tuple."""

    __slots__ = ()

    def __new__(cls, mean: float, stderr: float):
        return super().__new__(cls, (float(mean), float(stderr)))

    @property
    def mean(self) -> float:
        return self[0]

    @property
    def stderr(self) -> float:
        return self[1]


def ensemble_moment(ensembles, functional, power: float = 1.0) -> MomentEstimate:
    """Monte Carlo mean of functional(ensemble)^power with standard error.

    Evaluation may run on the worker pool, but the reduction always walks the
    input order, so the estimate is bitwise independent of the worker count.
    """
    ensembles = list(ensembles)
    if len(ensembles) < 2:
        raise FlowError(f"need at least 2 ensembles, got {len(ensembles)}")
    values = parallel.ordered_map(lambda e: float(functional(e)) ** power, ensembles)
    count = len(values)
    mean = 0.0
    for v in values:
        mean += v
    mean /= count
    spread = 0.0
    for v in values:
        spread += (v - mean) ** 2
    stderr = math.sqrt(spread / (count - 1) / count)
    return MomentEstimate(mean, stderr)


# ---------------------------------------------------------------------------
# Persistence (.flo: one-line JSON header + flat little-endian float64 blocks)
# ---------------------------------------------------------------------------

_FLO_KEYS = ("dim", "L", "N", "T", "dt", "k_count", "seed", "has_jacobian", "has_logdet")


def save_ensemble(path_name, ensemble: FlowEnsemble) -> None:
    grid = ensemble.seeds_grid
    header = {
        "format": "flo",
        "dim": grid.dim,
        "L": grid.L,
        "N": grid.N,
        "T": ensemble.path.T,
        "dt": ensemble.path.dt,
        "k_count": ensemble.path.k_count,
        "seed": ensemble.path.seed,
        "has_jacobian": ensemble.jac_variational is not None,
        "has_logdet": ensemble.logdet_exponential is not None,
    }
    blocks = [ensemble.path.increments, ensemble.paths]
    if ensemble.jac_variational is not None:
        blocks.append(ensemble.jac_variational)
    if ensemble.logdet_exponential is not None:
        blocks.append(ensemble.logdet_exponential)
    with open(path_name, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def load_ensemble(path_name) -> FlowEnsemble:
    with open(path_name, "rb") as fh:
        header = json.loads(fh.readline().decode("ascii"))
        raw = np.frombuffer(fh.read(), dtype="<f8").astype(np.float64)
    if not isinstance(header, dict) or header.get("format") != "flo":
        raise FlowError(f"not a flow ensemble file: {path_name}")
    missing = [k for k in _FLO_KEYS if k not in header]
    if missing:
        raise FlowError(f"{path_name}: header lacks {', '.join(missing)}")
    grid = build_grid(header["dim"], header["L"], header["N"])
    steps = int(round(header["T"] / header["dt"]))
    k_count = header["k_count"]
    cursor = 0

    def take(shape):
        nonlocal cursor
        size = int(np.prod(shape))
        block = raw[cursor : cursor + size].reshape(shape)
        cursor += size
        return block

    increments = take((steps, k_count))
    paths = take((steps + 1, grid.dim) + grid.shape)
    jac = None
    logdet = None
    if header["has_jacobian"]:
        jac = take((steps + 1, grid.dim, grid.dim) + grid.shape)
    if header["has_logdet"]:
        logdet = take((steps + 1,) + grid.shape)
    if cursor != raw.size:
        raise FlowError(f"trailing bytes in {path_name}")
    path = BrownianPath(
        T=header["T"], dt=header["dt"], k_count=k_count, increments=increments, seed=header["seed"]
    )
    return FlowEnsemble(
        seeds_grid=grid, path=path, paths=paths, jac_variational=jac, logdet_exponential=logdet
    )
