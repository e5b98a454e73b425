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

Coefficients are evaluated off the nodes by one cubic spline whose rows are
the groups of steps that share their rows of [b, sigma^1, ...] (one group
for coefficients constant in time): each step reads its group's row.  All
chunking lives here: _by_chunks integrates Monte Carlo members
members_per_chunk at a time, in path order, and reduces each chunk on the
worker pool before the next, and _march, the one Euler loop, moves a chunk
with one spline read per step (interp's _read, without the refusals of a
call) into buffers allocated once, checking each step's index points for
finiteness before the next.  simulate_flows stores the steps its caller
reads (FlowEnsemble.stored; every step by default), and logdet_gaps stores
none: it fuses both recursions and logdet_gap into the march.  The
recursions over stored positions evaluate their spline on blocks of many
steps at once, one row call per block, and only the cheap update runs step
by step.  A spline evaluates every point on its own (a component constant
in space, such as the unit noise e_k, exactly), so no chunk or block
changes a bit of any result.

Inverse maps come from _newton_rows, the package's one solver of
y + D(y) = x (the straightening in zvonkin uses it too).  It runs Newton
over a block of rows at once (here steps, about _BLOCK_POINTS points): one
spectral Jacobian for the block, one spline of D and dD with a row per row
of the block, and in each round one read of both at the points of the rows
still iterating, by the spline's _read (through interp._Rounds), after the
solver has found those points' index points finite.  A round keeps the
spline coefficients it gathered at each point's stencil taps, and the next
round gathers again only where a point moved to another cell: on the 64^2
divfree path about 5 of 4,096 points do from the first round to the
second, and none after.  A row leaves the block in the round its own
residual falls below tol, so its iterates, determinant and round count are
those of a Newton on that row alone; a row still iterating after
_MAX_NEWTON rounds restarts from y = x and halves its step point by point
where full steps overshoot, in the same loop.  When x are the nodes, as in
every flow inversion and straightening, the first step is taken on the node
arrays, which the splines reproduce there, with no spline call, from a node
near each preimage (_start_nodes), so the spline rounds begin within about a
cell of the inverse.
invert_flow and pushforward_solution are one-step calls of this block
Newton; pushforward_path runs it over a whole path with one spline of f0,
which reads each block at the last round's stencil plan when every row of
the block left in that round.
Weak solutions are realized as

    f(t, x) = f0(Psi_t(x)) det(dPsi_t(x)),

with det(dPsi_t) = 1 / det(I + dD)(Psi_t) evaluated on the same interpolated
geometry, so discrete mass conservation is limited only by quadrature.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import parallel
from .field import (
    FieldError,
    Grid,
    GridScalar,
    GridVector,
    TimeGridVector,
    _BLOCK_POINTS,
    _GRID_HEADER,
    _blocks,
    _check_header,
    _is_integer,
    _read_header,
    divergence_and_twist,
    jacobian_stack,
)
from .interp import PeriodicInterpolant, _Rounds
from .rng import mix_indices, stream

__all__ = [
    "FlowError",
    "SdeConfig",
    "BrownianPath",
    "FlowEnsemble",
    "InverseFlow",
    "sample_brownian",
    "simulate_flow",
    "simulate_flows",
    "members_per_chunk",
    "variational_jacobian",
    "logdet_stochastic_exponential",
    "logdet_gap",
    "logdet_gaps",
    "invert_flow",
    "pushforward_solution",
    "pushforward_path",
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
        if not 0 < self.dt < math.inf:
            raise FlowError(f"dt must be a finite positive number, got {self.dt}")


@dataclass
class BrownianPath:
    """Increments of k_count independent Wiener components on a uniform grid.

    Construction validates every path, drawn, refined, loaded or built by
    hand, as sample_brownian's arguments: an integer seed, an integer
    k_count >= 0 and a whole number of steps T/dt.
    """

    T: float
    dt: float
    k_count: int
    increments: np.ndarray  # (steps, k_count), each entry ~ N(0, dt)
    seed: int

    def __post_init__(self):
        steps = _step_count(self.T, self.dt, self.k_count, self.seed)
        self.k_count, self.seed = int(self.k_count), int(self.seed)  # a .flo header is JSON
        self.increments = np.asarray(self.increments, dtype=np.float64)
        if self.increments.shape != (steps, self.k_count):
            raise FlowError(
                f"increments shape {self.increments.shape} != ({steps}, {self.k_count})"
            )
        if not np.all(np.isfinite(self.increments)):
            raise FlowError("non-finite Brownian increments")

    @property
    def steps(self) -> int:
        return self.increments.shape[0]


def _step_count(T: float, dt: float, k_count: int, seed: int) -> int:
    """The step count T/dt of a path, once T, dt, k_count and seed are checked."""
    if not T > 0 or not dt > 0:
        raise FlowError(f"need T > 0 and dt > 0, got T={T}, dt={dt}")
    if not (_is_integer(k_count) and k_count >= 0):
        raise FlowError(f"k_count must be an integer >= 0, got {k_count!r}")
    if not _is_integer(seed):
        raise FlowError(f"seed must be an integer, got {seed!r}")
    steps = int(round(T / dt))
    if abs(steps * dt - T) > 1e-9 * max(T, 1.0):
        raise FlowError(f"T/dt = {T / dt} is not an integer step count")
    return steps


def sample_brownian(T: float, dt: float, k_count: int, stream_id: int) -> BrownianPath:
    """Draw one path from the counter-based stream with the given id, its seed."""
    steps = _step_count(T, dt, k_count, stream_id)
    increments = stream(stream_id).normal(0.0, math.sqrt(dt), size=(steps, k_count))
    return BrownianPath(float(T), float(dt), k_count, increments, int(stream_id))


def refine_brownian(path: BrownianPath, factor: int) -> BrownianPath:
    """Subdivide each increment into `factor` bridge-conditioned pieces.

    The result samples the *same* Brownian motion at dt/factor: fresh draws
    xi_i ~ N(0, dt/factor) from stream(path.seed, factor) are shifted by
    -(sum_i xi_i - dW)/factor within each coarse step, which is exactly the
    Brownian bridge conditional law.  The fine path's seed is the fresh key
    mix_indices(path.seed, factor), so refinements nest: refining it again,
    also after a .flo round trip, draws normals no level above it used.
    """
    if not (_is_integer(factor) and factor >= 2):
        raise FlowError(f"refinement factor must be an integer >= 2, got {factor!r}")
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
        seed=mix_indices(path.seed, factor),
    )


@dataclass
class FlowEnsemble:
    """Flow map sampled at every grid node, driven by one shared path.

    Row n of paths holds the positions at step stored[n], in increasing
    order: every step 0..path.steps unless simulate_flows was asked to store
    fewer.  The recursions, when present, hold every step.  Construction
    checks these shapes, so a mismatched ensemble is refused before
    save_ensemble could write it.
    """

    seeds_grid: Grid
    path: BrownianPath
    paths: np.ndarray  # (len(stored), dim) + grid.shape
    jac_variational: np.ndarray | None = None  # (steps+1, dim, dim) + grid.shape
    logdet_exponential: np.ndarray | None = None  # (steps+1,) + grid.shape
    stored: np.ndarray | None = None  # the step of each row of paths; None: every step

    def __post_init__(self):
        # shapes only: simulate_flows makes one ensemble per member on views
        steps, grid = self.path.steps, self.seeds_grid
        if self.stored is None:
            self.stored = np.arange(steps + 1)
        stored = np.asarray(self.stored)
        increasing = np.all(np.diff(stored) > 0)
        if len(stored) and not (increasing and 0 <= stored[0] and stored[-1] <= steps):
            raise FlowError(f"stored steps must increase strictly inside 0..{steps}")
        rows = {
            "paths": (len(stored), grid.dim),
            "jac_variational": (steps + 1, grid.dim, grid.dim),
            "logdet_exponential": (steps + 1,),
        }
        for name, lead in rows.items():
            value = getattr(self, name)
            if value is not None and np.shape(value) != lead + grid.shape:
                raise FlowError(f"{name} shape {np.shape(value)} != {lead + grid.shape}")

    def rows_of(self, steps) -> np.ndarray:
        """The row of paths that holds each of ``steps``; FlowError names the first not held."""
        steps = np.asarray(steps, dtype=np.intp).reshape(-1)
        rows = np.searchsorted(self.stored, steps)
        held = rows < len(self.stored)
        held[held] = self.stored[rows[held]] == steps[held]
        if not held.all():
            raise FlowError(f"the ensemble holds no positions at step {steps[np.argmin(held)]}")
        return rows


def _require_every_step(ensemble: FlowEnsemble) -> None:
    """Refuse, naming the first missing step, an ensemble that stores only some steps."""
    if len(ensemble.stored) != ensemble.path.steps + 1:
        ensemble.rows_of(np.arange(ensemble.path.steps + 1))


# Stored positions per chunk of members in simulate_flows (4 MB): a chunk of
# long paths, such as 2,000 steps on 64 nodes, holds fewer members.
_CHUNK_VALUES = 2**19


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
    """Group the steps of ``path`` by the rows of [b, sigma^1..] in force at l*dt.

    Returns each group's tuple of rows, in lexicographic order of their row
    indices, and the group of each step.  A coefficient constant in time (one
    row, as every coefficient the lab builds) puts all steps in one group.
    """
    times = np.arange(path.steps) * path.dt
    coefficients = (b, *sigmas)
    columns = []
    group_of_step = np.zeros(path.steps, dtype=np.intp)
    for c in coefficients:
        columns.append(c.rows_at(times))
        # a mixed-radix code, earlier coefficients the more significant digits:
        # np.unique ranks it in lexicographic order of the index rows so far,
        # and the rank keeps the next code below steps * len(c.values)
        _, first, group_of_step = np.unique(
            group_of_step * len(c.values) + columns[-1], return_index=True, return_inverse=True
        )
    rows = [tuple(c.values[col[l]] for c, col in zip(coefficients, columns)) for l in first]
    return rows, group_of_step


def _along_paths(ensemble: FlowEnsemble, spline: PeriodicInterpolant, group_of_step):
    """Yield (steps, values): each step's row of ``spline`` at its stored positions.

    Steps come in order, in blocks of about _BLOCK_POINTS points, one row
    call each.  values carries the head axes after the rows, then one axis
    over the block's steps, then the grid axes.
    """
    for steps in _blocks(ensemble.seeds_grid, ensemble.path.steps):
        points = np.moveaxis(ensemble.paths[steps.start : steps.stop], 0, 1)
        yield steps, spline(points, group_of_step[steps.start : steps.stop])


def members_per_chunk(grid: Grid, stored: int) -> int:
    """Members that _by_chunks integrates together, each storing ``stored`` steps: at least one.

    About _BLOCK_POINTS points, so that one spline call per step serves many
    members, and at most _CHUNK_VALUES positions at the stored steps per
    member, so that a chunk of long stored paths stays small.
    """
    points = grid.N**grid.dim
    by_memory = _CHUNK_VALUES // max(1, stored * grid.dim * points)
    return max(1, min(_BLOCK_POINTS // points, by_memory))


def _on_step_grid(path: BrownianPath, steps) -> list:
    """``steps`` as a list, each checked to be a step 0..path.steps."""
    steps = list(steps)
    for step in steps:
        if not (_is_integer(step) and 0 <= step <= path.steps):
            raise FlowError(f"step {step!r} is not on the path step grid 0..{path.steps}")
    return steps


def _flow_setup(b: TimeGridVector, sigmas, config: SdeConfig, paths):
    """Check paths, config and coefficients together; return (grid, path, rows, groups).

    path is the first path, and rows and groups are _slice_groups of it.
    """
    paths = list(paths)
    if not paths:
        raise FlowError("need at least one Brownian path")
    path = paths[0]
    for p in paths[1:]:
        if (p.T, p.dt, p.k_count) != (path.T, path.dt, path.k_count):
            raise FlowError("Brownian paths differ in horizon, step or noise count")
    if not abs(config.dt - path.dt) <= 1e-12 * max(path.dt, 1.0):
        raise FlowError(f"config dt {config.dt} does not match path dt {path.dt}")
    grid = _validate_coefficients(b, sigmas, path)
    return (grid, path) + _slice_groups(b, sigmas, path)


def _member_increments(chunk, grid: Grid) -> np.ndarray:
    """(steps, k_count, members, 1, ...): each member's dW against its points."""
    increments = np.stack([p.increments for p in chunk], axis=2)
    return increments.reshape(increments.shape + (1,) * grid.dim)


def _euler_sum(fields, dt: float, dW) -> np.ndarray:
    """fields[0] dt + sum_k fields[1 + k] dW[k], summed in that order."""
    total = fields[0] * dt
    for k in range(len(dW)):
        total += fields[1 + k] * dW[k]
    return total


def _logdet_increment(scalars, dt: float, dW) -> np.ndarray:
    """Div b dt + sum_k (Div sigma^k dW[k] - (1/2) twist^k dt), from _logdet_fields values."""
    total = scalars[0] * dt
    for k in range(len(dW)):
        total += scalars[1 + 2 * k] * dW[k] - 0.5 * scalars[2 + 2 * k] * dt
    return total


def _logdet_fields(grid: Grid, jac: np.ndarray) -> np.ndarray:
    """(Div b, Div sigma^1, twist^1, ...) of the Jacobians of the rows [b, sigma^1, ...].

    twist^k = d_i sigma^k_j d_j sigma^k_i, the log-determinant's Ito correction.
    """
    div, twist = divergence_and_twist(grid, jac)
    scalars = [div[0]]
    for k in range(1, len(jac)):
        scalars += [div[k], twist[k]]
    return np.stack(scalars)


def _march(grid: Grid, spline, group_of_step, path: BrownianPath, chunk, targets, update=None):
    """Move a chunk of members from the nodes along ``path``: the package's one Euler loop.

    Each step reads the row of its slice group (group_of_step[l]) by the
    spline's _read (without a call's refusals: X_0 is the nodes, and each
    X_{l + 1} / h is found finite before it is read) at the chunk's points,
    as one row, into one buffer, whose leading values are the components
    of [b, sigma^1, ...], writes the new positions into targets[l + 1] and
    hands update(l, values, dW) the step; values views that buffer, which the
    next step overwrites.  Returns the first step at which a trajectory lost
    finiteness (an index point X / h that is not finite), 0 if none did.
    """
    increments = _member_increments(chunk, grid)
    lead = (1 + path.k_count) * grid.dim
    X = targets[0]
    X[...] = np.stack(grid.coordinates())[:, None]
    index = X / grid.h  # the spline's index points
    index_points = index.reshape(grid.dim, 1, -1)
    flat = np.empty((math.prod(spline.head_shape[1:]), 1, X[0].size))  # one slice group's row
    fields = flat[:lead].reshape((-1,) + X.shape)
    values = flat.reshape(spline.head_shape[1:] + X.shape[1:])
    rows = [[group] for group in range(spline.head_shape[0])]  # each group's one row
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for l, group in enumerate(group_of_step.tolist()):
            spline._read(rows[group], index_points, flat)
            dW = increments[l]
            move = _euler_sum(fields, path.dt, dW)
            X = np.add(X, move, out=targets[l + 1])
            np.divide(X, grid.h, out=index)
            if not np.isfinite(index).all():
                return l + 1
            if update is not None:
                update(l, values, dW)
    return 0


def _by_chunks(paths, per_chunk: int, integrate, reduce=None) -> list:
    """The package's one chunk loop: integrate ``paths`` per_chunk at a time, in order.

    integrate(chunk) returns the chunk's members, or the first step at which
    one of its trajectories lost finiteness.  Each chunk's members are
    reduced on the worker pool, one item each, and let go before the next
    chunk is integrated (with no reduce, all are returned).  Every chunk is
    integrated even after a failure, so the error does not depend on the
    chunking: the least lost step, else the first reduce error in path order.
    """
    values, lost, failed = [], [], None
    for start in range(0, len(paths), per_chunk):
        members = integrate(paths[start : start + per_chunk])
        if isinstance(members, int):
            lost.append(members)
        elif reduce is None:
            values += members
        elif not (lost or failed):
            try:
                values += parallel.ordered_map(reduce, members)
            except Exception as exc:
                failed = exc
        del members  # the chunk's positions go before the next chunk's are made
    if lost:
        raise FlowError(f"trajectory lost finiteness at step {min(lost)}")
    if failed is not None:
        raise failed
    return values


def simulate_flow(
    b: TimeGridVector, sigmas: list[TimeGridVector], config: SdeConfig, path: BrownianPath
) -> FlowEnsemble:
    """Euler-Maruyama flow from every grid node, one shared Brownian path."""
    return simulate_flows(b, sigmas, config, [path])[0]


def simulate_flows(
    b: TimeGridVector, sigmas: list[TimeGridVector], config: SdeConfig,
    paths: list[BrownianPath], store=None, reduce=None,
) -> list:
    """Euler-Maruyama flows from every grid node, one ensemble per Brownian path.

    The paths share T, dt and k_count.  Each ensemble's paths is a view into
    its chunk's array, which holds the steps in ``store`` (every step by
    default).  Given a reduce, the result is reduce(ensemble) for each path
    instead, and one chunk of positions is alive at a time.  A lost
    trajectory names the least step over all members (_by_chunks).  reduce
    may be logdet_gap itself, taken once both recursions have run:
    logdet_gaps gives those numbers from a pass that stores nothing.
    """
    if reduce is logdet_gap:
        return logdet_gaps(b, sigmas, config, paths)
    paths = list(paths)
    grid, path, row_sets, group_of_step = _flow_setup(b, sigmas, config, paths)
    steps = range(path.steps + 1) if store is None else _on_step_grid(path, store)
    stored = np.unique(np.asarray(steps, dtype=np.intp))
    spline = PeriodicInterpolant(grid, np.stack([np.concatenate(rows) for rows in row_sets]))

    def integrate(chunk):
        positions = np.empty((len(stored), grid.dim, len(chunk)) + grid.shape)
        targets = [np.empty(positions.shape[1:])] * (path.steps + 1)  # where each step's X goes
        for row, step in enumerate(stored.tolist()):
            targets[step] = positions[row]
        lost = _march(grid, spline, group_of_step, path, chunk, targets)
        return lost or [
            FlowEnsemble(seeds_grid=grid, path=p, paths=positions[:, :, m], stored=stored)
            for m, p in enumerate(chunk)
        ]

    return _by_chunks(paths, members_per_chunk(grid, len(stored)), integrate, reduce)


def _block_increments(path: BrownianPath, steps: range, dim: int) -> np.ndarray:
    """(k_count, steps, 1, ...): the dW of a block of steps against the grid axes."""
    dW = path.increments[steps.start : steps.stop].T
    return dW.reshape(dW.shape + (1,) * dim)


def variational_jacobian(
    ensemble: FlowEnsemble, b: TimeGridVector, sigmas: list[TimeGridVector]
) -> FlowEnsemble:
    """Integrate the matrix recursion for dPhi along every stored trajectory.

    The growth matrices db dt + dsigma^k dW^k of a block of steps are formed
    at once, and J[l + 1] = J[l] + growth J[l] runs step by step, the
    product by _product_stack (in 1-d one multiply).  Finiteness is checked
    once per block; the error names the first step that lost it.
    """
    grid = _validate_coefficients(b, sigmas, ensemble.path)
    _require_every_step(ensemble)
    path = ensemble.path
    row_sets, group_of_step = _slice_groups(b, sigmas, path)
    spline = PeriodicInterpolant(
        grid, np.stack([jacobian_stack(grid, np.stack(rows)) for rows in row_sets])
    )

    J = np.zeros((path.steps + 1, grid.dim, grid.dim) + grid.shape)
    for i in range(grid.dim):
        J[0, i, i] = 1.0
    for steps, jacobians in _along_paths(ensemble, spline, group_of_step):
        with np.errstate(over="ignore", invalid="ignore"):
            growth = _euler_sum(jacobians, path.dt, _block_increments(path, steps, grid.dim))
            growth = np.moveaxis(growth, 2, 0)
            for n, l in enumerate(steps):
                np.add(J[l], _product_stack(growth[n], J[l]), out=J[l + 1])
        block = J[steps.start + 1 : steps.stop + 1].reshape(len(steps), -1)
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            first_bad = steps.start + int(np.argmin(finite)) + 1
            raise FlowError(f"variational recursion lost finiteness at step {first_bad}")
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
    _require_every_step(ensemble)
    path = ensemble.path
    row_sets, group_of_step = _slice_groups(b, sigmas, path)
    spline = PeriodicInterpolant(grid, np.stack([
        _logdet_fields(grid, jacobian_stack(grid, np.stack(rows))) for rows in row_sets
    ]))

    logdet = np.zeros((path.steps + 1,) + grid.shape)
    for steps, scalars in _along_paths(ensemble, spline, group_of_step):
        dW = _block_increments(path, steps, grid.dim)
        logdet[steps.start + 1 : steps.stop + 1] = _logdet_increment(scalars, path.dt, dW)
    # add.accumulate runs along time one step after the other: the same sums,
    # in the same order, as logdet[l + 1] = logdet[l] + increment[l]
    np.cumsum(logdet, axis=0, out=logdet)
    ensemble.logdet_exponential = logdet
    return ensemble


def logdet_gap(ensemble: FlowEnsemble) -> float:
    """Sup over steps and nodes of |logdet_exponential - log det jac_variational|."""
    _require_every_step(ensemble)
    if ensemble.jac_variational is None or ensemble.logdet_exponential is None:
        raise FlowError("run variational_jacobian and logdet_stochastic_exponential first")
    dets = _det_stack(np.moveaxis(ensemble.jac_variational, 0, 2))
    if np.min(dets) <= 0:
        raise FlowError("variational determinant lost positivity")
    return float(np.max(np.abs(ensemble.logdet_exponential - np.log(dets))))


def logdet_gaps(
    b: TimeGridVector, sigmas: list[TimeGridVector], config: SdeConfig, paths: list[BrownianPath]
) -> list[float]:
    """Each path's logdet_gap once both recursions have run, storing no positions.

    The stored route's numbers, bit for bit: the march's spline call also
    carries the Jacobians of [b, sigma^k] and the log-determinant fields, and
    its update advances J (by _product_stack, as variational_jacobian does)
    and log det and keeps each member's running sup gap, so a chunk holds
    members_per_chunk's block of points alone.  The errors are the stored
    route's too: a lost trajectory, then, member by member, a variational
    recursion that lost finiteness (its first step) or a determinant that
    lost positivity.
    """
    paths = list(paths)
    grid, path, row_sets, group_of_step = _flow_setup(b, sigmas, config, paths)
    dim, shape = grid.dim, grid.shape
    groups = []
    for rows in row_sets:
        stack = np.stack(rows)
        jac = jacobian_stack(grid, stack)
        fields = [f.reshape((-1,) + shape) for f in (stack, jac, _logdet_fields(grid, jac))]
        groups.append(np.concatenate(fields))
    spline = PeriodicInterpolant(grid, np.stack(groups))
    a, z = np.cumsum([len(f) for f in fields[:-1]])

    def integrate(chunk):
        members = len(chunk)
        J = np.zeros((dim, dim, members) + shape)
        J[range(dim), range(dim)] = 1.0
        logdet = np.zeros((members,) + shape)
        sup = np.zeros(members)  # step 0 has J = I and log det = 0: a gap of 0
        lost_at = np.zeros(members, dtype=np.intp)  # first step of non-finite J, 0: none
        det_min = np.full(members, np.inf)  # over the steps of a non-finite gap

        def update(l, values, dW):
            growth = _euler_sum(values[a:z].reshape((-1, dim, dim, members) + shape), path.dt, dW)
            np.add(J, _product_stack(growth, J), out=J)
            np.add(logdet, _logdet_increment(values[z:], path.dt, dW), out=logdet)
            det = _det_stack(J)
            gap = np.abs(logdet - np.log(det)).reshape(members, -1).max(axis=1)
            np.maximum(sup, gap, out=sup)
            # J and det are finite and det > 0 wherever the gap is finite
            if not np.isfinite(gap).all():
                finite = np.isfinite(J).reshape(dim * dim, members, -1).all(axis=(0, 2))
                lost_at[~finite & (lost_at == 0)] = l + 1
                np.minimum(det_min, det.reshape(members, -1).min(axis=1), out=det_min)

        work = np.empty((dim, members) + shape)
        lost = _march(grid, spline, group_of_step, path, chunk, [work] * (path.steps + 1), update)
        return lost or list(zip(sup.tolist(), lost_at.tolist(), det_min.tolist()))

    gaps, per_chunk = [], members_per_chunk(grid, 0)
    for sup, lost_at, det_min in _by_chunks(paths, per_chunk, integrate):
        if lost_at:
            raise FlowError(f"variational recursion lost finiteness at step {lost_at}")
        if det_min <= 0:
            raise FlowError("variational determinant lost positivity")
        gaps.append(sup)
    return gaps


def _step_of(path: BrownianPath, t: float) -> int:
    step = int(round(t / path.dt)) if math.isfinite(t / path.dt) else -1
    if step < 0 or step > path.steps or abs(step * path.dt - t) > 1e-9 * max(path.T, 1.0):
        raise FlowError(f"time {t} is not on the path step grid")
    return step


def invert_flow(ensemble: FlowEnsemble, t: float) -> "InverseFlow":
    """Solve Phi_t(y) = x at every node x by Newton on the displacement."""
    grid = ensemble.seeds_grid
    step = _step_of(ensemble.path, t)
    (_, psi, det, iterations, _), = _inverse_blocks(ensemble, [step])
    return InverseFlow(
        psi=GridVector(grid, psi[:, 0].reshape((grid.dim,) + grid.shape)),
        det=GridScalar(grid, det[0].reshape(grid.shape)),
        newton_iterations=int(iterations[0]),
    )


def _inverse_blocks(ensemble: FlowEnsemble, steps):
    """Invert the flow at the given steps, yielding one block of steps at a time.

    Yields (steps, psi, det, iterations) with psi of shape (dim, steps, N^dim),
    det of shape (steps, N^dim) and one Newton round count per step, from
    _newton_rows on the block's displacements.  The positions of each step
    are the ensemble's row for it (FlowEnsemble.rows_of).
    """
    grid = ensemble.seeds_grid
    stored_rows = ensemble.rows_of(steps)
    dim = grid.dim
    nodes = np.stack(grid.coordinates())
    X0 = nodes.reshape(dim, 1, -1)
    for rows in _blocks(grid, len(steps)):
        block = [steps[n] for n in rows]
        disp = ensemble.paths[stored_rows[rows.start : rows.stop]] - nodes
        if not np.all(np.isfinite(disp)):
            raise FieldError("vector field contains non-finite values")
        disp_jac = jacobian_stack(grid, disp)
        node_det = _det_stack(_identity_plus(np.moveaxis(disp_jac, 0, 2)))
        node_det = node_det.reshape(len(rows), -1).min(axis=1)
        if float(np.min(node_det)) <= 0.0:
            n = int(np.flatnonzero(node_det <= 0.0)[0])
            raise FlowError(
                f"forward map is not injective at t={block[n] * ensemble.path.dt}: min Jacobian "
                f"determinant {float(node_det[n]):.3e}"
            )
        Y, values, iterations, plan = _newton_rows(grid, disp, disp_jac, X0, None, _INVERSE_TOL)
        det = 1.0 / _det_stack(_identity_plus(values[dim:].reshape((dim, dim) + Y.shape[1:])))
        yield block, Y, det, iterations, plan


# Newton rounds in each phase of _newton_rows: full steps from the first
# iterate, then halved steps from y = x.  A flow inversion stops a row
# once its max|y + D(y) - x| is below _INVERSE_TOL.
_MAX_NEWTON = 30
_INVERSE_TOL = 1e-10


def _at_nodes(fields: np.ndarray, at: np.ndarray) -> np.ndarray:
    """(components, rows, P): fields, (rows, components) + grid shape, at the flat
    indices at (rows, P) into the rows' nodes laid end to end (row r from r P on)."""
    count, components = fields.shape[:2]
    by_component = np.moveaxis(fields.reshape(count, components, -1), 1, 0)
    return by_component.reshape(components, -1).take(at, axis=1)


# Integer sweeps of _start_nodes by grid dimension.  A sweep reads D at dim
# components a point; a spline round evaluates dim + dim^2 components on 4^dim
# taps a point, 8 values in 1-d and 96 in 2-d.  On the 2-d divfree path three
# sweeps cut the rounds from 3.80 to 2.91 a step.  A 1-d round is cheap enough
# that three sweeps cost about the rounds they save on a 32-row block (4.16 to
# 3.45 at 64 nodes, pushforward_path +4.5%), while one sweep saves most of
# them at less cost (4.16 to 3.53, pushforward_path -0.3%).
_START_SWEEPS = {1: 1, 2: 3}


def _start_nodes(grid: Grid, disp: np.ndarray):
    """A node z near each preimage of y + D(y) = x, x a node: (flat index, x - z).

    The node residual of z = x - m h is D(z) - m h, read on the node array.
    From m = 0 (z = x), each sweep sets m = rint(D(x - m h) / h), and each
    point keeps the first candidate of least max-norm residual, in cells, so
    a point whose displacement stays under half a cell keeps z = x.  Returns
    the index of z for _at_nodes (rows, P) and the shifts m h (dim, rows, P).
    """
    sweeps = _START_SWEEPS[grid.dim]
    count, dim = disp.shape[:2]
    points = grid.N**dim
    at_x = np.indices(grid.shape).reshape(dim, 1, points)
    row_start = np.arange(0, count * points, points).reshape(count, 1)

    def at(m):
        return np.ravel_multi_index(tuple(at_x - m), grid.shape, mode="wrap") + row_start

    cells = np.moveaxis(disp.reshape(count, dim, points), 1, 0) / grid.h  # D / h at x
    nearest = np.rint(cells).astype(np.intp)  # each node's rint(D / h), for every sweep
    best = np.zeros((dim, count, points), dtype=np.intp)
    least = np.max(np.abs(cells), axis=0)
    m = nearest
    cells, nearest = cells.reshape(dim, -1), nearest.reshape(dim, -1)
    for _ in range(sweeps):
        index = at(m)
        residual = cells.take(index, axis=1) - m
        size = np.max(np.abs(residual, out=residual), axis=0)
        np.copyto(best, m, where=size < least)
        np.minimum(size, least, out=least)
        m = nearest.take(index, axis=1)
    return at(best), best * grid.h


def _newton_rows(grid: Grid, disp, disp_jac, X, Y, tol: float):
    """Solve y + D(y) = x by Newton for each row of a block of displacements.

    The package's one inverse-map solver: flow inversion and the straightening
    both call it.  disp is (rows, dim) + grid shape and disp_jac its spectral
    Jacobians (rows, dim, dim) + grid shape; one spline of [D, dD], with the
    block's rows as its rows, serves the block.  X holds the points x, (dim,
    rows or 1, P), and Y the first iterate, (dim, rows, P); with Y None, X
    must be the nodes and the first iterate is the Newton step of the node
    data at the node z = x - m h of _start_nodes, (x - m h) - (I +
    dD(z))^-1 (D(z) - m h), with no spline call; m = 0, the step from y = x,
    wherever the displacement stays under half a cell.  Each round reads the
    spline at the points of the rows still iterating (by _read through
    interp._Rounds: it gathers again only where a point's stencil cell moved),
    after refusing any point whose index point y / h is not finite ("Newton
    iteration lost finiteness").  A row leaves in the round its own
    residual max|y + D(y) - x| falls below tol, so its iterates and round
    count are those of a Newton on that row alone.  A row still iterating
    after _MAX_NEWTON rounds restarts from y = x and then halves its step,
    point by point, until the residual at that point drops (at most 30
    halvings), for another _MAX_NEWTON + 1 rounds; this is for maps whose
    full steps overshoot: a large displacement, strong compression.
    Returns (y, [D, dD] at y as (dim + dim^2, rows, P), rounds per row,
    plan): plan is the last round's stencil plan of y / h when every row
    left in that round and the stencil read it, else None.
    """
    count, dim = disp.shape[:2]
    if Y is None:
        at, shift = _start_nodes(grid, disp)
        jac_at = _at_nodes(disp_jac.reshape((count, dim * dim) + grid.shape), at)
        mat = _identity_plus(jac_at.reshape((dim, dim) + jac_at.shape[1:]))
        Y = X - shift - _solve_stack(mat, _at_nodes(disp, at) - shift)
    spline = PeriodicInterpolant(
        grid, np.concatenate([disp, disp_jac.reshape((count, dim * dim) + grid.shape)], axis=1)
    )
    reads = _Rounds(spline, np.arange(count))

    def read(points):  # [D, dD] at points, refused here if not finite
        with np.errstate(over="ignore"):
            index = points / grid.h
        if not np.isfinite(index).all():
            raise FlowError("Newton iteration lost finiteness")
        return reads(index)

    values = np.empty((dim + dim * dim,) + Y.shape[1:])
    rounds = np.zeros(count, dtype=np.intp)
    # the rows still iterating: their indices, points x and iterates y
    active, x, y = np.arange(count), np.broadcast_to(X, Y.shape), Y
    V = read(y)
    for round_ in itertools.count(1):
        F = y + V[:dim] - x
        size = np.max(np.abs(F), axis=0)
        done = np.max(size, axis=1) < tol
        if done.any():
            left = active[done]
            rounds[left] = round_
            values[:, left] = V[:, done]
            Y[:, left] = y[:, done]
            if done.all():  # the last plan is every row's at its y if none left before
                return Y, values, rounds, reads.plan if len(active) == count else None
            kept = ~done
            active, x, y, F, V = active[kept], x[:, kept], y[:, kept], F[:, kept], V[:, kept]
            size = size[kept]
            reads.keep(kept)
        if round_ > 2 * _MAX_NEWTON:
            residual = float(np.max(size))
            raise FlowError(f"inversion stagnated (residual {residual:.3e}, tol {tol:.1e})")
        if round_ == _MAX_NEWTON:
            trial = x
            V = read(trial)
        else:
            step = _solve_stack(_identity_plus(V[dim:].reshape((dim, dim) + F.shape[1:])), F)
            scale = np.ones_like(size)
            for _ in range(31):
                trial = y - scale * step
                V = read(trial)
                if round_ < _MAX_NEWTON:
                    break
                F_trial = trial + V[:dim] - x
                worse = (np.max(np.abs(F_trial), axis=0) >= size) & (size >= tol)
                if not np.any(worse):
                    break
                scale[worse] *= 0.5
        y = trial


@dataclass
class InverseFlow:
    """Inverse map Psi_t on the nodes and its Jacobian determinant.

    newton_iterations counts the Newton rounds that evaluate the residual on
    the splines: the full-step rounds, then, past _MAX_NEWTON of them, the
    restart from y = x and the step-halving rounds.  The first step, taken on
    node data from a node near each preimage (_start_nodes), does not count.
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


def _product_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product a @ b pointwise for (dim, dim, ...) stacks, dim in {1, 2}.

    In 1-d one multiply: einsum's sum of its one term from +0.0 differs
    from the bare product only where that is -0.0, and then only after it is
    added to a -0.0, which no variational J holds (J starts at 1, and a sum
    is -0.0 only when both addends are).  In 2-d the einsum, which beat an
    explicit 2 x 2 product on 64^2.
    """
    if a.shape[0] == 1:
        return a * b
    return np.einsum("ik...,kj...->ij...", a, b)


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
    return next(pushforward_path(f0, ensemble, [_step_of(ensemble.path, t)]))


def pushforward_path(f0: GridScalar, ensemble: FlowEnsemble, steps=None) -> Iterator[GridScalar]:
    """Yield the weak solution at each of ``steps`` (all steps 0..steps by default).

    One spline of f0 serves the whole path.  The inverse maps are made block
    by block, so only one block's fields are held at a time; f0 reads a
    block's points as one row (_read), with the Newton solve's last stencil
    plan where there is one (every row of the block left in the last round).
    The arguments are checked before the first field is made.
    """
    grid = ensemble.seeds_grid
    if f0.grid != grid:
        raise FlowError("initial datum lives on a different grid than the flow")
    last = ensemble.path.steps
    steps = range(last + 1) if steps is None else _on_step_grid(ensemble.path, steps)
    ensemble.rows_of(steps)  # a step the ensemble does not store is refused here
    datum = PeriodicInterpolant(grid, f0.values)

    def fields():
        for _, psi, det, _, plan in _inverse_blocks(ensemble, steps):
            # psi / h is finite, as Newton read its splines there
            values = np.empty((1, 1, det.size))
            datum._read([0], psi.reshape(grid.dim, 1, -1) / grid.h, values, plan)
            for v in values.reshape(det.shape) * det:
                yield GridScalar(grid, v.reshape(grid.shape))

    return fields()


def _mean_stderr(values) -> tuple[float, float]:
    """Sample mean and its standard error, each summed from 0.0 in input order.

    The one Monte Carlo reduction of the package: it walks the values in the
    order given, so an estimate does not depend on the worker count.
    """
    count = len(values)
    if count < 2:
        raise FlowError(f"need at least 2 members, got {count}")
    mean = 0.0
    for v in values:
        mean += v
    mean /= count
    spread = 0.0
    for v in values:
        spread += (v - mean) ** 2
    return mean, math.sqrt(spread / (count - 1) / count)


# ---------------------------------------------------------------------------
# Persistence (.flo: one-line JSON header, then the increments and the positions)
# ---------------------------------------------------------------------------

_FLO_HEADER = {
    **_GRID_HEADER, "format": "flo", "T": "positive", "dt": "positive", "k_count": "count",
    "seed": "int",
}


def save_ensemble(path_name, ensemble: FlowEnsemble) -> None:
    """Write the path and the positions at every step; a stored recursion is refused."""
    _require_every_step(ensemble)
    for name in ("jac_variational", "logdet_exponential"):
        if getattr(ensemble, name) is not None:
            raise FlowError(f"a .flo file holds positions only; clear {name} before saving")
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
    }
    with open(path_name, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        for block in (ensemble.path.increments, ensemble.paths):
            fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def load_ensemble(path_name) -> FlowEnsemble:
    with open(path_name, "rb") as fh:
        header = _read_header(fh, path_name, FlowError)
        raw = fh.read()
    if not isinstance(header, dict) or header.get("format") != "flo":
        raise FlowError(f"not a flow ensemble file: {path_name}")
    grid = _check_header(path_name, header, _FLO_HEADER, FlowError)
    if len(raw) % 8:
        raise FlowError(f"{path_name}: payload of {len(raw)} bytes is not float64 values")
    raw = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    k_count = header["k_count"]
    steps = header["T"] / header["dt"]
    if not steps <= raw.size:
        raise FlowError(f"{path_name}: header T/dt = {steps:.6g} exceeds the payload")
    steps = int(round(steps))
    cut = steps * k_count
    size = cut + (steps + 1) * grid.dim * math.prod(grid.shape)
    if size > raw.size:
        raise FlowError(f"{path_name}: payload ends before the blocks the header implies")
    if size != raw.size:
        raise FlowError(f"trailing bytes in {path_name}")
    path = BrownianPath(
        T=header["T"], dt=header["dt"], k_count=k_count,
        increments=raw[:cut].reshape(steps, k_count), seed=header["seed"],
    )
    paths = raw[cut:].reshape((steps + 1, grid.dim) + grid.shape)
    return FlowEnsemble(seeds_grid=grid, path=path, paths=paths)
