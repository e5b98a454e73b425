"""Off-node evaluation of periodic grid fields.

Everything on the grid is spectral, but trajectories and inverse maps need
field values between nodes.  We use periodic cubic B-splines: the prefilter
runs once per field (solving the banded interpolation system), after which
each query is a local 4^dim tensor-product stencil.  Node values are
reproduced to round-off, off-node error is O(h^4), and the wrap mode makes
the interpolant exactly L-periodic, so query points may lie anywhere in R^n.

PeriodicInterpolant is the package's one spline class.  Its fields may
come in rows (a flow's slice groups, a Newton block's displacements, a
block of fields to push forward), and a call reads every row at shared
points or each row at its own points.  A component whose node values are
all equal in a row (the unit noise e_k, a zero displacement) evaluates there
to that exact constant, where a spline would return it only to a few ulp;
one constant in every row gets no spline and costs no stencil.

Every read, a call, a step of flow._march, a Newton round, goes through
one method, _read, and one of two evaluators, which read the coefficients
of the one prefilter and give the same bits.  scipy's compiled spline
routine, the one map_coordinates itself ends in, called directly once per
component, is the faster on a small read of one row (the 64 nodes of one
1-d flow): there the public wrapper's checks and output set-up cost more
than its arithmetic, and _read's contract already holds what they check.
The numpy stencil (_Stencil) wins from about 1,000 to 3,000 spline values
per call, by component count (a chunk of Monte Carlo members, a block of
steps, a 64^2 grid), and reads every read of several rows.  It works in two
halves: a plan, a point set's cells and B-spline weights, computed once for
all components, and a read, which gathers each component's coefficients at
the 4^dim taps into one tap-major buffer and sums them with one einsum, in
map_coordinates' products and order.  Newton rounds read one spline round
after round at points that move little (_Rounds): _read keeps what it
gathered, gathers again only where a point's cell moved, and hands out its
plan, at which a spline of another field on the same grid reads the same
points.

interp loads scipy's compiled spline module, the extension _nd_image next to
scipy/ndimage/__init__.py, from its file (_load_nd_image), and never imports
the scipy.ndimage package: that package's __init__ pulls in scipy's array-API
layer and scipy.special, more than half of a fresh ``import renormlab.cli``.
The prefilter calls the module's spline_filter1d and a small call its
geometric_transform, each with the arguments its public wrapper
(spline_filter1d, map_coordinates) passes, so both give the public bits.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os

import numpy as np

from .field import FieldError, Grid

__all__ = ["PeriodicInterpolant"]


def _load_nd_image(scipy_dirs=None):
    """scipy's compiled spline module, loaded from the ndimage directory of
    the scipy package at ``scipy_dirs`` (its search locations; the installed
    scipy's by default) without importing scipy.ndimage.  A scipy without
    the module is refused with an ImportError that names its version and
    the pin."""
    if scipy_dirs is None:
        scipy = importlib.util.find_spec("scipy")
        scipy_dirs = scipy.submodule_search_locations if scipy else []
    dirs = [os.path.join(d, "ndimage") for d in scipy_dirs]
    spec = importlib.machinery.PathFinder.find_spec("scipy.ndimage._nd_image", dirs)
    if spec is None:
        from importlib import metadata  # slow to import, so only here

        try:
            version = metadata.version("scipy")
        except metadata.PackageNotFoundError:
            version = "(not installed)"
        raise ImportError(
            f"scipy {version} has no compiled module ndimage._nd_image in {dirs}; "
            "renormlab's pyproject.toml pins scipy>=1.10,<1.18"
        )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_nd_image = _load_nd_image()

_ORDER = 3
# scipy.ndimage's code for mode="grid-wrap" (_ni_support._extend_mode_to_code),
# which spline_filter1d and map_coordinates pass to their compiled routines
_GRID_WRAP = 5

# Spline values per read (points times non-constant components) from which
# a read of one row runs the stencil rather than map_coordinates' compiled
# routine.  Called directly, the routine costs
# about 2 us less per component than map_coordinates, which moves the
# crossover little: in 1-d on 64 nodes, 7 components at 384 points read
# 78 us against the stencil's 52, one component at 2,048 points 56 against
# 69 and at 3,072 points 80 against 87; in 2-d one component at 3,072
# points 236 against 214.  The crossover still falls with the component
# count (about 1,000 values for 7 components, 3,000 for one), and 2,560 in
# place of 3,072 won no workload clearly (the einsum stencil entry of
# CHANGES.md).
_STENCIL_VALUES = 3072


class PeriodicInterpolant:
    """Cubic-spline interpolant of a stack of scalar fields on one grid.

    ``values`` is a head shape followed by the grid shape.  The head carries
    the component axes (a vector or matrix field); a head of two or more
    axes counts rows along its first.  Query points are physical
    coordinates.  ``interp(points)`` reads every row at points of shape
    (dim,) + tail and returns head + tail.  ``interp(points, rows)`` reads
    row ``rows[n]`` at ``points[:, n]``, points of shape (dim, len(rows)) +
    tail, and returns head[1:] + (len(rows),) + tail.  A call whose rows
    are all one row reads that row at all its points as one row; _read
    picks the evaluator, and the numbers do not depend on it.  A call
    refuses points of the wrong shape, a row call on a head without rows or
    a row index outside them, and, where a spline reads them, points that
    are not finite with a FieldError; _read is the read without refusals.
    """

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.shape[-grid.dim :] != grid.shape:
            raise FieldError(
                f"field shape {values.shape} does not end in grid shape {grid.shape}"
            )
        self.grid = grid
        self.head_shape = values.shape[: values.ndim - grid.dim]
        rows = self.head_shape[0] if len(self.head_shape) > 1 else 1
        nodes = values.reshape(rows, -1, math.prod(grid.shape))
        # NaN compares unequal to itself, so a NaN field is never constant
        self._constant = (nodes == nodes[:, :, :1]).all(axis=2)  # (rows, components)
        self._value = nodes[:, :, 0].copy()
        self._row_indices = np.arange(rows)
        self._varying = np.flatnonzero(~self._constant.all(axis=0))
        # a slice, not a copy, when every component has a spline
        varying = self._varying if len(self._varying) < nodes.shape[1] else slice(None)
        if len(self._varying):
            source = values.reshape((rows, -1) + grid.shape)[:, varying]
            # the prefilter, cubic B-spline coefficients: spline_filter1d's
            # compiled routine on each grid axis, the first from the node
            # values and the others in place, as scipy's spline_filter runs it
            coeff = np.empty(source.shape)
            for axis in range(2, coeff.ndim):
                _nd_image.spline_filter1d(source, _ORDER, axis, coeff, _GRID_WRAP)
                source = coeff
            self._stencil = _Stencil(grid, coeff)
        # per row: its constants (component, value), its splines (component, coefficients)
        self._rows = [
            ([(i, v) for i, v in enumerate(value) if constant[i]],
             [(i, self._stencil.unpadded[j, r]) for j, i in enumerate(self._varying.tolist())
              if not constant[i]])
            for r, (constant, value) in enumerate(zip(self._constant.tolist(), self._value))
        ]

    def __call__(self, points: np.ndarray, rows=None) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        dim, count = self.grid.dim, len(self._rows)
        if rows is None:  # every row, at the same points
            if pts.ndim == 0 or pts.shape[0] != dim:
                raise FieldError(
                    f"points must have leading axis of length {dim}, got shape {pts.shape}"
                )
            read, lo, hi, pts = self._row_indices, 0, count - 1, pts[:, None]
        else:
            if len(self.head_shape) < 2:
                raise FieldError(f"values of head shape {self.head_shape} have no rows to read")
            read = np.asarray(rows, dtype=np.intp)
            if pts.shape[:2] != (dim, len(read)):
                raise FieldError(
                    f"points must have leading axes ({dim}, {len(read)}), got shape {pts.shape}"
                )
            # no rows: the one-row call on no points
            lo, hi = (int(read.min()), int(read.max())) if len(read) else (0, 0)
            if lo < 0 or hi >= count:
                raise FieldError(f"row {lo if lo < 0 else hi} is not a row of 0..{count - 1}")
        tail_shape = pts.shape[2:]
        index_coords = pts.reshape(dim, pts.shape[1], math.prod(tail_shape))
        # a spline reads the points unless every component read is constant
        reads = bool(self._rows[lo][1]) if lo == hi else not self._constant[read].all()
        if reads:  # constants take any point
            index_coords = index_coords / self.grid.h
            # the sum is finite exactly when every point is, short of points
            # some 1e300 periods away, which no spline can tell apart anyway
            if not math.isfinite(np.add.reduce(index_coords, axis=None)):
                raise FieldError("points must be finite")
        out = np.empty((self._value.shape[1], len(read), index_coords.shape[2]))
        if lo == hi:  # one row, read at all its points
            read, index_coords = self._row_indices[lo : lo + 1], index_coords.reshape(dim, 1, -1)
        self._read(read, index_coords, out.reshape(len(out), len(read), -1))
        if rows is None:
            return out.swapaxes(0, 1).reshape(self.head_shape + tail_shape)
        return out.reshape(self.head_shape[1:] + (out.shape[1],) + tail_shape)

    def _read(self, rows, x, out: np.ndarray, plan=None, kept=None):
        """The one read: row rows[n] (a list or intp array) at the finite float64
        index points x[:, n], (dim, len(rows), P), or every row at shared
        points x, (dim, 1, P), into out (components, len(rows), P), each
        row's constants exactly.  A one-row read of fewer than
        _STENCIL_VALUES spline values runs map_coordinates' compiled routine
        per component with map_coordinates' own arguments (order 3,
        grid-wrap, cval 0, no prefilter; this contract holds the wrapper's
        checks), any other read the stencil.  plan, the stencil plan of
        these points in any row layout (from a spline on the same grid),
        spares the stencil its own; kept, a list of the last read's (cells,
        gathers) of these rows or empty, spares it the gathers at points
        whose cell did not move, and receives this read's.  Returns the
        stencil plan, None if the stencil did not run."""
        one = len(rows) == 1
        if one:
            constants, splines = self._rows[rows[0]]
            if x.shape[2] * len(splines) < _STENCIL_VALUES:
                for i, coeff in splines:
                    _nd_image.geometric_transform(
                        coeff, None, x, None, None, out[i], _ORDER, _GRID_WRAP, 0.0, 0, None, None
                    )
                for i, value in constants:
                    out[i] = value
                return None
        else:  # constants take any point: no stencil if nothing else is read
            constant = self._constant[rows].T  # (components, rows)
        if one or not constant.all():
            base, weights = self._stencil.plan(x) if plan is None else plan
            # a plan handed in may lay the same points out in other rows
            plan = base, weights = (
                base.reshape(x.shape[1:]), weights.reshape(weights.shape[:2] + x.shape[1:])
            )
            varying = len(self._varying)
            if kept:
                last, gathered = kept
                self._stencil.gather(rows, base, gathered, base != last)
            else:
                gathered = np.empty((len(self._stencil.offsets), varying, len(rows), x.shape[2]))
                self._stencil.gather(rows, base, gathered)
            if kept is not None:
                kept[:] = base, gathered
            sums = out if varying == len(out) else np.empty((varying,) + out.shape[1:])
            self._stencil.add(weights, gathered, sums)
            if sums is not out:
                out[self._varying] = sums
        else:
            plan = None
        if one:
            for i, value in constants:
                out[i] = value
        else:
            out[constant] = self._value[rows].T[constant][:, None]
        return plan


class _Rounds:
    """Row calls of one spline, round after round, at points that move little.

    ``rounds(index_coords)`` reads row rows[n] at the finite index points
    index_coords[:, n], (dim, len(rows), P), and returns (components,
    len(rows), P), by _read with the gathers it kept from the last round:
    a stencil round gathers again only at the points whose stencil cell
    moved.  keep(kept) drops the rows that leave.  plan is the last round's
    stencil plan, None after a round that map_coordinates' routine read.
    Newton rounds of flow inversion move about 5 of 4,096 points to another
    cell from the first round to the second, and none after.
    """

    def __init__(self, spline: PeriodicInterpolant, rows: np.ndarray):
        self._spline, self._rows, self._kept, self.plan = spline, rows, [], None

    def __call__(self, index_coords: np.ndarray) -> np.ndarray:
        out = np.empty((self._spline._value.shape[1],) + index_coords.shape[1:])
        self.plan = self._spline._read(self._rows, index_coords, out, kept=self._kept)
        return out

    def keep(self, kept: np.ndarray) -> None:
        """Keep the rows where ``kept`` holds, for the rounds to come."""
        self._rows = self._rows[kept]
        # the kept cells (rows, P) and gathers (taps, comps, rows, P)
        self._kept[:] = [last[..., kept, :] for last in self._kept]


class _Stencil:
    """Spline sums of rows of prefiltered coefficients, in map_coordinates' bits.

    ``coeff`` has shape (rows, comps) + grid.shape.  A plan holds the
    B-spline weights and the flat cell of each point, computed once and
    shared by all components and rows, with map_coordinates' periodic wrap,
    weight formulas and stencil order; a read gathers the coefficients at the
    4^dim taps of each point's cell in its row (gather) and sums them with
    the weights (add).
    """

    def __init__(self, grid: Grid, coeff: np.ndarray):
        self.grid = grid
        # periodic pad: the stencil of a wrapped point x starts at floor(x) - 1,
        # and a point at -1e-300 wraps to exactly N, so 1 before and 3 after
        wrap = np.arange(-1, grid.N + 3) % grid.N
        for a in range(grid.dim):
            coeff = coeff.take(wrap, axis=2 + a)
        self._width = grid.N + 4
        self._row_size = self._width**grid.dim
        # one flat axis over rows and padded nodes, components first
        self._coeff = np.moveaxis(coeff, 1, 0).reshape(coeff.shape[1], -1)
        # the same coefficients without the pad: (comps, rows) + grid.shape views
        padded = self._coeff.reshape(coeff.shape[1::-1] + (self._width,) * grid.dim)
        self.unpadded = padded[(slice(None), slice(None)) + (slice(1, grid.N + 1),) * grid.dim]
        # the flat offsets of the 4^dim taps, in row-major order
        self.offsets = np.zeros(1, dtype=np.intp)
        for _ in range(grid.dim):
            self.offsets = (self.offsets[:, None] * self._width + np.arange(4)).ravel()
        # taps (one axis of 4 per grid axis), comps, rows, points, and one
        # weight operand per grid axis
        self._subscripts = {1: "akrp,arp->krp", 2: "abkrp,arp,brp->krp"}[grid.dim]

    def plan(self, x):
        """The plan of index points x (dim,) + shape: each point's flat cell in
        its row (shape) and its weights (4, dim) + shape."""
        N = self.grid.N
        # map_coordinates' grid-wrap, x + N ((x < 0) - trunc(x / N)): into
        # [0, N - 1] by whole periods, kept as is in (N - 1, N)
        wrapped = np.trunc(x / N)
        np.subtract(x < 0, wrapped, out=wrapped)
        wrapped *= N
        x = np.add(wrapped, x, out=wrapped)
        cell = np.floor(x)
        # a point beyond 2^53 periods, or not finite, has no cell in the stack
        if not (cell.min(initial=0.0) >= 0.0 and cell.max(initial=0.0) <= N):
            raise FieldError("points must be finite and within 2^53 periods of the box")
        yz = np.empty((2,) + x.shape)
        y, z = yz
        np.subtract(x, cell, out=y)
        np.subtract(1.0, y, out=z)
        weights = np.empty((4,) + x.shape)
        w0, w1, w2, w3 = weights
        np.multiply(z, z, out=w0)
        w0 *= z
        w0 /= 6.0
        # w1 of y and w2 of z: one formula, so one pass over both
        middle = weights[1:3]
        np.multiply(yz, yz, out=middle)
        middle *= yz - 2.0
        middle *= 3.0
        middle += 4.0
        middle /= 6.0
        np.subtract(1.0, w0, out=w3)
        w3 -= w1
        w3 -= w2
        base = cell[0].astype(np.intp)
        for a in range(1, len(x)):  # padded index of each point's stencil start
            base *= self._width
            base += cell[a].astype(np.intp)
        return base, weights

    def gather(self, rows, base, gathered, moved=None) -> None:
        """Write the coefficients at each point's taps into gathered (taps,
        comps, rows, P), point base[n, p] in row rows[n]: at every point or,
        given moved (a mask of the points), there alone."""
        at = base + np.multiply(rows, self._row_size)[:, None]
        if moved is None:
            index = np.empty_like(at)
            for tap, offset in zip(gathered, self.offsets.tolist()):
                np.add(at, offset, out=index)
                # every index lies in its row, so "clip" never clips
                np.take(self._coeff, index, axis=1, out=tap, mode="clip")
        elif moved.any():
            index = self.offsets[:, None] + at[moved]
            gathered[:, :, moved] = np.moveaxis(self._coeff[:, index], 1, 0)

    def add(self, weights, gathered, out) -> None:
        """Write into ``out`` (comps, rows, P) the spline sums at points of
        these weights (4, dim, rows, P), from the coefficients at their taps
        as gather left them in ``gathered`` (taps, comps, rows, P)."""
        # one einsum over the taps, each weight axis its own operand: the
        # products (c w_x) w_y summed from 0.0 in row-major tap order, as
        # map_coordinates sums them.  einsum's optimize=False keeps that order,
        # where its tensordot path would reorder the sum, and its iterator
        # loops in stride order, so gathered stays C-contiguous and tap-major
        taps = gathered.reshape((4,) * self.grid.dim + gathered.shape[1:])
        np.einsum(self._subscripts, taps, *weights.swapaxes(0, 1), out=out)
