"""Off-node evaluation of periodic grid fields.

Everything on the grid is spectral, but trajectories and inverse maps need
field values between nodes.  We use periodic cubic B-splines: the prefilter
runs once per field (solving the banded interpolation system), after which
each query is a local 4^dim tensor-product stencil.  Node values are
reproduced to round-off, off-node error is O(h^4), and the wrap mode makes
the interpolant exactly L-periodic, so query points may lie anywhere in R^n.

A component whose node values are all equal (the unit noise fields e_k, a
zero displacement) gets no spline: it evaluates to that exact constant,
where a spline would return it only to a few ulp, and costs no stencil.

There are two evaluators of the same splines, one per size range.  Both
read the coefficients of the one prefilter and give the same bits.
scipy's map_coordinates makes one call per component, and is the faster of
the two on small calls (the 64 nodes of one 1-d flow).  The numpy stencil
(_Stencil) computes the B-spline weights of a point once for all
components and sums the stencil in map_coordinates' order; it wins from
about 3,000 spline values per call (a chunk of Monte Carlo members, a block
of steps of the recursions, a 64^2 grid).  PeriodicInterpolant picks the
evaluator by the size of each call, and checks its points before the core
(_evaluate) that flow._march, which checks its own, calls directly.
SplineStack holds the splines of many rows of fields (the displacements of a
block of flow steps) and evaluates each row at its own points by the stencil.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from .field import FieldError, Grid

__all__ = [
    "PeriodicInterpolant",
    "SplineStack",
]

_ORDER = 3

# Spline values per call (points times non-constant components) from which
# a PeriodicInterpolant call evaluates with the stencil rather than with
# map_coordinates: the measured crossover, about 1,500 points for 2
# components and 3,000 for one (timings in the ``_Stencil.add`` FOUND line
# of CHANGES.md).
_STENCIL_VALUES = 3072


def _prefilter(values: np.ndarray, dim: int) -> np.ndarray:
    """Cubic B-spline coefficients of the fields in the last ``dim`` axes."""
    for axis in range(values.ndim - dim, values.ndim):
        values = ndimage.spline_filter1d(values, order=_ORDER, axis=axis, mode="grid-wrap")
    return values


class PeriodicInterpolant:
    """Cubic-spline interpolant of a stack of scalar fields on one grid.

    ``values`` may carry leading component axes (e.g. a vector or matrix
    field); evaluation returns those axes followed by the query-point axes.
    Query points are physical coordinates with shape (dim, ...).  A call
    that asks for fewer than _STENCIL_VALUES spline values (points times
    components that are not constant) runs map_coordinates, a larger one
    the stencil; the numbers do not depend on the evaluator.  A call refuses
    points of the wrong shape and, where a spline reads them, points that are
    not finite with a FieldError; _evaluate is the call without refusals.
    """

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.shape[-grid.dim :] != grid.shape:
            raise FieldError(
                f"field shape {values.shape} does not end in grid shape {grid.shape}"
            )
        self.grid = grid
        self.head_shape = values.shape[: values.ndim - grid.dim]
        flat = values.reshape((-1,) + grid.shape)
        nodes = flat.reshape(len(flat), -1)
        # NaN compares unequal to itself, so a NaN field is never constant
        constant = (nodes == nodes[:, :1]).all(axis=1).tolist()
        self._components = len(flat)
        self._constants = [(i, nodes[i, 0]) for i, c in enumerate(constant) if c]
        self._varying = [i for i, c in enumerate(constant) if not c]
        self._splines = []  # (component, its coefficients), for map_coordinates
        if self._varying:
            coeff = _prefilter(flat[self._varying], grid.dim)
            self._splines = list(zip(self._varying, coeff))
            self._stencil = _Stencil(grid, coeff[None])

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 0 or pts.shape[0] != self.grid.dim:
            raise FieldError(
                f"points must have leading axis of length {self.grid.dim}, got shape {pts.shape}"
            )
        tail_shape = pts.shape[1:]
        index_coords = None  # read only by a spline: constants take any point
        if self._splines:
            index_coords = pts.reshape(self.grid.dim, -1) / self.grid.h
            # the sum is finite exactly when every point is, short of points
            # some 1e300 periods away, which no spline can tell apart anyway
            if not math.isfinite(np.add.reduce(index_coords, axis=None)):
                raise FieldError("points must be finite")
        out = np.empty((self._components, math.prod(tail_shape)))
        self._evaluate(index_coords, out)
        return out.reshape(self.head_shape + tail_shape)

    def _evaluate(self, index_coords, out: np.ndarray) -> None:
        """__call__ without its refusals: the components at finite index points
        (dim, count), written into out (components, count)."""
        for i, value in self._constants:
            out[i] = value
        if out.shape[1] * len(self._splines) >= _STENCIL_VALUES:
            sums = np.zeros((len(self._splines), 1, out.shape[1]))
            self._stencil.add(np.zeros(1, dtype=np.intp), index_coords[:, None], sums)
            out[self._varying] = sums[:, 0]
        else:
            for i, coeff in self._splines:
                ndimage.map_coordinates(
                    coeff, index_coords, output=out[i], order=_ORDER, mode="grid-wrap",
                    prefilter=False,
                )


class SplineStack:
    """Cubic splines of a stack of rows, each row evaluated at its own points.

    ``values`` has shape (rows, comps) + grid.shape.  ``stack(rows, points)``
    takes row indices and points of shape (dim, len(rows)) + tail, and
    returns (comps, len(rows)) + tail: the components of row ``rows[n]`` at
    the points ``points[:, n]``.  It evaluates with the stencil, so the
    numbers equal ``PeriodicInterpolant``'s bit for bit.  A component
    constant in space returns its exact value.
    """

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 + grid.dim or values.shape[2:] != grid.shape:
            raise FieldError(
                f"stack shape {values.shape} is not (rows, comps) + grid shape {grid.shape}"
            )
        self.grid = grid
        rows, comps = values.shape[:2]
        flat = values.reshape(rows, comps, -1)
        # NaN compares unequal to itself, so a NaN field is never constant
        self._constant = np.all(flat == flat[:, :, :1], axis=2)
        self._value = flat[:, :, 0].copy()
        self._stencil = _Stencil(grid, _prefilter(values, grid.dim))

    def __call__(self, rows, points: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.intp)
        pts = np.asarray(points, dtype=np.float64)
        dim = self.grid.dim
        if pts.shape[:2] != (dim, len(rows)):
            raise FieldError(
                f"points must have leading axes ({dim}, {len(rows)}), got shape {pts.shape}"
            )
        tail_shape = pts.shape[2:]
        x = pts.reshape(dim, len(rows), -1) / self.grid.h
        constant = self._constant[rows].T  # (comps, rows)
        out = np.zeros((len(constant),) + x.shape[1:])
        if not constant.all():
            self._stencil.add(rows, x, out)
        if constant.any():
            out[constant] = self._value[rows].T[constant][:, None]
        return out.reshape(out.shape[:2] + tail_shape)


class _Stencil:
    """Spline sums of rows of prefiltered coefficients, in map_coordinates' bits.

    ``coeff`` has shape (rows, comps) + grid.shape.  The B-spline weights of
    a point are computed once and shared by all components, with
    map_coordinates' periodic wrap, weight formulas and stencil order.
    """

    def __init__(self, grid: Grid, coeff: np.ndarray):
        self.grid = grid
        # periodic pad: the stencil of a wrapped point x starts at floor(x) - 1,
        # and a point at -1e-300 wraps to exactly N, so 1 before and 3 after
        wrap = np.arange(-1, grid.N + 3) % grid.N
        for a in range(grid.dim):
            coeff = coeff.take(wrap, axis=2 + a)
        self._width = grid.N + 4
        # one flat axis over rows and padded nodes, components first
        self._coeff = np.moveaxis(coeff, 1, 0).reshape(coeff.shape[1], -1)
        # the 4^dim taps in row-major order: (flat offset, weight index per axis)
        self._taps = [(0, ())]
        for _ in range(grid.dim):
            self._taps = [(o * self._width + j, t + (j,)) for o, t in self._taps for j in range(4)]

    def add(self, rows, x, out):
        """Add to ``out`` (comps, rows, points) the spline sums at index points x.

        x has shape (dim, rows, points): point x[:, n, p] is read in row rows[n].
        """
        dim, N = self.grid.dim, self.grid.N
        # map_coordinates' grid-wrap: into [0, N - 1] by whole periods, kept
        # as is in (N - 1, N)
        x = x + N * ((x < 0) - np.trunc(x / N))
        cell = np.floor(x)
        # a point beyond 2^53 periods, or not finite, has no cell in the stack
        if not (cell.min() >= 0.0 and cell.max() <= N):
            raise FieldError("points must be finite and within 2^53 periods of the box")
        y = x - cell
        z = 1.0 - y
        w0 = z * z * z / 6.0
        w1 = (y * y * (y - 2.0) * 3.0 + 4.0) / 6.0
        w2 = (z * z * (z - 2.0) * 3.0 + 4.0) / 6.0
        weights = [w0, w1, w2, 1.0 - w0 - w1 - w2]  # each (dim, rows, points)
        base = rows[:, None]
        for a in range(dim):  # padded index of each point's stencil start
            base = base * self._width + cell[a].astype(np.intp)
        # the stencil in row-major order, summed from 0.0 as map_coordinates
        # sums it; every index lies in its row, so "clip" never clips
        index, term = np.empty_like(base), np.empty_like(out)
        for offset, tap in self._taps:
            np.add(base, offset, out=index)
            np.take(self._coeff, index, axis=1, out=term, mode="clip")
            for a, j in enumerate(tap):
                term *= weights[j][a]
            out += term

