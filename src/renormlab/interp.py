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

PeriodicInterpolant evaluates with scipy's map_coordinates, one call per
component.  SplineStack holds the splines of many rows of fields (the
displacements of a block of flow steps) and evaluates each row at its own
points in numpy: the B-spline weights of a point are computed once for all
components, and the stencil is summed in map_coordinates' order, so both
give the same bits.  scipy is the faster of the two on small calls (64
points), SplineStack on large ones and wherever weights are shared.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from .field import FieldError, Grid, GridScalar, GridVector, jacobian

__all__ = [
    "PeriodicInterpolant",
    "SplineStack",
    "scalar_interpolant",
    "vector_interpolant",
    "jacobian_interpolant",
]

_ORDER = 3


class PeriodicInterpolant:
    """Cubic-spline interpolant of a stack of scalar fields on one grid.

    ``values`` may carry leading component axes (e.g. a vector or matrix
    field); evaluation returns those axes followed by the query-point axes.
    Query points are physical coordinates with shape (dim, ...).
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
        self._components = len(flat)
        self._constants = []
        self._splines = []
        for i, comp in enumerate(flat):
            # NaN compares unequal to itself, so a NaN field is never constant
            if np.all(comp == comp.flat[0]):
                self._constants.append((i, comp.flat[0]))
            else:
                self._splines.append(
                    (i, ndimage.spline_filter(comp, order=_ORDER, mode="grid-wrap"))
                )

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 0 or pts.shape[0] != self.grid.dim:
            raise FieldError(
                f"points must have leading axis of length {self.grid.dim}, got shape {pts.shape}"
            )
        tail_shape = pts.shape[1:]
        out = np.empty((self._components, math.prod(tail_shape)))
        for i, value in self._constants:
            out[i] = value
        if self._splines:
            index_coords = pts.reshape(self.grid.dim, -1) / self.grid.h
            for i, coeff in self._splines:
                ndimage.map_coordinates(
                    coeff, index_coords, output=out[i], order=_ORDER, mode="grid-wrap",
                    prefilter=False,
                )
        return out.reshape(self.head_shape + tail_shape)


class SplineStack:
    """Cubic splines of a stack of rows, each row evaluated at its own points.

    ``values`` has shape (rows, comps) + grid.shape.  ``stack(rows, points)``
    takes row indices and points of shape (dim, len(rows)) + tail, and
    returns (comps, len(rows)) + tail: the components of row ``rows[n]`` at
    the points ``points[:, n]``.  The B-spline weights of a point are
    computed once and shared by all components, and the numbers equal
    ``PeriodicInterpolant``'s bit for bit: the same prefilter, the same
    periodic wrap, the same weight formulas and the same stencil sum as
    ``map_coordinates``.  A component constant in space returns its exact
    value.
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
        coeff = values
        for a in range(grid.dim):
            coeff = ndimage.spline_filter1d(coeff, order=_ORDER, axis=2 + a, mode="grid-wrap")
        # periodic pad: the stencil of a wrapped point x starts at floor(x) - 1,
        # and a point at -1e-300 wraps to exactly N, so 1 before and 3 after
        coeff = np.pad(coeff, ((0, 0), (0, 0)) + ((1, 3),) * grid.dim, mode="wrap")
        self._width = grid.N + 4
        # one flat axis over rows and padded nodes, components first
        self._coeff = np.moveaxis(coeff, 1, 0).reshape(comps, -1)
        self._offsets = np.zeros(1, dtype=np.intp)
        for a in range(grid.dim):
            self._offsets = (self._offsets[:, None] * self._width + np.arange(4)).ravel()

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
            self._add_stencils(rows, x, out)
        if constant.any():
            out[constant] = self._value[rows].T[constant][:, None]
        return out.reshape(out.shape[:2] + tail_shape)

    def _add_stencils(self, rows, x, out):
        """Add to ``out`` (comps, rows, points) the spline sums at index points x."""
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
        for k, offset in enumerate(self._offsets):
            np.add(base, offset, out=index)
            np.take(self._coeff, index, axis=1, out=term, mode="clip")
            stencil = np.unravel_index(k, (4,) * dim)
            for a in range(dim):
                term *= weights[stencil[a]][a]
            out += term
        return out


def scalar_interpolant(field: GridScalar) -> PeriodicInterpolant:
    return PeriodicInterpolant(field.grid, field.values)


def vector_interpolant(field: GridVector) -> PeriodicInterpolant:
    return PeriodicInterpolant(field.grid, field.values)


def jacobian_interpolant(field: GridVector) -> PeriodicInterpolant:
    """Interpolant of the (spectrally computed) Jacobian, entry [i, j] = d_j v_i."""
    return PeriodicInterpolant(field.grid, jacobian(field))
