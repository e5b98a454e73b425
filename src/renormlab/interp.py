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
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from .field import FieldError, Grid, GridScalar, GridVector, jacobian

__all__ = [
    "PeriodicInterpolant",
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


def scalar_interpolant(field: GridScalar) -> PeriodicInterpolant:
    return PeriodicInterpolant(field.grid, field.values)


def vector_interpolant(field: GridVector) -> PeriodicInterpolant:
    return PeriodicInterpolant(field.grid, field.values)


def jacobian_interpolant(field: GridVector) -> PeriodicInterpolant:
    """Interpolant of the (spectrally computed) Jacobian, entry [i, j] = d_j v_i."""
    return PeriodicInterpolant(field.grid, jacobian(field))
