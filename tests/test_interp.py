"""Off-node evaluation tests: node exactness, O(h^4) error, periodicity."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renormlab.field import FieldError, GridScalar, GridVector, build_grid
from renormlab.interp import (
    PeriodicInterpolant,
    jacobian_interpolant,
    scalar_interpolant,
    vector_interpolant,
)
from renormlab.rng import stream

L = 2.0 * math.pi


class TestScalar:
    def test_nodes_reproduced(self):
        g = build_grid(1, L, 64)
        x = g.axis_coordinates()
        f = GridScalar(g, np.sin(x) + 0.3 * np.cos(3 * x))
        itp = scalar_interpolant(f)
        assert np.abs(itp(x[None, :]) - f.values).max() < 1e-13

    def test_fourth_order_convergence(self):
        q = stream(1, 0).uniform(0.0, L, 2000)
        errors = []
        for n in (32, 64, 128):
            g = build_grid(1, L, n)
            f = GridScalar(g, np.sin(g.axis_coordinates()))
            err = np.abs(scalar_interpolant(f)(q[None, :]) - np.sin(q)).max()
            errors.append(err)
        assert errors[0] / errors[1] > 12.0
        assert errors[1] / errors[2] > 12.0

    def test_periodic_extension(self):
        g = build_grid(1, L, 32)
        f = GridScalar(g, np.cos(2 * g.axis_coordinates()))
        itp = scalar_interpolant(f)
        q = stream(2, 0).uniform(0.0, L, 200)
        assert np.abs(itp(q[None, :]) - itp((q + 3 * L)[None, :])).max() < 1e-11
        assert np.abs(itp(q[None, :]) - itp((q - L)[None, :])).max() < 1e-11


class TestShapes:
    def test_vector_and_jacobian_heads(self):
        g = build_grid(2, L, 16)
        xx, yy = g.coordinates()
        v = GridVector(g, np.stack([np.sin(xx), np.cos(yy)]))
        pts = stream(3, 0).uniform(0.0, L, (2, 5, 7))
        assert vector_interpolant(v)(pts).shape == (2, 5, 7)
        assert jacobian_interpolant(v)(pts).shape == (2, 2, 5, 7)

    def test_jacobian_values(self):
        g = build_grid(2, L, 32)
        xx, yy = g.coordinates()
        v = GridVector(g, np.stack([np.sin(xx) * np.cos(yy), np.cos(2 * xx)]))
        pts = stream(4, 0).uniform(0.0, L, (2, 300))
        J = jacobian_interpolant(v)(pts)
        truth01 = -np.sin(pts[0]) * np.sin(pts[1])
        assert np.abs(J[0, 1] - truth01).max() < 1e-4

    def test_validation(self):
        g = build_grid(2, L, 16)
        with pytest.raises(FieldError):
            PeriodicInterpolant(g, np.zeros((16,)))
        itp = PeriodicInterpolant(g, np.zeros(g.shape))
        with pytest.raises(FieldError):
            itp(np.zeros((3, 10)))


class TestConstantComponents:
    def test_constant_is_exact_anywhere(self):
        g = build_grid(2, L, 16)
        values = np.stack([np.full(g.shape, c) for c in (0.0, 1.0, -0.1, 1e308)])
        itp = PeriodicInterpolant(g, values)
        near = stream(6, 0).uniform(-L, 2 * L, (2, 50))
        far = np.array([[1e6, -1e12, 1e308, -1e308], [3.7, 1e300, -1e308, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pts in (near, far):
                out = itp(pts)
                for row, c in zip(out, (0.0, 1.0, -0.1, 1e308)):
                    assert np.array_equal(row, np.full(pts.shape[1:], c))
                huge = scalar_interpolant(GridScalar.constant(g, 1e308))(pts)
                assert np.array_equal(huge, np.full(pts.shape[1:], 1e308))

    def test_mixed_stack_matches_single_components(self):
        g = build_grid(2, L, 16)
        xx, yy = g.coordinates()
        varying = [np.sin(xx) * np.cos(2 * yy), np.exp(np.cos(xx + yy))]
        values = np.stack([varying[0], np.full(g.shape, 0.25), varying[1], np.zeros(g.shape)])
        pts = stream(7, 0).uniform(-L, 2 * L, (2, 9, 11))
        out = PeriodicInterpolant(g, values)(pts)
        assert out.shape == (4, 9, 11)
        assert np.array_equal(out[0], PeriodicInterpolant(g, varying[0])(pts))
        assert np.array_equal(out[2], PeriodicInterpolant(g, varying[1])(pts))
        assert np.array_equal(out[1], np.full((9, 11), 0.25))
        assert np.array_equal(out[3], np.zeros((9, 11)))

    def test_nan_is_not_constant(self):
        # one NaN node in a field of ones: a spline spreads it, a constant would not
        g = build_grid(1, L, 16)
        values = np.ones((2,) + g.shape)
        values[0, 5] = np.nan
        values[1, 0] = np.nan
        itp = PeriodicInterpolant(g, values)
        out = itp(stream(8, 0).uniform(0.0, L, (1, 30)))
        assert np.all(np.isnan(out))


@settings(max_examples=20, deadline=None)
@given(a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0), seed=st.integers(0, 2**31))
def test_linearity_in_the_field(a, b, seed):
    g = build_grid(1, L, 16)
    rng = stream(seed, 5)
    f = rng.normal(size=g.shape)
    h = rng.normal(size=g.shape)
    q = rng.uniform(-L, 2 * L, (1, 40))
    mixed = PeriodicInterpolant(g, a * f + b * h)(q)
    parts = a * PeriodicInterpolant(g, f)(q) + b * PeriodicInterpolant(g, h)(q)
    assert np.abs(mixed - parts).max() < 1e-10
