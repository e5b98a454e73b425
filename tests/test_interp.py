"""Off-node evaluation tests: node exactness, O(h^4) error, periodicity."""

from __future__ import annotations

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from renormlab import interp
from renormlab.field import FieldError, GridScalar, GridVector, build_grid, jacobian
from renormlab.interp import PeriodicInterpolant
from renormlab.rng import stream

L = 2.0 * math.pi


class TestScalar:
    def test_nodes_reproduced(self):
        g = build_grid(1, L, 64)
        x = g.axis_coordinates()
        f = GridScalar(g, np.sin(x) + 0.3 * np.cos(3 * x))
        itp = PeriodicInterpolant(f.grid, f.values)
        assert np.abs(itp(x[None, :]) - f.values).max() < 1e-13

    def test_fourth_order_convergence(self):
        q = stream(1, 0).uniform(0.0, L, 2000)
        errors = []
        for n in (32, 64, 128):
            g = build_grid(1, L, n)
            f = GridScalar(g, np.sin(g.axis_coordinates()))
            err = np.abs(PeriodicInterpolant(f.grid, f.values)(q[None, :]) - np.sin(q)).max()
            errors.append(err)
        assert errors[0] / errors[1] > 12.0
        assert errors[1] / errors[2] > 12.0

    def test_periodic_extension(self):
        g = build_grid(1, L, 32)
        f = GridScalar(g, np.cos(2 * g.axis_coordinates()))
        itp = PeriodicInterpolant(f.grid, f.values)
        q = stream(2, 0).uniform(0.0, L, 200)
        assert np.abs(itp(q[None, :]) - itp((q + 3 * L)[None, :])).max() < 1e-11
        assert np.abs(itp(q[None, :]) - itp((q - L)[None, :])).max() < 1e-11


class TestShapes:
    def test_vector_and_jacobian_heads(self):
        g = build_grid(2, L, 16)
        xx, yy = g.coordinates()
        v = GridVector(g, np.stack([np.sin(xx), np.cos(yy)]))
        pts = stream(3, 0).uniform(0.0, L, (2, 5, 7))
        assert PeriodicInterpolant(v.grid, v.values)(pts).shape == (2, 5, 7)
        assert PeriodicInterpolant(v.grid, jacobian(v))(pts).shape == (2, 2, 5, 7)

    def test_jacobian_values(self):
        g = build_grid(2, L, 32)
        xx, yy = g.coordinates()
        v = GridVector(g, np.stack([np.sin(xx) * np.cos(yy), np.cos(2 * xx)]))
        pts = stream(4, 0).uniform(0.0, L, (2, 300))
        J = PeriodicInterpolant(v.grid, jacobian(v))(pts)
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
                huge = PeriodicInterpolant(g, np.full(g.shape, 1e308))(pts)
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


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def stack_points(g, rows, seed):
    """Random points over +-5 periods, plus the wrap's edge cases, per row."""
    pts = stream(seed, 0).uniform(-5 * L, 5 * L, (g.dim, rows, 400))
    edges = np.concatenate([np.arange(-5, 6) * L, [-1e-300, 1e-300, -0.0, L * (1 - 2**-52)]])
    pts[..., : len(edges)] = edges
    pts[-1, :, len(edges) : 2 * len(edges)] = edges  # each edge against a random point
    return pts


class TestRowCalls:
    """Row calls, each row at its own points, against one-row interpolants
    of the same fields (map_coordinates)."""

    @pytest.mark.parametrize("dim,n", [(1, 64), (1, 48), (2, 16), (2, 24)])
    def test_rows_match_periodic_interpolant(self, dim, n):
        g = build_grid(dim, L, n)
        values = stream(11, dim).normal(size=(5, 3) + g.shape)
        itp = PeriodicInterpolant(g, values)
        pts = stack_points(g, 5, 12)
        out = itp(pts, np.arange(5))
        assert out.shape == (3, 5, 400)
        for r in range(5):
            assert same_bits(out[:, r], PeriodicInterpolant(g, values[r])(pts[:, r]))
        # a call without rows reads every row at the same points
        shared = itp(pts[:, 0])
        assert shared.shape == (5, 3, 400)
        for r in range(5):
            assert same_bits(shared[r], PeriodicInterpolant(g, values[r])(pts[:, 0]))

    def test_rows_in_any_order_and_repeated(self):
        g = build_grid(2, L, 16)
        values = stream(13, 0).normal(size=(4, 2) + g.shape)
        rows = np.array([3, 0, 3, 1])
        pts = stream(14, 0).uniform(-L, 2 * L, (2, 4, 6, 7))
        out = PeriodicInterpolant(g, values)(pts, rows)
        assert out.shape == (2, 4, 6, 7)
        for n, r in enumerate(rows):
            assert same_bits(out[:, n], PeriodicInterpolant(g, values[r])(pts[:, n]))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_constant_components_and_rows(self, dim):
        g = build_grid(dim, L, 16)
        values = stream(15, dim).normal(size=(3, 3) + g.shape)
        values[0, 1] = 0.25  # one constant component in a varying row
        values[1] = -1.5  # an all-constant row
        values[2, 2] = 0.0
        itp = PeriodicInterpolant(g, values)
        pts = stack_points(g, 3, 16)
        out = itp(pts, np.arange(3))
        for r in range(3):
            assert same_bits(out[:, r], PeriodicInterpolant(g, values[r])(pts[:, r]))
        assert np.all(out[1, 0] == 0.25) and np.all(out[:, 1] == -1.5)
        # only constant components asked for: exact values, even far away
        far = np.full((dim, 1, 3), 1e300)
        assert np.array_equal(itp(far, [1]), np.full((3, 1, 3), -1.5))

    def test_nan_field_is_not_constant(self):
        g = build_grid(1, L, 16)
        values = np.ones((2, 2) + g.shape)
        values[0, 1, 5] = np.nan
        out = PeriodicInterpolant(g, values)(stream(17, 0).uniform(0.0, L, (1, 2, 30)), [0, 1])
        assert np.all(np.isnan(out[1, 0]))
        assert np.array_equal(out[0], np.ones((2, 30))) and np.array_equal(out[1, 1], np.ones(30))

    def test_validation(self):
        g = build_grid(2, L, 16)
        itp = PeriodicInterpolant(g, stream(18, 0).normal(size=(2, 1) + g.shape))
        with pytest.raises(FieldError):
            itp(np.zeros((2, 3, 5)), [0, 1])
        with pytest.raises(FieldError, match="finite"):
            itp(np.full((2, 1, 4), np.nan), [0])

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("points,rows", [((0, 5), []), ((3, 0), [0, 1, 2]), ((1, 0), [1])])
    def test_a_call_on_no_points_is_empty(self, dim, points, rows):
        # no rows, or one row on no points, read as map_coordinates reads;
        # three rows on no points, as the stencil reads: each is empty
        g = build_grid(dim, L, 16)
        itp = PeriodicInterpolant(g, stream(22, dim).normal(size=(3, 2) + g.shape))
        out = itp(np.zeros((dim,) + points), rows)
        assert out.shape == (2,) + points

    @pytest.mark.parametrize("head", [(), (2,)])
    def test_a_head_without_rows_has_no_row_call(self, head):
        g = build_grid(2, L, 16)
        itp = PeriodicInterpolant(g, stream(19, 0).normal(size=head + g.shape))
        with pytest.raises(FieldError, match=r"^values of head shape .* have no rows to read$"):
            itp(np.zeros((2, 2, 5)), [0, 1])

    @pytest.mark.parametrize(
        "rows,named", [([-1], -1), ([3], 3), ([0, 2, -2, 1], -2), ([1, 5], 5)]
    )
    def test_a_row_outside_the_rows_is_refused_by_name(self, rows, named):
        g = build_grid(1, L, 16)
        itp = PeriodicInterpolant(g, stream(20, 0).normal(size=(3, 1) + g.shape))
        pts = stream(21, 0).uniform(0.0, L, (1, len(rows), 5))
        with pytest.raises(FieldError, match=rf"^row {named} is not a row of 0\.\.2$"):
            itp(pts, rows)


class TestEvaluatorBySize:
    """PeriodicInterpolant's two evaluators: the same bits and the same errors."""

    @staticmethod
    def count_map_coordinates(monkeypatch):
        """Count the small-call evaluator's calls: map_coordinates' compiled
        routine, as interp calls it, one call per component."""
        calls = []
        original = interp._nd_image.geometric_transform

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(interp, "_nd_image", SimpleNamespace(geometric_transform=counted))
        return calls

    @pytest.mark.parametrize("dim,n,comps", [(1, 64, 2), (1, 48, 1), (2, 16, 3), (2, 24, 2)])
    def test_one_large_call_equals_small_calls(self, monkeypatch, dim, n, comps):
        g = build_grid(dim, L, n)
        values = stream(21, dim).normal(size=(comps + 1,) + g.shape)
        values[1] = 0.75  # a constant component among the varying ones
        itp = PeriodicInterpolant(g, values)
        pts = stack_points(g, 10, 22).reshape(dim, 4000)
        calls = self.count_map_coordinates(monkeypatch)
        whole = itp(pts)
        assert not calls  # 4,000 points of 1 to 3 varying components: the stencil
        parts = np.concatenate([itp(pts[:, i : i + 100]) for i in range(0, 4000, 100)], axis=1)
        assert len(calls) == 40 * comps  # one map_coordinates call per varying component
        assert same_bits(whole, parts)
        assert np.all(whole[1] == 0.75)
        # the core that flow._march calls gives __call__'s bits on both evaluators
        core = np.full((comps + 1, 4000), np.nan)
        itp._evaluate(pts / g.h, core, 0)
        assert len(calls) == 40 * comps
        assert same_bits(whole, core)
        for i in range(0, 4000, 100):
            itp._evaluate(pts[:, i : i + 100] / g.h, core[:, i : i + 100], 0)
        assert len(calls) == 80 * comps
        assert same_bits(parts, core)

    def test_the_size_rule(self, monkeypatch):
        g = build_grid(1, L, 64)
        itp = PeriodicInterpolant(g, stream(23, 0).normal(size=(3,) + g.shape))
        calls = self.count_map_coordinates(monkeypatch)
        edge = interp._STENCIL_VALUES // 3  # values per call = points x 3 components
        small = itp(stream(24, 0).uniform(0.0, L, (1, edge - 1)))
        assert len(calls) == 3
        large = itp(stream(24, 0).uniform(0.0, L, (1, edge)))
        assert len(calls) == 3
        assert same_bits(small, large[:, : edge - 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dim,count", [(1, 64), (1, 4096), (2, 64), (2, 4096)])
    def test_non_finite_point_refused_by_both(self, bad, dim, count):
        g = build_grid(dim, L, 16)
        itp = PeriodicInterpolant(g, stream(25, dim).normal(size=(2,) + g.shape))
        pts = stream(26, dim).uniform(0.0, L, (dim, count))
        pts[-1, count // 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FieldError, match="finite"):
                itp(pts)


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


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([1, 2]), n=st.sampled_from([8, 16]), comps=st.integers(1, 6),
    rows=st.integers(1, 3), shared=st.booleans(), seed=st.integers(0, 2**31), data=st.data(),
)
def test_stencil_sums_map_coordinates_bits(dim, n, comps, rows, shared, seed, data):
    # the stencil's plan, gather and weighted sum on raw coefficients against
    # map_coordinates on the same coefficients, bit for bit and sign of zero
    g = build_grid(dim, L, n)
    rng = stream(seed, 28)
    coeff = rng.normal(size=(rows, comps) + g.shape)
    coeff[..., :4] = -0.0  # a point whose last index lies in [1, 2) sums -0.0 products
    read = (np.arange(rows) if shared else
            np.array(data.draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=3))))
    x = rng.uniform(-3 * n, 4 * n, (dim, 1 if shared else len(read), 64))
    x[..., :16] = np.round(x[..., :16])  # nodes, inside the box and out
    x[-1, :, 16:24] = rng.uniform(1.0, 2.0, 8)
    x[-1, :, 24:28] = [1.0, -0.0, -1e-300, n * (1 - 2**-52)]
    stencil = interp._Stencil(g, coeff)
    base, weights = stencil.plan(x)
    gathered = np.empty((4**dim, comps, len(read), x.shape[2]))
    stencil.gather(read, base, gathered)
    out = np.full((comps, len(read), x.shape[2]), np.nan)
    stencil.add(weights, gathered, out)
    assert np.signbit(coeff[read[0], 0][(0,) * dim]) and not np.signbit(out[:, :, 16:24]).any()
    for m, r in enumerate(read):
        at = x[:, 0 if shared else m]
        for k in range(comps):
            want = ndimage.map_coordinates(
                coeff[r, k], at, order=3, mode="grid-wrap", prefilter=False
            )
            assert same_bits(out[k, m], want)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([1, 2]), n=st.sampled_from([8, 16, 64]), comps=st.integers(1, 7),
    rows=st.integers(1, 2), seed=st.integers(0, 2**31), data=st.data(),
)
def test_small_calls_equal_public_map_coordinates(dim, n, comps, rows, seed, data):
    # _evaluate's small-call path runs map_coordinates' compiled routine;
    # against the public map_coordinates on the same coefficients, bit for
    # bit and sign of zero, with constant components written as their value
    g = build_grid(dim, L, n)
    rng = stream(seed, 29)
    values = rng.normal(size=(rows, comps) + g.shape)
    constant = data.draw(st.lists(st.booleans(), min_size=comps, max_size=comps))
    values[:, constant] = rng.normal(size=(rows, sum(constant)) + (1,) * dim)
    row = data.draw(st.integers(0, rows - 1))
    itp = PeriodicInterpolant(g, values if rows > 1 else values[0])
    splines = itp._rows[row][1]
    if splines:  # -0.0 coefficients: a point in [1, 2) on the last axis sums -0.0 products
        itp._stencil.unpadded[..., :4] = -0.0
    count = 64
    x = rng.uniform(-3 * n, 4 * n, (dim, count))
    x[:, :16] = np.round(x[:, :16])  # nodes, inside the box and out
    x[-1, 16:24] = rng.uniform(1.0, 2.0, 8)
    x[-1, 24:32] = [1.0, -0.0, -1e-300, n * (1 - 2**-52), n, 1e12, -1e12, 3e15 + 0.5]
    x[:, 32:40] = rng.uniform(-1e9, 1e9, (dim, 8))  # far outside the box
    assert not itp._by_stencil(row, count)
    out = np.full((comps, count), np.nan)
    itp._evaluate(x, out, row)
    for i, coeff in splines:
        want = ndimage.map_coordinates(coeff, x, order=3, mode="grid-wrap", prefilter=False)
        assert same_bits(out[i], want)
        assert np.all(out[i, 16:24] == 0.0)
    for i, value in itp._rows[row][0]:
        assert same_bits(out[i], np.full(count, value))
    assert len(splines) + len(itp._rows[row][0]) == comps
