"""Grid, mollifier, and spectral-calculus tests.

The load-bearing oracle here is integration by parts for kernel moments:

    integral x^alpha d^beta eta = (-1)^|beta| * prod_i falling(alpha_i, beta_i)
                                  * integral x^(alpha-beta) eta,

which we evaluate with a plain weighted sum over the kernel samples -- no FFT
anywhere -- and compare against the spectral-derivative path.
"""

from __future__ import annotations

import hashlib
import math
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renormlab import field, presets
from renormlab.field import (
    FieldError,
    Grid,
    GridScalar,
    GridVector,
    TimeGridVector,
    _derivative_multiplier,
    _spectral,
    _synthesize,
    build_grid,
    central_half,
    convolve,
    divergence,
    divergence_and_twist,
    divergence_stack,
    gradient,
    hessian_stack,
    jacobian,
    jacobian_stack,
    kernel_moment,
    load_field,
    lp_norm,
    lp_norm_stack,
    mollifier,
    save_field,
    spectral_derivative,
)

L = 2.0 * math.pi


def byparts_moment(kernel, alpha, beta):
    """Independent moment oracle: by-parts coefficient times a plain sum."""
    if any(b > a for a, b in zip(alpha, beta)):
        return 0.0
    coef = float((-1) ** sum(beta))
    for a, b in zip(alpha, beta):
        coef *= math.factorial(a) / math.factorial(a - b)
    weight = np.ones(kernel.grid.shape)
    for x, power in zip(kernel.grid.wrapped_coordinates(), (a - b for a, b in zip(alpha, beta))):
        if power:
            weight = weight * x**power
    return coef * float((weight * kernel.values).sum() * kernel.grid.cell_volume)


class TestGrid:
    def test_build_grid_validation(self):
        with pytest.raises(FieldError):
            build_grid(3, L, 32)
        with pytest.raises(FieldError):
            build_grid(1, -1.0, 32)
        with pytest.raises(FieldError):
            build_grid(1, L, 33)
        with pytest.raises(FieldError):
            build_grid(1, L, 4)
        # direct construction is validated too: odd N has no Nyquist mode,
        # yet odd-order derivative multipliers zero index N // 2
        with pytest.raises(FieldError, match="N must be even"):
            Grid(dim=1, L=L, N=63)
        with pytest.raises(FieldError, match="dim"):
            Grid(dim=3, L=L, N=32)
        with pytest.raises(FieldError, match="L must be a finite positive number, got 0.0"):
            Grid(dim=1, L=0.0, N=32)

    @pytest.mark.parametrize("dim,box,N,message", [
        (1, math.inf, 16, "L must be a finite positive number, got inf"),
        (1, math.nan, 16, "L must be a finite positive number, got nan"),
        (1, 10**400, 16, "L must be a finite positive number, got 1000"),
        (1, "6.28", 16, "L must be a finite positive number, got '6.28'"),
        (1, L, 16.5, "N must be an integer, got 16.5"),
        (1, L, 16.0, "N must be an integer, got 16.0"),
        (1, L, "16", "N must be an integer, got '16'"),
        (True, L, 16, "dim must be an integer, got True"),
        (1.0, L, 16, "dim must be an integer, got 1.0"),
    ])
    def test_direct_construction_refuses_what_a_header_refuses(self, dim, box, N, message):
        # the header's words, before any coercion: no int() truncation, no h = inf
        for make in (build_grid, Grid):
            with pytest.raises(FieldError, match=re.escape(message)):
                make(dim, box, N)

    def test_numpy_numbers_are_stored_as_int_and_float(self):
        g = build_grid(np.int64(2), np.float32(4.0), np.int32(16))
        assert g == Grid(2, 4.0, 16) and hash(g) == hash(Grid(2, 4.0, 16))
        assert [type(v) for v in (g.dim, g.L, g.N)] == [int, float, int]
        assert type(Grid(1, np.float64(L), np.uint8(32)).N) is int

    def test_wrapped_coordinates_exact_negation(self):
        g = build_grid(1, L, 64)
        (x,) = g.wrapped_coordinates()
        for i in range(1, g.N):
            assert x[i] == -x[g.N - i] or i == g.N // 2
        assert x[g.N // 2] == -g.L / 2.0
        assert x[0] == 0.0


class TestSpectralDerivative:
    def test_exact_on_trig_1d(self):
        g = build_grid(1, L, 64)
        f = GridScalar.from_function(g, lambda x: np.sin(3 * x))
        df = spectral_derivative(f, (1,))
        expected = 3 * np.cos(3 * g.axis_coordinates())
        assert np.max(np.abs(df.values - expected)) < 1e-12

    def test_exact_mixed_2d(self):
        g = build_grid(2, L, 32)
        f = GridScalar.from_function(g, lambda x, y: np.sin(2 * x) * np.cos(3 * y))
        dxy = spectral_derivative(f, (1, 1))
        xs, ys = g.coordinates()
        expected = -6 * np.cos(2 * xs) * np.sin(3 * ys)
        assert np.max(np.abs(dxy.values - expected)) < 1e-11

    def test_order_zero_is_identity(self):
        g = build_grid(1, L, 32)
        f = GridScalar.from_function(g, lambda x: np.cos(x) + 0.5)
        assert np.array_equal(spectral_derivative(f, (0,)).values, f.values)

    @pytest.mark.parametrize("order", [(0.5,), (1.9,), (True,), ("1",)])
    def test_a_non_integer_order_is_refused_before_any_transform(self, order, monkeypatch):
        # int() truncation read (0.5,) as 0 (f itself), (1.9,) as 1, True and "1" as 1
        def no_transform():
            raise AssertionError("transformed before the order was checked")

        monkeypatch.setattr(field, "_pocketfft", no_transform)
        f = GridScalar.from_function(build_grid(1, L, 16), np.sin)
        message = f"derivative order {order!r} has a non-integer entry {order[0]!r}"
        with pytest.raises(FieldError, match=re.escape(message)):
            spectral_derivative(f, order)
        with pytest.raises(FieldError, match="moment derivative"):
            kernel_moment(f, (0,), order)
        with pytest.raises(FieldError, match="moment power"):
            kernel_moment(f, order, (0,))

    def test_numpy_integer_orders_are_taken(self):
        f = GridScalar.from_function(build_grid(1, L, 16), np.sin)
        want = spectral_derivative(f, (1,)).values
        assert np.array_equal(spectral_derivative(f, (np.int64(1),)).values, want)
        assert np.array_equal(spectral_derivative(f, np.array([1])).values, want)

    def test_rejects_high_order(self):
        g = build_grid(2, L, 16)
        f = GridScalar.constant(g, 1.0)
        with pytest.raises(FieldError):
            spectral_derivative(f, (2, 1))

    def test_summation_by_parts_exact(self):
        rng = np.random.default_rng(7)
        g = build_grid(1, L, 64)
        x = g.axis_coordinates()
        f = GridScalar(g, sum(rng.normal() * np.sin(k * x + rng.normal()) for k in range(1, 9)))
        w = GridScalar(g, sum(rng.normal() * np.cos(k * x + rng.normal()) for k in range(1, 9)))
        # the duality pairing <f, w> = h sum f w
        lhs = float(np.sum(spectral_derivative(f, (1,)).values * w.values)) * g.cell_volume
        rhs = -float(np.sum(f.values * spectral_derivative(w, (1,)).values)) * g.cell_volume
        assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))

    def test_gradient_divergence_consistency(self):
        g = build_grid(2, L, 32)
        f = GridScalar.from_function(g, lambda x, y: np.sin(x) * np.sin(2 * y))
        lap = divergence(gradient(f))
        direct = (
            spectral_derivative(f, (2, 0)).values + spectral_derivative(f, (0, 2)).values
        )
        assert np.max(np.abs(lap.values - direct)) < 1e-11

    @pytest.mark.parametrize("shape", [(1, 64), (3, 64), (2, 64, 64), (4, 2, 64, 64)])
    def test_kernel_is_fftn_bit_for_bit(self, shape):
        # _spectral transforms one axis at a time; np.fft.fftn / ifftn over
        # the grid axes of the whole stack is the oracle, to the bit
        dim = 1 if len(shape) == 2 else 2
        g = build_grid(dim, L, 64)
        rng = np.random.default_rng(11)
        values = rng.standard_normal(shape)
        axes = tuple(range(len(shape) - dim, len(shape)))
        spectrum = np.fft.fftn(values, axes=axes)
        mults = [
            _derivative_multiplier(dim, L, 64, (1,) + (0,) * (dim - 1)),
            _derivative_multiplier(dim, L, 64, (1,) * dim),
            np.fft.fftn(rng.standard_normal(g.shape)),  # a convolution kernel's spectrum
        ]
        out = _spectral(g, values, mults)
        assert out.shape == shape[:-dim] + (3,) + g.shape
        assert np.array_equal(_spectral(g, values), spectrum)
        for m, mult in enumerate(mults):
            want = np.fft.ifftn(mult * spectrum, axes=axes).real
            assert np.array_equal(out[(..., m) + (slice(None),) * dim], want)

    @pytest.mark.parametrize("dim,N", [(1, 64), (2, 16)])
    def test_stacks_match_one_derivative_at_a_time(self, dim, N):
        # a (3, dim) stack of vector fields: each entry bit for bit the
        # spectral_derivative of one component, divergence summed from 0.0
        g = build_grid(dim, L, N)
        values = np.random.default_rng(4).standard_normal((3, dim) + g.shape)
        div = divergence_stack(g, values)
        hess = hessian_stack(g, values)
        assert div.shape == (3,) + g.shape and hess.shape == (3, dim, dim, dim) + g.shape
        for r in range(3):
            total = np.zeros(g.shape)
            for i in range(dim):
                e_i = tuple(int(a == i) for a in range(dim))
                total += spectral_derivative(GridScalar(g, values[r, i]), e_i).values
                for j in range(dim):
                    for k in range(dim):
                        beta = [0] * dim
                        beta[j] += 1
                        beta[k] += 1
                        want = spectral_derivative(GridScalar(g, values[r, i]), beta).values
                        assert np.array_equal(hess[r, i, j, k], want)
            assert np.array_equal(div[r], total)
            assert np.array_equal(divergence(GridVector(g, values[r])).values, total)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape, dtype and bytes: every sign of zero and every nan payload too."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestPocketfftPath:
    """_spectral and _synthesize call numpy's private pocketfft gufuncs; np.fft's
    public functions are the oracle, bit for bit, on every numpy this runs on."""

    CASES = [(1, 64, ()), (1, 64, (3,)), (2, 32, ()), (2, 32, (2, 3)), (2, 64, ()), (2, 64, (2,))]

    @staticmethod
    def stack(g, heads, complex_input, seed=17):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(heads + g.shape)
        if complex_input:
            values = values + 1j * rng.standard_normal(values.shape)
        return values, tuple(range(-g.dim, 0))

    @pytest.mark.parametrize("dim,N,heads", CASES)
    @pytest.mark.parametrize("complex_input", [False, True])
    def test_halves_equal_fftn_and_ifftn(self, dim, N, heads, complex_input):
        g = build_grid(dim, L, N)
        values, axes = self.stack(g, heads, complex_input)
        spectrum = np.fft.fftn(values, axes=axes)
        assert same_bits(_spectral(g, values), spectrum)
        want = np.fft.ifftn(spectrum, axes=axes)
        assert same_bits(_synthesize(g, spectrum), want.real)
        assert same_bits(spectrum, np.fft.fftn(values, axes=axes))  # the input is kept

    @pytest.mark.parametrize("dim,N,heads", CASES)
    @pytest.mark.parametrize("complex_input", [False, True])
    def test_each_multiplier_equals_its_np_fft_synthesis(self, dim, N, heads, complex_input):
        g = build_grid(dim, L, N)
        values, axes = self.stack(g, heads, complex_input)
        mults = field._partials(g, [(0,), (dim - 1, dim - 1), ()])
        spectrum = np.fft.fftn(values, axes=axes)
        got = _spectral(g, values, mults)
        cells = (slice(None),) * dim
        for m, mult in enumerate(mults):
            assert same_bits(got[(..., m) + cells], np.fft.ifftn(mult * spectrum, axes=axes).real)

    @pytest.mark.parametrize("dim,N,heads", CASES)
    def test_into_out_and_in_place(self, dim, N, heads):
        # the march's calls: a forward transform into a buffer of a real
        # source, and inverse transforms into a second buffer and in place
        g = build_grid(dim, L, N)
        values, axes = self.stack(g, heads, False)
        buffer = np.empty(values.shape, dtype=complex)
        spectrum = _spectral(g, values, out=buffer)
        assert spectrum is buffer and same_bits(buffer, np.fft.fftn(values, axes=axes))
        want = np.fft.ifftn(buffer, axes=axes)
        into = np.empty_like(buffer)
        assert same_bits(_synthesize(g, buffer, out=into), want.real)
        assert same_bits(into, want)
        real = _synthesize(g, buffer, out=buffer)
        assert np.shares_memory(real, buffer) and same_bits(buffer, want)

    @pytest.mark.parametrize("dim,N", [(1, 64), (2, 32), (2, 64)])
    def test_non_contiguous_component_views(self, dim, N):
        # divergence_stack transforms values[..., i, :, ...]: a strided view
        # (in 1-d, of a stack itself cut from a wider one)
        g = build_grid(dim, L, N)
        values = np.random.default_rng(5).standard_normal((3, 2) + g.shape)[:, :dim]
        axes = tuple(range(-dim, 0))
        cells = (slice(None),) * dim
        for i in range(dim):
            view = values[(..., i) + cells]
            assert not view.flags.c_contiguous
            spectrum, want = _spectral(g, view), np.fft.fftn(view, axes=axes)
            assert same_bits(spectrum, want) and spectrum.strides == want.strides
            mult = field._partials(g, [(i,)])[0]
            got = _spectral(g, view, [mult])[:, 0]
            assert same_bits(got, np.fft.ifftn(mult * want, axes=axes).real)
        want = sum(
            np.fft.ifftn(field._partials(g, [(i,)])[0] * np.fft.fftn(values[:, i], axes=axes),
                         axes=axes).real
            for i in range(dim)
        )
        assert same_bits(divergence_stack(g, values), 0.0 + want)

    def test_the_gufuncs_bound_are_np_ffts(self):
        from numpy.fft import _pocketfft_umath

        assert field._pocketfft() == (_pocketfft_umath.fft, _pocketfft_umath.ifft)

    @pytest.mark.parametrize("stub", [None, types.ModuleType("numpy.fft._pocketfft_umath")])
    def test_a_numpy_without_the_gufuncs_is_named(self, stub, monkeypatch):
        # None: the module is missing; an empty module: fft and ifft are
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        pin = re.search(r'"(numpy[^"]*)"', pyproject.read_text()).group(1)
        monkeypatch.setitem(sys.modules, "numpy.fft._pocketfft_umath", stub)
        with pytest.raises(ImportError, match="pocketfft gufuncs fft and ifft") as refused:
            field._pocketfft.__wrapped__()
        assert f"numpy {np.__version__} " in str(refused.value)
        assert f"pyproject.toml pins {pin}" in str(refused.value)


class TestMollifier:
    def test_unit_discrete_mass(self):
        for dim, N in ((1, 64), (2, 32)):
            g = build_grid(dim, L, N)
            k = mollifier(g, L / 8)
            assert abs(k.values.sum() * g.cell_volume - 1.0) < 1e-14

    def test_nonnegative_and_compact_support(self):
        g = build_grid(1, L, 128)
        eps = L / 8
        k = mollifier(g, eps)
        (x,) = g.wrapped_coordinates()
        assert np.all(k.values >= 0.0)
        assert np.all(k.values[x * x >= eps * eps] == 0.0)

    def test_bitwise_even_symmetry(self):
        for dim, N in ((1, 64), (2, 32)):
            g = build_grid(dim, L, N)
            k = mollifier(g, L / 8)
            mirrored = k.values
            for axis in range(dim):
                idx = (-np.arange(N)) % N
                mirrored = np.take(mirrored, idx, axis=axis)
            assert np.array_equal(mirrored, k.values)

    def test_epsilon_bounds_enforced(self):
        g = build_grid(1, L, 32)
        with pytest.raises(FieldError):
            mollifier(g, g.h)
        with pytest.raises(FieldError):
            mollifier(g, L / 2)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_epsilon_refused_by_name(self, eps):
        # nan passes both range tests, and would give an all-nan kernel
        with pytest.raises(FieldError, match=f"epsilon must be finite, got {eps}"):
            mollifier(build_grid(1, L, 32), eps)

    @pytest.mark.parametrize("eps,named", [
        ("0.5", "epsilon must be a number, got '0.5'"),
        (True, "epsilon must be a number, got True"),
        (10**400, "epsilon must be finite, got 1"),
    ])
    def test_an_epsilon_that_is_no_finite_number_is_refused_by_name(self, eps, named):
        # a string or a bool once went through float() and built a kernel
        with pytest.raises(FieldError, match=f"^{re.escape(named)}"):
            mollifier(build_grid(1, L, 32), eps)

    def test_convolution_is_averaging(self):
        g = build_grid(1, L, 64)
        k = mollifier(g, L / 8)
        one = GridScalar.constant(g, 1.0)
        out = convolve(k, one)
        assert np.max(np.abs(out.values - 1.0)) < 1e-13

    def test_convolution_eigenfunction(self):
        # Plane waves are eigenfunctions; the eigenvalue is a plain cosine sum.
        g = build_grid(1, L, 64)
        k = mollifier(g, L / 8)
        (x,) = g.wrapped_coordinates()
        for mode in (1, 3):
            factor = float((k.values * np.cos(mode * x)).sum() * g.cell_volume)
            f = GridScalar.from_function(g, lambda x_: np.sin(mode * x_))
            out = convolve(k, f)
            expected = factor * np.sin(mode * g.axis_coordinates())
            assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_convolution_preserves_mass(self):
        g = build_grid(2, L, 32)
        k = mollifier(g, L / 8)
        rng = np.random.default_rng(3)
        xs, ys = g.coordinates()
        f = GridScalar(g, np.sin(xs) * np.cos(2 * ys) + 0.1 * rng.standard_normal(g.shape))
        assert abs(convolve(k, f).values.sum() - f.values.sum()) < 1e-10 * g.N**2


class TestKernelMoments:
    """Spectral moments against the by-parts oracle and its closed forms."""

    # The spectral path interpolates the bump trigonometrically, so agreement
    # with the by-parts oracle is limited by that interpolation (measured
    # ~2e-5 at 1D/N=128 and ~4e-4 at 2D/N=64, both for eps = L/8).

    def test_oracle_agreement_1d(self):
        g = build_grid(1, L, 128)
        k = mollifier(g, L / 8)
        for alpha in ((0,), (1,), (2,)):
            for beta in ((0,), (1,), (2,)):
                got = kernel_moment(k, alpha, beta)
                want = byparts_moment(k, alpha, beta)
                assert abs(got - want) < 1e-3, (alpha, beta, got, want)

    def test_oracle_agreement_2d(self):
        g = build_grid(2, L, 64)
        k = mollifier(g, L / 8)
        cases = [
            ((0, 0), (1, 0)),
            ((1, 0), (1, 0)),
            ((0, 1), (1, 0)),
            ((1, 1), (1, 1)),
            ((2, 0), (2, 0)),
            ((2, 0), (1, 1)),
            ((1, 1), (2, 0)),
            ((0, 2), (1, 1)),
        ]
        for alpha, beta in cases:
            got = kernel_moment(k, alpha, beta)
            want = byparts_moment(k, alpha, beta)
            assert abs(got - want) < 2e-3, (alpha, beta, got, want)

    def test_closed_forms_1d(self):
        # integral x d(eta) = -1 and integral x^2 d^2(eta) = 2.
        g = build_grid(1, L, 128)
        k = mollifier(g, L / 8)
        assert abs(kernel_moment(k, (0,), (0,)) - 1.0) < 1e-13
        assert abs(kernel_moment(k, (1,), (1,)) + 1.0) < 1e-4
        assert abs(kernel_moment(k, (2,), (2,)) - 2.0) < 1e-4
        assert abs(kernel_moment(k, (1,), (0,))) < 1e-14
        assert abs(kernel_moment(k, (0,), (1,))) < 1e-10

    def test_closed_forms_2d(self):
        # integral x_i d_j eta = -delta_ij;
        # integral x_i x_j d_k d_l eta = delta_ik delta_jl + delta_il delta_jk.
        g = build_grid(2, L, 64)
        k = mollifier(g, L / 8)
        assert abs(kernel_moment(k, (1, 0), (1, 0)) + 1.0) < 2e-3
        assert abs(kernel_moment(k, (1, 0), (0, 1))) < 1e-7
        assert abs(kernel_moment(k, (1, 1), (1, 1)) - 1.0) < 2e-3
        assert abs(kernel_moment(k, (2, 0), (2, 0)) - 2.0) < 2e-3
        assert abs(kernel_moment(k, (2, 0), (0, 2))) < 1e-7
        assert abs(kernel_moment(k, (1, 1), (2, 0))) < 1e-7

    def test_moment_scale_invariance(self):
        # The normalized first moment is epsilon-independent up to O(h/eps).
        g = build_grid(1, L, 256)
        vals = [kernel_moment(mollifier(g, L / f), (1,), (1,)) for f in (8, 12, 16)]
        assert max(abs(v - vals[0]) for v in vals) < 1e-4


class TestNorms:
    def test_constant_norms(self):
        g = build_grid(2, L, 32)
        f = GridScalar.constant(g, -3.0)
        assert abs(lp_norm(f, 1) - 3.0 * L**2) < 1e-10
        assert abs(lp_norm(f, 2) - 3.0 * L) < 1e-10
        assert lp_norm(f, math.inf) == 3.0
        assert abs(lp_norm(f, 2, central_half(g)) - 3.0 * (L / 2)) < 1e-10

    def test_region_mask_size(self):
        assert central_half(build_grid(1, L, 64)).sum() == 32
        half = central_half(build_grid(2, L, 16))
        assert half.sum() == 64 and half[4:12, 4:12].all()

    def test_invalid_p(self):
        g = build_grid(1, L, 32)
        with pytest.raises(FieldError):
            lp_norm(GridScalar.constant(g, 1.0), 0.5)

    @given(
        scale=st.floats(-5, 5, allow_nan=False),
        seed=st.integers(0, 2**16),
        p=st.sampled_from([1.0, 2.0, math.inf]),
    )
    @settings(max_examples=40, deadline=None)
    def test_homogeneity_and_triangle(self, scale, seed, p):
        g = build_grid(1, L, 16)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(g.shape)
        b = rng.standard_normal(g.shape)
        na = lp_norm(GridScalar(g, a), p)
        assert abs(lp_norm(GridScalar(g, scale * a), p) - abs(scale) * na) < 1e-9 * (1 + na)
        lhs = lp_norm(GridScalar(g, a + b), p)
        assert lhs <= na + lp_norm(GridScalar(g, b), p) + 1e-12


def reference_lp_norm(values, p, cell_volume):
    """One field's norm as lp_norm took it before the block kernel."""
    a = np.abs(values)
    if math.isinf(p):
        return float(a.max()) if a.size else 0.0
    return float((a**p).sum() * cell_volume) ** (1.0 / p)


NORM_GRIDS = [
    build_grid(1, L, 64), build_grid(1, L, 128), build_grid(2, L, 16), build_grid(2, L, 64)
]
NORM_EXPONENTS = (1.0, 2.0, 3.5, 4.0, 8.0, math.inf)


class TestNormStack:
    """lp_norm_stack against one field at a time, bit for bit.  129 rows of
    64 nodes span more than one block of the block rule (32 rows)."""

    @pytest.mark.parametrize("grid", NORM_GRIDS, ids=["64", "128", "16x16", "64x64"])
    @pytest.mark.parametrize("rows", [1, 7, 33, 129])
    def test_rows_equal_lp_norm(self, grid, rows):
        rng = np.random.default_rng(rows * grid.N)
        scales = rng.uniform(0.1, 10.0, (rows,) + (1,) * grid.dim)
        values = scales * rng.standard_normal((rows,) + grid.shape)
        for p in NORM_EXPONENTS:
            got = [v.hex() for v in lp_norm_stack(grid, values, p)]
            assert got == [reference_lp_norm(row, p, grid.cell_volume).hex() for row in values]
            assert got == [lp_norm(GridScalar(grid, row), p).hex() for row in values]

    def test_region_and_empty_region(self):
        g = build_grid(2, L, 16)
        f = GridScalar(g, np.random.default_rng(4).standard_normal(g.shape))
        mask = central_half(g)
        for p in NORM_EXPONENTS:
            want = reference_lp_norm(f.values[mask], p, g.cell_volume)
            assert lp_norm(f, p, mask).hex() == want.hex()
        empty = np.zeros(g.shape, dtype=bool)
        assert [lp_norm(f, p, empty) for p in (1.0, math.inf)] == [0.0, 0.0]
        for other in (central_half(build_grid(2, L, 32)), mask.astype(int)):
            with pytest.raises(FieldError, match="boolean mask of shape"):
                lp_norm(f, 2.0, other)

    def test_refuses_non_finite_values_and_small_p(self):
        g = build_grid(1, L, 16)
        values = np.ones((3,) + g.shape)
        values[1, 5] = np.inf
        with pytest.raises(FieldError, match="non-finite"):
            lp_norm_stack(g, values, 2.0)
        with pytest.raises(FieldError, match="p must be >= 1"):
            lp_norm_stack(g, np.ones((3,) + g.shape), 0.5)

    @pytest.mark.parametrize("p,named", [
        (math.nan, r"exponents must be positive, got \(p\) = \(nan\)"),
        (True, r"exponents must be numbers, got \(p\) = \(True\)"),
        ("2", r"exponents must be numbers, got \(p\) = \('2'\)"),
        (None, r"exponents must be numbers, got \(p\) = \(None\)"),
    ])
    def test_an_exponent_that_is_no_number_is_refused_by_name(self, p, named):
        # nan read as nan and True as the L1 norm; inf stays the sup norm
        g = build_grid(1, L, 16)
        f = GridScalar(g, np.sin(g.axis_coordinates()))
        with pytest.raises(FieldError, match=f"^{named}$"):
            lp_norm(f, p)
        assert lp_norm(f, math.inf) == np.abs(f.values).max()


class TestTimeSlices:
    def _tgv(self):
        g = build_grid(1, L, 16)
        times = np.linspace(0.0, 1.0, 5)
        rows = np.stack([GridVector.constant(g, [float(j)]).values for j in range(5)])
        return TimeGridVector(g, times, rows, np.arange(5))

    def test_left_endpoint_lookup(self):
        tgv = self._tgv()
        assert tgv.slice_at(0.0).values[0, 0] == 0.0
        assert tgv.slice_at(0.3).values[0, 0] == 1.0
        assert tgv.slice_at(0.25).values[0, 0] == 1.0
        assert tgv.slice_at(1.0).values[0, 0] == 4.0

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_refused_by_name(self, t):
        # nan sorts past every sample, so the lookup alone would read the last slice
        tgv = self._tgv()
        for read in (tgv.slice_at, tgv.rows_at, lambda t: tgv.rows_at([0.5, t])):
            with pytest.raises(FieldError, match=rf"time {t} outside \[0, 1.0\]"):
                read(t)

    def test_distinct_of_a_mix(self):
        # three distinct slices, two of equal value, read in and out of time order
        g = build_grid(1, L, 16)
        rows = np.stack([GridVector.constant(g, [v]).values for v in (1.0, 2.0, 3.0)])
        tgv = TimeGridVector(g, np.linspace(0.0, 1.0, 7), rows, [0, 0, 1, 0, 2, 2, 1])
        assert tgv.index.tolist() == [0, 0, 1, 0, 2, 2, 1]
        assert tgv.slice_indices([0.0, 0.4, 1.0]).tolist() == [0, 2, 6]
        got = [tgv.slice_at(t).values[0, 0] for t in tgv.times]
        assert got == [1.0, 1.0, 2.0, 1.0, 3.0, 3.0, 2.0]

    def test_slices_share_one_object_per_row(self):
        g = build_grid(1, L, 16)
        rows = np.stack([GridVector.constant(g, [v]).values for v in (1.0, 2.0, 1.0)])
        tgv = TimeGridVector(g, np.linspace(0.0, 1.0, 6), rows, [0, 0, 1, 2, 2, 0])
        slices = tgv.slices
        assert len(slices) == 6
        assert all(isinstance(s, GridVector) and s.grid == g for s in slices)
        # equal values in separate rows stay apart: one object per row, not per value
        assert len({id(s) for s in slices}) == 3
        assert slices[0] is slices[1] is slices[5]
        assert slices[3] is slices[4] and slices[3] is not slices[0]
        for s, row in zip(slices, tgv.index):
            assert np.shares_memory(s.values, tgv.values[row])

    @pytest.mark.parametrize("block_points", [2048, 32])
    def test_rows_at_and_per_sample_read_slice_at(self, monkeypatch, block_points):
        # five rows, read out of order, at the samples and between them; 32
        # points make blocks of two rows on 16 nodes
        monkeypatch.setattr(field, "_BLOCK_POINTS", block_points)
        g = build_grid(1, L, 16)
        rows = np.random.default_rng(3).normal(size=(5, 1, 16))
        tgv = TimeGridVector(g, np.linspace(0.0, 1.0, 9), rows, [0, 1, 1, 2, 3, 0, 4, 4, 2])
        times = [0.0, 0.05, 0.125, 0.3, 0.51, 0.8, 0.99, 1.0]
        want = [tgv.slice_at(t).values for t in times]
        assert tgv.rows_at(times).tolist() == [0, 0, 1, 1, 3, 4, 4, 2]
        for row, w in zip(tgv.rows_at(times), want):
            assert np.array_equal(tgv.values[row], w)
        blocks = []

        def copies(block):
            blocks.append(len(block))
            return list(block.copy())

        got = tgv.per_sample(copies, times)
        assert len(got) == len(times)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert blocks == ([5] if block_points == 2048 else [2, 2, 1])
        every = tgv.per_sample(copies)
        assert len(every) == len(tgv.times)
        assert all(np.array_equal(a, tgv.slice_at(t).values) for a, t in zip(every, tgv.times))

    def test_distinct_of_shared_slices(self):
        # a field constant in time holds its one slice once
        g = build_grid(1, L, 16)
        one = GridVector.constant(g, [0.3])
        tgv = presets.sample_constant_in_time(one, 1.0, 4)
        assert tgv.values.shape == (1, 1, 16)
        assert np.array_equal(tgv.values[0], one.values)
        assert tgv.index.tolist() == [0] * 5

    def test_validation(self):
        g = build_grid(1, L, 16)
        row = GridVector.constant(g, [0.0]).values[None]
        with pytest.raises(FieldError, match="first time"):
            TimeGridVector(g, [0.5, 1.0], row, [0, 0])
        with pytest.raises(FieldError, match="strictly increasing"):
            TimeGridVector(g, [0.0, 0.0], row, [0, 0])
        with pytest.raises(FieldError, match=r"slice values shape \(1, 2, 16\)"):
            TimeGridVector(g, [0.0, 1.0], np.zeros((1, 2, 16)), [0, 0])
        with pytest.raises(FieldError, match="rows >= 1"):
            TimeGridVector(g, [0.0, 1.0], np.zeros((0, 1, 16)), [0, 0])

    @pytest.mark.parametrize("index", [[0], [0, 0, 0], [[0, 0]], [0.0, 0.0]])
    def test_bad_index_length_or_type(self, index):
        g = build_grid(1, L, 16)
        with pytest.raises(FieldError, match="index needs one integer row per time sample"):
            TimeGridVector(g, [0.0, 1.0], np.zeros((1, 1, 16)), index)

    @pytest.mark.parametrize("index", [[0, 2], [-1, 0]])
    def test_index_out_of_range(self, index):
        g = build_grid(1, L, 16)
        with pytest.raises(FieldError, match=r"index out of range: rows are 0\.\.1"):
            TimeGridVector(g, [0.0, 1.0], np.zeros((2, 1, 16)), index)

    def test_unused_row(self):
        # a row no sample reads would still reach the per-row passes: here
        # build_diffeo's lip, which the 2 sin x row alone pushes past 1
        g = build_grid(1, L, 16)
        x = g.coordinates()[0]
        rows = np.stack([0.1 * np.sin(x), 2.0 * np.sin(x)])[:, None]
        with pytest.raises(FieldError, match="row 1 of 2 is indexed by no time sample"):
            TimeGridVector(g, [0.0, 1.0], rows, [0, 0])
        with pytest.raises(FieldError, match="row 0 of 3 is indexed by no time sample"):
            TimeGridVector(g, [0.0, 0.5, 1.0], np.zeros((3, 1, 16)), [1, 2, 2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values(self, bad):
        g = build_grid(1, L, 16)
        rows = np.zeros((2, 1, 16))
        rows[1, 0, 3] = bad
        with pytest.raises(FieldError, match="time-sliced field contains non-finite values"):
            TimeGridVector(g, [0.0, 1.0], rows, [0, 0])


class TestDivergenceAndTwist:
    @pytest.mark.parametrize("dim, lead", [(1, ()), (1, (3,)), (2, ()), (2, (2, 3))])
    def test_bits_of_divergence_and_the_hand_contraction(self, dim, lead):
        g = build_grid(dim, L, 16)
        v = np.random.default_rng(dim).normal(size=lead + (dim,) + g.shape)
        div, twist = divergence_and_twist(g, jacobian_stack(g, v))
        assert div.shape == twist.shape == lead + g.shape
        assert np.array_equal(div, divergence_stack(g, v))
        for n in np.ndindex(*lead):
            one = GridVector(g, v[n])
            jac = jacobian(one)
            assert np.array_equal(div[n], divergence(one).values)
            assert np.array_equal(twist[n], np.einsum("ij...,ji...->...", jac, jac))
        if dim == 1:
            assert np.array_equal(twist, div**2)

    def test_rotation_and_shear(self):
        # v = (-y, x) twists by -2 and v = (y, 0) by 0, both divergence-free;
        # v = (x, y) has Div 2 and twist 2 (trigonometric stand-ins on the torus)
        g = build_grid(2, L, 32)
        x, y = g.coordinates()
        cases = [
            ((-np.sin(y), np.sin(x)), 0.0, -2.0 * np.cos(x) * np.cos(y)),
            ((np.sin(y), np.zeros_like(x)), 0.0, 0.0),
            ((np.sin(x), np.sin(y)), np.cos(x) + np.cos(y), np.cos(x) ** 2 + np.cos(y) ** 2),
        ]
        for comps, want_div, want_twist in cases:
            div, twist = divergence_and_twist(g, jacobian_stack(g, np.stack(comps)))
            assert np.abs(div - want_div).max() < 1e-12
            assert np.abs(twist - want_twist).max() < 1e-12


class TestFieldIO:
    def test_scalar_roundtrip(self, tmp_path):
        g = build_grid(2, L, 16)
        rng = np.random.default_rng(5)
        f = GridScalar(g, rng.standard_normal(g.shape))
        p = tmp_path / "f.fld"
        save_field(p, f)
        back = load_field(p)
        assert isinstance(back, GridScalar)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_time_vector_roundtrip(self, tmp_path):
        g = build_grid(1, L, 16)
        rng = np.random.default_rng(6)
        times = np.array([0.0, 0.5, 1.0, 1.5])
        rows = rng.standard_normal((2, 1, 16))
        tgv = TimeGridVector(g, times, rows, [1, 0, 0, 1])
        p = tmp_path / "b.fld"
        save_field(p, tgv)
        back = load_field(p)
        assert isinstance(back, TimeGridVector)
        assert np.array_equal(back.times, times)
        # the payload is one block per time sample, read back one row each
        assert back.index.tolist() == [0, 1, 2, 3]
        assert np.array_equal(back.values, rows[[1, 0, 0, 1]])

    def test_one_row_field_bytes(self, tmp_path):
        g = build_grid(1, L, 16)
        gv = GridVector.from_functions(g, [lambda x: np.sin(x) + 0.25])
        p = tmp_path / "b.fld"
        save_field(p, presets.sample_constant_in_time(gv, 0.5, 4))
        raw = p.read_bytes()
        header = (
            b'{"L": 6.283185307179586, "N": 16, "components": 1, "dim": 1, '
            b'"times": [0.0, 0.125, 0.25, 0.375, 0.5]}\n'
        )
        assert raw == header + np.tile(gv.values.astype("<f8"), 5).tobytes()
        # the bytes that a list of five references to gv wrote before rows existed
        want = "4da6f6e08548280f63b1fd48222a97e8b532e5b25e507a6b6bcddf90153857fe"
        assert hashlib.sha256(raw).hexdigest() == want

    def test_header_is_one_json_line(self, tmp_path):
        import json

        g = build_grid(1, L, 16)
        p = tmp_path / "f.fld"
        save_field(p, GridScalar.constant(g, 2.0))
        with open(p, "rb") as fh:
            header = json.loads(fh.readline())
        assert header["dim"] == 1 and header["N"] == 16 and header["components"] == 1

    @pytest.mark.parametrize("delta", [-8, 8, -3])
    def test_payload_size_checked(self, tmp_path, delta):
        g = build_grid(1, L, 16)
        p = tmp_path / "f.fld"
        save_field(p, GridScalar.constant(g, 2.0))
        raw = p.read_bytes()
        p.write_bytes(raw[:delta] if delta < 0 else raw + bytes(delta))
        with pytest.raises(FieldError, match=f"payload has {128 + delta} bytes.*16 float64"):
            load_field(p)
