"""Commutator tests.

Two oracles anchor this file:

* a formal small-epsilon expansion (sympy) that fixes the sign of the T-limit
  and the index pairing in the S-limit from kernel moments alone;
* an O(N^2) double-sum kernel quadrature that must agree with the FFT
  implementation to near round-off, because both are circular convolutions
  against the same differentiated kernel samples.

The chain-rule defect identities (R1/R2) are certified symbolically first and
then numerically, with sign-flip anti-tests.
"""

from __future__ import annotations

import math
import types

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from renormlab import commutator
from renormlab.field import (
    FieldError,
    GridScalar,
    GridVector,
    build_grid,
    central_half,
    convolve,
    divergence,
    divergence_and_twist,
    gradient,
    jacobian,
    lp_norm,
    mollifier,
    spectral_derivative,
)
from renormlab.commutator import (
    LIMIT_SIGN_T,
    CommutatorStudy,
    commutator_limits,
    convergence_study,
    mollify,
    op_S,
    op_T,
    r1_reconstruction,
    r1_remainder,
    r2_reconstruction,
    r2_remainder,
)

L = 2.0 * math.pi

TANH_RENORM = types.SimpleNamespace(
    derivatives=lambda z: (np.tanh(z), 1.0 / np.cosh(z) ** 2, -2.0 * np.tanh(z) / np.cosh(z) ** 2),
)


def formal_kernel_integral(expr, z, deriv_order, moments):
    """Integrate expr(z) * eta^(deriv_order)(z) dz formally.

    Repeated integration by parts gives
        integral z^k eta^(b) dz = (-1)^b * k!/(k-b)! * mu_{k-b}   (0 if b > k)
    with mu_j the plain kernel moments; for a symmetric unit-mass kernel
    mu_0 = 1 and odd moments vanish.
    """
    poly = sp.Poly(sp.expand(expr), z)
    total = sp.Integer(0)
    for (k,), coeff in poly.terms():
        if deriv_order > k:
            continue
        factor = sp.Integer(-1) ** deriv_order * sp.factorial(k) / sp.factorial(k - deriv_order)
        total += coeff * factor * moments[k - deriv_order]
    return sp.simplify(total)


class TestSymbolicOracle:
    """Sign and structure of the limits, fixed independently of any grid."""

    def test_t_limit_sign_from_expansion(self):
        x, z, e = sp.symbols("x z epsilon")
        sig = sp.Function("sigma")
        f = sp.Function("f")
        m2, m4 = sp.symbols("m2 m4", positive=True)
        moments = {0: sp.Integer(1), 1: 0, 2: m2, 3: 0, 4: m4, 5: 0}

        integrand = (sig(x) - sig(x - e * z)) * f(x - e * z)
        series = sp.series(integrand, e, 0, 4).removeO().expand()
        t_series = sp.expand(formal_kernel_integral(series, z, 1, moments) / e)

        limit = sp.simplify(t_series.subs(e, 0))
        assert sp.simplify(limit - (-sp.diff(sig(x), x) * f(x))) == 0
        assert LIMIT_SIGN_T == -1.0
        # correction starts at epsilon^2 (odd kernel moments vanish)
        assert sp.simplify(sp.diff(t_series, e).subs(e, 0)) == 0

    def test_s_limit_from_expansion(self):
        x, z, e = sp.symbols("x z epsilon")
        sig = sp.Function("sigma")
        f = sp.Function("f")
        m2, m4 = sp.symbols("m2 m4", positive=True)
        moments = {0: sp.Integer(1), 1: 0, 2: m2, 3: 0, 4: m4, 5: 0, 6: 0}

        integrand = (sig(x) - sig(x - e * z)) ** 2 * f(x - e * z)
        series = sp.series(integrand, e, 0, 5).removeO().expand()
        s_series = sp.expand(formal_kernel_integral(series, z, 2, moments) / (2 * e**2))

        limit = sp.simplify(s_series.subs(e, 0))
        assert sp.simplify(limit - sp.diff(sig(x), x) ** 2 * f(x)) == 0
        assert sp.simplify(sp.diff(s_series, e).subs(e, 0)) == 0

    @staticmethod
    def _operators_1d():
        x = sp.Symbol("x")
        sig = sp.Function("sigma")(x)
        ops = {
            "grad_s": lambda g: sig * sp.diff(g, x),
            "div_s": lambda g: sp.diff(sig * g, x),
            "L": lambda g: sp.Rational(1, 2) * sig**2 * sp.diff(g, x, 2),
            "Lstar": lambda g: sp.Rational(1, 2) * sp.diff(sig**2 * g, x, 2),
            "Q": 2 * sp.diff(sig, x) ** 2,
            "divsig": sp.diff(sig, x),
            "x": x,
        }
        return ops

    def test_r1_identity_symbolic(self):
        ops = self._operators_1d()
        x = ops["x"]
        z = sp.Symbol("z")
        u = sp.Function("u")(x)
        D = sp.Function("D")(x)
        Gam = sp.Function("Gamma")
        Gp = sp.diff(Gam(z), z).subs(z, u)

        r1 = ops["div_s"](Gam(u)) - Gp * D
        t = ops["grad_s"](u) - D
        assert sp.simplify(r1 - (Gp * t + ops["divsig"] * Gam(u))) == 0
        assert sp.simplify(r1 - (Gp * t - ops["divsig"] * Gam(u))) != 0

    def test_r2_identity_symbolic_1d(self):
        ops = self._operators_1d()
        x = ops["x"]
        z = sp.Symbol("z")
        u = sp.Function("u")(x)
        D = sp.Function("D")(x)
        A = sp.Function("A")(x)
        Gam = sp.Function("Gamma")
        Gp = sp.diff(Gam(z), z).subs(z, u)
        Gpp = sp.diff(Gam(z), z, 2).subs(z, u)

        t = ops["grad_s"](u) - D
        s = ops["L"](u) - ops["grad_s"](D) + A
        r1 = ops["div_s"](Gam(u)) - Gp * D
        r2 = Gp * A - ops["Lstar"](Gam(u)) + sp.Rational(1, 2) * Gpp * D**2

        rebuilt = (
            Gp * s
            + sp.Rational(1, 2) * Gpp * t**2
            - ops["grad_s"](r1)
            - sp.Rational(1, 2) * Gam(u) * ops["Q"]
        )
        assert sp.simplify(sp.expand(r2 - rebuilt)) == 0

    def test_r2_identity_symbolic_2d(self):
        x, y, z = sp.symbols("x y z")
        X = [x, y]
        sig = [sp.Function("s1")(x, y), sp.Function("s2")(x, y)]
        u = sp.Function("u")(x, y)
        D = sp.Function("D")(x, y)
        A = sp.Function("A")(x, y)
        Gam = sp.Function("Gamma")
        Gp = sp.diff(Gam(z), z).subs(z, u)
        Gpp = sp.diff(Gam(z), z, 2).subs(z, u)

        def grad_s(g):
            return sum(sig[i] * sp.diff(g, X[i]) for i in range(2))

        def div_s(g):
            return sum(sp.diff(sig[i] * g, X[i]) for i in range(2))

        def big_l(g):
            return sp.Rational(1, 2) * sum(
                sig[i] * sig[j] * sp.diff(g, X[i], X[j]) for i in range(2) for j in range(2)
            )

        def big_l_star(g):
            return sp.Rational(1, 2) * sum(
                sp.diff(sig[i] * sig[j] * g, X[i], X[j]) for i in range(2) for j in range(2)
            )

        div_sig = sum(sp.diff(sig[i], X[i]) for i in range(2))
        q = (
            sum(sp.diff(sig[i], X[j]) * sp.diff(sig[j], X[i]) for i in range(2) for j in range(2))
            + div_sig**2
        )

        t = grad_s(u) - D
        s = big_l(u) - grad_s(D) + A
        r1 = div_s(Gam(u)) - Gp * D
        r2 = Gp * A - big_l_star(Gam(u)) + sp.Rational(1, 2) * Gpp * D**2
        rebuilt = Gp * s + sp.Rational(1, 2) * Gpp * t**2 - grad_s(r1) - sp.Rational(1, 2) * Gam(u) * q
        assert sp.simplify(sp.expand(r2 - rebuilt)) == 0


class TestExamples:
    def test_constant_sigma_annihilates_t(self):
        g = build_grid(1, L, 64)
        sig = GridVector.constant(g, [0.7])
        f = GridScalar.from_function(g, lambda x: np.cos(x) + 0.3 * np.sin(2 * x))
        assert np.max(np.abs(op_T(mollify(sig, f, L / 8)).values)) < 1e-10

    def test_constant_sigma_annihilates_s(self):
        g = build_grid(1, L, 64)
        sig = GridVector.constant(g, [-1.3])
        f = GridScalar.from_function(g, lambda x: np.cos(x))
        assert np.max(np.abs(op_S(mollify(sig, f, L / 8)).values)) < 1e-9

    def test_zero_sigma_is_exactly_zero(self):
        g = build_grid(1, L, 32)
        sig = GridVector.constant(g, [0.0])
        f = GridScalar.from_function(g, np.cos)
        assert np.all(op_S(mollify(sig, f, L / 8)).values == 0.0)

    def test_unit_f_reduces_to_mollified_divergence(self):
        g = build_grid(1, L, 64)
        sig = GridVector.from_functions(g, [lambda x: np.sin(x) + 0.2 * np.cos(3 * x)])
        one = GridScalar.constant(g, 1.0)
        eps = L / 8
        got = op_T(mollify(sig, one, eps))
        want = -convolve(mollifier(g, eps), divergence(sig)).values
        assert np.max(np.abs(got.values - want)) < 1e-12

    def test_limits_1d_preset(self):
        g = build_grid(1, L, 64)
        sig = GridVector.from_functions(g, [np.sin])
        one = GridScalar.constant(g, 1.0)
        lim_t, lim_s = commutator_limits(sig, one)
        x = g.axis_coordinates()
        assert np.max(np.abs(lim_t.values - (-np.cos(x)))) < 1e-12
        assert np.max(np.abs(lim_s.values - np.cos(x) ** 2)) < 1e-12

    def test_limits_2d_swap_preset(self):
        # sigma = (sin y, sin x): divergence-free, limit_S = cos x cos y.
        g = build_grid(2, L, 32)
        sig = GridVector.from_functions(g, [lambda x, y: np.sin(y), lambda x, y: np.sin(x)])
        one = GridScalar.constant(g, 1.0)
        lim_t, lim_s = commutator_limits(sig, one)
        xs, ys = g.coordinates()
        assert np.max(np.abs(lim_t.values)) < 1e-12
        assert np.max(np.abs(lim_s.values - np.cos(xs) * np.cos(ys))) < 1e-12

    def test_grid_mismatch_raises(self):
        g1 = build_grid(1, L, 32)
        g2 = build_grid(1, L, 64)
        sig, one = GridVector.constant(g1, [1.0]), GridScalar.constant(g2, 1.0)
        with pytest.raises(FieldError, match="grid mismatch"):
            mollify(sig, one, L / 8)
        with pytest.raises(FieldError, match="grid mismatch"):
            commutator_limits(sig, one)


def _circulant_1d(samples: np.ndarray) -> np.ndarray:
    n = len(samples)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return samples[idx]


def _circulant_2d(samples: np.ndarray) -> np.ndarray:
    n = samples.shape[0]
    ix = np.arange(n)
    mx, lx = np.meshgrid(ix, ix, indexing="ij")
    flat = [(a, b) for a in ix for b in ix]
    coords = np.array(flat)
    dx = (coords[:, None, 0] - coords[None, :, 0]) % n
    dy = (coords[:, None, 1] - coords[None, :, 1]) % n
    return samples[dx, dy]


class TestKernelFormEquivalence:
    """FFT pipeline against the direct double-sum kernel quadrature."""

    def test_t_double_sum_1d(self):
        g = build_grid(1, L, 64)
        sig = GridVector.from_functions(g, [lambda x: np.sin(x) + 0.3 * np.cos(2 * x)])
        f = GridScalar.from_function(g, lambda x: np.cos(x) + 0.5 * np.sin(3 * x))
        eps = L / 8
        kernel = mollifier(g, eps)
        dk = spectral_derivative(kernel, (1,)).values
        big_k = _circulant_1d(dk)
        s, fv = sig.values[0], f.values
        direct = g.h * (s * (big_k @ fv) - big_k @ (s * fv))
        impl = op_T(mollify(sig, f, eps)).values
        assert np.max(np.abs(impl - direct)) < 1e-7 * np.max(np.abs(impl))

    def test_t_double_sum_2d(self):
        g = build_grid(2, L, 32)
        sig = GridVector.from_functions(
            g, [lambda x, y: np.sin(x) * np.cos(y), lambda x, y: np.cos(2 * x) + 0.2 * np.sin(y)]
        )
        f = GridScalar.from_function(g, lambda x, y: np.cos(x) + 0.4 * np.sin(y + 1.0))
        eps = L / 8
        kernel = mollifier(g, eps)
        fv = f.values.ravel()
        direct = np.zeros(g.N * g.N)
        for i in range(2):
            beta = [0, 0]
            beta[i] = 1
            dk = spectral_derivative(kernel, beta).values
            big_k = _circulant_2d(dk)
            s_i = sig.values[i].ravel()
            direct += s_i * (big_k @ fv) - big_k @ (s_i * fv)
        direct *= g.cell_volume
        impl = op_T(mollify(sig, f, eps)).values.ravel()
        assert np.max(np.abs(impl - direct)) < 1e-7 * np.max(np.abs(impl))

    def test_s_single_kernel_form_1d(self):
        # S collapses to one kernel: (1/2) integral eta''(x-y) (sigma(x)-sigma(y))^2 f(y).
        g = build_grid(1, L, 64)
        sig = GridVector.from_functions(g, [lambda x: np.sin(x) + 0.3 * np.cos(2 * x)])
        f = GridScalar.from_function(g, lambda x: np.cos(x) + 0.5 * np.sin(3 * x))
        eps = L / 8
        kernel = mollifier(g, eps)
        d2k = spectral_derivative(kernel, (2,)).values
        big_k = _circulant_1d(d2k)
        s, fv = sig.values[0], f.values
        diff = s[:, None] - s[None, :]
        direct = 0.5 * g.h * np.sum(big_k * diff**2 * fv[None, :], axis=1)
        impl = op_S(mollify(sig, f, eps)).values
        assert np.max(np.abs(impl - direct)) < 1e-7 * np.max(np.abs(impl))

    def test_t_analytic_kernel_gradient_diagnostic(self):
        # Fully independent kernel derivative (chain rule on the bump profile);
        # agreement is limited by trig interpolation of the kernel, so the
        # tolerance is loose compared to the spectral-sample tests above.
        g = build_grid(1, L, 256)
        sig = GridVector.from_functions(g, [np.sin])
        f = GridScalar.from_function(g, np.cos)
        eps = L / 8
        kernel = mollifier(g, eps)
        (x,) = g.wrapped_coordinates()
        u = x * x / (eps * eps)
        danalytic = np.zeros(g.N)
        inside = u < 1.0
        danalytic[inside] = (
            kernel.values[inside] * (-1.0 / (1.0 - u[inside]) ** 2) * (2.0 * x[inside] / eps**2)
        )
        big_k = _circulant_1d(danalytic)
        s, fv = sig.values[0], f.values
        direct = g.h * (s * (big_k @ fv) - big_k @ (s * fv))
        impl = op_T(mollify(sig, f, eps)).values
        assert np.max(np.abs(impl - direct)) < 1e-3 * np.max(np.abs(impl))


class TestConvergence:
    def test_t_study_1d(self):
        g = build_grid(1, L, 64)
        sig = GridVector.from_functions(g, [np.sin])
        f = GridScalar.from_function(g, np.cos)
        study = convergence_study("T", sig, f, [L / 8, L / 16, L / 32], 2.0)
        assert study.errors[0] > study.errors[1] > study.errors[2]
        assert study.fitted_rate >= 0.9
        # K is the central half of the box
        gap = op_T(mollify(sig, f, L / 8)).values - commutator_limits(sig, f)[0].values
        assert study.errors[0] == lp_norm(GridScalar(g, gap), 2.0, central_half(g))
        assert all(r <= 1.2 for r in study.bound_ratios)

    def test_s_study_1d(self):
        g = build_grid(1, L, 64)
        sig = GridVector.from_functions(g, [np.sin])
        f = GridScalar.from_function(g, np.cos)
        study = convergence_study("S", sig, f, [L / 8, L / 16, L / 32], 2.0)
        assert study.errors[0] > study.errors[1] > study.errors[2]
        assert study.fitted_rate >= 0.9
        assert all(r <= 1.2 for r in study.bound_ratios)

    def test_s_study_2d_swap_preset(self):
        g = build_grid(2, L, 32)
        sig = GridVector.from_functions(g, [lambda x, y: np.sin(y), lambda x, y: np.sin(x)])
        f = GridScalar.from_function(g, lambda x, y: np.cos(x) * np.cos(y) + 2.0)
        study = convergence_study("S", sig, f, [L / 4, L / 8, L / 16], 2.0)
        assert study.errors[0] > study.errors[1] > study.errors[2]
        assert study.fitted_rate >= 0.9

    def test_bound_ratio_grid_stability(self):
        shared = [L / 8, L / 16]
        ratios = {}
        for n_nodes, ladder in ((32, [L / 4] + shared), (64, shared + [L / 32])):
            g = build_grid(1, L, n_nodes)
            sig = GridVector.from_functions(g, [np.sin])
            f = GridScalar.from_function(g, np.cos)
            study = convergence_study("T", sig, f, ladder, 2.0)
            by_eps = dict(zip(study.epsilons, study.bound_ratios))
            ratios[n_nodes] = [by_eps[e] for e in shared]
        for r32, r64 in zip(ratios[32], ratios[64]):
            assert abs(r32 - r64) <= 0.2 * max(r32, r64)

    def test_degenerate_case_flagged(self):
        g = build_grid(1, L, 64)
        sig = GridVector.constant(g, [2.0])
        f = GridScalar.from_function(g, np.cos)
        study = convergence_study("T", sig, f, [L / 8, L / 16, L / 32], 2.0)
        assert max(study.errors) < 1e-9
        assert study.fitted_rate == 0.0

    def test_validation(self):
        g = build_grid(1, L, 64)
        sig = GridVector.from_functions(g, [np.sin])
        f = GridScalar.from_function(g, np.cos)
        with pytest.raises(FieldError):
            convergence_study("T", sig, f, [L / 8, L / 16], 2.0)
        with pytest.raises(FieldError, match="r must be >= 1"):
            convergence_study("T", sig, f, [L / 8, L / 16, L / 32], 0.5)
        with pytest.raises(FieldError, match="unknown operator tag"):
            convergence_study("U", sig, f, [L / 8, L / 16, L / 32], 2.0)

    @pytest.mark.parametrize("epsilons,r,named", [
        (["0.78", "0.39", "0.2"], 2.0, r"^epsilons must be a number, got '0\.78'$"),
        ([L / 8, True, L / 32], 2.0, r"^epsilons must be a number, got True$"),
        ([L / 8, L / 16, L / 32], True, r"^exponents must be numbers, got \(r\) = \(True\)$"),
        ([L / 8, L / 16, L / 32], math.nan, r"^exponents must be positive, got \(r\) = \(nan\)$"),
    ])
    def test_a_scalar_that_is_no_number_is_refused_before_any_transform(
        self, monkeypatch, epsilons, r, named
    ):
        # strings once fitted a rate, r = True ran at r = 1 and r = nan
        # failed late, on its errors
        g = build_grid(1, L, 64)
        sig = GridVector.from_functions(g, [np.sin])
        f = GridScalar.from_function(g, np.cos)
        monkeypatch.setattr(commutator, "commutator_limits", lambda *a: pytest.fail("transformed"))
        with pytest.raises(FieldError, match=named):
            convergence_study("T", sig, f, epsilons, r)
        with pytest.raises(FieldError, match="strictly decreasing"):
            CommutatorStudy([0.1, 0.2], [1.0, 1.0], 0.0, [1.0, 1.0])


class TestRenormalizerIdentities:
    """Numeric R1/R2 identity checks with sign certification."""

    def _data_1d(self, n_nodes=64):
        g = build_grid(1, L, n_nodes)
        sig = GridVector.from_functions(g, [lambda x: np.sin(x) + 0.3 * np.cos(2 * x)])
        f = GridScalar.from_function(g, lambda x: np.cos(x) + 0.5 * np.sin(3 * x))
        return g, sig, f

    def test_r1_sign_certification(self):
        _, sig, f = self._data_1d()
        m = mollify(sig, f, L / 8)
        defect = r1_remainder(m, TANH_RENORM).values
        scale = np.max(np.abs(defect))
        good = r1_reconstruction(m, TANH_RENORM, sign=+1.0).values
        bad = r1_reconstruction(m, TANH_RENORM, sign=-1.0).values
        assert np.max(np.abs(defect - good)) < 1e-6 * scale
        assert np.max(np.abs(defect - bad)) > 0.1 * scale

    def test_r2_sign_certification_1d(self):
        _, sig, f = self._data_1d()
        m = mollify(sig, f, L / 8)
        defect = r2_remainder(m, TANH_RENORM).values
        scale = np.max(np.abs(defect))
        good = r2_reconstruction(m, TANH_RENORM, sign=+1.0).values
        bad = r2_reconstruction(m, TANH_RENORM, sign=-1.0).values
        assert np.max(np.abs(defect - good)) < 1e-6 * scale
        assert np.max(np.abs(defect - bad)) > 0.1 * scale

    def test_r2_identity_2d(self):
        g = build_grid(2, L, 64)
        sig = GridVector.from_functions(
            g, [lambda x, y: np.sin(x) * np.cos(y), lambda x, y: np.cos(2 * x) + 0.2 * np.sin(y)]
        )
        f = GridScalar.from_function(g, lambda x, y: np.cos(x) + 0.4 * np.sin(y + 1.0))
        m = mollify(sig, f, L / 8)
        defect = r2_remainder(m, TANH_RENORM).values
        rebuilt = r2_reconstruction(m, TANH_RENORM).values
        scale = np.max(np.abs(defect))
        assert np.max(np.abs(defect - rebuilt)) < 1e-6 * scale

    def test_r1_near_exact_for_polynomial_renormalizer(self):
        # Band-limited data and a cubic renormalizer leave no aliasing at all.
        _, sig, f = self._data_1d()
        cubic = types.SimpleNamespace(derivatives=lambda z: (z**3, 3.0 * z**2, 6.0 * z))
        m = mollify(sig, f, L / 8)
        defect = r1_remainder(m, cubic).values
        rebuilt = r1_reconstruction(m, cubic).values
        assert np.max(np.abs(defect - rebuilt)) < 1e-12 * max(1.0, np.max(np.abs(defect)))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_reconstructions_mollify_once(self, monkeypatch, dim):
        # a reconstruction given a record builds no mollifier and hands the
        # record to T_eps, S_eps and R1: the values are those of the public
        # operators, each given a mollification of its own, bit for bit
        if dim == 1:
            _, sig, f = self._data_1d()
        else:
            g = build_grid(2, L, 32)
            sig = GridVector.from_functions(
                g, [lambda x, y: np.sin(x) * np.cos(y), lambda x, y: 0.4 * np.cos(x - y)]
            )
            f = GridScalar.from_function(g, lambda x, y: 1.0 + 0.5 * np.sin(x + 2 * y))
        eps, sign = L / 8, -1.0
        f_eps = convolve(mollifier(f.grid, eps), f).values
        gamma, gamma_1, gamma_2 = TANH_RENORM.derivatives(f_eps)
        t_val = op_T(mollify(sig, f, eps)).values
        r1_want = gamma_1 * t_val + sign * divergence(sig).values * gamma
        r1 = r1_remainder(mollify(sig, f, eps), TANH_RENORM)
        adv_r1 = np.einsum("i...,i...->...", sig.values, gradient(r1).values)
        div_sigma, twist = divergence_and_twist(f.grid, jacobian(sig))
        q_field = twist + div_sigma**2
        r2_want = (
            gamma_1 * op_S(mollify(sig, f, eps)).values + 0.5 * gamma_2 * t_val**2
            - adv_r1 - sign * 0.5 * gamma * q_field
        )
        m = mollify(sig, f, eps)
        calls = []
        kernel = commutator.mollifier

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(commutator, "mollifier", counting)
        r1_got = r1_reconstruction(m, TANH_RENORM, sign=sign).values
        r2_got = r2_reconstruction(m, TANH_RENORM, sign=sign).values
        assert calls == []
        assert np.array_equal(r1_got, r1_want) and np.array_equal(r2_got, r2_want)
        mollify(sig, f, eps)
        assert len(calls) == 1  # the patch sees the one mollifier that mollify builds


def _pair_derivative(f: GridScalar, i: int, j: int) -> np.ndarray:
    """d_i d_j f by spectral_derivative, its multi-index built by hand."""
    beta = [0] * f.grid.dim
    beta[i] += 1
    beta[j] += 1
    return spectral_derivative(f, beta).values


def pairwise_op_s(m: commutator.Mollified) -> GridScalar:
    """S_eps with L f_eps and L* f summed one spectral_derivative call per
    (i, j): the reference for op_S's Hessian stack."""
    g, sigma = m.f.grid, m.sigma
    forward = np.zeros(g.shape)
    for i in range(g.dim):
        for j in range(g.dim):
            forward += sigma.values[i] * sigma.values[j] * _pair_derivative(m.f_eps, i, j)
    forward *= 0.5
    middle = commutator._advect(sigma, m.div_sf_eps)
    adjoint = pairwise_adjoint(sigma, m.f.values)
    return GridScalar(g, forward - middle + convolve(m.kernel, GridScalar(g, adjoint)).values)


def pairwise_adjoint(sigma: GridVector, values: np.ndarray) -> np.ndarray:
    """(1/2) d_i d_j (sigma_i sigma_j values), each product a GridScalar."""
    g = sigma.grid
    out = np.zeros(g.shape)
    for i in range(g.dim):
        for j in range(g.dim):
            out += _pair_derivative(GridScalar(g, sigma.values[i] * sigma.values[j] * values), i, j)
    return 0.5 * out


# (sigma, f) on 64 nodes in 1-d and 32^2 in 2-d: a 1-d profile, the swap
# preset (divergence-free) and the shear of the 2-d space-dependent noise
SECOND_ORDER_CASES = {
    "1d": ([lambda x: np.sin(x) + 0.3 * np.cos(2 * x)], lambda x: np.cos(x) + 0.5 * np.sin(3 * x)),
    "swap": ([lambda x, y: np.sin(y), lambda x, y: np.sin(x)],
             lambda x, y: np.cos(x) * np.cos(y) + 2.0),
    "shear": ([lambda x, y: np.sin(y) + 0.3 * np.sin(x), lambda x, y: np.sin(x)],
              lambda x, y: 1.5 + np.cos(x) * np.sin(y)),
}


@pytest.mark.parametrize("case", list(SECOND_ORDER_CASES))
def test_second_order_terms_equal_the_pairwise_loops(case, monkeypatch):
    # op_S reads one Hessian stack of f_eps and L* one _spectral call per
    # product; S_eps, R2 and both R2 reconstructions are the per-(i, j)
    # spectral_derivative loops' bit for bit
    sigmas, fn = SECOND_ORDER_CASES[case]
    g = build_grid(len(sigmas), L, 64 if len(sigmas) == 1 else 32)
    m = mollify(GridVector.from_functions(g, sigmas), GridScalar.from_function(g, fn), L / 8)

    def terms():
        return [
            commutator.op_S(m).values,
            commutator.r2_remainder(m, TANH_RENORM).values,
            commutator.r2_reconstruction(m, TANH_RENORM, sign=+1.0).values,
            commutator.r2_reconstruction(m, TANH_RENORM, sign=-1.0).values,
        ]

    got = terms()
    monkeypatch.setattr(commutator, "op_S", pairwise_op_s)
    monkeypatch.setattr(commutator, "_adjoint_second_order", pairwise_adjoint)
    want = terms()
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


@given(a=st.floats(-3, 3, allow_nan=False), b=st.floats(-3, 3, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_op_t_linear_in_f(a, b):
    g = build_grid(1, L, 16)
    sig = GridVector.from_functions(g, [np.sin])
    f1 = GridScalar.from_function(g, np.cos)
    f2 = GridScalar.from_function(g, lambda x: np.sin(2 * x))
    combo = GridScalar(g, a * f1.values + b * f2.values)
    eps = 1.0
    lhs = op_T(mollify(sig, combo, eps)).values
    rhs = a * op_T(mollify(sig, f1, eps)).values + b * op_T(mollify(sig, f2, eps)).values
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * (1.0 + abs(a) + abs(b))
