"""Tests for renormalizers, test functions, and weak-form residual ledgers.

Oracles
-------
* Transport ledger: for f(t, x) = sin(x - beta*t - s*W_t) with constant
  coefficients, every pairing in the ledger collapses to complex arithmetic
  on the single moment m = integral of e^{ix} phi(x) dx: pairing against
  phi, phi', phi'' multiplies m by (-i)^j, and the time dependence is a
  phase rotation.  A scalar recursion over the same increments reproduces
  each ledger entry independently of the grid machinery.
* Renormalizer derivatives are cross-checked against central finite
  differences (the implementation must use closed forms, and they must be
  the right ones).
* Deterministic compressible flow: b = 0.5 + 0.3 sin x with no noise; the
  pushforward solution's renormalized residual is pure discretization error
  and halves with dt.  Measured values frozen below.
* Rigid translation (constant b and sigma): the pushforward mass at shifted
  nodes is a full-period trapezoid sum of the spline interpolant, which has
  no harmonic at any multiple of N, so the weighted-L1 series is constant
  to round-off.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renormlab import field
from renormlab.field import (
    GridScalar,
    GridVector,
    TimeGridVector,
    build_grid,
    divergence,
    divergence_and_twist,
    gradient,
    jacobian,
)
from renormlab.flow import (
    BrownianPath,
    FlowError,
    SdeConfig,
    pushforward_solution,
    sample_brownian,
    simulate_flow,
)
from renormlab.presets import sample_constant_in_time
from renormlab.weakform import (
    RENORMALIZED_TERMS,
    WeakFormError,
    WeakFormLedger,
    bump_test_function,
    make_renormalizer,
    residual_renormalized,
    weighted_l1_masses,
    weighted_l1_stability,
)

L = 2 * np.pi


def grid1(N=64):
    return build_grid(1, L, N)


def still(vec, T):
    return sample_constant_in_time(vec, T, 1)


def central_diff(fn, z, step):
    return (fn(z + step) - fn(z - step)) / (2 * step)


def part(rn, k):
    """Gamma (k = 0), Gamma' (1) or Gamma'' (2) of a renormalizer, as a function of z."""
    return lambda z: rn.derivatives(z)[k]


# ---------------------------------------------------------------------------
# Renormalizers
# ---------------------------------------------------------------------------

class TestRenormalizers:
    sample = np.array([-7.3, -2.0, -0.8, -0.15, 0.0, 0.3, 1.1, 4.2, 9.0])

    def test_tanh_closed_form_derivatives(self):
        rn = make_renormalizer("tanh")
        z = self.sample
        assert np.max(np.abs(central_diff(part(rn, 0), z, 1e-5) - rn.derivatives(z)[1])) < 1e-8
        assert np.max(np.abs(central_diff(part(rn, 1), z, 1e-5) - rn.derivatives(z)[2])) < 1e-7

    def test_defining_identities(self):
        for rn in (make_renormalizer("tanh"), make_renormalizer("abs_eps", 0.25)):
            z = self.sample
            _, g, h = rn.derived(z)
            assert np.max(np.abs(g - (z * rn.derivatives(z)[1] - rn.derivatives(z)[0]))) < 1e-12
            g_prime = z * rn.derivatives(z)[2]
            assert np.max(np.abs(h - (z * g_prime - g))) < 1e-12

    def test_tanh_bounded_family(self):
        rn = make_renormalizer("tanh")
        z = np.linspace(-50.0, 50.0, 20001)
        _, g, h = rn.derived(z)
        assert np.max(np.abs(rn.derivatives(z)[0])) <= 1.0
        assert np.max(np.abs(g)) <= 1.0 + 1e-12
        assert np.max(np.abs(h)) <= 1.0 + 1e-12

    def test_linear_degenerate(self):
        rn = make_renormalizer("linear")
        z = self.sample
        _, g, h = rn.derived(z)
        assert np.array_equal(g, np.zeros_like(z))
        assert np.array_equal(h, np.zeros_like(z))

    def test_abs_eps_value_at_zero(self):
        for eps in (0.5, 0.03):
            rn = make_renormalizer("abs_eps", eps)
            assert float(rn.derivatives(0.0)[0]) == eps / 2

    def test_abs_eps_pointwise_limits(self):
        z = np.array([-2.3, -0.7, 0.03, 1.1, 3.0])
        gaps = []
        for eps in (0.5, 0.05, 0.005):
            rn = make_renormalizer("abs_eps", eps)
            gaps.append(np.max(np.abs(rn.derivatives(z)[0] - np.abs(z))))
        assert gaps[0] > gaps[1] > gaps[2]
        tail = make_renormalizer("abs_eps", 0.005)
        assert np.array_equal(tail.derivatives(z)[0], np.abs(z))
        _, g, h = tail.derived(z)
        assert np.array_equal(g, np.zeros_like(z))
        assert np.array_equal(h, np.zeros_like(z))

    def test_abs_eps_linear_growth_bound(self):
        z = np.linspace(-50.0, 50.0, 20001)
        worst = 0.0
        for eps in (0.5, 0.1, 0.02, 0.004):
            rn = make_renormalizer("abs_eps", eps)
            worst = max(worst, float(np.max(rn.derivatives(z)[0] / (1.0 + np.abs(z)))))
        assert worst <= 1.0 + 1e-9

    def test_abs_eps_c1_seam(self):
        eps = 0.3
        rn = make_renormalizer("abs_eps", eps)
        lo, hi = eps * (1 - 1e-8), eps * (1 + 1e-8)
        assert abs(float(rn.derivatives(hi)[0]) - float(rn.derivatives(lo)[0])) < 1e-7
        assert abs(float(rn.derivatives(hi)[1]) - float(rn.derivatives(lo)[1])) < 1e-6

    def test_abs_eps_derivatives_match_differences(self):
        rn = make_renormalizer("abs_eps", 0.3)
        z = np.array([0.1, 1.0, 2.0, 5.0, 20.0])  # away from the branch seams
        assert np.max(np.abs(central_diff(part(rn, 0), z, 1e-6) - rn.derivatives(z)[1])) < 1e-5
        assert np.max(np.abs(central_diff(part(rn, 1), z, 1e-6) - rn.derivatives(z)[2])) < 1e-4

    def test_validation(self):
        with pytest.raises(WeakFormError, match="epsilon"):
            make_renormalizer("abs_eps")
        with pytest.raises(WeakFormError, match="epsilon"):
            make_renormalizer("abs_eps", -0.1)
        with pytest.raises(WeakFormError, match="unknown"):
            make_renormalizer("cubic")

    @pytest.mark.parametrize("eps,named", [
        (math.nan, "abs_eps's epsilon must be finite, got nan"),
        (math.inf, "abs_eps's epsilon must be finite, got inf"),
        (True, "abs_eps's epsilon must be a number, got True"),
        ("0.1", "abs_eps's epsilon must be a number, got '0.1'"),
    ])
    def test_an_epsilon_that_is_no_finite_number_is_refused_by_name(self, eps, named):
        # nan once gave nan for every Gamma
        with pytest.raises(WeakFormError, match=f"^{re.escape(named)}$"):
            make_renormalizer("abs_eps", eps)


@settings(max_examples=60, deadline=None)
@given(
    eps=st.floats(min_value=1e-3, max_value=0.5),
    z=st.floats(min_value=-15.0, max_value=15.0),
)
def test_abs_eps_symmetry_and_sign(eps, z):
    """Gamma_eps is even and below |z| + eps/2; its G is never positive."""
    rn = make_renormalizer("abs_eps", eps)
    (gamma, g, h), mirrored = rn.derived(z), rn.derived(-z)
    assert float(rn.derivatives(z)[0]) == float(rn.derivatives(-z)[0])
    assert float(g) == float(mirrored[1])
    assert float(h) == float(mirrored[2])
    assert 0.0 <= float(gamma) <= abs(z) + eps / 2 + 1e-12
    assert float(g) <= 1e-12


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------

class TestBumpTestFunction:
    def test_peak_and_support(self):
        g = grid1()
        phi = bump_test_function(g, center=(L / 2,), radius=L / 8)
        x = g.axis_coordinates()
        values = phi.values
        assert values[g.N // 2] == 1.0
        outside = np.abs(x - L / 2) >= L / 8
        assert np.array_equal(values[outside], np.zeros(outside.sum()))
        assert np.all(values >= 0.0)
        assert np.max(values) == 1.0

    def test_gradient_integrates_to_zero(self):
        g = grid1()
        phi = bump_test_function(g, center=(L / 2,), radius=L / 8)
        total = np.sum(gradient(phi).values) * g.cell_volume
        assert abs(total) < 1e-10

    def test_two_dimensional_bump(self):
        g = build_grid(2, L, 32)
        phi = bump_test_function(g, center=(L / 2, L / 2), radius=L / 8)
        assert phi.values[16, 16] == 1.0
        assert np.all(phi.values >= 0.0)

    def test_support_violations(self):
        g = grid1()
        with pytest.raises(WeakFormError, match="central half"):
            bump_test_function(g, center=(L / 2,), radius=0.3 * L)
        with pytest.raises(WeakFormError, match="central half"):
            bump_test_function(g, center=(L / 8,), radius=L / 16)

    def test_bad_arguments(self):
        g = grid1()
        with pytest.raises(WeakFormError, match="dimension"):
            bump_test_function(g, center=(L / 2, L / 2), radius=L / 8)
        with pytest.raises(WeakFormError, match="radius"):
            bump_test_function(g, center=(L / 2,), radius=-1.0)

    @pytest.mark.parametrize(
        "radius, message",
        [(True, "radius must be a number, got True"),
         ("1", "radius must be a number, got '1'"),
         (math.nan, "radius must be finite, got nan")],
        ids=["bool", "str", "nan"],
    )
    def test_radius_must_be_a_finite_number(self, radius, message):
        with pytest.raises(WeakFormError, match=f"^{re.escape(message)}$"):
            bump_test_function(grid1(), center=(L / 2,), radius=radius)

    @pytest.mark.parametrize(
        "center, message",
        [((10**400,), "center must be finite, got 1000"),
         (("a",), "center must be a number, got 'a'"),
         ((math.inf,), "center must be finite, got inf")],
        ids=["beyond_float", "str", "inf"],
    )
    def test_center_must_be_finite_numbers(self, center, message):
        # a bare OverflowError and numpy's "could not convert string to float"
        with pytest.raises(WeakFormError, match=f"^{re.escape(message)}"):
            bump_test_function(grid1(), center=center, radius=L / 8)


# ---------------------------------------------------------------------------
# Scalar transport oracle
# ---------------------------------------------------------------------------

# the plain weak form's drift, diffusion and Ito terms, as the linear ledger names them
PLAIN_TERMS = RENORMALIZED_TERMS[:3]


def transport_oracle(phi, path, beta, s):
    """Ledger entries for f = sin(x - beta t - s W) by complex recursion."""
    g = phi.grid
    x = g.axis_coordinates()
    m = complex(np.sum(np.exp(1j * x) * phi.values) * g.h)

    def pair(theta, order):
        return float(np.imag(np.exp(-1j * theta) * (-1j) ** order * m))

    W = np.concatenate([[0.0], np.cumsum(path.increments[:, 0])])
    theta = beta * np.arange(path.steps + 1) * path.dt + s * W
    drift = diffusion = ito = 0.0
    for l in range(path.steps):
        drift += beta * pair(theta[l], 1) * path.dt
        diffusion += 0.5 * s * s * pair(theta[l], 2) * path.dt
        ito += s * pair(theta[l], 1) * path.increments[l, 0]
    lhs = pair(theta[-1], 0) - pair(theta[0], 0)
    return dict(zip(PLAIN_TERMS, (drift, diffusion, ito))), lhs


def transport_setup(beta=0.7, s=0.5, T=0.25, dt=1e-2, stream_id=42):
    g = grid1()
    x = g.axis_coordinates()
    phi = bump_test_function(g, center=(L / 2,), radius=L / 8)
    path = sample_brownian(T, dt, 1, stream_id=stream_id)
    W = np.concatenate([[0.0], np.cumsum(path.increments[:, 0])])
    fpath = [
        GridScalar(g, np.sin(x - beta * l * dt - s * W[l])) for l in range(path.steps + 1)
    ]
    b = still(GridVector.constant(g, (beta,)), T)
    sig = still(GridVector.constant(g, (s,)), T)
    return g, phi, path, fpath, b, sig


def plain_ledger(fpath, b, sigmas, phi, path) -> WeakFormLedger:
    """The plain weak form's ledger: the renormalized one with Gamma(z) = z."""
    return residual_renormalized(fpath, b, sigmas, phi, make_renormalizer("linear"), path)


def phi_calculus(phi):
    """Gradient and Hessian of the test function, spectral."""
    return gradient(phi).values, field.hessian_stack(phi.grid, phi.values)


def per_step_ledger(fpath, b, sigmas, phi, renorm, path) -> tuple[dict, float]:
    """Reference terms and lhs_delta: every term formed and added one step at a
    time, each coefficient's slice looked up at that step."""
    g = phi.grid
    grad_phi, hess_phi = phi_calculus(phi)
    psi = phi.values
    vol, dt = g.cell_volume, path.dt
    sums = dict.fromkeys(RENORMALIZED_TERMS, 0.0)
    for l in range(path.steps):
        f = fpath[l].values
        gamma_f, g_f, h_f = renorm.derived(f)
        b_l = b.slice_at(l * dt)
        adv_b = np.einsum("i...,i...->...", b_l.values, grad_phi)
        sums["gamma_drift"] += float(np.sum(gamma_f * adv_b)) * vol * dt
        sums["g_div_b"] -= float(np.sum(g_f * divergence(b_l).values * psi)) * vol * dt
        for k, sigma in enumerate(sigmas):
            s_l = sigma.slice_at(l * dt)
            div_s, twist = divergence_and_twist(g, jacobian(s_l))
            dW = path.increments[l, k]
            pair = np.einsum("i...,j...,ij...->...", s_l.values, s_l.values, hess_phi)
            adv_s = np.einsum("i...,i...->...", s_l.values, grad_phi)
            sums["gamma_diffusion"] += 0.5 * float(np.sum(gamma_f * pair)) * vol * dt
            sums["gamma_ito"] += float(np.sum(gamma_f * adv_s)) * vol * dW
            sums["g_div_sigma_ito"] -= float(np.sum(g_f * div_s * psi)) * vol * dW
            sums["g_div_sigma_transport"] -= float(np.sum(g_f * div_s * adv_s)) * vol * dt
            sums["g_gradsigma"] += 0.5 * float(np.sum(g_f * twist * psi)) * vol * dt
            sums["h_divsigma_sq"] += 0.5 * float(np.sum(h_f * div_s**2 * psi)) * vol * dt
    gamma_0, gamma_T = (renorm.derivatives(f.values)[0] for f in (fpath[0], fpath[-1]))
    return sums, float(np.sum((gamma_T - gamma_0) * psi)) * vol


class TestOriginalLedger:
    """The plain weak form, through the linear renormalizer."""

    def test_terms_match_scalar_oracle(self):
        _, phi, path, fpath, b, sig = transport_setup()
        ledger = plain_ledger(fpath, b, [sig], phi, path)
        expected_terms, expected_lhs = transport_oracle(phi, path, 0.7, 0.5)
        for name in PLAIN_TERMS:
            assert abs(ledger.terms[name] - expected_terms[name]) < 1e-12
        assert abs(ledger.lhs_delta - expected_lhs) < 1e-12
        assert abs(ledger.residual) < 2e-3

    def test_cycling_slices_match_per_step_lookup(self, monkeypatch):
        # coefficients sampled 3, 2 and 5 times per step, cycling through
        # rows with periods 2, 3 and 2, on a path of three blocks of steps
        # (then of 27 blocks of 3 steps, then of one step each): every term
        # of the linear and the tanh ledger, bit for bit, equals a loop that
        # forms each step alone and looks each coefficient's slice up there
        g, phi, path, fpath, _, _ = transport_setup(T=0.8)
        x = g.axis_coordinates()
        b_cycle = np.stack([(0.5 + 0.3 * np.sin(x + j))[None, :] for j in range(2)])
        s_cycle = np.stack([(0.4 + 0.2 * np.cos(x - j))[None, :] for j in range(3)])

        def cycling(per_step, cycle, period):
            times = np.linspace(0.0, path.T, per_step * path.steps + 1)
            return TimeGridVector(g, times, cycle, np.arange(len(times)) % period)

        b = cycling(3, b_cycle, 2)
        sigs = [cycling(2, s_cycle, 3), cycling(5, s_cycle[1:], 2)]
        wide = BrownianPath(
            T=path.T, dt=path.dt, k_count=2,
            increments=np.stack([path.increments[:, 0], -0.5 * path.increments[:, 0]], axis=1),
            seed=0,
        )
        seen = {int(b.index[b.slice_indices(l * wide.dt)]) for l in range(wide.steps)}
        assert len(seen) == 2
        for block_points, blocks in ((field._BLOCK_POINTS, 3), (3 * g.N, 27), (g.N, 80)):
            monkeypatch.setattr(field, "_BLOCK_POINTS", block_points)
            assert len(field._blocks(g, wide.steps)) == blocks
            for tag in ("linear", "tanh"):
                rn = make_renormalizer(tag)
                ledger = residual_renormalized(fpath, b, sigs, phi, rn, wide)
                terms, lhs_delta = per_step_ledger(fpath, b, sigs, phi, rn, wide)
                got = [v.hex() for v in (ledger.lhs_delta, *ledger.terms.values())]
                assert got == [v.hex() for v in (lhs_delta, *terms.values())], (tag, blocks)
                assert all(v != 0.0 for v in ledger.terms.values()) == (tag == "tanh")

    def test_constant_f_every_term_vanishes(self):
        g = grid1()
        T, dt = 0.2, 0.05
        phi = bump_test_function(g, center=(L / 2,), radius=L / 8)
        path = sample_brownian(T, dt, 1, stream_id=7)
        fpath = [GridScalar.constant(g, 1.7)] * (path.steps + 1)
        b = still(GridVector.constant(g, (0.0,)), T)
        sig = still(GridVector.constant(g, (1.0,)), T)
        ledger = plain_ledger(fpath, b, [sig], phi, path)
        for value in ledger.terms.values():
            assert abs(value) < 1e-9
        assert abs(ledger.lhs_delta) < 1e-15
        assert abs(ledger.residual) < 1e-9

    def test_frozen_solution_anti_test(self):
        g = grid1()
        x = g.axis_coordinates()
        T, dt = 0.25, 5e-3
        steps = round(T / dt)
        phi = bump_test_function(g, center=(L / 2,), radius=L / 8)
        b = still(GridVector.constant(g, (1.0,)), T)
        path = BrownianPath(
            T=T, dt=dt, k_count=0, increments=np.zeros((steps, 0)), seed=0
        )
        exact = [GridScalar(g, 1.0 + 0.5 * np.sin(x - l * dt)) for l in range(steps + 1)]
        frozen = [exact[0]] * (steps + 1)
        r_exact = plain_ledger(exact, b, [], phi, path).residual
        r_frozen = plain_ledger(frozen, b, [], phi, path).residual
        assert abs(r_frozen) >= 10 * abs(r_exact)

    def test_linearity_in_phi(self):
        g, phi, path, fpath, b, sig = transport_setup(T=0.05)
        scaled = bump_test_function(g, center=(L / 2,), radius=L / 8)
        scaled.values *= 2.5
        one = plain_ledger(fpath, b, [sig], phi, path)
        two = plain_ledger(fpath, b, [sig], scaled, path)
        assert abs(two.residual - 2.5 * one.residual) < 1e-12 * max(1.0, abs(one.residual))
        for name in RENORMALIZED_TERMS:
            assert abs(two.terms[name] - 2.5 * one.terms[name]) < 1e-12

    def test_validation(self):
        g, phi, path, fpath, b, sig = transport_setup()
        with pytest.raises(WeakFormError, match="slices"):
            plain_ledger(fpath[:-1], b, [sig], phi, path)
        with pytest.raises(WeakFormError, match="noise"):
            plain_ledger(fpath, b, [], phi, path)
        other = build_grid(1, L, 32)
        foreign = [GridScalar.constant(other, 0.0)] * (path.steps + 1)
        with pytest.raises(WeakFormError, match="grid"):
            plain_ledger(foreign, b, [sig], phi, path)

    @pytest.mark.parametrize("foreign", ["drift", "noise field 0"])
    def test_coefficient_on_another_grid_refused_by_name(self, foreign):
        # a 32-node coefficient against the 64-node test function and solution
        g, phi, path, fpath, b, sig = transport_setup()
        coarse = still(GridVector.constant(grid1(32), (0.3,)), 0.25)
        b, sig = (coarse, sig) if foreign == "drift" else (b, coarse)
        with pytest.raises(
            WeakFormError, match=f"^{foreign} lives on a different grid than the test function$"
        ):
            residual_renormalized(fpath, b, [sig], phi, make_renormalizer("tanh"), path)

    def test_ledger_invariants(self):
        for terms in ({}, {"gamma_drift": 0.0}, {"drift": 0.0, "diffusion": 0.0, "ito": 0.0}):
            with pytest.raises(WeakFormError, match="must carry"):
                WeakFormLedger(terms=terms, lhs_delta=0.0, residual=0.0)
        with pytest.raises(WeakFormError, match="finite"):
            WeakFormLedger(
                terms={**dict.fromkeys(RENORMALIZED_TERMS, 0.0), "gamma_diffusion": math.nan},
                lhs_delta=0.0,
                residual=0.0,
            )


# ---------------------------------------------------------------------------
# Renormalized ledger
# ---------------------------------------------------------------------------

class TestRenormalizedLedger:
    def test_linear_gamma_reduces_to_original(self):
        # the plain weak form's terms, formed from f itself step by step,
        # against the linear ledger, bit for bit; the other five terms are 0
        g, phi, path, fpath, b, sig = transport_setup()
        lin = residual_renormalized(fpath, b, [sig], phi, make_renormalizer("linear"), path)
        grad_phi, hess_phi = phi_calculus(phi)
        vol, dt = g.cell_volume, path.dt
        drift = diffusion = ito = 0.0
        for l in range(path.steps):
            f = fpath[l].values
            b_l, s_l = b.slice_at(l * dt).values, sig.slice_at(l * dt).values
            drift += float(np.sum(f * np.einsum("i...,i...->...", b_l, grad_phi))) * vol * dt
            pair = np.einsum("i...,j...,ij...->...", s_l, s_l, hess_phi)
            diffusion += 0.5 * float(np.sum(f * pair)) * vol * dt
            advect = np.einsum("i...,i...->...", s_l, grad_phi)
            ito += float(np.sum(f * advect)) * vol * path.increments[l, 0]
        lhs_delta = float(np.sum((fpath[-1].values - fpath[0].values) * phi.values)) * vol
        assert [lin.terms[name] for name in PLAIN_TERMS] == [drift, diffusion, ito]
        assert lin.lhs_delta == lhs_delta
        assert lin.residual == lhs_delta - (drift + diffusion + ito)
        for name in RENORMALIZED_TERMS[3:]:
            assert lin.terms[name] == 0.0

    def test_constant_coefficients_kill_divergence_terms(self):
        _, phi, path, fpath, b, sig = transport_setup()
        ledger = residual_renormalized(fpath, b, [sig], phi, make_renormalizer("tanh"), path)
        for name in RENORMALIZED_TERMS[3:]:
            assert abs(ledger.terms[name]) < 1e-15
        assert abs(ledger.residual) < 3e-3

    def test_sign_flip_shifts_residual_by_twice_the_term(self):
        _, phi, path, fpath, b, sig = transport_setup()
        rn = make_renormalizer("tanh")
        plain = residual_renormalized(fpath, b, [sig], phi, rn, path)
        flipped = plain.flipped("gamma_ito")
        expected = plain.residual + 2.0 * plain.terms["gamma_ito"]
        assert abs(flipped.residual - expected) < 1e-12
        assert abs(flipped.residual) > 100 * abs(plain.residual)
        assert flipped.terms == {
            name: -v if name == "gamma_ito" else v for name, v in plain.terms.items()
        }
        assert flipped.lhs_delta == plain.lhs_delta
        assert flipped.residual == flipped.lhs_delta - sum(flipped.terms.values())
        twice = flipped.flipped("gamma_ito")
        assert twice.terms == plain.terms and twice.residual == plain.residual

    def test_flip_unknown_term_rejected(self):
        _, phi, path, fpath, b, sig = transport_setup(T=0.05)
        ledger = residual_renormalized(fpath, b, [sig], phi, make_renormalizer("tanh"), path)
        with pytest.raises(WeakFormError, match="flip"):
            ledger.flipped("drift")

    def test_shared_and_copied_slices_agree_bitwise(self):
        # slice sharing only saves work: N+1 rows, copies of one slice, give
        # the ledger of one row held at every time, bit for bit, over three
        # blocks of steps
        g, phi, path, fpath, _, _ = transport_setup(T=0.8)
        x = g.axis_coordinates()
        b_vec = GridVector(g, (0.5 + 0.3 * np.sin(x))[None, :])
        s_vec = GridVector(g, (0.4 + 0.2 * np.cos(x))[None, :])
        rn = make_renormalizer("tanh")

        def sampled(vec, copy):
            shared = sample_constant_in_time(vec, path.T, path.steps)
            if not copy:
                return shared
            copies = shared.values[shared.index]
            return TimeGridVector(g, shared.times, copies, np.arange(len(shared.times)))

        ledgers = [
            residual_renormalized(
                fpath, sampled(b_vec, copy), [sampled(s_vec, copy)], phi, rn, path
            )
            for copy in (False, True)
        ]
        assert all(v != 0.0 for v in ledgers[0].terms.values())
        hexed = [
            [v.hex() for v in (led.lhs_delta, led.residual, *led.terms.values())]
            for led in ledgers
        ]
        assert hexed[0] == hexed[1]

    def test_time_dependent_coefficients_read_the_slice_in_force(self):
        # a new slice at every coefficient sample, four samples per step: the
        # divergence-driven terms against a loop that looks each slice up
        g, phi, path, fpath, _, _ = transport_setup()
        times = np.linspace(0.0, path.T, 4 * path.steps + 1)
        x = g.axis_coordinates()
        own_rows = np.arange(len(times))
        b = TimeGridVector(
            g, times, np.stack([(0.5 + 0.3 * np.sin(x + 5 * t))[None, :] for t in times]), own_rows
        )
        sig = TimeGridVector(
            g, times, np.stack([(0.4 * np.cos(x - 3 * t))[None, :] for t in times]), own_rows
        )
        rn = make_renormalizer("tanh")
        ledger = residual_renormalized(fpath, b, [sig], phi, rn, path)
        vol, dt, psi = g.cell_volume, path.dt, phi.values
        g_div_b = h_divsigma_sq = 0.0
        for l in range(path.steps):
            f = fpath[l].values
            div_b = divergence(b.slice_at(l * dt)).values
            _, g_f, h_f = rn.derived(f)
            g_div_b -= float(np.sum(g_f * div_b * psi)) * vol * dt
            div_s = divergence(sig.slice_at(l * dt)).values
            h_divsigma_sq += 0.5 * float(np.sum(h_f * div_s**2 * psi)) * vol * dt
        assert ledger.terms["g_div_b"] == g_div_b
        assert ledger.terms["h_divsigma_sq"] == h_divsigma_sq

    def _compressible_residual(self, dt, flip=None):
        """Pushforward along b = 0.5 + 0.3 sin x with no noise, frozen values."""
        g = grid1()
        x = g.axis_coordinates()
        T = 0.25
        steps = round(T / dt)
        phi = bump_test_function(g, center=(L / 2,), radius=L / 8)
        b = still(GridVector(g, (0.5 + 0.3 * np.sin(x))[None, :]), T)
        f0 = GridScalar(g, 1.0 + 0.5 * np.sin(x))
        path = BrownianPath(
            T=T, dt=dt, k_count=0, increments=np.zeros((steps, 0)), seed=0
        )
        ens = simulate_flow(b, [], SdeConfig(dt=dt), path)
        fpath = [pushforward_solution(f0, ens, l * dt) for l in range(steps + 1)]
        ledger = residual_renormalized(fpath, b, [], phi, make_renormalizer("tanh"), path)
        return ledger if flip is None else ledger.flipped(flip)

    def test_compressible_pushforward_refines(self):
        coarse = self._compressible_residual(2e-3)
        fine = self._compressible_residual(1e-3)
        assert abs(coarse.residual) < 2e-5
        assert abs(fine.residual) < abs(coarse.residual)
        assert abs(coarse.residual) / abs(fine.residual) > 1.5

    def test_compressible_sign_flip_breaks_convergence(self):
        honest = self._compressible_residual(2e-3)
        broken = self._compressible_residual(2e-3, flip="g_div_b")
        assert abs(honest.terms["g_div_b"]) > 1e-3
        assert abs(broken.residual) > 100 * abs(honest.residual)


# ---------------------------------------------------------------------------
# Weighted-L1 stability
# ---------------------------------------------------------------------------

def translation_ensembles(T=0.1, dt=0.02, members=3, sigma=0.25):
    g = grid1()
    x = g.axis_coordinates()
    b = still(GridVector.constant(g, (0.4,)), T)
    sig = still(GridVector.constant(g, (sigma,)), T)
    f0 = GridScalar(g, 1.0 + 0.5 * np.sin(x))
    ensembles = [
        simulate_flow(b, [sig], SdeConfig(dt=dt), sample_brownian(T, dt, 1, stream_id=50 + m))
        for m in range(members)
    ]
    return g, b, sig, f0, ensembles


def stability(ensembles, f0, b, sigmas, r_exponent, dt=0.02):
    """weighted_l1_stability of each member's weighted_l1_masses."""
    masses = [weighted_l1_masses(f0, ens, r_exponent) for ens in ensembles]
    return weighted_l1_stability(masses, f0, b, sigmas, r_exponent, dt)


class TestStability:
    def test_rigid_translation_is_constant(self):
        _, b, sig, f0, ensembles = translation_ensembles()
        series = stability(ensembles, f0, b, [sig], r_exponent=0.0)
        assert np.max(np.abs(series.mean - series.mean[0])) < 1e-12
        assert series.envelope[0] == series.mean[0]
        assert np.all(series.mean <= series.envelope + 1e-12)

    def test_gronwall_envelope_closed_form(self):
        g = grid1()
        x = g.axis_coordinates()
        T, dt = 0.1, 0.02
        b = still(GridVector.constant(g, (0.4,)), T)
        f0 = GridScalar(g, 1.0 + 0.5 * np.sin(x))
        ensembles = [
            simulate_flow(
                b,
                [],
                SdeConfig(dt=dt),
                BrownianPath(T=T, dt=dt, k_count=0, increments=np.zeros((5, 0)), seed=i),
            )
            for i in range(2)
        ]
        series = stability(ensembles, f0, b, [], r_exponent=0.0, dt=dt)
        # sup of |b|/(1 + |x - center|) is 0.4, attained at the center
        expected = series.envelope[0] * np.exp(0.4 * np.arange(6) * dt)
        assert np.max(np.abs(series.envelope - expected)) < 1e-12

    def test_zero_datum_is_identically_zero(self):
        g, b, sig, _, ensembles = translation_ensembles()
        zero = GridScalar.constant(g, 0.0)
        series = stability(ensembles, zero, b, [sig], r_exponent=0.0)
        assert np.array_equal(series.mean, np.zeros_like(series.mean))
        assert np.array_equal(series.envelope, np.zeros_like(series.envelope))

    def test_decaying_weight_tightens_the_mass(self):
        g, b, sig, f0, ensembles = translation_ensembles()
        flat = stability(ensembles, f0, b, [sig], r_exponent=0.0)
        decaying = stability(ensembles, f0, b, [sig], r_exponent=2.0)
        assert np.all(decaying.mean < flat.mean)
        # the series starts from f0's mass under the r = 2 weight (1 + |x - c|^2)^-1
        sq = sum((x - g.L / 2.0) ** 2 for x in g.coordinates())
        mass = np.sum(np.abs(f0.values) / (1.0 + sq)) * g.cell_volume
        assert decaying.envelope[0] == pytest.approx(mass, rel=1e-12)

    def test_validation(self):
        g, b, sig, f0, ensembles = translation_ensembles()
        masses = [weighted_l1_masses(f0, ens, 0.0) for ens in ensembles]
        with pytest.raises(FlowError, match="at least 2"):
            weighted_l1_stability(masses[:1], f0, b, [sig], 0.0, 0.02)
        with pytest.raises(WeakFormError, match="one row per member"):
            weighted_l1_stability(masses[0], f0, b, [sig], 0.0, 0.02)
        with pytest.raises(WeakFormError, match="exponent"):
            weighted_l1_stability(masses, f0, b, [sig], 0.5, 0.02)
        with pytest.raises(WeakFormError, match="exponent"):
            weighted_l1_masses(f0, ensembles[0], 0.5)
        other = GridScalar.constant(build_grid(1, L, 32), 1.0)
        with pytest.raises(FlowError, match="grid"):
            weighted_l1_masses(other, ensembles[0], 0.0)

    @pytest.mark.parametrize("r_exponent", [math.nan, math.inf, True])
    def test_weight_exponent_must_be_a_finite_number(self, r_exponent):
        g, b, sig, f0, ensembles = translation_ensembles(members=2)
        masses = [weighted_l1_masses(f0, ens, 0.0) for ens in ensembles]
        message = "weight exponent must be"
        with pytest.raises(WeakFormError, match=message):
            weighted_l1_masses(f0, ensembles[0], r_exponent)
        with pytest.raises(WeakFormError, match=message):
            weighted_l1_stability(masses, f0, b, [sig], r_exponent, 0.02)

    @pytest.mark.parametrize("foreign", ["drift", "noise field 0"])
    def test_coefficient_on_another_grid_refused_by_name(self, foreign):
        # a 32-node coefficient against the 64-node datum
        g, b, sig, f0, ensembles = translation_ensembles()
        masses = [weighted_l1_masses(f0, ens, 0.0) for ens in ensembles]
        coarse = still(GridVector.constant(grid1(32), (0.3,)), 0.1)
        b, sig = (coarse, sig) if foreign == "drift" else (b, coarse)
        with pytest.raises(
            WeakFormError, match=f"^{foreign} lives on a different grid than the datum$"
        ):
            weighted_l1_stability(masses, f0, b, [sig], 0.0, 0.02)

    def test_mismatched_time_grids_rejected(self):
        g, b, sig, f0, ensembles = translation_ensembles()
        short = simulate_flow(
            b, [sig], SdeConfig(dt=0.05), sample_brownian(0.1, 0.05, 1, stream_id=99)
        )
        masses = [weighted_l1_masses(f0, ens, 0.0) for ens in (ensembles[0], short)]
        with pytest.raises(ValueError):  # numpy refuses rows of unequal length
            weighted_l1_stability(masses, f0, b, [sig], 0.0, 0.02)


@settings(max_examples=10, deadline=None)
@given(scale=st.floats(min_value=0.2, max_value=4.0))
def test_stability_scales_linearly_with_the_datum(scale):
    """E integral w |c f| = |c| E integral w |f| for every step."""
    g, b, sig, f0, ensembles = translation_ensembles(T=0.06, dt=0.03, members=2)
    base = stability(ensembles, f0, b, [sig], r_exponent=0.0, dt=0.03)
    scaled_datum = GridScalar(g, scale * f0.values)
    scaled = stability(ensembles, scaled_datum, b, [sig], r_exponent=0.0, dt=0.03)
    assert np.max(np.abs(scaled.mean - scale * base.mean)) < 1e-9 * max(1.0, scale)
