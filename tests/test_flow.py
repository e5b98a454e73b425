"""Stochastic flow tests.

The closed forms doing the work:

* Euler-Maruyama is exact for constant coefficients, so translation flows
  and their push-forwards must come out at round-off;
* the single-harmonic contraction dy = -sin(y - c) dt integrates to
  tan((y - c)/2) = tan((y0 - c)/2) e^{-t}, with Jacobian
  J_t = e^{-t} (1 + u0^2)/(1 + u0^2 e^{-2t}), u0 = tan((y0 - c)/2);
* the 2D shear b = (sin(x2), 0) is nilpotent: trajectories, the variational
  matrix (= I + t db, a matrix exponential), the log-determinant (= 0), and
  the inverse map are all exact for the discrete scheme, independent of dt.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renormlab import presets
from renormlab.field import (
    GridScalar,
    GridVector,
    TimeGridVector,
    build_grid,
    divergence,
    jacobian,
)
from renormlab.flow import (
    BrownianPath,
    FlowEnsemble,
    FlowError,
    SdeConfig,
    ensemble_moment,
    invert_flow,
    load_ensemble,
    logdet_gap,
    logdet_stochastic_exponential,
    pushforward_solution,
    refine_brownian,
    sample_brownian,
    save_ensemble,
    simulate_flow,
    variational_jacobian,
)
from renormlab.interp import PeriodicInterpolant, jacobian_interpolant, vector_interpolant
from renormlab.rng import stream

L = 2.0 * math.pi
T = 0.5


def grid1(n=64):
    return build_grid(1, L, n)


def still(vec, horizon=T):
    return presets.sample_constant_in_time(vec, horizon, 1)


def sine_contraction(grid):
    """Drift -sin(x - L/2); fixed point at the box center."""
    x = grid.axis_coordinates()
    return still(GridVector(grid, (-np.sin(x - L / 2))[None, :]))


def contraction_map(y0, t):
    return L / 2 + 2.0 * np.arctan(np.tan((y0 - L / 2) / 2) * math.exp(-t))


def contraction_jacobian(y0, t):
    u0 = np.tan((y0 - L / 2) / 2)
    return math.exp(-t) * (1 + u0**2) / (1 + u0**2 * math.exp(-2 * t))


class TestSdeConfig:
    def test_validation(self):
        with pytest.raises(FlowError):
            SdeConfig(dt=0.0)


class TestBrownian:
    def test_deterministic(self):
        a = sample_brownian(T, 0.01, 2, 42)
        b = sample_brownian(T, 0.01, 2, 42)
        assert np.array_equal(a.increments, b.increments)
        c = sample_brownian(T, 0.01, 2, 43)
        assert not np.array_equal(a.increments, c.increments)

    def test_zero_components(self):
        p = sample_brownian(T, 0.05, 0, 1)
        assert p.increments.shape == (10, 0)

    def test_non_integral_step_count(self):
        with pytest.raises(FlowError):
            sample_brownian(T, 0.3, 1, 0)

    def test_law_of_large_numbers(self):
        total = np.array(
            [sample_brownian(T, 0.05, 1, m).increments.sum() for m in range(10_000)]
        )
        assert abs(total.mean()) < 3.0 * math.sqrt(T / 10_000)
        assert abs(total.var() - T) < 0.05 * T

    def test_shape_validation(self):
        with pytest.raises(FlowError):
            BrownianPath(T, 0.01, 1, np.zeros((7, 1)), 0)
        with pytest.raises(FlowError):
            BrownianPath(T, 0.01, 1, np.full((50, 1), np.nan), 0)

    def test_refine_is_the_same_motion(self):
        p = sample_brownian(T, 0.01, 2, 5)
        f = refine_brownian(p, 4)
        assert f.increments.shape == (200, 2)
        coarse_sums = f.increments.reshape(50, 4, 2).sum(axis=1)
        assert np.abs(coarse_sums - p.increments).max() < 1e-14
        again = refine_brownian(p, 4)
        assert np.array_equal(f.increments, again.increments)
        with pytest.raises(FlowError):
            refine_brownian(p, 1)


class TestSimulate:
    def test_frozen_coefficients_identity(self):
        g = grid1()
        b = still(GridVector.constant(g, [0.0]))
        ens = simulate_flow(b, [], SdeConfig(dt=0.01), sample_brownian(T, 0.01, 0, 7))
        assert np.array_equal(ens.paths[-1], ens.paths[0])

    def test_constant_noise_translation_exact(self):
        g = grid1()
        b = still(GridVector.constant(g, [0.0]))
        s1 = still(GridVector.constant(g, [1.0]))
        path = sample_brownian(T, 0.01, 1, 8)
        ens = simulate_flow(b, [s1], SdeConfig(dt=0.01), path)
        W = path.increments[:, 0].sum()
        assert np.abs(ens.paths[-1] - (ens.paths[0] + W)).max() < 1e-13

    def test_contraction_closed_form(self):
        g = grid1()
        b = sine_contraction(g)
        x = g.axis_coordinates()
        interior = np.abs(x - L / 2) < 0.45 * L
        errors = []
        for dt in (1e-2, 2.5e-3):
            ens = simulate_flow(b, [], SdeConfig(dt=dt), sample_brownian(T, dt, 0, 1))
            errors.append(np.abs(ens.paths[-1][0] - contraction_map(x, T))[interior].max())
        assert errors[0] < 2e-3
        assert errors[0] / errors[1] > 3.0  # first order in dt

    def test_unstable_fixed_point_is_fixed(self):
        g = grid1()
        ens = simulate_flow(
            sine_contraction(g), [], SdeConfig(dt=0.01), sample_brownian(T, 0.01, 0, 1)
        )
        assert abs(ens.paths[-1][0][0] - ens.paths[0][0][0]) < 1e-14

    def test_blow_up_reports_step(self):
        g = grid1(16)
        b = still(GridVector.constant(g, [1e308]), horizon=2.0)
        path = sample_brownian(2.0, 0.125, 0, 0)
        with pytest.raises(FlowError, match="step"):
            simulate_flow(b, [], SdeConfig(dt=0.125), path)

    def test_validation(self):
        g = grid1()
        b = still(GridVector.constant(g, [0.0]))
        path = sample_brownian(T, 0.01, 1, 0)
        with pytest.raises(FlowError, match="components"):
            simulate_flow(b, [], SdeConfig(dt=0.01), path)
        with pytest.raises(FlowError, match="dt"):
            simulate_flow(b, [b], SdeConfig(dt=0.02), path)
        short = still(GridVector.constant(g, [0.0]), horizon=0.25)
        with pytest.raises(FlowError, match="horizon"):
            simulate_flow(short, [short], SdeConfig(dt=0.01), path)


class TestJacobians:
    def test_contraction_both_routes(self):
        g = grid1()
        b = sine_contraction(g)
        x = g.axis_coordinates()
        interior = np.abs(x - L / 2) < 0.45 * L
        truth = contraction_jacobian(x, T)
        ens = simulate_flow(b, [], SdeConfig(dt=2.5e-3), sample_brownian(T, 2.5e-3, 0, 1))
        variational_jacobian(ens, b, [])
        logdet_stochastic_exponential(ens, b, [])
        assert np.abs(ens.jac_variational[-1][0, 0] - truth)[interior].max() < 1e-3
        assert np.abs(ens.logdet_exponential[-1] - np.log(truth))[interior].max() < 1e-3
        assert logdet_gap(ens) < 1e-3
        assert logdet_gap(ens, step=0) == 0.0

    def test_shear_is_exact(self):
        g = build_grid(2, L, 32)
        xx, yy = g.coordinates()
        b = still(GridVector(g, np.stack([np.sin(yy), np.zeros_like(yy)])))
        ens = simulate_flow(b, [], SdeConfig(dt=0.05), sample_brownian(T, 0.05, 0, 4))
        assert np.abs(ens.paths[-1] - np.stack([xx + T * np.sin(yy), yy])).max() < 1e-13
        variational_jacobian(ens, b, [])
        J = ens.jac_variational[-1]
        assert np.abs(J[0, 0] - 1.0).max() == 0.0
        assert np.abs(J[0, 1] - T * np.cos(yy)).max() < 1e-13
        assert np.abs(J[1, 0]).max() == 0.0
        logdet_stochastic_exponential(ens, b, [])
        assert np.abs(ens.logdet_exponential).max() == 0.0
        assert logdet_gap(ens) < 1e-12

    def test_constant_noise_keeps_identity_jacobian(self):
        g = grid1()
        b = still(GridVector.constant(g, [0.0]))
        s1 = still(GridVector.constant(g, [1.0]))
        path = sample_brownian(T, 0.01, 1, 3)
        ens = simulate_flow(b, [s1], SdeConfig(dt=0.01), path)
        variational_jacobian(ens, b, [s1])
        logdet_stochastic_exponential(ens, b, [s1])
        assert np.abs(ens.jac_variational[-1][0, 0] - 1.0).max() == 0.0
        assert np.abs(ens.logdet_exponential).max() == 0.0

    def test_gap_requires_both_routes(self):
        g = grid1()
        b = still(GridVector.constant(g, [0.0]))
        ens = simulate_flow(b, [], SdeConfig(dt=0.05), sample_brownian(T, 0.05, 0, 1))
        with pytest.raises(FlowError):
            logdet_gap(ens)


def reference_kernels(b, sigmas, path):
    """simulate_flow, variational_jacobian and logdet_stochastic_exponential
    done one step and one coefficient at a time, with a fresh spline per call.

    Returns (paths, jac_variational, logdet_exponential).
    """
    grid = b.grid
    dt, dW = path.dt, path.increments
    X = np.stack(grid.coordinates())
    paths = [X]
    for l in range(path.steps):
        t = l * dt
        move = vector_interpolant(b.slice_at(t))(X) * dt
        for k, s in enumerate(sigmas):
            move += vector_interpolant(s.slice_at(t))(X) * dW[l, k]
        X = X + move
        paths.append(X)
    J = [np.einsum("ij,...->ij...", np.eye(grid.dim), np.ones(grid.shape))]
    logdet = [np.zeros(grid.shape)]
    for l in range(path.steps):
        t, X = l * dt, paths[l]
        growth = jacobian_interpolant(b.slice_at(t))(X) * dt
        for k, s in enumerate(sigmas):
            growth += jacobian_interpolant(s.slice_at(t))(X) * dW[l, k]
        J.append(J[l] + np.einsum("ik...,kj...->ij...", growth, J[l]))
        increment = PeriodicInterpolant(grid, divergence(b.slice_at(t)).values)(X) * dt
        for k, s in enumerate(sigmas):
            sl = s.slice_at(t)
            jac = jacobian(sl)
            twist = PeriodicInterpolant(grid, np.einsum("ij...,ji...->...", jac, jac))(X)
            div = PeriodicInterpolant(grid, divergence(sl).values)(X)
            increment += div * dW[l, k] - 0.5 * twist * dt
        logdet.append(logdet[l] + increment)
    return np.stack(paths), np.stack(J), np.stack(logdet)


def trig_case():
    g = grid1()
    steps = 500
    b = presets.sample_constant_in_time(presets.trig_flow_drift(g), T, steps)
    sigmas = [presets.sample_constant_in_time(s, T, steps) for s in presets.trig_flow_noise(g)]
    return b, sigmas, sample_brownian(T, T / steps, 1, 2024)


def divfree_case():
    g = build_grid(2, L, 16)
    horizon, steps = 0.1, 50
    b = presets.sample_constant_in_time(presets.divfree_2d_drift(g), horizon, steps)
    sigmas = [
        presets.sample_constant_in_time(s, horizon, steps) for s in presets.divfree_2d_noise(g)
    ]
    return b, sigmas, sample_brownian(horizon, horizon / steps, 2, 2025)


def time_dependent_case():
    # a new drift slice at every step, a new noise slice every fourth step,
    # and a second noise held still: steps fall into many slice groups
    g = grid1()
    steps = 200
    b = TimeGridVector.from_function(
        g,
        np.linspace(0.0, T, steps + 1),
        lambda t: [lambda x: 0.6 * np.sin(x + 3.0 * t) + 0.2 * t],
    )
    s1 = TimeGridVector.from_function(
        g,
        np.linspace(0.0, T, steps // 4 + 1),
        lambda t: [lambda x: 0.4 + 0.3 * np.cos(x - t)],
    )
    s2 = still(GridVector(g, (0.2 * np.sin(2.0 * g.axis_coordinates()))[None, :]))
    return b, [s1, s2], sample_brownian(T, T / steps, 2, 2026)


class TestBatchedKernels:
    """The batched kernels against the step-by-step reference, bit for bit."""

    @pytest.mark.parametrize("case", [trig_case, divfree_case, time_dependent_case])
    def test_bitwise_equal_to_reference(self, case):
        b, sigmas, path = case()
        ens = simulate_flow(b, sigmas, SdeConfig(dt=path.dt), path)
        variational_jacobian(ens, b, sigmas)
        logdet_stochastic_exponential(ens, b, sigmas)
        paths, jac, logdet = reference_kernels(b, sigmas, path)
        assert np.array_equal(ens.paths, paths)
        assert np.array_equal(ens.jac_variational, jac)
        assert np.array_equal(ens.logdet_exponential, logdet)

    def test_variational_blow_up_reports_step(self):
        # trajectories held at the nodes, so J grows by 1 + 10 cos(x) a step
        # and overflows at step 297, in the third block of stored positions
        g = grid1(16)
        b = still(GridVector(g, (1e3 * np.sin(g.axis_coordinates()))[None, :]), horizon=4.0)
        path = sample_brownian(4.0, 0.01, 0, 0)
        X0 = np.stack(g.coordinates())
        ens = FlowEnsemble(g, path, np.stack([X0] * (path.steps + 1)))
        with pytest.raises(FlowError, match="variational recursion lost finiteness at step 297$"):
            variational_jacobian(ens, b, [])


def reference_inverse(ensemble, step, tol=1e-10):
    """Plain Newton from y = x with a spline residual in every round.

    Returns (psi, det, rounds).
    """
    grid = ensemble.seeds_grid
    X0 = ensemble.paths[0].reshape(grid.dim, -1)
    disp = GridVector(grid, ensemble.paths[step] - ensemble.paths[0])
    D, JD = vector_interpolant(disp), PeriodicInterpolant(grid, jacobian(disp))

    def matrices(Y):  # I + dD(y), one (dim, dim) matrix per point
        return np.eye(grid.dim) + np.moveaxis(JD(Y), -1, 0)

    Y = X0.copy()
    for rounds in range(1, 31):
        F = Y + D(Y) - X0
        if np.abs(F).max() < tol:
            break
        Y = Y - np.linalg.solve(matrices(Y), F.T[..., None])[..., 0].T
    det = 1.0 / np.linalg.det(matrices(Y))
    return Y.reshape(ensemble.paths[0].shape), det.reshape(grid.shape), rounds


class TestInversion:
    @pytest.mark.parametrize("case", [trig_case, divfree_case])
    def test_identity_at_time_zero(self, case):
        b, sigmas, path = case()
        ens = simulate_flow(b, sigmas, SdeConfig(dt=path.dt), path)
        inv = invert_flow(ens, 0.0)
        assert np.array_equal(inv.psi.values, ens.paths[0])
        assert np.array_equal(inv.det.values, np.ones(b.grid.shape))
        assert inv.newton_iterations == 1

    @pytest.mark.parametrize("case", [trig_case, divfree_case])
    def test_node_step_matches_newton_from_x(self, case):
        # the first step is taken on node data; a reference that evaluates
        # the splines in every round lands on the same inverse, one round later
        b, sigmas, path = case()
        ens = simulate_flow(b, sigmas, SdeConfig(dt=path.dt), path)
        for step in (1, path.steps // 2, path.steps):
            inv = invert_flow(ens, step * path.dt)
            psi, det, rounds = reference_inverse(ens, step)
            assert np.abs(inv.psi.values - psi).max() < 1e-13
            assert np.abs(inv.det.values - det).max() < 1e-13
            assert inv.newton_iterations == rounds - 1

    def test_translation(self):
        g = grid1()
        b = still(GridVector.constant(g, [0.0]))
        s1 = still(GridVector.constant(g, [1.0]))
        path = sample_brownian(T, 0.01, 1, 8)
        ens = simulate_flow(b, [s1], SdeConfig(dt=0.01), path)
        inv = invert_flow(ens, T)
        W = path.increments[:, 0].sum()
        assert np.abs(inv.psi.values - (ens.paths[0] - W)).max() < 1e-9
        assert np.abs(inv.det.values - 1.0).max() < 1e-12

    def test_contraction_closed_form(self):
        g = grid1()
        x = g.axis_coordinates()
        interior = np.abs(x - L / 2) < 0.45 * L
        ens = simulate_flow(
            sine_contraction(g), [], SdeConfig(dt=2.5e-3), sample_brownian(T, 2.5e-3, 0, 1)
        )
        inv = invert_flow(ens, T)
        psi_truth = contraction_map(x, -T)
        assert np.abs(inv.psi.values[0] - psi_truth)[interior].max() < 1e-3
        det_truth = 1.0 / contraction_jacobian(psi_truth, T)
        assert np.abs(inv.det.values - det_truth)[interior].max() < 2e-3

    def test_shear_inverse_exact(self):
        g = build_grid(2, L, 32)
        xx, yy = g.coordinates()
        b = still(GridVector(g, np.stack([np.sin(yy), np.zeros_like(yy)])))
        ens = simulate_flow(b, [], SdeConfig(dt=0.05), sample_brownian(T, 0.05, 0, 4))
        inv = invert_flow(ens, T)
        assert np.abs(inv.psi.values - np.stack([xx - T * np.sin(yy), yy])).max() < 1e-12
        assert np.abs(inv.det.values - 1.0).max() < 1e-12

    def test_off_grid_time_rejected(self):
        g = grid1()
        b = still(GridVector.constant(g, [0.0]))
        ens = simulate_flow(b, [], SdeConfig(dt=0.05), sample_brownian(T, 0.05, 0, 1))
        with pytest.raises(FlowError, match="step grid"):
            invert_flow(ens, 0.033)

    def test_overshooting_newton_falls_back_to_step_halving(self):
        # full Newton steps stagnate at residual 90 on this trig-preset flow,
        # though det(I + dD) >= 0.258 on the nodes; halved steps converge
        b, sigmas, _ = trig_case()
        path = sample_brownian(T, 1e-3, 1, 1677528212305881673)
        ens = simulate_flow(b, sigmas, SdeConfig(dt=1e-3), path)
        inv = invert_flow(ens, T)
        X0 = ens.paths[0]
        D = vector_interpolant(GridVector(grid1(), ens.paths[-1] - X0))
        psi = inv.psi.values
        assert np.abs(psi + D(psi) - X0).max() < 1e-10
        assert inv.newton_iterations > 30
        assert inv.det.values.min() > 0.0

    def test_non_injective_map_rejected(self):
        # hand-built displacement with derivative dipping below -1
        g = grid1()
        x = g.axis_coordinates()
        X0 = np.stack(g.coordinates())
        paths = np.stack([X0, X0 + (1.5 * np.sin(x))[None, :]])
        ens = FlowEnsemble(
            seeds_grid=g,
            path=BrownianPath(0.05, 0.05, 0, np.zeros((1, 0)), 0),
            paths=paths,
        )
        with pytest.raises(FlowError, match="injective"):
            invert_flow(ens, 0.05)


class TestPushforward:
    def test_translation_formula(self):
        g = grid1()
        x = g.axis_coordinates()
        b = still(GridVector.constant(g, [0.0]))
        s1 = still(GridVector.constant(g, [1.0]))
        path = sample_brownian(T, 0.01, 1, 8)
        ens = simulate_flow(b, [s1], SdeConfig(dt=0.01), path)
        f0 = GridScalar(g, 1.0 + 0.5 * np.sin(x))
        fT = pushforward_solution(f0, ens, T)
        W = path.increments[:, 0].sum()
        assert np.abs(fT.values - (1.0 + 0.5 * np.sin(x - W))).max() < 1e-7

    def test_constant_datum_constant_drift(self):
        g = grid1()
        b = still(GridVector.constant(g, [0.7]))
        ens = simulate_flow(b, [], SdeConfig(dt=0.01), sample_brownian(T, 0.01, 0, 2))
        fT = pushforward_solution(GridScalar.constant(g, 2.5), ens, T)
        assert np.abs(fT.values - 2.5).max() < 1e-11

    def test_mass_conserved_with_compressible_drift(self):
        g = grid1()
        x = g.axis_coordinates()
        ens = simulate_flow(
            sine_contraction(g), [], SdeConfig(dt=0.01), sample_brownian(T, 0.01, 0, 1)
        )
        f0 = GridScalar(g, 1.0 + 0.5 * np.sin(x))
        fT = pushforward_solution(f0, ens, T)
        assert abs(fT.values.mean() - f0.values.mean()) * L < 1e-5

    def test_grid_mismatch(self):
        g = grid1()
        other = grid1(32)
        b = still(GridVector.constant(g, [0.0]))
        ens = simulate_flow(b, [], SdeConfig(dt=0.05), sample_brownian(T, 0.05, 0, 1))
        with pytest.raises(FlowError):
            pushforward_solution(GridScalar.constant(other, 1.0), ens, T)


class TestFlowProperty:
    def test_composition_matches_full_run(self):
        g = grid1()
        b = sine_contraction(g)
        x = g.axis_coordinates()
        sg = still(GridVector(g, (0.4 + 0.3 * np.sin(x + 1.0))[None, :]))
        dt = 1e-2
        path = sample_brownian(T, dt, 1, 9)
        full = simulate_flow(b, [sg], SdeConfig(dt=dt), path)
        s_idx = 25
        tail = BrownianPath(T - s_idx * dt, dt, 1, path.increments[s_idx:], path.seed)
        leg = simulate_flow(b, [sg], SdeConfig(dt=dt), tail)
        hop = vector_interpolant(GridVector(g, leg.paths[-1] - leg.paths[0]))
        composed = full.paths[s_idx] + hop(full.paths[s_idx])
        assert np.abs(composed - full.paths[-1]).max() < 1e-5


class TestEnsembleMoment:
    def test_constant_functional(self):
        g = grid1(16)
        b = still(GridVector.constant(g, [0.0]))
        ens = [
            simulate_flow(b, [], SdeConfig(dt=0.05), sample_brownian(T, 0.05, 0, m))
            for m in range(3)
        ]
        est = ensemble_moment(ens, lambda e: 1.0, power=2.0)
        assert tuple(est) == (1.0, 0.0)
        assert est.mean == 1.0 and est.stderr == 0.0

    def test_stderr_shrinks_with_members(self):
        # functional depends only on the member's own stream: iid samples
        def noisy(e):
            return float(stream(e.path.seed, 77).normal())

        g = grid1(16)
        b = still(GridVector.constant(g, [0.0]))

        def batch(count, offset):
            return [
                simulate_flow(
                    b, [], SdeConfig(dt=0.25), sample_brownian(T, 0.25, 0, offset + m)
                )
                for m in range(count)
            ]

        small = ensemble_moment(batch(64, 0), noisy)
        big = ensemble_moment(batch(256, 1000), noisy)
        assert 1.3 < small.stderr / big.stderr < 3.1

    def test_requires_two(self):
        with pytest.raises(FlowError):
            ensemble_moment([], lambda e: 1.0)
        g = grid1(16)
        b = still(GridVector.constant(g, [0.0]))
        one = simulate_flow(b, [], SdeConfig(dt=0.25), sample_brownian(T, 0.25, 0, 0))
        with pytest.raises(FlowError):
            ensemble_moment([one], lambda e: 1.0)


class TestFloFiles:
    def test_round_trip_bitwise(self, tmp_path):
        g = grid1(32)
        x = g.axis_coordinates()
        b = sine_contraction(g)
        sg = still(GridVector(g, (0.4 + 0.2 * np.cos(x))[None, :]))
        path = sample_brownian(T, 0.025, 1, 12)
        ens = simulate_flow(b, [sg], SdeConfig(dt=0.025), path)
        variational_jacobian(ens, b, [sg])
        logdet_stochastic_exponential(ens, b, [sg])
        target = tmp_path / "ensemble.flo"
        save_ensemble(target, ens)
        back = load_ensemble(target)
        assert np.array_equal(back.paths, ens.paths)
        assert np.array_equal(back.path.increments, path.increments)
        assert np.array_equal(back.jac_variational, ens.jac_variational)
        assert np.array_equal(back.logdet_exponential, ens.logdet_exponential)
        assert back.path.seed == 12
        assert back.seeds_grid == g

    def test_partial_round_trip(self, tmp_path):
        g = grid1(16)
        b = still(GridVector.constant(g, [0.0]))
        ens = simulate_flow(b, [], SdeConfig(dt=0.05), sample_brownian(T, 0.05, 0, 1))
        target = tmp_path / "bare.flo"
        save_ensemble(target, ens)
        back = load_ensemble(target)
        assert back.jac_variational is None
        assert back.logdet_exponential is None

    def test_rejects_foreign_file(self, tmp_path):
        target = tmp_path / "other.fld"
        target.write_bytes(b'{"format": "fld"}\n')
        with pytest.raises(FlowError):
            load_ensemble(target)

    def test_rejects_trailing_bytes(self, tmp_path):
        g = grid1(16)
        b = still(GridVector.constant(g, [0.0]))
        ens = simulate_flow(b, [], SdeConfig(dt=0.05), sample_brownian(T, 0.05, 0, 1))
        target = tmp_path / "padded.flo"
        save_ensemble(target, ens)
        with open(target, "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(FlowError, match="trailing"):
            load_ensemble(target)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k_count=st.integers(1, 2))
def test_constant_noise_flow_is_translation(seed, k_count):
    g = build_grid(1, L, 16)
    b = still(GridVector.constant(g, [0.0]))
    sigmas = [still(GridVector.constant(g, [float(k + 1)])) for k in range(k_count)]
    path = sample_brownian(T, 0.05, k_count, seed)
    ens = simulate_flow(b, sigmas, SdeConfig(dt=0.05), path)
    shift = sum((k + 1) * path.increments[:, k].sum() for k in range(k_count))
    assert np.abs(ens.paths[-1] - (ens.paths[0] + shift)).max() < 1e-12
