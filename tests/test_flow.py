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

import json
import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renormlab import flow, interp, lab, presets, zvonkin
from renormlab.field import (
    GridScalar,
    GridVector,
    TimeGridVector,
    build_grid,
    divergence,
    jacobian,
    jacobian_stack,
)
from renormlab.flow import (
    BrownianPath,
    FlowEnsemble,
    FlowError,
    SdeConfig,
    _mean_stderr,
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
from renormlab.interp import PeriodicInterpolant
from renormlab.rng import mix_indices, stream

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


# Steps per block of the recursions over stored positions on a 16-node grid.
BLOCK = flow._BLOCK_POINTS // 16
# step 1, the last step of a block, the first step of a later one, the last step
SPIKE_STEPS = [1, BLOCK, BLOCK + 1, 3 * BLOCK]


def spiked_case(k_count, step):
    """Coefficients that are zero at every step of a 3-block path but one.

    Step ``step`` (1-based) reads 1e305 sin(x), in the drift when k_count is
    0 and in the one noise otherwise; dt and every dW are 1e4, so the flow
    and the variational recursion overflow at exactly that step.  Returns
    (b, sigmas, path).
    """
    g = grid1(16)
    steps, dt = 3 * BLOCK, 1e4
    zero = GridVector.constant(g, [0.0])
    rows = np.stack([zero.values, (1e305 * np.sin(g.axis_coordinates()))[None, :]])
    index = np.zeros(steps + 1, dtype=int)
    index[step - 1] = 1
    spike = TimeGridVector(g, np.arange(steps + 1) * dt, rows, index)
    path = BrownianPath(steps * dt, dt, k_count, np.full((steps, k_count), 1e4), 0)
    if k_count == 0:
        return spike, [], path
    return still(zero, horizon=path.T), [spike], path


class TestSdeConfig:
    def test_validation(self):
        with pytest.raises(FlowError):
            SdeConfig(dt=0.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_dt_refused_by_name(self, dt):
        with pytest.raises(FlowError, match=f"dt must be finite, got {dt}"):
            SdeConfig(dt=dt)

    def test_nan_dt_matches_no_path(self):
        config = SdeConfig(dt=0.05)
        object.__setattr__(config, "dt", math.nan)  # a record changed after its check
        b = still(GridVector.constant(grid1(), [0.0]))
        with pytest.raises(FlowError, match="config dt nan does not match path dt 0.05"):
            simulate_flow(b, [], config, sample_brownian(T, 0.05, 0, 1))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SdeConfig(dt=True), "dt must be a number, got True"),
        (lambda: SdeConfig(dt="x"), "dt must be a number, got 'x'"),
        (lambda: SdeConfig(dt=None), "dt must be a number, got None"),
        (lambda: SdeConfig(dt=10**400), "dt must be finite, got 1000"),
        (lambda: SdeConfig(dt=-1.0), "dt must be positive, got -1.0"),
        (lambda: sample_brownian(True, 0.5, 1, 0), "T must be a number, got True"),
        (lambda: sample_brownian(1.0, True, 1, 0), "dt must be a number, got True"),
        (lambda: sample_brownian("1", 0.5, 1, 0), "T must be a number, got '1'"),
        (lambda: sample_brownian(math.inf, 0.5, 1, 0), "T must be finite, got inf"),
        (lambda: sample_brownian(math.nan, 0.5, 1, 0), "T must be finite, got nan"),
        (lambda: BrownianPath(True, 0.5, 1, np.zeros((2, 1)), 0), "T must be a number, got True"),
    ],
    ids=[
        "config_bool", "config_str", "config_none", "config_huge_int", "config_negative",
        "draw_bool_T", "draw_bool_dt", "draw_str_T", "draw_inf_T", "draw_nan_T", "path_bool_T",
    ],
)
def test_time_scalars_refused_by_name(make, message):
    with pytest.raises(FlowError, match=f"^{re.escape(message)}"):
        make()


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

    @pytest.mark.parametrize(
        "draw, message",
        [
            # a float id used to draw stream 2 and record seed 2, aliasing that stream
            (lambda: sample_brownian(0.1, 0.01, 1, 2.5), "seed must be an integer, got 2.5"),
            (lambda: sample_brownian(0.1, 0.01, 1, True), "seed must be an integer"),
            (lambda: sample_brownian(0.1, 0.01, 1.0, 2), "k_count must be an integer >= 0"),
            (lambda: sample_brownian(0.1, 0.01, -1, 2), "k_count must be an integer >= 0"),
            (
                lambda: refine_brownian(sample_brownian(0.1, 0.01, 1, 2), 4.0),
                "refinement factor must be an integer >= 2, got 4.0",
            ),
            # numpy integers are integers, but numpy's bool is not
            (lambda: sample_brownian(0.1, 0.01, 1, np.True_), "seed must be an integer"),
            (lambda: sample_brownian(0.1, 0.01, np.True_, 2), "k_count must be an integer >= 0"),
            (
                lambda: refine_brownian(sample_brownian(0.1, 0.01, 1, 2), np.True_),
                "refinement factor must be an integer >= 2",
            ),
        ],
        ids=[
            "float_stream", "bool_stream", "float_k_count", "negative_k_count", "float_factor",
            "numpy_bool_stream", "numpy_bool_k_count", "numpy_bool_factor",
        ],
    )
    def test_integer_arguments_are_checked(self, draw, message):
        with pytest.raises(FlowError, match=re.escape(message)):
            draw()

    @pytest.mark.parametrize(
        "T, dt, k_count, steps, seed, message",
        [
            # a float seed was taken, and its refinement was the seed-2 path's bit for bit
            (0.1, 0.01, 1, 10, 2.5, "seed must be an integer, got 2.5"),
            (0.1, 0.01, 1, 10, True, "seed must be an integer, got True"),
            (0.1, 0.01, 1.0, 10, 2, "k_count must be an integer >= 0, got 1.0"),
            (0.1, 0.03, 1, 3, 2, "is not an integer step count"),
            (0.0, 0.01, 1, 0, 2, "T must be positive, got 0.0"),
            # round(inf) raised a bare OverflowError
            (1e308, 1e-300, 1, 0, 0, "T/dt = inf is not a finite step count"),
            # T below the step tolerance drew a path of no steps
            (1e-12, 1.0, 1, 0, 0, "T/dt = 1e-12 is not an integer step count >= 1"),
        ],
        ids=[
            "float_seed", "bool_seed", "float_k_count", "fractional_steps", "zero_horizon",
            "overflowing_steps", "no_steps",
        ],
    )
    def test_direct_construction_is_checked_as_a_draw(self, T, dt, k_count, steps, seed, message):
        with pytest.raises(FlowError, match=re.escape(message)):
            BrownianPath(T, dt, k_count, np.zeros((steps, int(k_count))), seed)
        with pytest.raises(FlowError, match=re.escape(message)):
            sample_brownian(T, dt, k_count, seed)

    def test_numpy_integers_draw_as_ints(self, tmp_path):
        # a stream id, count or factor computed with numpy
        drawn = sample_brownian(0.1, 0.01, np.int64(2), np.int64(5))
        want = sample_brownian(0.1, 0.01, 2, 5)
        assert np.array_equal(drawn.increments, want.increments)
        assert type(drawn.seed) is int and type(drawn.k_count) is int
        fine, fine_want = refine_brownian(drawn, np.int64(4)), refine_brownian(want, 4)
        assert np.array_equal(fine.increments, fine_want.increments)
        assert fine.seed == fine_want.seed and fine.dt == fine_want.dt
        grid = grid1(8)
        ens = FlowEnsemble(grid, fine, np.zeros((fine.steps + 1, 1) + grid.shape))
        save_ensemble(tmp_path / "numpy.flo", ens)
        back = load_ensemble(tmp_path / "numpy.flo").path
        assert np.array_equal(back.increments, fine_want.increments)
        assert (back.seed, back.k_count, back.dt) == (fine_want.seed, 2, fine_want.dt)

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

    def test_refinement_draws_from_the_base_key(self):
        # one level bridges the normals of stream (seed, factor), bit for bit;
        # only the fine path's key is new
        p = sample_brownian(T, 0.05, 2, 7)
        raw = stream(7, 4).normal(0.0, math.sqrt(0.05 / 4), size=(10, 4, 2))
        want = raw - ((raw.sum(axis=1) - p.increments) / 4)[:, None, :]
        f = refine_brownian(p, 4)
        assert np.array_equal(f.increments, want.reshape(40, 2))
        assert f.seed == mix_indices(7, 4)

    @pytest.mark.parametrize("call,named", [
        (lambda: stream(1.9, 2.5), "seed must be an integer, got 1.9"),
        (lambda: stream(1, 2.5), "stream index must be an integer, got 2.5"),
        (lambda: stream(True, 0), "seed must be an integer, got True"),
        (lambda: stream(1, False), "stream index must be an integer, got False"),
        (lambda: stream("1", 0), "seed must be an integer, got '1'"),
        (lambda: stream(np.float64(1.0)), "seed must be an integer, got np.float64(1.0)"),
        (lambda: mix_indices(2.5), "stream index must be an integer, got 2.5"),
        (lambda: mix_indices(2, None), "stream index must be an integer, got None"),
    ])
    def test_a_key_that_is_no_integer_is_refused_by_name(self, call, named):
        # a float, a bool or a string once drew the stream of its int()
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            call()

    def test_an_integer_key_keeps_its_stream(self):
        def draws(rng):
            return rng.integers(0, 2**32, 3).tolist()

        assert draws(stream(np.int64(5), 3)) == draws(stream(5, np.uint8(3))) == draws(stream(5, 3))
        assert draws(stream(5, 3)) == [315366334, 832089344, 3806358616]
        # a negative int or one of 2**64 or more keys by its low 64 bits
        assert draws(stream(-3, 2**64 + 7)) == draws(stream(2**64 - 3, 7))
        assert draws(stream(-3, 7)) == [3441365136, 1654985454, 3065374214]
        assert mix_indices(-1) == 0x959E03B1E787FCE
        assert mix_indices(2**64 + 2) == mix_indices(np.int64(2)) == 0x29A6929C76F4CD68

    def test_refinements_nest(self):
        # over 2,000 base paths (T 1, dt 0.25) the first increment of a
        # twice-refined path has variance dt/16 and no correlation with the
        # second increment of the once-refined path, a disjoint interval; a
        # second level that reused the first level's normals read 1.72 dt/16
        # and -0.16
        dt = 0.25
        first, second = [], []
        for seed in range(2000):
            once = refine_brownian(sample_brownian(1.0, dt, 1, seed), 4)
            twice = refine_brownian(once, 4).increments[:, 0]
            assert np.abs(twice.reshape(16, 4).sum(axis=1) - once.increments[:, 0]).max() < 1e-14
            first.append(twice[0])
            second.append(once.increments[1, 0])
        assert abs(np.var(first) / (dt / 16) - 1.0) < 0.15
        assert abs(np.corrcoef(first, second)[0, 1]) < 0.1


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

    def test_an_index_point_beyond_the_floats_is_lost(self):
        # X_1 is finite, down to about -2e307, but X_1 / h overflows to -inf
        # on 64 nodes, where the spline reads no position: the march stops
        # there (the drift's own FFTs stay finite)
        g = grid1()
        x = g.axis_coordinates()
        b = still(GridVector(g, (-1e306 * (1.5 + 0.5 * np.sin(x)))[None, :]), horizon=40.0)
        sigmas = [still(GridVector(g, (0.4 + 0.3 * np.sin(x))[None, :]), horizon=40.0)]
        config, paths = SdeConfig(dt=10.0), [sample_brownian(40.0, 10.0, 1, 7)]
        for route in (flow.simulate_flows, flow.logdet_gaps):
            with pytest.raises(FlowError, match="trajectory lost finiteness at step 1$"):
                route(b, sigmas, config, paths)

    @pytest.mark.parametrize("k_count", [0, 1])
    @pytest.mark.parametrize("step", SPIKE_STEPS)
    def test_blow_up_at_a_chosen_step(self, k_count, step):
        b, sigmas, path = spiked_case(k_count, step)
        with pytest.raises(FlowError, match=f"trajectory lost finiteness at step {step}$"):
            simulate_flow(b, sigmas, SdeConfig(dt=path.dt), path)

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
        # step 0: J = I and log det = 0 at every node, a gap of exactly 0
        assert np.all(ens.jac_variational[0] == 1.0) and np.all(ens.logdet_exponential[0] == 0.0)

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


def reference_flow(b, sigmas, path):
    """simulate_flow for one path, one step and one coefficient at a time,
    with a fresh spline per call.  Returns the (steps+1, dim) + grid positions.
    """
    dt, dW = path.dt, path.increments
    X = np.stack(b.grid.coordinates())
    paths = [X]
    for l in range(path.steps):
        t = l * dt
        move = PeriodicInterpolant(b.grid, b.slice_at(t).values)(X) * dt
        for k, s in enumerate(sigmas):
            move += PeriodicInterpolant(s.grid, s.slice_at(t).values)(X) * dW[l, k]
        X = X + move
        paths.append(X)
    return np.stack(paths)


def reference_kernels(b, sigmas, path):
    """simulate_flow, variational_jacobian and logdet_stochastic_exponential
    done one step and one coefficient at a time, with a fresh spline per call.

    Returns (paths, jac_variational, logdet_exponential).
    """
    grid = b.grid
    dt, dW = path.dt, path.increments
    paths = reference_flow(b, sigmas, path)
    J = [np.einsum("ij,...->ij...", np.eye(grid.dim), np.ones(grid.shape))]
    logdet = [np.zeros(grid.shape)]
    for l in range(path.steps):
        t, X = l * dt, paths[l]
        growth = PeriodicInterpolant(grid, jacobian(b.slice_at(t)))(X) * dt
        for k, s in enumerate(sigmas):
            growth += PeriodicInterpolant(grid, jacobian(s.slice_at(t)))(X) * dW[l, k]
        J.append(J[l] + np.einsum("ik...,kj...->ij...", growth, J[l]))
        increment = PeriodicInterpolant(grid, divergence(b.slice_at(t)).values)(X) * dt
        for k, s in enumerate(sigmas):
            sl = s.slice_at(t)
            jac = jacobian(sl)
            twist = PeriodicInterpolant(grid, np.einsum("ij...,ji...->...", jac, jac))(X)
            div = PeriodicInterpolant(grid, divergence(sl).values)(X)
            increment += div * dW[l, k] - 0.5 * twist * dt
        logdet.append(logdet[l] + increment)
    return paths, np.stack(J), np.stack(logdet)


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


def one_row_per_sample(grid, times, fn):
    """A 1-d field with its own row at each time: row j is fn(x, times[j])."""
    x = grid.axis_coordinates()
    rows = np.stack([fn(x, t)[None, :] for t in times])
    return TimeGridVector(grid, times, rows, np.arange(len(times)))


def time_dependent_case():
    # a new drift slice at every step, a new noise slice every fourth step,
    # and a second noise held still: steps fall into many slice groups
    g = grid1()
    steps = 200
    b = one_row_per_sample(
        g, np.linspace(0.0, T, steps + 1), lambda x, t: 0.6 * np.sin(x + 3.0 * t) + 0.2 * t
    )
    s1 = one_row_per_sample(
        g, np.linspace(0.0, T, steps // 4 + 1), lambda x, t: 0.4 + 0.3 * np.cos(x - t)
    )
    s2 = still(GridVector(g, (0.2 * np.sin(2.0 * g.axis_coordinates()))[None, :]))
    return b, [s1, s2], sample_brownian(T, T / steps, 2, 2026)


def copied_slices_case():
    # the trig case with every coefficient held as N+1 rows, copies of its one
    # slice: one slice group per step instead of one for the whole path
    b, sigmas, path = trig_case()
    copied = [
        TimeGridVector(c.grid, c.times, c.values[c.index], np.arange(len(c.times)))
        for c in (b, *sigmas)
    ]
    return copied[0], copied[1:], path


class PerGroupSplines:
    """The recursions' splines as one interpolant per slice group, each called
    once per run of steps in its group: a test-local copy of that loop, to
    stand in for flow's one interpolant whose rows are the groups."""

    def __init__(self, grid, values):
        self.head_shape = values.shape[1 : values.ndim - grid.dim]
        self.groups = [PeriodicInterpolant(grid, v.reshape((-1,) + grid.shape)) for v in values]

    def __call__(self, points, rows):
        values = np.empty(self.head_shape + points.shape[1:])
        head = (slice(None),) * len(self.head_shape)
        edges = [0, *(np.flatnonzero(rows[1:] != rows[:-1]) + 1), len(rows)]
        for a, z in zip(edges, edges[1:]):
            run = self.groups[rows[a]](points[:, a:z])
            values[head + (slice(a, z),)] = run.reshape(self.head_shape + run.shape[1:])
        return values


class TestBatchedKernels:
    """The batched kernels against the step-by-step reference, bit for bit."""

    @pytest.mark.parametrize("case", [time_dependent_case, copied_slices_case])
    def test_recursions_equal_per_group_interpolants(self, monkeypatch, case):
        b, sigmas, path = case()
        assert len(flow._slice_groups(b, sigmas, path)[0]) > 50
        ens = simulate_flow(b, sigmas, SdeConfig(dt=path.dt), path)
        J = variational_jacobian(ens, b, sigmas).jac_variational
        logdet = logdet_stochastic_exponential(ens, b, sigmas).logdet_exponential
        monkeypatch.setattr(flow, "PeriodicInterpolant", PerGroupSplines)
        assert np.array_equal(variational_jacobian(ens, b, sigmas).jac_variational, J)
        again = logdet_stochastic_exponential(ens, b, sigmas).logdet_exponential
        assert np.array_equal(again, logdet)

    @pytest.mark.parametrize(
        "case", [trig_case, divfree_case, time_dependent_case, copied_slices_case]
    )
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

    @pytest.mark.parametrize("k_count", [0, 1])
    @pytest.mark.parametrize("step", SPIKE_STEPS)
    def test_variational_blow_up_at_block_edges(self, k_count, step):
        # trajectories held at the nodes; finiteness is checked once per block
        b, sigmas, path = spiked_case(k_count, step)
        g = b.grid
        ens = FlowEnsemble(g, path, np.stack([np.stack(g.coordinates())] * (path.steps + 1)))
        message = f"variational recursion lost finiteness at step {step}$"
        with pytest.raises(FlowError, match=message):
            variational_jacobian(ens, b, sigmas)


def reference_slice_groups(b, sigmas, path):
    """Group steps by np.unique over the tuples of their coefficients' row indices.

    Returns (row_sets, group_of_step) as flow._slice_groups does.
    """
    times = np.arange(path.steps) * path.dt
    coefficients = (b, *sigmas)
    columns = [c.index[c.slice_indices(times)] for c in coefficients]
    keys, group_of_step = np.unique(np.stack(columns, axis=1), axis=0, return_inverse=True)
    row_sets = [tuple(c.values[i] for c, i in zip(coefficients, key)) for key in keys]
    return row_sets, group_of_step.reshape(-1)


def cycling_case():
    # three coefficients, each cycling through its own pool of slice objects
    # with its own period: slice indices repeat out of time order, and every
    # coefficient's index varies within the groups
    g = grid1()
    steps = 120
    dt = T / steps
    x = g.axis_coordinates()

    def cycling(pool_size, period):
        pool = np.stack([np.sin(x + j)[None, :] for j in range(pool_size)])
        index = [(l // period) % pool_size for l in range(steps + 1)]
        return TimeGridVector(g, np.arange(steps + 1) * dt, pool, index)

    return cycling(3, 1), [cycling(4, 2), cycling(2, 5)], sample_brownian(T, dt, 2, 7)


class TestSliceGroups:
    """flow._slice_groups against a grouping by rows of slice indices."""

    @pytest.mark.parametrize("case", [cycling_case, copied_slices_case, trig_case])
    def test_matches_row_grouping(self, case):
        b, sigmas, path = case()
        row_sets, group_of_step = flow._slice_groups(b, sigmas, path)
        want_sets, want_groups = reference_slice_groups(b, sigmas, path)
        assert len(row_sets) == len(want_sets)
        for got, want in zip(row_sets, want_sets):
            assert len(got) == len(want) == 1 + len(sigmas)
            # the very rows of the coefficients, not copies of their values
            assert all(np.shares_memory(s, w) and np.array_equal(s, w) for s, w in zip(got, want))
        assert np.array_equal(group_of_step, want_groups)

    def test_cycling_case_varies_every_digit(self):
        b, sigmas, path = cycling_case()
        row_sets, _ = flow._slice_groups(b, sigmas, path)
        for c, coefficient in enumerate((b, *sigmas)):
            assert len({s[c].tobytes() for s in row_sets}) == len(coefficient.values)


def member_paths(path, count):
    """``count`` paths on the time grid and noise count of ``path``, streams 100.."""
    return [sample_brownian(path.T, path.dt, path.k_count, 100 + m) for m in range(count)]


def blow_up_case(members, steps_of):
    """Constant noise 1e300 on 64 nodes, 40 steps; member m's path has dW = 0
    except dW = 1e9 at step ``steps_of[m]`` (1-based), where its flow
    overflows.  Returns (b, sigmas, paths)."""
    g = grid1()
    steps, dt = 40, 0.01
    horizon = steps * dt
    b = still(GridVector.constant(g, [0.0]), horizon=horizon)
    sigma = still(GridVector.constant(g, [1e300]), horizon=horizon)
    paths = []
    for m in range(members):
        increments = np.zeros((steps, 1))
        if m in steps_of:
            increments[steps_of[m] - 1] = 1e9
        paths.append(BrownianPath(horizon, dt, 1, increments, m))
    return b, [sigma], paths


class TestSimulateFlows:
    """Member-batched flows against the per-path reference, bit for bit."""

    @pytest.mark.parametrize(
        "case,members", [(trig_case, 37), (divfree_case, 11), (cycling_case, 35)]
    )
    def test_every_member_bitwise_equal_to_reference(self, case, members):
        b, sigmas, path = case()
        per_chunk = flow.members_per_chunk(b.grid, path.steps + 1)
        # several chunks, the last one partly filled
        assert per_chunk > 1 and members > per_chunk and members % per_chunk
        paths = member_paths(path, members)
        ensembles = flow.simulate_flows(b, sigmas, SdeConfig(dt=path.dt), paths)
        assert len(ensembles) == members
        assert len({id(ens.paths.base) for ens in ensembles}) == -(-members // per_chunk)
        for ens, p in zip(ensembles, paths):
            assert ens.path is p and ens.seeds_grid == b.grid
            assert np.array_equal(ens.paths, reference_flow(b, sigmas, p))

    def test_error_names_the_first_step_over_all_members(self):
        # 32 members per chunk: member 3 (first chunk) overflows at step 30,
        # member 35 (second chunk) at step 12, member 36 at step 20
        b, sigmas, paths = blow_up_case(40, {3: 30, 35: 12, 36: 20})
        assert flow.members_per_chunk(b.grid, 41) == 32
        with pytest.raises(FlowError, match="trajectory lost finiteness at step 12$"):
            flow.simulate_flows(b, sigmas, SdeConfig(dt=0.01), paths)
        b, sigmas, paths = blow_up_case(40, {3: 30, 5: 7})
        with pytest.raises(FlowError, match="trajectory lost finiteness at step 7$"):
            flow.simulate_flows(b, sigmas, SdeConfig(dt=0.01), paths)
        b, sigmas, paths = blow_up_case(40, {})
        assert len(flow.simulate_flows(b, sigmas, SdeConfig(dt=0.01), paths)) == 40

    def test_member_round_trips_through_flo(self, tmp_path):
        b, sigmas, path = trig_case()
        paths = member_paths(path, 5)
        ens = flow.simulate_flows(b, sigmas, SdeConfig(dt=path.dt), paths)[2]
        alone = simulate_flow(b, sigmas, SdeConfig(dt=path.dt), paths[2])
        save_ensemble(tmp_path / "member.flo", ens)
        save_ensemble(tmp_path / "alone.flo", alone)
        assert (tmp_path / "member.flo").read_bytes() == (tmp_path / "alone.flo").read_bytes()
        back = load_ensemble(tmp_path / "member.flo")
        assert np.array_equal(back.paths, ens.paths)
        assert np.array_equal(back.path.increments, paths[2].increments)
        assert back.path.seed == paths[2].seed

    def test_paths_must_share_the_time_grid(self):
        b, sigmas, path = trig_case()
        config = SdeConfig(dt=path.dt)
        with pytest.raises(FlowError, match="at least one"):
            flow.simulate_flows(b, sigmas, config, [])
        other_dt = sample_brownian(path.T, path.dt / 2, 1, 1)
        shorter = sample_brownian(path.T / 2, path.dt, 1, 1)
        for odd in (other_dt, shorter, sample_brownian(path.T, path.dt, 2, 1)):
            with pytest.raises(FlowError, match="differ"):
                flow.simulate_flows(b, sigmas, config, [path, odd])

    def test_chunk_sizes(self):
        # about _BLOCK_POINTS points, at most _CHUNK_VALUES stored positions:
        # every step of paths of 200, 2000, 10 and 50 steps
        assert flow.members_per_chunk(grid1(), 201) == 32
        assert flow.members_per_chunk(grid1(), 2001) == 4
        assert flow.members_per_chunk(build_grid(2, L, 64), 11) == 1
        assert flow.members_per_chunk(build_grid(2, L, 16), 51) == 8
        # a chunk of 2000-step paths that stores 11 steps, or none (the fused
        # log-det pass), is bounded by the stored steps alone
        assert flow.members_per_chunk(grid1(), 11) == 32
        assert flow.members_per_chunk(grid1(), 0) == 32


def stored_gap(b, sigmas):
    """The reduce of the stored route: both recursions on a member's ensemble, then its gap."""

    def gap(ens):
        variational_jacobian(ens, b, sigmas)
        logdet_stochastic_exponential(ens, b, sigmas)
        return logdet_gap(ens)

    return gap


def stored_route_gaps(b, sigmas, paths):
    """Each path's logdet_gap as the lab's member loop took it before the fused
    pass: simulate_flows chunk by chunk, both recursions and logdet_gap on
    each member."""
    return flow.simulate_flows(b, sigmas, SdeConfig(dt=paths[0].dt), paths,
                               reduce=stored_gap(b, sigmas))


def two_row_case():
    # the trig drift for the first 60 steps, then a second row: two slice groups
    b, sigmas, path = trig_case()
    g = b.grid
    rows = np.stack([b.values[0], 0.5 * b.values[0] + 0.3 * np.cos(g.axis_coordinates())])
    index = (np.arange(path.steps + 1) >= 60).astype(int)
    b2 = TimeGridVector(g, np.arange(path.steps + 1) * path.dt, rows, index)
    return b2, sigmas, path


class TestLogdetGaps:
    """flow.logdet_gaps against the stored route, bit for bit and error for error."""

    @pytest.mark.parametrize(
        "case,members",
        [
            (trig_case, 1), (trig_case, 3), (trig_case, 37),
            (divfree_case, 1), (divfree_case, 3), (divfree_case, 11),
            (two_row_case, 5), (time_dependent_case, 3),
        ],
    )
    def test_bitwise_equal_to_stored_route(self, case, members):
        b, sigmas, path = case()
        paths = member_paths(path, members)
        gaps = flow.logdet_gaps(b, sigmas, SdeConfig(dt=path.dt), paths)
        want = stored_route_gaps(b, sigmas, paths)
        assert [g.hex() for g in gaps] == [w.hex() for w in want]

    def test_two_row_case_has_two_groups(self):
        b, sigmas, path = two_row_case()
        row_sets, group_of_step = flow._slice_groups(b, sigmas, path)
        assert len(row_sets) == 2 and group_of_step[59] == 0 and group_of_step[60] == 1

    def test_chunks_by_the_block_rule(self, monkeypatch):
        # 500 steps on 64 nodes: a stored chunk holds 16 members, a fused one 32
        b, sigmas, path = trig_case()
        marched, reduces = [], []
        march, by_chunks = flow._march, flow._by_chunks

        def marching(grid, splines, groups, path, chunk, *rest):
            marched.append(len(chunk))
            return march(grid, splines, groups, path, chunk, *rest)

        def chunking(paths, per_chunk, integrate, reduce=None):
            reduces.append(reduce)
            return by_chunks(paths, per_chunk, integrate, reduce)

        monkeypatch.setattr(flow, "_march", marching)
        monkeypatch.setattr(flow, "_by_chunks", chunking)
        assert flow.members_per_chunk(b.grid, path.steps + 1) == 16
        gaps = flow.logdet_gaps(b, sigmas, SdeConfig(dt=path.dt), member_paths(path, 37))
        # the chunks march in path order, and each member's gap is already
        # reduced in the march: the chunk loop is handed no reduce
        assert marched == [32, 5] and reduces == [None] and len(gaps) == 37

    @pytest.mark.parametrize("steps_of,step", [({3: 30, 35: 12, 36: 20}, 12), ({35: 12}, 12)])
    def test_trajectory_blow_up_names_the_same_step(self, steps_of, step):
        # 40 steps on 64 nodes: both routes take chunks of 32 members, and the
        # chunks after a lost trajectory still march, so the least step is named
        b, sigmas, paths = blow_up_case(40, steps_of)
        message = f"trajectory lost finiteness at step {step}$"
        with pytest.raises(FlowError, match=message):
            stored_route_gaps(b, sigmas, paths)
        with pytest.raises(FlowError, match=message):
            flow.logdet_gaps(b, sigmas, SdeConfig(dt=0.01), paths)

    def test_variational_blow_up_names_the_same_step(self):
        # noise sin(x) and dW of order 1e8: each step moves X by at most 1e8,
        # so trajectories stay finite, while J grows by about 1e8 a step and
        # overflows in some 40 steps, at a different step for each member
        g = grid1(16)
        steps, dt = 60, 0.01
        b = still(GridVector.constant(g, [0.0]), horizon=steps * dt)
        sigma = still(GridVector(g, np.sin(g.axis_coordinates())[None, :]), horizon=steps * dt)
        paths = [
            BrownianPath(steps * dt, dt, 1, np.full((steps, 1), 1e8 * (1.0 + 0.37 * m)), m)
            for m in range(3)
        ]
        with pytest.raises(FlowError) as stored:
            stored_route_gaps(b, [sigma], paths)
        assert "variational recursion lost finiteness at step" in str(stored.value)
        with pytest.raises(FlowError, match=f"^{stored.value}$"):
            flow.logdet_gaps(b, [sigma], SdeConfig(dt=dt), paths)

    def test_lost_positivity_names_the_same_error(self):
        # 1 + dt db = 1 - 3 cos(x) < 0 near the fixed point at 0: J changes sign
        g = grid1(16)
        horizon = 0.1
        b = still(GridVector(g, (-300.0 * np.sin(g.axis_coordinates()))[None, :]), horizon=horizon)
        paths = [sample_brownian(horizon, 0.01, 0, m) for m in range(2)]
        for gaps in (
            lambda: stored_route_gaps(b, [], paths),
            lambda: flow.logdet_gaps(b, [], SdeConfig(dt=0.01), paths),
        ):
            with pytest.raises(FlowError, match="variational determinant lost positivity$"):
                gaps()


class TestChunking:
    """What a member pass returns or raises does not depend on how its members are chunked."""

    @pytest.mark.parametrize("per_chunk", [32, 8])
    def test_every_route_names_the_least_lost_step(self, monkeypatch, per_chunk):
        # member 3 overflows at step 30, member 35 at step 12, in a later chunk
        # at either chunking (the default 32 members, or 8 forced through the
        # block rule); the march, the fused pass and both lab routes agree
        monkeypatch.setattr(flow, "_BLOCK_POINTS", 64 * per_chunk)
        b, sigmas, paths = blow_up_case(40, {3: 30, 35: 12})
        assert flow.members_per_chunk(b.grid, 41) == per_chunk
        config = SdeConfig(dt=0.01)
        prob = lab.Problem(b.grid, 0.01, 40, b, sigmas, None, None)
        routes = [
            lambda: flow.simulate_flows(b, sigmas, config, paths),
            lambda: flow.logdet_gaps(b, sigmas, config, paths),
            lambda: stored_route_gaps(b, sigmas, paths),
            lambda: lab._per_member(prob, paths, lambda ens: float(ens.paths[-1].sum())),
            lambda: lab._per_member(prob, paths, flow.logdet_gap),
        ]
        for route in routes:
            with pytest.raises(FlowError, match="trajectory lost finiteness at step 12$"):
                route()

    def test_a_reduce_error_waits_for_every_chunk(self):
        # chunks of 32: a reduce that raises in the first chunk gives way to a
        # trajectory lost in the second; with none lost, the first error in
        # path order is raised
        def refusing(ens):
            if ens.path.seed in (5, 33):
                raise ValueError(f"refused member {ens.path.seed}")
            return 0.0

        b, sigmas, paths = blow_up_case(40, {35: 12})
        config = SdeConfig(dt=0.01)
        with pytest.raises(FlowError, match="trajectory lost finiteness at step 12$"):
            flow.simulate_flows(b, sigmas, config, paths, reduce=refusing)
        b, sigmas, paths = blow_up_case(40, {})
        with pytest.raises(ValueError, match="refused member 5$"):
            flow.simulate_flows(b, sigmas, config, paths, reduce=refusing)


def einsum_product(a, b):
    """The Jacobian step's product as one einsum, the form _product_stack keeps in 2-d."""
    return np.einsum("ik...,kj...->ij...", a, b)


def constant_slices_case():
    # drift and noise each switch between a varying and a spatially constant
    # row: in the steps where both rows are constant every Jacobian is zero
    g = grid1()
    steps = 200
    x = g.axis_coordinates()
    times = np.arange(steps + 1) * (T / steps)

    def switching(varying, constant, period):
        rows = np.stack([varying[None, :], np.full((1, g.N), constant)])
        return TimeGridVector(g, times, rows, (np.arange(steps + 1) // period) % 2)

    b = switching(0.6 * np.sin(x), 0.2, 10)
    sigma = switching(0.4 + 0.3 * np.cos(x), 0.4, 15)
    return b, [sigma], sample_brownian(T, T / steps, 1, 2027)


class TestProductStack:
    """The 1-d Jacobian step multiplies where the 2-d one keeps the einsum:
    against the einsum, bit for bit, with growth entries of -0.0."""

    @staticmethod
    def negative_zero_jacobians(monkeypatch):
        # every exact zero of a coefficient's Jacobian reads -0.0, so a step
        # whose rows are all constant grows J by -0.0 (dt > 0, dW > 0)
        jacobian_stack = flow.jacobian_stack

        def signed(grid, values):
            jac = jacobian_stack(grid, values)
            jac[jac == 0.0] = -0.0
            return jac

        monkeypatch.setattr(flow, "jacobian_stack", signed)

    @pytest.mark.parametrize("members", [1, 3])
    def test_equal_to_the_einsum(self, monkeypatch, members):
        self.negative_zero_jacobians(monkeypatch)
        b, sigmas, path = constant_slices_case()
        paths = member_paths(path, members)
        config = SdeConfig(dt=path.dt)
        product, negative_zeros = flow._product_stack, []

        def spied(a, b_):
            negative_zeros.append(int(np.count_nonzero((a == 0.0) & np.signbit(a))))
            return product(a, b_)

        monkeypatch.setattr(flow, "_product_stack", spied)
        ensembles = flow.simulate_flows(b, sigmas, config, paths)
        jac = [variational_jacobian(ens, b, sigmas).jac_variational.copy() for ens in ensembles]
        gaps = flow.logdet_gaps(b, sigmas, config, paths)
        assert sum(n > 0 for n in negative_zeros) > 20
        monkeypatch.setattr(flow, "_product_stack", einsum_product)
        for ens, want in zip(ensembles, jac, strict=True):
            assert same_bits(variational_jacobian(ens, b, sigmas).jac_variational, want)
        assert [g.hex() for g in flow.logdet_gaps(b, sigmas, config, paths)] == [
            g.hex() for g in gaps
        ]

    def test_a_blow_up_names_the_same_step(self, monkeypatch):
        # the variational blow-up of TestLogdetGaps: J overflows at its own
        # step for each member, and either product names that step
        g = grid1(16)
        steps, dt = 60, 0.01
        b = still(GridVector.constant(g, [0.0]), horizon=steps * dt)
        sigma = still(GridVector(g, np.sin(g.axis_coordinates())[None, :]), horizon=steps * dt)
        paths = [
            BrownianPath(steps * dt, dt, 1, np.full((steps, 1), 1e8 * (1.0 + 0.37 * m)), m)
            for m in range(3)
        ]
        ens = simulate_flow(b, [sigma], SdeConfig(dt=dt), paths[1])

        def messages():
            found = []
            for run in (
                lambda: variational_jacobian(ens, b, [sigma]),
                lambda: flow.logdet_gaps(b, [sigma], SdeConfig(dt=dt), paths),
            ):
                with pytest.raises(FlowError, match="lost finiteness at step") as error:
                    run()
                found.append(str(error.value))
            return found

        multiplied = messages()
        monkeypatch.setattr(flow, "_product_stack", einsum_product)
        assert messages() == multiplied


def spline_call_march(grid, spline, group_of_step, path, chunk, targets, update=None):
    """flow._march as one row call of the step's slice group per step, each
    call checking and allocating anew: the lean march must give its bits."""
    increments = flow._member_increments(chunk, grid)
    lead = (1 + path.k_count) * grid.dim
    X = targets[0]
    X[...] = np.stack(grid.coordinates())[:, None]
    by_coefficient = (-1,) + X.shape
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for l in range(path.steps):
            values = spline(X[:, None], group_of_step[l : l + 1])
            values = values.reshape(spline.head_shape[1:] + X.shape[1:])
            dW = increments[l]
            move = flow._euler_sum(values[:lead].reshape(by_coefficient), path.dt, dW)
            X = np.add(X, move, out=targets[l + 1])
            if not np.isfinite(X).all():
                return l + 1
            if update is not None:
                update(l, values, dW)
    return 0


def short_trig_case():
    # 40 steps: a chunk of stored paths holds 32 members, 2,048 points
    b, sigmas, _ = trig_case()
    return b, sigmas, sample_brownian(T, T / 40, 1, 2027)


def divfree_64_case():
    g = build_grid(2, L, 64)
    horizon, steps = 0.02, 4
    b = presets.sample_constant_in_time(presets.divfree_2d_drift(g), horizon, steps)
    sigmas = [
        presets.sample_constant_in_time(s, horizon, steps) for s in presets.divfree_2d_noise(g)
    ]
    return b, sigmas, sample_brownian(horizon, horizon / steps, 2, 2028)


class TestLeanMarch:
    """flow._march reads the spline by its one read into buffers it allocates once;
    against a march of checked __call__s, bit for bit."""

    @staticmethod
    def evaluators(monkeypatch):
        # map_coordinates: its compiled routine, which interp calls directly;
        # the prefilter's routine, spline_filter1d, runs uncounted
        ran = set()
        transform, add = interp._nd_image.geometric_transform, interp._Stencil.add

        def counted_map(*args):
            ran.add("map_coordinates")
            return transform(*args)

        def counted_add(*args, **kwargs):
            ran.add("stencil")
            return add(*args, **kwargs)

        monkeypatch.setattr(interp, "_nd_image", SimpleNamespace(
            geometric_transform=counted_map, spline_filter1d=interp._nd_image.spline_filter1d,
        ))
        monkeypatch.setattr(interp._Stencil, "add", counted_add)
        return ran

    @pytest.mark.parametrize(
        "case,members,store,evaluator",
        [
            (trig_case, 1, None, "map_coordinates"),
            (short_trig_case, 32, None, "stencil"),
            (divfree_64_case, 1, None, "stencil"),
            (time_dependent_case, 3, None, "map_coordinates"),
            (trig_case, 5, [0, 7, 250, 500], "map_coordinates"),
        ],
    )
    def test_bitwise_equal_to_a_march_of_calls(
        self, monkeypatch, case, members, store, evaluator
    ):
        b, sigmas, path = case()
        paths = member_paths(path, members)
        config = SdeConfig(dt=path.dt)
        if store is None:
            assert flow.members_per_chunk(b.grid, path.steps + 1) >= members
        ran = self.evaluators(monkeypatch)
        lean = flow.simulate_flows(b, sigmas, config, paths, store=store)
        assert ran == {evaluator}
        lean_gaps = flow.logdet_gaps(b, sigmas, config, paths)
        monkeypatch.setattr(flow, "_march", spline_call_march)
        called = flow.simulate_flows(b, sigmas, config, paths, store=store)
        gaps = flow.logdet_gaps(b, sigmas, config, paths)
        for ens, want in zip(lean, called, strict=True):
            assert np.array_equal(ens.paths, want.paths)
        assert [g.hex() for g in lean_gaps] == [g.hex() for g in gaps]

    def test_time_dependent_case_has_many_groups(self):
        b, sigmas, path = time_dependent_case()
        row_sets, _ = flow._slice_groups(b, sigmas, path)
        assert len(row_sets) > 50

    def test_the_march_never_calls_a_spline(self, monkeypatch):
        def refused(self, points):
            raise AssertionError("the march called PeriodicInterpolant.__call__")

        b, sigmas, path = trig_case()
        paths = member_paths(path, 2)
        config = SdeConfig(dt=path.dt)
        monkeypatch.setattr(PeriodicInterpolant, "__call__", refused)
        assert len(flow.simulate_flows(b, sigmas, config, paths)) == 2
        assert len(flow.logdet_gaps(b, sigmas, config, paths)) == 2


class TestSampledSteps:
    """Ensembles that store only the steps their reader asks for."""

    @pytest.mark.parametrize("case", [trig_case, divfree_case])
    def test_rows_are_the_full_rows(self, case):
        b, sigmas, path = case()
        paths = member_paths(path, 3)
        store = [path.steps, 0, 7, 7, 20]
        config = SdeConfig(dt=path.dt)
        full = flow.simulate_flows(b, sigmas, config, paths)
        sampled = flow.simulate_flows(b, sigmas, config, paths, store)
        for f, s in zip(full, sampled):
            assert list(s.stored) == [0, 7, 20, path.steps]
            assert np.array_equal(s.paths, f.paths[s.stored])
            assert np.array_equal(s.paths[s.rows_of([20, 0])], f.paths[[20, 0]])
        # without step 0 the flow starts in a work array
        sampled = flow.simulate_flows(b, sigmas, config, paths, [path.steps])
        assert all(np.array_equal(s.paths[0], f.paths[-1]) for f, s in zip(full, sampled))

    @pytest.mark.parametrize("case", [trig_case, divfree_case])
    def test_pushforward_equals_full_storage(self, case):
        b, sigmas, path = case()
        config = SdeConfig(dt=path.dt)
        full = simulate_flow(b, sigmas, config, path)
        steps = list(range(0, path.steps + 1, 10))
        [sampled] = flow.simulate_flows(b, sigmas, config, [path], steps)
        f0 = presets.default_datum(b.grid)
        want = flow.pushforward_path(f0, full, steps)
        for f, s in zip(want, flow.pushforward_path(f0, sampled, steps), strict=True):
            assert same_bits(s.values, f.values)
        t = steps[-1] * path.dt
        assert same_bits(invert_flow(sampled, t).psi.values, invert_flow(full, t).psi.values)

    def test_missing_step_is_refused(self, tmp_path):
        b, sigmas, path = trig_case()
        [ens] = flow.simulate_flows(b, sigmas, SdeConfig(dt=path.dt), [path], [0, 10, 500])
        f0 = presets.default_datum(b.grid)
        with pytest.raises(FlowError, match="holds no positions at step 11$"):
            flow.pushforward_path(f0, ens, [10, 11, 500])
        with pytest.raises(FlowError, match="holds no positions at step 20$"):
            invert_flow(ens, 20 * path.dt)
        with pytest.raises(FlowError, match="holds no positions at step 20$"):
            pushforward_solution(f0, ens, 20 * path.dt)
        # every whole-trajectory reader names the first step it lacks
        for read in (
            lambda: variational_jacobian(ens, b, sigmas),
            lambda: logdet_stochastic_exponential(ens, b, sigmas),
            lambda: logdet_gap(ens),
            lambda: save_ensemble(tmp_path / "partial.flo", ens),
            lambda: list(flow.pushforward_path(f0, ens)),
        ):
            with pytest.raises(FlowError, match="holds no positions at step 1$"):
                read()
        assert not (tmp_path / "partial.flo").exists()
        [late] = flow.simulate_flows(b, sigmas, SdeConfig(dt=path.dt), [path], [500])
        with pytest.raises(FlowError, match="holds no positions at step 0$"):
            logdet_gap(late)

    @pytest.mark.parametrize("step", [-1, 501, 2.0])
    def test_store_off_the_step_grid_refused(self, step):
        b, sigmas, path = trig_case()
        with pytest.raises(FlowError, match="step grid"):
            flow.simulate_flows(b, sigmas, SdeConfig(dt=path.dt), [path], [0, step])


def reference_inverse(ensemble, step, tol=1e-10):
    """Plain Newton from y = x with a spline residual in every round.

    Returns (psi, det, rounds).
    """
    grid = ensemble.seeds_grid
    X0 = ensemble.paths[0].reshape(grid.dim, -1)
    D = PeriodicInterpolant(grid, ensemble.paths[step] - ensemble.paths[0])
    Y = X0.copy()
    for rounds in range(1, 31):
        F = Y + D(Y) - X0
        if np.abs(F).max() < tol:
            break
        Y = Y - np.linalg.solve(reference_matrices(ensemble, step, Y), F.T[..., None])[..., 0].T
    det = 1.0 / np.linalg.det(reference_matrices(ensemble, step, Y))
    return Y.reshape(ensemble.paths[0].shape), det.reshape(grid.shape), rounds


def reference_matrices(ensemble, step, psi):
    """I + dD at psi, one (dim, dim) matrix per point, from the reference spline of dD."""
    grid = ensemble.seeds_grid
    disp = GridVector(grid, ensemble.paths[step] - ensemble.paths[0])
    jac_at = PeriodicInterpolant(grid, jacobian(disp))(psi.reshape(grid.dim, -1))
    return np.eye(grid.dim) + np.moveaxis(jac_at, -1, 0)


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
        # the first step is taken on node data from a node near the preimage;
        # a reference that starts at y = x and evaluates the splines in every
        # round lands on the same inverse, to within what two residuals under
        # _INVERSE_TOL allow, in at least one round more
        b, sigmas, path = case()
        ens = simulate_flow(b, sigmas, SdeConfig(dt=path.dt), path)
        for step in (1, path.steps // 2, path.steps):
            inv = invert_flow(ens, step * path.dt)
            psi, det, rounds = reference_inverse(ens, step)
            # |y - y'| <= |(I + dD)^-1| |r - r'| < |(I + dD)^-1| 2 tol; a margin of 2
            mats = reference_matrices(ens, step, psi)
            bound = 4.0 * flow._INVERSE_TOL * np.abs(np.linalg.inv(mats)).sum(axis=2).max()
            assert np.abs(inv.psi.values - psi).max() < bound
            # the determinant is the one of I + dD at the inverse found
            at_psi = np.linalg.det(reference_matrices(ens, step, inv.psi.values))
            assert np.abs(inv.det.values.reshape(-1) - 1.0 / at_psi).max() < 1e-13
            assert inv.newton_iterations <= rounds - 1

    def test_node_start_cuts_divfree_rounds(self):
        # the divfree preset on 64^2 at T 0.25, as the 2-d pushforward runs
        # it: its displacement reaches 11.9 cells, and Newton from the node
        # step at x took 5 rounds
        g = build_grid(2, L, 64)
        horizon, steps = 0.25, 250
        b = presets.sample_constant_in_time(presets.divfree_2d_drift(g), horizon, steps)
        sigmas = [
            presets.sample_constant_in_time(s, horizon, steps) for s in presets.divfree_2d_noise(g)
        ]
        path = sample_brownian(horizon, horizon / steps, 2, 2025)
        ens, = flow.simulate_flows(b, sigmas, SdeConfig(dt=path.dt), [path], store=[steps])
        assert np.abs(ens.paths[0] - np.stack(g.coordinates())).max() > 10 * g.h
        assert invert_flow(ens, horizon).newton_iterations <= 3

    @pytest.mark.parametrize("dim", [1, 2])
    def test_small_displacement_keeps_the_step_from_x(self, dim):
        # rows whose displacement stays under half a cell start at x itself:
        # their iterates, values and rounds are those of the node step from x
        g = build_grid(dim, L, 16)
        x = g.coordinates()
        shape = np.stack([np.sin(x[0] + x[-1]), np.cos(x[0] - 2 * x[-1])][:dim])
        disp = np.stack([a * shape for a in (0.1 * g.h, 0.3 * g.h, 0.49 * g.h)])
        assert np.abs(disp).max() < g.h / 2
        jac = jacobian_stack(g, disp)
        nodes = np.stack(x).reshape(dim, 1, -1)
        mat = plus_identity(np.moveaxis(jac, 0, 2).reshape(dim, dim, 3, -1))
        from_x = nodes - solve_pointwise(mat, np.moveaxis(disp, 0, 1).reshape(dim, 3, -1))
        want = flow._newton_rows(g, disp, jac, nodes, from_x, 1e-12)
        got = flow._newton_rows(g, disp, jac, nodes, None, 1e-12)
        for a, b in zip(got[:3], want[:3]):
            assert same_bits(a, b)
        assert want[2].min() > 1

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

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 1e308])
    def test_non_finite_time_refused_by_name(self, t):
        # a FlowError naming the time, not round()'s ValueError (nan) or OverflowError (inf)
        g = grid1()
        b = still(GridVector.constant(g, [0.0]))
        ens = simulate_flow(b, [], SdeConfig(dt=0.05), sample_brownian(T, 0.05, 0, 1))
        f0 = GridScalar.constant(g, 1.0)
        message = re.escape(f"time {t} is not on the path step grid")
        for solve in (lambda: invert_flow(ens, t), lambda: pushforward_solution(f0, ens, t)):
            with pytest.raises(FlowError, match=message):
                solve()

    def test_overshooting_newton_falls_back_to_step_halving(self):
        # from the node step at x, full Newton steps stagnate at residual 90
        # on this trig-preset flow, though det(I + dD) >= 0.258 on the nodes;
        # halved steps converge.  The node start lands within a cell of the
        # preimage, and full steps from there converge in 6 rounds
        b, sigmas, _ = trig_case()
        path = sample_brownian(T, 1e-3, 1, 1677528212305881673)
        ens = simulate_flow(b, sigmas, SdeConfig(dt=1e-3), path)
        inv = invert_flow(ens, T)
        g, X0 = grid1(), ens.paths[0]
        disp = (ens.paths[-1] - X0)[None]
        D = PeriodicInterpolant(g, disp[0])
        psi = inv.psi.values
        assert np.abs(psi + D(psi) - X0).max() < 1e-10
        assert inv.newton_iterations == 6
        assert inv.det.values.min() > 0.0
        jac = jacobian_stack(g, disp)
        from_x = X0[:, None] - solve_pointwise(plus_identity(jac[0]), disp[0])[:, None]
        halved, _, rounds, _ = flow._newton_rows(g, disp, jac, X0[:, None], from_x, 1e-10)
        assert rounds[0] > flow._MAX_NEWTON
        assert np.abs(halved[:, 0] + D(halved[:, 0]) - X0).max() < 1e-10

    def test_an_iterate_beyond_the_floats_is_lost(self):
        # y = 1e308 is finite, but y / h overflows to inf on 64 nodes: Newton
        # refuses its own iterate, before any spline reads it
        g = grid1()
        disp = (0.3 * np.sin(g.axis_coordinates()))[None, None]
        X = np.full((1, 1, 5), 1e308)
        with pytest.raises(FlowError, match="^Newton iteration lost finiteness$"):
            flow._newton_rows(g, disp, jacobian_stack(g, disp), X, X.copy(), 1e-10)

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


def constant_case():
    g = build_grid(2, L, 16)
    horizon, steps = 0.1, 30
    preset = presets.PRESETS["constant"]
    b, *sigmas = [
        presets.sample_constant_in_time(v, horizon, steps)
        for v in (preset.drift(g), *preset.noise(g))
    ]
    return b, sigmas, sample_brownian(horizon, horizon / steps, len(sigmas), 2026)


def solve_pointwise(mat, rhs):
    """mat @ out = rhs at every point, for (dim, dim, ...) / (dim, ...), dim 1 or 2."""
    if len(mat) == 1:
        return rhs / mat[0, 0]
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    return np.stack([
        (mat[1, 1] * rhs[0] - mat[0, 1] * rhs[1]) / det,
        (mat[0, 0] * rhs[1] - mat[1, 0] * rhs[0]) / det,
    ])


def det_pointwise(mat):
    if len(mat) == 1:
        return mat[0, 0]
    return mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]


def plus_identity(jac):
    out = jac.copy()
    for i in range(len(jac)):
        out[i, i] += 1.0
    return out


def node_start(grid, disp, disp_jac):
    """The first Newton iterate of a flow inversion, on node arrays alone.

    It is taken from a node near each preimage: candidates z = x - m h,
    m = 0 and then once in 1-d, three times in 2-d, m = rint(D(x - m h) / h),
    of which each point keeps the first of least max|D(z) - m h| / h.
    """
    index = np.indices(grid.shape)

    def at(values, m):  # values at the nodes x - m h, wrapped onto the torus
        return values[(Ellipsis,) + tuple((index - m) % grid.N)]

    m = best = np.zeros_like(index)
    least = np.abs(disp / grid.h).max(axis=0)
    for _ in range(3 if grid.dim == 2 else 1):
        m = np.rint(at(disp / grid.h, m)).astype(int)
        size = np.abs(at(disp / grid.h, m) - m).max(axis=0)
        best = np.where(size < least, m, best)
        least = np.minimum(size, least)
    shift = best * grid.h
    mat = plus_identity(at(disp_jac, best))
    return np.stack(grid.coordinates()) - shift - solve_pointwise(mat, at(disp, best) - shift)


def per_step_inverse(ensemble, step, tol=1e-10, max_newton=30):
    """Newton on one step alone, with PeriodicInterpolant (map_coordinates) splines.

    The node start, then up to max_newton full-step rounds; a step still
    iterating then restarts from y = x and, for up to max_newton + 1 more
    rounds, halves its step at each point (at most 30 times) until the
    residual there drops.  A round is one residual evaluation.  Returns
    (psi, det, rounds).
    """
    grid = ensemble.seeds_grid
    X0 = np.stack(grid.coordinates())
    disp = GridVector(grid, ensemble.paths[step] - X0)
    disp_jac = jacobian(disp)
    D, JD = PeriodicInterpolant(disp.grid, disp.values), PeriodicInterpolant(grid, disp_jac)
    Y = node_start(grid, disp.values, disp_jac)
    for rounds in range(1, 2 * max_newton + 2):
        F = Y + D(Y) - X0
        size = np.abs(F).max(axis=0)
        if size.max() < tol:
            return Y, 1.0 / det_pointwise(plus_identity(JD(Y))), rounds
        if rounds == max_newton:
            Y = X0.copy()
            continue
        step_ = solve_pointwise(plus_identity(JD(Y)), F)
        if rounds < max_newton:
            Y = Y - step_
            continue
        scale = np.ones_like(size)
        for _ in range(31):
            trial = Y - scale * step_
            worse = (np.abs(trial + D(trial) - X0).max(axis=0) >= size) & (size >= tol)
            if not worse.any():
                break
            scale[worse] *= 0.5
        Y = trial
    raise AssertionError("reference Newton did not converge")


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestPushforwardPath:
    """Block Newton and pushforward_path against one step at a time, bit for bit."""

    def check_blocks(self, ens, steps):
        grid = ens.seeds_grid
        seen = []
        for block, psi, det, iterations, _ in flow._inverse_blocks(ens, steps):
            for n, step in enumerate(block):
                want_psi, want_det, rounds = per_step_inverse(ens, step)
                assert same_bits(psi[:, n].reshape(want_psi.shape), want_psi)
                assert same_bits(det[n].reshape(grid.shape), want_det)
                assert iterations[n] == rounds
                assert invert_flow(ens, step * ens.path.dt).newton_iterations == rounds
                seen.append(step)
        assert seen == list(steps)

    @pytest.mark.parametrize("case", [trig_case, divfree_case, constant_case])
    def test_whole_path(self, case):
        b, sigmas, path = case()
        ens = simulate_flow(b, sigmas, SdeConfig(dt=path.dt), path)
        grid = b.grid
        per_block = max(1, flow._BLOCK_POINTS // grid.N**grid.dim)
        assert per_block > 1 and (path.steps + 1) % per_block != 0
        f0 = presets.default_datum(grid)
        fpath = list(flow.pushforward_path(f0, ens))
        assert len(fpath) == path.steps + 1
        for l, f in enumerate(fpath):
            assert same_bits(f.values, pushforward_solution(f0, ens, l * path.dt).values)
        self.check_blocks(ens, range(path.steps + 1))

    def test_strided_steps(self):
        b, sigmas, path = divfree_case()
        ens = simulate_flow(b, sigmas, SdeConfig(dt=path.dt), path)
        f0 = presets.default_datum(b.grid)
        steps = range(1, path.steps + 1, 3)
        fpath = list(flow.pushforward_path(f0, ens, steps))
        assert len(fpath) == len(steps)
        for l, f in zip(steps, fpath):
            assert same_bits(f.values, pushforward_solution(f0, ens, l * path.dt).values)

    def test_fallback_step_in_a_converging_block(self):
        # displacements k / 20 * 0.999 sin(x + 0.4): at k = 20 full Newton
        # steps from the node start stagnate (the trig-preset flow that did
        # so from x converges from the node start); at the smaller ones plain
        # Newton converges, so one row of the block falls back alone
        g = grid1()
        X0 = np.stack(g.coordinates())
        bend = 0.999 * np.sin(g.axis_coordinates() + 0.4)[None, :]
        paths = np.stack([X0 + k / 20 * bend for k in range(21)])
        ens = FlowEnsemble(
            seeds_grid=g, path=BrownianPath(1.0, 0.05, 0, np.zeros((20, 0)), 0), paths=paths
        )
        steps = range(21)
        (_, _, _, iterations, _), = flow._inverse_blocks(ens, steps)
        assert iterations[-1] > 30 and iterations[:-1].max() <= 30
        self.check_blocks(ens, steps)
        f0 = presets.default_datum(g)
        *_, last = flow.pushforward_path(f0, ens, steps)
        assert same_bits(last.values, pushforward_solution(f0, ens, 1.0).values)

    @pytest.mark.parametrize(
        "case,evaluator", [(trig_case, "map_coordinates"), (divfree_64_case, "stencil")]
    )
    def test_the_datum_evaluator(self, monkeypatch, case, evaluator):
        # f0 has one row of one component: a block of 32 steps of 64 nodes
        # asks for 2,048 spline values, one step on 64^2 for 4,096
        b, sigmas, path = case()
        ens = simulate_flow(b, sigmas, SdeConfig(dt=path.dt), path)
        ran, datum_ran = TestLeanMarch.evaluators(monkeypatch), set()
        read = PeriodicInterpolant._read

        def spied(self, rows, x, out, plan=None, kept=None):
            ran.clear()
            got = read(self, rows, x, out, plan, kept)
            if self.head_shape == ():
                datum_ran.update(ran)
            return got

        monkeypatch.setattr(PeriodicInterpolant, "_read", spied)
        assert len(list(flow.pushforward_path(presets.default_datum(b.grid), ens))) > 1
        assert datum_ran == {evaluator}

    def test_grid_mismatch_refused(self):
        b, sigmas, path = trig_case()
        ens = simulate_flow(b, sigmas, SdeConfig(dt=path.dt), path)
        with pytest.raises(FlowError, match="different grid"):
            flow.pushforward_path(GridScalar.constant(grid1(32), 1.0), ens)

    @pytest.mark.parametrize("step", [-1, 501, 2.0, 0.5])
    def test_off_grid_step_refused(self, step):
        b, sigmas, path = trig_case()
        ens = simulate_flow(b, sigmas, SdeConfig(dt=path.dt), path)
        with pytest.raises(FlowError, match="step grid"):
            flow.pushforward_path(presets.default_datum(b.grid), ens, [0, step])

    def test_injectivity_error_names_the_first_bad_step(self):
        g = grid1()
        X0 = np.stack(g.coordinates())
        bend = np.sin(g.axis_coordinates())[None, :]
        paths = np.stack([X0, X0 + 0.5 * bend, X0 + 1.5 * bend, X0 + 2.0 * bend])
        ens = FlowEnsemble(
            seeds_grid=g, path=BrownianPath(0.15, 0.05, 0, np.zeros((3, 0)), 0), paths=paths
        )
        with pytest.raises(FlowError, match="not injective at t=0.1:"):
            list(flow.pushforward_path(GridScalar.constant(g, 1.0), ens))


def call_newton_rows(grid, disp, disp_jac, X, Y, tol):
    """flow._newton_rows as a loop of checked row calls that gather every tap
    in every round: the solver that keeps its gathers must give its bits."""
    count, dim = disp.shape[:2]
    if Y is None:
        at, shift = flow._start_nodes(grid, disp)
        jac_at = flow._at_nodes(disp_jac.reshape((count, dim * dim) + grid.shape), at)
        mat = flow._identity_plus(jac_at.reshape((dim, dim) + jac_at.shape[1:]))
        Y = X - shift - flow._solve_stack(mat, flow._at_nodes(disp, at) - shift)
    spline = PeriodicInterpolant(
        grid, np.concatenate([disp, disp_jac.reshape((count, dim * dim) + grid.shape)], axis=1)
    )
    X = np.broadcast_to(X, Y.shape)
    values = np.empty((dim + dim * dim,) + Y.shape[1:])
    rounds = np.zeros(count, dtype=np.intp)
    active = np.arange(count)
    V = spline(Y, active)
    for round_ in range(1, 2 * flow._MAX_NEWTON + 2):
        F = Y[:, active] + V[:dim] - X[:, active]
        size = np.max(np.abs(F), axis=0)
        done = np.max(size, axis=1) < tol
        rounds[active[done]] = round_
        values[:, active[done]] = V[:, done]
        active, F, V, size = active[~done], F[:, ~done], V[:, ~done], size[~done]
        if not len(active):
            return Y, values, rounds
        if round_ == flow._MAX_NEWTON:
            trial = X[:, active]
            V = spline(trial, active)
        else:
            step = flow._solve_stack(
                flow._identity_plus(V[dim:].reshape((dim, dim) + F.shape[1:])), F
            )
            scale = np.ones_like(size)
            for _ in range(31):
                trial = Y[:, active] - scale * step
                V = spline(trial, active)
                if round_ < flow._MAX_NEWTON:
                    break
                F_trial = trial + V[:dim] - X[:, active]
                worse = (np.max(np.abs(F_trial), axis=0) >= size) & (size >= tol)
                if not np.any(worse):
                    break
                scale[worse] *= 0.5
        Y[:, active] = trial
    raise AssertionError("reference Newton did not converge")


def divfree_path_case(store):
    """The divfree preset on 64^2 at T 0.25, as perfbench's pushforward runs
    it, storing the given steps."""
    g = build_grid(2, L, 64)
    horizon, steps = 0.25, 250
    b = presets.sample_constant_in_time(presets.divfree_2d_drift(g), horizon, steps)
    sigmas = [
        presets.sample_constant_in_time(s, horizon, steps) for s in presets.divfree_2d_noise(g)
    ]
    path = sample_brownian(horizon, horizon / steps, 2, 2025)
    ens, = flow.simulate_flows(b, sigmas, SdeConfig(dt=path.dt), [path], store=store)
    return ens


def fallback_ensemble():
    """A 1-d block of 21 steps whose last row restarts and halves its steps."""
    g = grid1()
    X0 = np.stack(g.coordinates())
    bend = 0.999 * np.sin(g.axis_coordinates() + 0.4)[None, :]
    paths = np.stack([X0 + k / 20 * bend for k in range(21)])
    return FlowEnsemble(
        seeds_grid=g, path=BrownianPath(1.0, 0.05, 0, np.zeros((20, 0)), 0), paths=paths
    )


def block_inputs(ens, steps):
    grid = ens.seeds_grid
    nodes = np.stack(grid.coordinates())
    disp = ens.paths[ens.rows_of(steps)] - nodes
    return grid, disp, jacobian_stack(grid, disp), nodes.reshape(grid.dim, 1, -1)


class TestKeptGathers:
    """Newton rounds that keep their gathered taps, against call_newton_rows."""

    @pytest.mark.parametrize("case", ["2d_one_row", "1d_block", "1d_halving"])
    def test_bitwise_equal_to_a_loop_of_calls(self, case):
        if case == "2d_one_row":
            ens, steps = divfree_path_case([0, 250]), [250]
        elif case == "1d_block":
            b, sigmas, path = trig_case()
            # step 0 leaves in the first round, the other 31 together in the
            # third, read by the stencil: the plan of 31 rows is not the block's
            ens = simulate_flow(b, sigmas, SdeConfig(dt=path.dt), path)
            steps = [0, *range(100, 131)]
        else:
            ens, steps = fallback_ensemble(), range(21)
        grid, disp, jac, nodes = block_inputs(ens, steps)
        y, values, rounds, plan = flow._newton_rows(grid, disp, jac, nodes, None, 1e-10)
        want = call_newton_rows(grid, disp, jac, nodes, None, 1e-10)
        for got, expected in zip((y, values, rounds), want, strict=True):
            assert np.array_equal(got, expected)
        if case == "2d_one_row":  # one row: the last round read it, and f0 reads at its plan
            datum = PeriodicInterpolant(grid, presets.default_datum(grid).values)
            at_plan = np.empty((1, 1, grid.N**2))
            datum._read(np.zeros(1, dtype=np.intp), y / grid.h, at_plan, plan)
            assert plan[0].shape == (1, grid.N**2) and np.array_equal(at_plan[0], datum(y))
        else:  # rows that leave in different rounds hand out no plan
            assert len(set(rounds.tolist())) > 1 and plan is None
        if case == "1d_halving":
            assert rounds.max() > flow._MAX_NEWTON >= rounds[:-1].max()

    def test_straightening_bitwise_equal_to_a_loop_of_calls(self, monkeypatch):
        g = grid1()
        x = g.axis_coordinates()
        shapes = [(0.3, 0.4), (0.999, 0.4), (0.1, 0.8), (0.6, 1.2)]
        values = np.stack([(a * np.sin(x + phase))[None] for a, phase in shapes])
        u = TimeGridVector(g, np.linspace(0.0, 0.5, len(shapes)), values, np.arange(len(shapes)))
        kept = zvonkin.transform_coeffs(u, 2.0)

        def reference(*args):
            return *call_newton_rows(*args), None

        monkeypatch.setattr(zvonkin, "_newton_rows", reference)
        called = zvonkin.transform_coeffs(u, 2.0)
        assert np.array_equal(kept.b_hat.values, called.b_hat.values)
        for got, want in zip(kept.sigma_hat, called.sigma_hat, strict=True):
            assert np.array_equal(got.values, want.values)
        for got, want in zip(kept.inverted, called.inverted, strict=True):
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_later_rounds_gather_only_the_points_that_moved_cell(self, monkeypatch):
        # from the first round to the second a few of the 4,096 points move
        # to another stencil cell, and none after: a round gathers at those
        # points alone, and the first round at every point
        stored = [0, 100, 190, 250]
        ens = divfree_path_case(stored)
        gathers, bases = [], []
        gather, plan = interp._Stencil.gather, interp._Stencil.plan

        def counted_gather(self, rows, base, gathered, moved=None):
            gathers.append(base.size if moved is None else int(moved.sum()))
            return gather(self, rows, base, gathered, moved)

        def recorded_plan(self, x):
            planned = plan(self, x)
            bases.append(planned[0])
            return planned

        monkeypatch.setattr(interp._Stencil, "gather", counted_gather)
        monkeypatch.setattr(interp._Stencil, "plan", recorded_plan)
        moved = 0
        for step in stored[1:]:
            gathers.clear(), bases.clear()
            rounds = invert_flow(ens, step * ens.path.dt).newton_iterations
            assert len(bases) == len(gathers) == rounds == 3
            changed = [int((a != b).sum()) for a, b in zip(bases, bases[1:])]
            assert gathers == [64 * 64] + changed
            moved += sum(changed)
        assert moved > 0


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
        hop = PeriodicInterpolant(g, leg.paths[-1] - leg.paths[0])
        composed = full.paths[s_idx] + hop(full.paths[s_idx])
        assert np.abs(composed - full.paths[-1]).max() < 1e-5


class TestEnsembleMoment:
    """The Monte Carlo moment of a functional of each member's flow: the
    functional's power per member, reduced by _mean_stderr."""

    def test_constant_functional(self):
        g = grid1(16)
        b = still(GridVector.constant(g, [0.0]))
        ens = [
            simulate_flow(b, [], SdeConfig(dt=0.05), sample_brownian(T, 0.05, 0, m))
            for m in range(3)
        ]
        # each member stores every step, so the functional reads 1
        values = [(len(e.paths) / (e.path.steps + 1)) ** 2.0 for e in ens]
        assert _mean_stderr(values) == (1.0, 0.0)

    def test_stderr_shrinks_with_members(self):
        # functional depends only on the member's own stream: iid samples
        def noisy(e):
            return float(stream(e.path.seed, 77).normal())

        g = grid1(16)
        b = still(GridVector.constant(g, [0.0]))

        def batch(count, offset):
            return [
                noisy(simulate_flow(
                    b, [], SdeConfig(dt=0.25), sample_brownian(T, 0.25, 0, offset + m)
                ))
                for m in range(count)
            ]

        _, small = _mean_stderr(batch(64, 0))
        _, big = _mean_stderr(batch(256, 1000))
        assert 1.3 < small / big < 3.1

    def test_requires_two(self):
        with pytest.raises(FlowError, match="at least 2 members, got 0"):
            _mean_stderr([])
        with pytest.raises(FlowError, match="at least 2 members, got 1"):
            _mean_stderr([1.0])


class TestEnsembleShapes:
    """FlowEnsemble refuses at construction what save_ensemble would write
    and load_ensemble then refuse."""

    def test_paths_one_row_per_stored_step(self):
        g = grid1(16)
        path = sample_brownian(0.02, 0.01, 1, 3)  # 2 steps: 3 rows
        with pytest.raises(FlowError, match=r"paths shape \(5, 1, 16\) != \(3, 1, 16\)"):
            FlowEnsemble(g, path, np.zeros((5, 1, 16)))
        with pytest.raises(FlowError, match=r"paths shape \(3, 2, 16\)"):
            FlowEnsemble(g, path, np.zeros((3, 2, 16)))
        with pytest.raises(FlowError, match=r"paths shape \(3, 1, 16\) != \(2, 1, 16\)"):
            FlowEnsemble(g, path, np.zeros((3, 1, 16)), stored=np.array([0, 2]))
        held = np.zeros((3, 1, 16))
        assert FlowEnsemble(g, path, held).paths is held  # nothing is copied

    @pytest.mark.parametrize("stored", [[0, 0, 1], [1, 0], [0, 3], [-1, 0]])
    def test_stored_steps_increase_inside_the_path(self, stored):
        path = sample_brownian(0.02, 0.01, 1, 3)
        with pytest.raises(FlowError, match="increase strictly inside 0..2"):
            FlowEnsemble(grid1(16), path, np.zeros((len(stored), 1, 16)), stored=np.array(stored))

    def test_recursions_cover_every_step(self):
        g = grid1(16)
        path = sample_brownian(0.02, 0.01, 1, 3)
        paths = np.zeros((3, 1, 16))
        with pytest.raises(FlowError, match=r"jac_variational shape \(2, 1, 1, 16\)"):
            FlowEnsemble(g, path, paths, jac_variational=np.zeros((2, 1, 1, 16)))
        with pytest.raises(FlowError, match=r"logdet_exponential shape \(3, 1, 16\)"):
            FlowEnsemble(g, path, paths, logdet_exponential=np.zeros((3, 1, 16)))
        ens = FlowEnsemble(
            g, path, paths, jac_variational=np.zeros((3, 1, 1, 16)),
            logdet_exponential=np.zeros((3, 16)),
        )
        assert ens.stored.tolist() == [0, 1, 2]


class TestFloFiles:
    def test_round_trip_bitwise(self, tmp_path):
        g = grid1(32)
        x = g.axis_coordinates()
        b = sine_contraction(g)
        sg = still(GridVector(g, (0.4 + 0.2 * np.cos(x))[None, :]))
        path = sample_brownian(T, 0.025, 1, 12)
        ens = simulate_flow(b, [sg], SdeConfig(dt=0.025), path)
        target = tmp_path / "ensemble.flo"
        save_ensemble(target, ens)
        back = load_ensemble(target)
        assert np.array_equal(back.paths, ens.paths)
        assert np.array_equal(back.path.increments, path.increments)
        assert back.path.seed == 12
        assert back.seeds_grid == g

    def test_save_refuses_a_stored_recursion(self, tmp_path):
        g = grid1(16)
        b, sg = sine_contraction(g), still(GridVector.constant(g, [0.5]))
        ens = simulate_flow(b, [sg], SdeConfig(dt=0.05), sample_brownian(T, 0.05, 1, 4))
        variational_jacobian(ens, b, [sg])
        with pytest.raises(FlowError, match="holds positions only; clear jac_variational"):
            save_ensemble(tmp_path / "jac.flo", ens)
        ens = replace(ens, jac_variational=None)
        logdet_stochastic_exponential(ens, b, [sg])
        with pytest.raises(FlowError, match="holds positions only; clear logdet_exponential"):
            save_ensemble(tmp_path / "logdet.flo", ens)
        assert not list(tmp_path.iterdir())

    def test_old_header_flags(self, tmp_path):
        # the two flags of headers from before .flo held positions only are
        # unknown keys like any other, refused by name at any value
        g = grid1(16)
        b = still(GridVector.constant(g, [0.0]))
        ens = simulate_flow(b, [], SdeConfig(dt=0.05), sample_brownian(T, 0.05, 0, 1))
        target = tmp_path / "old.flo"
        save_ensemble(target, ens)
        head, payload = target.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        assert "has_jacobian" not in header and "has_logdet" not in header
        for key in ("has_jacobian", "has_logdet"):
            for value in (False, True):
                old = {**header, key: value}
                target.write_bytes(json.dumps(old).encode("ascii") + b"\n" + payload)
                with pytest.raises(FlowError, match=f"header has unknown key {key}$"):
                    load_ensemble(target)

    def test_refined_path_refines_again_after_a_round_trip(self, tmp_path):
        # the fine path's key travels in the header's seed, so the loaded
        # path refines to the in-memory path's refinement, not to one keyed
        # by the base seed, which would reuse the first level's normals
        g = grid1(16)
        b = still(GridVector.constant(g, [0.0]))
        base = sample_brownian(T, 0.05, 1, 12)
        fine = refine_brownian(base, 4)
        ens = simulate_flow(b, [still(GridVector.constant(g, [1.0]))], SdeConfig(dt=fine.dt), fine)
        target = tmp_path / "refined.flo"
        save_ensemble(target, ens)
        back = load_ensemble(target).path
        assert back.seed == fine.seed != base.seed
        again = refine_brownian(back, 4).increments
        assert np.array_equal(again, refine_brownian(fine, 4).increments)
        reused = refine_brownian(replace(fine, seed=base.seed), 4).increments
        assert not np.any(again == reused)

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
