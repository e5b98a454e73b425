"""Damped parabolic solver tests.

Oracles:

* sin(kx) is an eigenfunction of the heat semigroup, eigenvalue
  exp(-k^2 t / 2) -- checked against a value computed here, not spectrally;
* constant drift c makes the advection term vanish, so the mild recursion
  telescopes to u(t) = c (1 - e^{-lam (T - t)}) / lam at every grid time;
* space-constant but time-varying drift collapses the whole solve to a
  scalar recursion, reimplemented below with plain floats, which pins the
  time-reversal indexing exactly;
* for constant drift the relaxation residual is a finite geometric sum;
* mild_defect re-applies the mild map in physical space on its own, and the
  spectral march must be its fixed point to round-off (ROUND_OFF);
* the spectral march equals, bit for bit, the loop written out here
  (spectral_march), and to round-off the physical march taken one validated
  GridVector and one heat_apply call at a time (reference_mild_solve).
"""

from __future__ import annotations

import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renormlab.field import (
    GridScalar,
    GridVector,
    TimeGridVector,
    _blocks,
    _partials,
    _spectral,
    build_grid,
    divergence,
    jacobian,
    lp_norm,
    spectral_derivative,
)
from renormlab import field, parabolic
from renormlab.parabolic import (
    DecayStudy,
    ParabolicError,
    ParabolicSolution,
    decay_study,
    heat_apply,
    mild_defect,
    mild_solve,
    pde_residual,
    relaxation_residuals,
    space_time_norm,
)
from renormlab.presets import decay_drift, sample_constant_in_time, trig_flow_drift
from renormlab.rng import stream

L = 2.0 * math.pi
T = 0.5

# A solve is at round-off when a defect or a distance is at most
# ROUND_OFF * eps * sup|u|.  Measured: at most 15.1 on the suite's decay and
# straightening ladders (trig_flow, lam 4, 128 steps) and 4.3 on every other
# case here; 64 leaves a margin above 4.  The constant grows with the step
# count over lam: it read 53 at lam 6 and 512 steps, and 226 at lam 0.5 and
# 1,024 steps on the decay preset.
ROUND_OFF = 64.0


def at_round_off(distance: float, sol: ParabolicSolution) -> bool:
    return distance <= ROUND_OFF * np.finfo(float).eps * float(np.max(np.abs(sol.u.values)))


def grid1(n_pts=32):
    return build_grid(1, L, n_pts)


def constant_in_time(vec: GridVector, steps: int) -> TimeGridVector:
    times = np.linspace(0.0, T, steps + 1)
    return TimeGridVector(vec.grid, times, vec.values[None], np.zeros(steps + 1, dtype=int))


def row_per_sample(grid, times, rows) -> TimeGridVector:
    """A field with its own row, rows[j], at each time sample."""
    return TimeGridVector(grid, times, np.stack(rows), np.arange(len(times)))


class TestHeatSemigroup:
    def test_eigenfunction(self):
        g = grid1(64)
        x = g.axis_coordinates()
        for k, t in ((1, 0.3), (3, 0.1), (5, 0.02)):
            u = GridScalar(g, np.sin(k * x))
            out = heat_apply(u, t)
            factor = math.exp(-0.5 * k**2 * t)
            assert np.max(np.abs(out.values - factor * u.values)) < 1e-13

    def test_zero_time_is_a_copy(self):
        g = grid1()
        u = GridScalar(g, np.cos(g.axis_coordinates()))
        out = heat_apply(u, 0.0)
        assert np.array_equal(out.values, u.values)
        out.values[0] = 99.0
        assert u.values[0] != 99.0

    def test_vector_components_independent(self):
        g = build_grid(2, L, 16)
        xx, yy = g.coordinates()
        v = GridVector(g, np.stack([np.sin(xx), np.cos(yy)]))
        out = heat_apply(v, 0.2)
        factor = math.exp(-0.5 * 0.2)
        assert np.max(np.abs(out.values[0] - factor * np.sin(xx))) < 1e-13
        assert np.max(np.abs(out.values[1] - factor * np.cos(yy))) < 1e-13

    def test_mean_preserved(self):
        g = grid1()
        rng = stream(11, 0)
        u = GridScalar(g, rng.normal(size=g.shape))
        out = heat_apply(u, 0.7)
        assert abs(out.values.mean() - u.values.mean()) < 1e-14

    def test_negative_time_rejected(self):
        g = grid1()
        with pytest.raises(ParabolicError):
            heat_apply(GridScalar(g, np.zeros(g.shape)), -0.1)

    @pytest.mark.parametrize("t", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_time_rejected(self, t):
        g = grid1()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParabolicError, match=f"heat time .* got {t}"):
                heat_apply(GridScalar(g, np.zeros(g.shape)), t)

    @pytest.mark.parametrize(
        "t, message",
        [(True, "a number, got True"), ("1", "a number, got '1'"), (None, "a number, got None"),
         (10**400, "finite, got 1000"),
         # compared with the float64 maximum cast to float32 (an overflow
         # warning), a float32 infinity passed as finite and the heat step was nan
         (np.float32("inf"), "finite, got np.float32")],
        ids=["bool", "str", "none", "huge_int", "float32_inf"],
    )
    def test_non_number_time_rejected(self, t, message):
        g = grid1()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParabolicError, match=f"^heat time must be {message}"):
                heat_apply(GridScalar(g, np.zeros(g.shape)), t)

    def test_non_field_rejected(self):
        with pytest.raises(ParabolicError):
            heat_apply(np.zeros(4), 0.1)

    @settings(max_examples=25, deadline=None)
    @given(
        t=st.floats(0.0, 1.0),
        s=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_semigroup_property(self, t, s, seed):
        g = grid1()
        rng = stream(seed, 2)
        u = GridScalar(g, rng.normal(size=g.shape))
        two_step = heat_apply(heat_apply(u, t), s)
        one_step = heat_apply(u, t + s)
        assert np.max(np.abs(two_step.values - one_step.values)) < 1e-12


class TestMildSolve:
    def test_zero_drift_trivial(self):
        g = grid1()
        b = constant_in_time(GridVector(g, np.zeros((1,) + g.shape)), 16)
        sol = mild_solve(b, 4.0, 16)
        assert mild_defect(sol, b) == 0.0
        for s in sol.u.slices:
            assert np.array_equal(s.values, np.zeros((1,) + g.shape))

    def test_constant_drift_closed_form(self):
        g = grid1()
        steps, lam, c = 64, 6.0, 1.7
        b = constant_in_time(GridVector(g, np.full((1,) + g.shape, c)), steps)
        sol = mild_solve(b, lam, steps)
        for j, t in enumerate(b.times):
            expected = c * (1.0 - math.exp(-lam * (T - t))) / lam
            assert np.max(np.abs(sol.u.slices[j].values - expected)) < 1e-13
        assert np.array_equal(sol.u.slices[-1].values, np.zeros((1,) + g.shape))

    def test_time_varying_scalar_recursion(self):
        # space-constant drift: heat is the identity and advection vanishes,
        # so the solver must match this float recursion bit for bit -- any
        # off-by-one in the time reversal would show up immediately.
        g = grid1()
        steps, lam = 64, 6.0
        times = np.linspace(0.0, T, steps + 1)
        amps = 1.0 + 0.5 * np.sin(3.0 * times)
        b = row_per_sample(g, times, [np.full((1,) + g.shape, a) for a in amps])
        sol = mild_solve(b, lam, steps)
        dt = T / steps
        decay = math.exp(-lam * dt)
        weight = (1.0 - decay) / lam
        v, values = 0.0, [0.0]
        for l in range(steps):
            v = decay * v + weight * amps[steps - l]
            values.append(v)
        for j in range(steps + 1):
            assert np.max(np.abs(sol.u.slices[j].values - values[steps - j])) == 0.0

    def test_fixed_point_defect_small(self):
        g = grid1()
        prof = np.sin(g.axis_coordinates()) + 0.3 * np.cos(2 * g.axis_coordinates())
        b = constant_in_time(GridVector(g, prof[None, :]), 64)
        sol = mild_solve(b, 8.0, 64)
        assert at_round_off(mild_defect(sol, b), sol)

    @pytest.mark.parametrize(
        "preset, lam, steps",
        [("decay", lam, 256) for lam in (32.0, 64.0, 128.0, 256.0)]
        + [("trig_flow", lam, 128) for lam in (4.0, 16.0, 64.0)],
    )
    def test_march_is_the_mild_fixed_point(self, preset, lam, steps):
        # the decay and straightening ladders of the acceptance suite: the
        # march reproduces mild_defect's independent re-application to round-off
        g = build_grid(1, L, 64)
        profile = {"decay": decay_drift, "trig_flow": trig_flow_drift}[preset](g)
        b = sample_constant_in_time(profile, T, steps)
        sol = mild_solve(b, lam, steps)
        assert at_round_off(mild_defect(sol, b), sol)

    def test_validation(self):
        g = grid1()
        b = constant_in_time(GridVector(g, np.zeros((1,) + g.shape)), 16)
        with pytest.raises(ParabolicError):
            mild_solve(b, 0.0, 16)
        with pytest.raises(ParabolicError):
            mild_solve(b, -2.0, 16)
        with pytest.raises(ParabolicError):
            mild_solve(b, 4.0, 32)
        crooked = np.linspace(0.0, T, 17)
        crooked[5] += 1e-3
        bent = TimeGridVector(g, crooked, np.zeros((1, 1) + g.shape), np.zeros(17, dtype=int))
        with pytest.raises(ParabolicError):
            mild_solve(bent, 4.0, 16)

    @pytest.mark.parametrize("lam", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_damping_rejected(self, lam):
        g = grid1()
        b = constant_in_time(GridVector(g, np.ones((1,) + g.shape)), 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParabolicError, match=f"damping lambda .* got {lam}"):
                mild_solve(b, lam, 16)

    def test_strong_drift_logs_nothing(self, caplog):
        g = grid1()
        prof = 4.0 * np.sin(g.axis_coordinates())
        b = constant_in_time(GridVector(g, prof[None, :]), 32)
        with caplog.at_level(logging.DEBUG, logger="renormlab.parabolic"):
            sol = mild_solve(b, 2.0, 32)
        assert not caplog.records
        assert at_round_off(mild_defect(sol, b), sol)

    def test_defect_rejects_foreign_time_grid(self):
        g = grid1()
        b = constant_in_time(GridVector(g, np.zeros((1,) + g.shape)), 16)
        sol = mild_solve(b, 4.0, 16)
        other = TimeGridVector(
            g, np.linspace(0.0, 2 * T, 17), np.zeros((1, 1) + g.shape), np.zeros(17, dtype=int)
        )
        with pytest.raises(ParabolicError):
            mild_defect(sol, other)


# Each bad argument of the parabolic layer and the argument its refusal names:
# a bool is no count, no damping, no order and no exponent, a float is no step
# count, and an integer beyond float range is no damping.
REFUSALS = {
    "steps_float": (lambda b: mild_solve(b, 8.0, 16.0), "quad_steps .* got 16.0"),
    "steps_numpy_float": (lambda b: mild_solve(b, 8.0, np.float64(16)), "quad_steps"),
    "steps_bool": (lambda b: mild_solve(b, 8.0, True), "quad_steps .* got True"),
    "steps_str": (lambda b: mild_solve(b, 8.0, "16"), "quad_steps .* got '16'"),
    "lam_bool": (lambda b: mild_solve(b, True, 16), "damping lambda .* got True"),
    "lam_str": (lambda b: mild_solve(b, "8", 16), "damping lambda .* got '8'"),
    "lam_none": (lambda b: mild_solve(b, None, 16), "damping lambda .* got None"),
    "lam_beyond_float": (lambda b: mild_solve(b, 10**400, 16),
                         "damping lambda must be finite, got 1000"),
    "lambdas_beyond_float": (lambda b: decay_study(b, [8.0, 10**400, 10**401], 0, 8.0, 8.0, 4.0),
                             "lambdas must be finite, got 1000"),
    "alpha_bool": (lambda b: decay_study(b, [8.0, 32.0, 128.0], True, 8.0, 8.0, 4.0),
                   "alpha .* got True"),
    "alpha_float": (lambda b: decay_study(b, [8.0, 32.0, 128.0], 1.0, 8.0, 8.0, 4.0),
                    "alpha .* got 1.0"),
    "lambdas_bool": (lambda b: decay_study(b, [8.0, True, 128.0], 0, 8.0, 8.0, 4.0),
                     "lambdas must be a number, got True"),
    "norm_alpha_bool": (lambda b: space_time_norm(b, True, 2.0, 2.0), "alpha .* got True"),
    "norm_exponents_bool": (lambda b: space_time_norm(b, 0, True, True),
                            r"exponents must be numbers, got \(r, q\) = \(True, True\)"),
    "norm_r_below_one": (lambda b: space_time_norm(b, 0, 0.5, 2.0),
                         "exponent r must be >= 1, got 0.5"),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_a_bad_argument_is_named_before_any_array(name, monkeypatch):
    call, match = REFUSALS[name]
    b = constant_in_time(GridVector(grid1(), np.ones((1, 32))), 16)

    class NoArrays:  # the type tests read these two; any other use of np fails
        integer, floating = np.integer, np.floating

    monkeypatch.setattr(parabolic, "np", NoArrays())
    with pytest.raises(ParabolicError, match=match):
        call(b)


def test_numpy_scalars_solve_as_their_values():
    b = moving_field(grid1(), 17, seed=9)
    want = mild_solve(b, 8.0, 16).u.values
    assert same_bits(mild_solve(b, np.float64(8.0), np.int64(16)).u.values, want)
    assert same_bits(mild_solve(b, np.int32(8), np.int32(16)).u.values, want)
    assert same_bits(mild_solve(b, np.float32(8.0), 16).u.values, want)  # weight in float64


def reference_mild_solve(b: TimeGridVector, lam: float) -> list:
    """The march one step at a time: each step wraps its arrays in GridVectors
    and takes (b . grad) v from jacobian and the heat step from heat_apply.
    Returns the backward-time slices u(t_j) = v(T - t_j)."""
    grid = b.grid
    steps = len(b.times) - 1
    dt = float(np.diff(b.times)[0])
    decay = math.exp(-lam * dt)
    weight = (1.0 - decay) / lam
    v = [GridVector(grid, np.zeros((grid.dim,) + grid.shape))]
    for l in range(steps):
        b_l = b.slices[steps - l]
        g_l = b_l.values + np.einsum("j...,ij...->i...", b_l.values, jacobian(v[l]))
        v.append(heat_apply(GridVector(grid, decay * v[l].values + weight * g_l), dt))
    return v[::-1]


def spectral_march(b: TimeGridVector, lam: float) -> np.ndarray:
    """mild_solve's march written out: the spectrum of v, one np.fft call per
    axis and transform, every slice synthesized on its own.  Returns the
    march array v, whose row l is v(t_l) = u(T - t_l)."""
    grid = b.grid
    steps = len(b.times) - 1
    dt = float(np.diff(b.times)[0])
    decay = math.exp(-lam * dt)
    weight = (1.0 - decay) / lam
    axes = range(-1, -grid.dim - 1, -1)
    k = 2.0 * np.pi * np.fft.fftfreq(grid.N, d=grid.h)
    odd = k.copy()
    odd[grid.N // 2] = 0.0  # a first derivative drops the Nyquist mode
    shapes = [[grid.N if a == j else 1 for a in range(grid.dim)] for j in range(grid.dim)]
    heat = np.exp(-0.5 * sum(k.reshape(s) ** 2 for s in shapes) * dt)
    grads = np.stack([np.ones(grid.shape, dtype=complex) * (1j * odd.reshape(s)) for s in shapes])

    def inverse(spectra):
        for axis in axes:
            spectra = np.fft.ifft(spectra, axis=axis)
        return spectra.real

    spectrum = np.zeros((grid.dim,) + grid.shape, dtype=complex)
    v = [inverse(spectrum)]
    for l in range(steps):
        b_l = b.values[b.index[steps - l]]
        g_l = b_l + np.einsum("j...,ij...->i...", b_l, inverse(spectrum[:, None] * grads))
        for axis in axes:
            g_l = np.fft.fft(g_l, axis=axis)
        spectrum = heat * (decay * spectrum + weight * g_l)
        v.append(inverse(spectrum))
    return np.stack(v)


MARCH_CASES = [(build_grid(1, L, 64), 64), (build_grid(2, L, 16), 24)]


def signed_zero_field(grid, count, seed):
    """moving_field with about a third of its values -0.0 and a sixth +0.0, and
    its last row, the first the march reads, all -0.0: where b_j is -0.0 and
    d_j v_i > 0, b_j d_j v_i is -0.0, which einsum sums from +0.0."""
    b = moving_field(grid, count, seed)
    draw = stream(seed, 1).random(b.values.shape)
    values = np.where(draw < 1 / 3, -0.0, np.where(draw < 1 / 2, 0.0, b.values))
    values[b.index[-1]] = -0.0
    return TimeGridVector(grid, b.times, values, b.index)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal values and equal signs: np.array_equal alone reads -0.0 as 0.0."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestMarchReference:
    @pytest.mark.parametrize("grid,steps", MARCH_CASES, ids=["1d", "2d"])
    @pytest.mark.parametrize("lam", [0.5, 8.0, 256.0])
    def test_march_equals_the_written_out_loop(self, grid, steps, lam):
        # time-varying, some slices repeated; then the same with signed zeros
        for b in (moving_field(grid, steps + 1, seed=9), signed_zero_field(grid, steps + 1, 9)):
            sol = mild_solve(b, lam, steps)
            assert np.array_equal(sol.u.index, steps - np.arange(steps + 1))
            assert same_bits(sol.u.values, spectral_march(b, lam))

    @pytest.mark.parametrize("grid,steps", MARCH_CASES, ids=["1d", "2d"])
    @pytest.mark.parametrize("lam", [0.5, 8.0, 256.0])
    def test_every_slice_equals_the_wrapped_march(self, grid, steps, lam):
        # the physical march is an independent oracle: equal to round-off
        b = moving_field(grid, steps + 1, seed=9)  # time-varying, some slices repeated
        sol = mild_solve(b, lam, steps)
        want = reference_mild_solve(b, lam)
        assert len(sol.u.slices) == len(want) == steps + 1
        worst = max(float(np.max(np.abs(got.values - ref.values)))
                    for got, ref in zip(sol.u.slices, want))
        assert at_round_off(worst, sol)
        assert at_round_off(mild_defect(sol, b), sol)

    @pytest.mark.parametrize("grid", [grid for grid, _ in MARCH_CASES], ids=["1d", "2d"])
    def test_two_transforms_a_step(self, grid, monkeypatch):
        # one forward transform (of the source) and one inverse (of grad v)
        # per step, plus one inverse per block of synthesized slices; a
        # pocketfft gufunc call per axis of the grid
        b = moving_field(grid, 33, seed=9)
        calls = {"fft": 0, "ifft": 0}
        counted = []
        for name, gufunc in zip(calls, field._pocketfft()):
            def count(*args, _name=name, _fn=gufunc, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            counted.append(count)
        monkeypatch.setattr(field, "_pocketfft", lambda: tuple(counted))
        mild_solve(b, 8.0, 32)
        blocks = len(_blocks(grid, 33))
        assert calls == {"fft": 32 * grid.dim, "ifft": (32 + blocks) * grid.dim}

    def test_defect_sees_a_wrong_slice(self):
        grid, steps = MARCH_CASES[0]
        b = moving_field(grid, steps + 1, seed=9)
        sol = mild_solve(b, 8.0, steps)
        sol.u.values[sol.u.index[10]] += 1e-6
        assert 1e-7 < mild_defect(sol, b) < 1e-5

    def test_overflow_names_the_step(self):
        g = grid1(64)
        huge = GridVector(g, 1e300 * np.sin(g.axis_coordinates())[None])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParabolicError, match="overflows at step 2 of 64"):
                mild_solve(constant_in_time(huge, 64), 4.0, 64)


class TestPdeResidual:
    def test_zero_drift_zero_residual(self):
        g = grid1()
        b = constant_in_time(GridVector(g, np.zeros((1,) + g.shape)), 16)
        sol = mild_solve(b, 4.0, 16)
        assert pde_residual(sol, b) == 0.0

    def test_first_order_in_time_step(self):
        # halving dt should nearly halve the residual (left-endpoint rule);
        # measured ratios at this configuration are 1.98 and 1.99.
        g = grid1()
        x = g.axis_coordinates()
        residuals = []
        for steps in (32, 64, 128):
            times = np.linspace(0.0, T, steps + 1)
            b = row_per_sample(
                g, times, [((1 + 0.5 * np.sin(3 * t)) * np.sin(x))[None, :] for t in times]
            )
            sol = mild_solve(b, 8.0, steps)
            residuals.append(pde_residual(sol, b))
        assert residuals[0] / residuals[1] > 1.85
        assert residuals[1] / residuals[2] > 1.85

    @pytest.mark.parametrize("dim", [1, 2])
    def test_backward_defect_equals_the_laplacian_loop(self, dim):
        # the Laplace term is the diagonal of hessian_stack summed in axis
        # order: the pure second partials' sum it replaced, bit for bit; in
        # 2-d the drift is the shear of the 2-d space-dependent noise
        g = build_grid(dim, L, 64 if dim == 1 else 32)
        xs = g.coordinates()
        if dim == 1:
            b_l = np.stack([np.sin(xs[0]) + 0.3 * np.cos(2 * xs[0])])
        else:
            b_l = np.stack([np.sin(xs[1]) + 0.3 * np.sin(xs[0]), np.sin(xs[0])])
        field = moving_field(g, 2, seed=5)
        u_l, u_next = field.values[field.index[:2]]
        seconds = _spectral(g, u_l, _partials(g, [(a, a) for a in range(dim)]))
        laplacian = np.zeros_like(u_l)
        for a in range(dim):
            laplacian += seconds[:, a]
        advect = np.einsum("j...,ij...->i...", b_l, jacobian(GridVector(g, u_l)))
        want = (u_next - u_l) / 0.01 + advect + 0.5 * laplacian - 4.0 * u_l + b_l
        assert same_bits(parabolic.backward_defect(g, u_l, u_next, b_l, 4.0, 0.01), want)


class TestSpaceTimeNorm:
    def test_constant_field_closed_form(self):
        g = grid1()
        u = constant_in_time(GridVector(g, np.full((1,) + g.shape, 2.0)), 8)
        got = space_time_norm(u, 0, 2.0, 4.0)
        assert abs(got - 2.0 * math.sqrt(L) * T**0.25) < 1e-12
        assert space_time_norm(u, 0, math.inf, math.inf) == 2.0

    def test_gradient_orders_of_sine(self):
        g = grid1(64)
        u = constant_in_time(GridVector(g, np.sin(g.axis_coordinates())[None, :]), 8)
        # |d sin| = |cos| and |d^2 sin| = |sin|; both have L^2 norm sqrt(pi)
        for alpha in (1, 2):
            got = space_time_norm(u, alpha, 2.0, 4.0)
            assert abs(got - math.sqrt(math.pi) * T**0.25) < 1e-12

    def test_invalid_alpha(self):
        g = grid1()
        u = constant_in_time(GridVector(g, np.zeros((1,) + g.shape)), 8)
        with pytest.raises(ParabolicError):
            space_time_norm(u, 3, 2.0, 2.0)


class TestRelaxation:
    def test_constant_drift_geometric_sum(self):
        g = grid1()
        steps, lam, c = 64, 8.0, 1.3
        b = constant_in_time(GridVector(g, np.full((1,) + g.shape, c)), steps)
        sol = mild_solve(b, lam, steps)
        res = relaxation_residuals(sol, b)
        dt = T / steps
        expected = sum(
            abs(c) * math.exp(-lam * (T - j * dt)) * dt for j in range(steps)
        )
        assert abs(res.drift_residual - expected) < 1e-12 * expected
        assert res.divergence_residual == 0.0

    def test_decreasing_along_damping_ladder(self):
        g = grid1()
        prof = np.sin(g.axis_coordinates()) + 0.3 * np.cos(2 * g.axis_coordinates())
        b = constant_in_time(GridVector(g, prof[None, :]), 64)
        drift_vals, div_vals = [], []
        for lam in (4.0, 16.0, 64.0):
            res = relaxation_residuals(mild_solve(b, lam, 64), b)
            drift_vals.append(res.drift_residual)
            div_vals.append(res.divergence_residual)
        assert drift_vals[0] > drift_vals[1] > drift_vals[2]
        assert div_vals[0] > div_vals[1] > div_vals[2]

    def test_rejects_foreign_time_grid(self):
        g = grid1()
        b = constant_in_time(GridVector(g, np.zeros((1,) + g.shape)), 16)
        sol = mild_solve(b, 4.0, 16)
        other = TimeGridVector(
            g, np.linspace(0.0, 2 * T, 17), np.zeros((1, 1) + g.shape), np.zeros(17, dtype=int)
        )
        with pytest.raises(ParabolicError):
            relaxation_residuals(sol, other)


def reference_magnitude(sl: GridVector, alpha: int) -> np.ndarray:
    """|grad^alpha v| of one slice, one spectral derivative at a time."""
    grid = sl.grid
    if alpha == 0:
        return np.sqrt(np.einsum("i...,i...->...", sl.values, sl.values))
    if alpha == 1:
        jac = jacobian(sl)
        return np.sqrt(np.einsum("ij...,ij...->...", jac, jac))
    acc = np.zeros(grid.shape)
    for i in range(grid.dim):
        for j in range(grid.dim):
            for k in range(grid.dim):
                beta = [0] * grid.dim
                beta[j] += 1
                beta[k] += 1
                acc += spectral_derivative(GridScalar(grid, sl.values[i]), beta).values ** 2
    return np.sqrt(acc)


def moving_field(grid, count, seed):
    """count samples of random smooth rows, every third one repeating the row before."""
    rng = stream(seed, 0)
    rows, index = [], []
    for j in range(count):
        if j % 3 == 2:
            index.append(index[-1])
            continue
        coarse = rng.standard_normal((grid.dim,) + (8,) * grid.dim)
        spectrum = np.zeros((grid.dim,) + grid.shape, dtype=complex)
        spectrum[(slice(None),) + (slice(0, 8),) * grid.dim] = coarse
        index.append(len(rows))
        rows.append(np.fft.ifftn(spectrum, axes=range(1, 1 + grid.dim)).real * grid.N)
    return TimeGridVector(grid, np.linspace(0.0, T, count), np.stack(rows), index)


BLOCK_CASES = [(build_grid(1, L, 64), 75), (build_grid(2, L, 16), 21)]


class TestBlockedNorms:
    """The blocked norms against one slice at a time, bit for bit, over
    several blocks (32 slices on 64 nodes, 8 on 16^2): each slice's spatial
    norm is lp_norm of a GridScalar, as the per-slice reference takes it."""

    @pytest.mark.parametrize("grid,count", BLOCK_CASES, ids=["1d", "2d"])
    @pytest.mark.parametrize("alpha", [0, 1, 2])
    def test_space_time_norm(self, grid, count, alpha):
        u = moving_field(grid, count, seed=5)
        dt = float(u.times[1])
        for r, q in ((2.0, 4.0), (8.0, 3.0), (math.inf, math.inf), (1.0, 2.0), (3.5, 8.0)):
            per_step = [
                lp_norm(GridScalar(grid, reference_magnitude(s, alpha)), r) for s in u.slices[:-1]
            ]
            if math.isinf(q):
                want = max(per_step)
            else:
                want = float(sum(v**q for v in per_step) * dt) ** (1.0 / q)
            assert space_time_norm(u, alpha, r, q).hex() == want.hex()

    @pytest.mark.parametrize("grid,count", BLOCK_CASES, ids=["1d", "2d"])
    def test_relaxation_residuals(self, grid, count):
        b = moving_field(grid, count, seed=6)
        sol = ParabolicSolution(lam=3.0, u=moving_field(grid, count, seed=7))
        dt = float(b.times[1])
        drift = div = 0.0
        for j in range(count - 1):
            gap = sol.lam * sol.u.slices[j].values - b.slices[j].values
            mag = np.sqrt(np.einsum("i...,i...->...", gap, gap))
            drift += lp_norm(GridScalar(grid, mag), math.inf) * dt
            div += lp_norm(divergence(GridVector(grid, gap)), 1) * dt
        got = relaxation_residuals(sol, b)
        assert got.drift_residual.hex() == drift.hex()
        assert got.divergence_residual.hex() == div.hex()


class TestLipschitzDecay:
    def test_gradient_sup_norm_decreasing(self):
        g = grid1()
        prof = np.sin(g.axis_coordinates())
        b = constant_in_time(GridVector(g, prof[None, :]), 64)
        sups = []
        for lam in (4.0, 16.0, 64.0):
            sol = mild_solve(b, lam, 64)
            sups.append(space_time_norm(sol.u, 1, math.inf, math.inf))
        assert sups[0] > sups[1] > sups[2]
        assert sups[2] < 0.25 * sups[0]


class TestDecayStudy:
    def test_single_mode_slopes(self):
        g = grid1()
        b = constant_in_time(GridVector(g, np.sin(g.axis_coordinates())[None, :]), 128)
        st0 = decay_study(b, [8.0, 32.0, 128.0], 0, 8.0, 8.0, 4.0)
        assert st0.theory_delta == 1.0
        assert -1.05 < st0.fitted_slope < -0.80
        assert st0.fitted_slope <= -st0.theory_delta + 0.15
        assert st0.norms[0] > st0.norms[1] > st0.norms[2]
        st1 = decay_study(b, [8.0, 32.0, 128.0], 1, 8.0, 8.0, 4.0)
        assert st1.theory_delta == 0.5
        assert st1.fitted_slope <= -0.35
        assert st1.fitted_slope <= -st1.theory_delta + 0.15

    def test_validation(self):
        g = grid1()
        b = constant_in_time(GridVector(g, np.sin(g.axis_coordinates())[None, :]), 32)
        with pytest.raises(ParabolicError, match="at least 3"):
            decay_study(b, [4.0, 16.0], 0, 8.0, 8.0, 4.0)
        with pytest.raises(ParabolicError, match="alpha"):
            decay_study(b, [4.0, 16.0, 64.0], 3, 8.0, 8.0, 4.0)
        with pytest.raises(ParabolicError, match="2/q"):
            decay_study(b, [4.0, 16.0, 64.0], 0, 2.0, 2.0, 2.0)
        with pytest.raises(ParabolicError, match="incompatible"):
            decay_study(b, [4.0, 16.0, 64.0], 0, 16.0, 8.0, 4.0)
        with pytest.raises(ParabolicError, match="incompatible"):
            decay_study(b, [4.0, 16.0, 64.0], 2, 8.0, 8.0, 4.0)

    @pytest.mark.parametrize(
        "lambdas, exponents, match",
        [
            ([16.0, 4.0, 64.0], (8.0, 8.0, 4.0), "strictly increasing"),
            ([4.0, 4.0, 64.0], (8.0, 8.0, 4.0), "strictly increasing"),
            ([4.0, math.nan, 64.0], (8.0, 8.0, 4.0), "lambdas must be finite, got nan"),
            ([0.0, 4.0, 64.0], (8.0, 8.0, 4.0), "positive"),
            ([4.0, 16.0, math.inf], (8.0, 8.0, 4.0), "finite"),
            ([4.0, 16.0, 64.0], (math.nan, 8.0, 4.0), "exponents"),
            ([4.0, 16.0, 64.0], (8.0, math.nan, 4.0), "exponents"),
            ([4.0, 16.0, 64.0], (8.0, 8.0, math.nan), "exponents"),
            ([4.0, 16.0, 64.0], (0.0, 8.0, 4.0), "exponents"),
            ([4.0, 16.0, 64.0], (True, 8.0, 4.0), "exponents must be numbers"),
            ([4.0, 16.0, 64.0], (8.0, True, 4.0), "exponents must be numbers"),
            ([4.0, 16.0, 64.0], (8.0, 8.0, True), "exponents must be numbers"),
            ([4.0, 16.0, 64.0], (0.5, 8.0, 4.0), "exponent r must be >= 1, got 0.5"),
            ([8.0, 10**400, 10**401], (8.0, 8.0, 4.0), "lambdas must be finite"),
        ],
    )
    def test_refused_before_any_solve(self, lambdas, exponents, match, monkeypatch):
        g = grid1()
        b = constant_in_time(GridVector(g, np.sin(g.axis_coordinates())[None, :]), 32)
        solves = []
        monkeypatch.setattr(parabolic, "mild_solve", lambda *args: solves.append(args))
        with pytest.raises(ParabolicError, match=match):
            decay_study(b, lambdas, 0, *exponents)
        assert solves == []

    def test_infinite_exponents_accepted(self):
        g = grid1()
        b = constant_in_time(GridVector(g, np.sin(g.axis_coordinates())[None, :]), 32)
        study = decay_study(b, [8.0, 32.0, 128.0], 0, math.inf, math.inf, math.inf)
        assert study.theory_delta == 1.0
        assert all(n > 0 for n in study.norms)

    def test_dataclass_invariants(self):
        with pytest.raises(ParabolicError):
            DecayStudy([4.0, 2.0, 16.0], [1.0, 1.0, 1.0], -1.0, 1.0)
        with pytest.raises(ParabolicError):
            DecayStudy([4.0, 8.0, 16.0], [1.0, 0.0, 1.0], -1.0, 1.0)
