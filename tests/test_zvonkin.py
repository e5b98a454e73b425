"""Tests for the drift-straightening transform.

Independent oracles used here:

* inversion -- the analytic Banach iteration y <- x - a sin(y), run to
  stagnation on the closed-form displacement, nails the inverse point
  without touching the module's interpolants;
* constant drift -- the spatially constant displacement has the closed
  form u(t) = c (1 - e^{-lam (T-t)}) / lam, so the straightened drift is
  c (1 - e^{-lam (T-t)}), the noise columns are exactly e_k, and the
  space-time norm of b_hat - b collapses to a one-dimensional sum the
  test re-evaluates from the formula;
* pushforward duality -- <h, psi> must equal <f, psi o phi>, and the
  right-hand side needs only the forward map at the nodes, no inversion;
* hand determinants -- the swirl displacement with steepness 0.4 in two
  dimensions brackets its determinant by 0.36 and 1.96.

Monte Carlo figures (ledger residuals along driving paths) were frozen
from the named streams; reruns are bitwise reproducible.
"""

import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renormlab import field, flow, zvonkin
from renormlab.field import (
    GridScalar,
    GridVector,
    TimeGridVector,
    build_grid,
    divergence,
    jacobian,
    jacobian_stack,
    lp_norm,
)
from renormlab.flow import (
    SdeConfig,
    pushforward_solution,
    refine_brownian,
    sample_brownian,
    simulate_flow,
)
from renormlab.interp import PeriodicInterpolant
from renormlab.parabolic import mild_solve
from renormlab.presets import sample_constant_in_time
from renormlab.weakform import bump_test_function, make_renormalizer, residual_renormalized
from renormlab.zvonkin import (
    LipTooLarge,
    ZvonkinError,
    build_diffeo,
    invert_diffeo,
    pushforward_path_under_diffeo,
    relaxation_metrics,
    transform_coeffs,
    transformed_residual,
)

L = 2.0 * np.pi


def grid1(N=64):
    return build_grid(1, L, N)


def still(grid, amp_fn, T=0.5, steps=2):
    """Time-frozen displacement from per-component profile callables."""
    return sample_constant_in_time(GridVector.from_functions(grid, amp_fn), T, steps)


def zero_displacement(grid, T=0.5, steps=2):
    return sample_constant_in_time(GridVector.constant(grid, [0.0] * grid.dim), T, steps)


def nodes_of(grid):
    return np.stack(grid.coordinates())


def sampled_drift(grid, fn, T, steps):
    return sample_constant_in_time(GridVector.from_functions(grid, [fn]), T, steps)


def unit_noise(grid, T, steps):
    return sample_constant_in_time(GridVector.constant(grid, [1.0]), T, steps)


class TestDiffeo:
    def test_zero_displacement_is_identity_map(self):
        d = build_diffeo(zero_displacement(grid1()))
        assert d.lip == 0.0
        assert d.det_lo == 1.0 and d.det_hi == 1.0

    def test_hand_checked_determinant_bounds(self):
        g = build_grid(2, L, 32)
        u = still(g, [lambda x, y: 0.4 * np.sin(y), lambda x, y: 0.4 * np.sin(x)])
        d = build_diffeo(u)
        assert abs(d.lip - 0.4) < 1e-12
        assert abs(d.det_lo - 0.36) < 1e-12
        assert abs(d.det_hi - 1.96) < 1e-12

    def test_steep_displacement_refused(self):
        g = grid1()
        with pytest.raises(LipTooLarge) as err:
            build_diffeo(still(g, [lambda x: 1.2 * np.sin(x)]))
        assert isinstance(err.value, ZvonkinError)
        assert abs(err.value.lip - 1.2) < 1e-9

    def test_displacement_must_be_time_sampled(self):
        g = grid1()
        with pytest.raises(ZvonkinError, match="TimeGridVector"):
            build_diffeo(GridVector.constant(g, [0.0]))

    @settings(max_examples=25, deadline=None)
    @given(
        amp=st.floats(0.05, 0.7),
        phase=st.floats(0.0, 2.0 * np.pi),
        dim=st.sampled_from([1, 2]),
    )
    def test_determinant_bracketing_every_node(self, amp, phase, dim):
        if dim == 1:
            g = grid1()
            u = still(g, [lambda x: amp * np.sin(x + phase)])
        else:
            g = build_grid(2, L, 24)
            u = still(
                g,
                [
                    lambda x, y: amp * np.sin(y + phase),
                    lambda x, y: amp * np.sin(x + phase),
                ],
            )
        d = build_diffeo(u)
        jac = jacobian(u.slices[0])
        mats = np.moveaxis(jac, (0, 1), (-2, -1)) + np.eye(dim)
        det = np.linalg.det(mats)
        assert det.min() >= d.det_lo - 1e-9
        assert det.max() <= d.det_hi + 1e-9


class TestInversion:
    def test_identity_inverts_in_place(self):
        g = grid1()
        d = build_diffeo(zero_displacement(g))
        pts = nodes_of(g)
        assert np.array_equal(invert_diffeo(d, 0.0, pts), pts)

    def test_sine_inversion_matches_banach_oracle(self):
        g = grid1()
        amp = 0.3
        u = still(g, [lambda x: amp * np.sin(x)])
        d = build_diffeo(u)
        rng = np.random.default_rng(0)
        x = rng.uniform(-5.0, 12.0, size=(1, 40))
        y = invert_diffeo(d, 0.25, x, tol=1e-10)
        oracle = x.copy()
        for _ in range(400):
            oracle = x - amp * np.sin(oracle)
        assert np.abs(y - oracle).max() < 1e-6
        residual = np.abs(y + PeriodicInterpolant(g, u.slices[0].values)(y) - x).max()
        assert residual <= 1e-10

    def test_round_trip_inverse_both_ways(self):
        g = grid1()
        u = still(g, [lambda x: 0.3 * np.sin(x)])
        d = build_diffeo(u)
        tol = 1e-12
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, L, size=(1, 25))
        y = invert_diffeo(d, 0.0, x, tol=tol)
        interp = PeriodicInterpolant(g, u.slices[0].values)
        assert np.abs(y + interp(y) - x).max() <= tol
        fx = x + interp(x)
        back = invert_diffeo(d, 0.0, fx, tol=tol)
        assert np.abs(back - x).max() <= 2.0 * tol / (1.0 - d.lip)

    def test_contraction_rate_within_recorded_constant(self):
        g = grid1()
        amp = 0.3
        d = build_diffeo(still(g, [lambda x: amp * np.sin(x)]))
        x = np.linspace(0.3, 5.9, 17)[None, :]
        fixed = x.copy()
        for _ in range(400):
            fixed = x - amp * np.sin(fixed)
        y, errors = x.copy(), []
        for _ in range(16):
            y = x - amp * np.sin(y)
            errors.append(np.abs(y - fixed).max())
        ratios = [
            errors[i + 1] / errors[i] for i in range(len(errors) - 1) if errors[i] > 1e-12
        ]
        assert max(ratios) <= d.lip + 0.05
        assert np.abs(invert_diffeo(d, 0.0, x, tol=1e-11) - fixed).max() < 1e-6

    def test_query_validation(self):
        g = grid1()
        d = build_diffeo(zero_displacement(g))
        with pytest.raises(ZvonkinError, match="tolerance"):
            invert_diffeo(d, 0.0, nodes_of(g), tol=0.0)
        with pytest.raises(ZvonkinError, match="leading axis"):
            invert_diffeo(build_diffeo(zero_displacement(build_grid(2, L, 16))), 0.0, np.zeros((3, 5)))
        with pytest.raises(ZvonkinError, match="^query points must be finite$"):
            invert_diffeo(d, 0.0, np.array([[0.5, np.nan, 1.0]]))


class TestTransformedCoeffs:
    @pytest.mark.parametrize("lam,named", [
        (math.nan, "damping lambda must be finite, got nan"),
        (math.inf, "damping lambda must be finite, got inf"),
        (True, "damping lambda must be a number, got True"),
        ("4", "damping lambda must be a number, got '4'"),
    ])
    def test_a_lambda_that_is_no_finite_number_is_refused_before_any_array(
        self, monkeypatch, lam, named
    ):
        # nan and inf once ended in a non-finite field after a RuntimeWarning,
        # and True ran at lambda 1
        monkeypatch.setattr(zvonkin, "build_diffeo", lambda *args: pytest.fail("built"))
        with pytest.raises(ZvonkinError, match=f"^{re.escape(named)}$"):
            transform_coeffs(zero_displacement(grid1(), steps=4), lam)

    def test_zero_displacement_gives_unit_coefficients(self):
        g = grid1()
        coeffs = transform_coeffs(zero_displacement(g, steps=4), 7.0)
        for sl in coeffs.b_hat.slices:
            assert not sl.values.any()
        for sl in coeffs.sigma_hat[0].slices:
            assert np.array_equal(sl.values, np.ones((1, g.N)))

    def test_constant_drift_closed_form(self):
        g = grid1()
        c, lam, T, steps = 0.8, 6.0, 0.5, 64
        times = np.linspace(0.0, T, steps + 1)
        b = sample_constant_in_time(GridVector.constant(g, [c]), T, steps)
        u = mild_solve(b, lam, steps).u
        coeffs = transform_coeffs(u, lam)
        worst = max(
            np.abs(sl.values - c * (1.0 - math.exp(-lam * (T - t)))).max()
            for sl, t in zip(coeffs.b_hat.slices, times)
        )
        assert worst < 1e-12
        assert max(np.abs(sl.values - 1.0).max() for sl in coeffs.sigma_hat[0].slices) < 1e-13

    def test_column_deviation_bounded_by_steepness(self):
        g = build_grid(2, L, 32)
        u = still(
            g,
            [
                lambda x, y: 0.3 * np.sin(x) * np.cos(y),
                lambda x, y: 0.3 * np.cos(2 * x) * np.sin(y),
            ],
            T=0.25,
        )
        d = build_diffeo(u)
        coeffs = transform_coeffs(u, 3.0)
        for k in range(2):
            unit = np.zeros((2, 1, 1))
            unit[k] = 1.0
            dev = np.abs(coeffs.sigma_hat[k].slices[0].values - unit).max()
            assert dev <= d.lip + 1e-6

    def test_determinant_consistency_of_columns(self):
        g = build_grid(2, L, 32)
        u = still(
            g,
            [
                lambda x, y: 0.3 * np.sin(x) * np.cos(y),
                lambda x, y: 0.3 * np.cos(2 * x) * np.sin(y),
            ],
            T=0.25,
        )
        d = build_diffeo(u)
        coeffs = transform_coeffs(u, 3.0)
        columns = np.stack(
            [coeffs.sigma_hat[k].slices[0].values for k in range(2)], axis=1
        )
        det_cols = np.linalg.det(np.moveaxis(columns, (0, 1), (-2, -1)))
        jac = jacobian(u.slices[0])
        det_field = GridScalar(
            g, np.linalg.det(np.moveaxis(jac, (0, 1), (-2, -1)) + np.eye(2))
        )
        y = invert_diffeo(d, 0.0, nodes_of(g), tol=1e-12)
        det_pulled = PeriodicInterpolant(g, det_field.values)(y)
        assert np.abs(det_cols - det_pulled).max() < 1e-4
        assert det_cols.min() >= d.det_lo - 1e-9
        assert det_cols.max() <= d.det_hi + 1e-9

    def test_bad_damping_rejected(self):
        with pytest.raises(ZvonkinError, match="lambda"):
            transform_coeffs(zero_displacement(grid1()), 0.0)


class TestPushforward:
    def test_identity_pushforward_copies_the_field(self):
        g = grid1()
        f = GridScalar.from_function(g, lambda x: 1.0 + 0.5 * np.sin(x + 0.3))
        identity = transform_coeffs(zero_displacement(g), 1.0)
        h = pushforward_path_under_diffeo([f], identity, [0.1])[0]
        assert np.array_equal(h.values, f.values)
        assert h.values is not f.values

    def test_constant_field_matches_analytic_density(self):
        g = grid1()
        amp = 0.25
        u = still(g, [lambda x: amp * np.sin(x)])
        straightening = transform_coeffs(u, 1.0)
        h = pushforward_path_under_diffeo([GridScalar.constant(g, 1.3)], straightening, [0.0])[0]
        y = invert_diffeo(straightening.diffeo, 0.0, nodes_of(g), tol=1e-12)
        analytic = 1.3 / (1.0 + amp * np.cos(y[0]))
        assert np.abs(h.values - analytic).max() < 1e-5
        assert abs(h.values.sum() * g.cell_volume - 1.3 * L) < 1e-6

    def test_mass_preserved_in_both_dimensions(self):
        g = grid1()
        f = GridScalar.from_function(g, lambda x: 1.0 + 0.5 * np.sin(x + 0.3))
        st1 = transform_coeffs(still(g, [lambda x: 0.25 * np.sin(x)]), 1.0)
        h = pushforward_path_under_diffeo([f], st1, [0.0])[0]
        assert abs((h.values - f.values).sum() * g.cell_volume) < 1e-7

        g2 = build_grid(2, L, 32)
        f2 = GridScalar.from_function(g2, lambda x, y: 1.0 + 0.4 * np.sin(x) * np.cos(y))
        st2 = transform_coeffs(
            still(
                g2,
                [
                    lambda x, y: 0.3 * np.sin(x) * np.cos(y),
                    lambda x, y: 0.3 * np.cos(2 * x) * np.sin(y),
                ],
                T=0.25,
            ),
            1.0,
        )
        h2 = pushforward_path_under_diffeo([f2], st2, [0.0])[0]
        assert abs((h2.values - f2.values).sum() * g2.cell_volume) < 1e-4

    def test_duality_against_forward_composition(self):
        g = grid1()
        f = GridScalar.from_function(g, lambda x: 1.0 + 0.5 * np.sin(x + 0.3))
        u = still(g, [lambda x: 0.25 * np.sin(x)])
        h = pushforward_path_under_diffeo([f], transform_coeffs(u, 1.0), [0.0])[0]
        psi = bump_test_function(g, center=[L / 2], radius=L / 6)
        lhs = (h.values * psi.values).sum() * g.cell_volume
        pts = nodes_of(g)
        forward = pts + PeriodicInterpolant(g, u.slices[0].values)(pts)
        rhs = (f.values * PeriodicInterpolant(g, psi.values)(forward)).sum() * g.cell_volume
        assert abs(lhs - rhs) <= 10.0 * g.h**2

    def test_grid_mismatch_rejected(self):
        f = GridScalar.constant(build_grid(1, L, 32), 1.0)
        straightening = transform_coeffs(zero_displacement(grid1()), 1.0)
        with pytest.raises(ZvonkinError, match="grids"):
            pushforward_path_under_diffeo([f], straightening, [0.0])


def copied(c):
    """The same samples as c, each in a row of its own."""
    return TimeGridVector(c.grid, c.times, c.values[c.index], np.arange(len(c.times)))


class TestStraightening:
    @pytest.fixture
    def inversions(self, monkeypatch):
        """The values of every displacement row zvonkin inverts, in call order."""
        calls = []
        invert = zvonkin._newton_rows

        def counting(grid, values, *args):
            calls.extend(values)
            return invert(grid, values, *args)

        monkeypatch.setattr(zvonkin, "_newton_rows", counting)
        return calls

    def test_inverts_each_distinct_nonzero_slice_once(self, inversions):
        g = grid1()
        a = GridVector.from_functions(g, [lambda x: 0.3 * np.sin(x)])
        z = GridVector.constant(g, [0.0])
        c = GridVector.from_functions(g, [lambda x: 0.2 * np.cos(x)])
        rows = np.stack([a.values, z.values, c.values])
        u = TimeGridVector(g, np.linspace(0.0, 0.5, 6), rows, [0, 0, 1, 2, 2, 0])
        straightening = transform_coeffs(u, 4.0)
        assert len(inversions) == 2
        assert np.array_equal(inversions[0], a.values) and np.array_equal(inversions[1], c.values)
        assert straightening.inverted[1] is None
        for coefficient in (straightening.b_hat, *straightening.sigma_hat):
            assert len(coefficient.values) == 3
            assert coefficient.index.tolist() == [0, 0, 1, 2, 2, 0]

    def test_reading_a_straightening_inverts_nothing(self, inversions):
        g = grid1()
        T, dt, lam = 0.125, 0.125 / 20, 8.0
        fpath, b, _, path = drifted_solution(g, wiggly_drift, T, dt, stream_id=9)
        u = mild_solve(b, lam, path.steps).u
        straightening = transform_coeffs(u, lam)
        nonzero = [row for row in u.values if np.any(row)]
        assert len(nonzero) == path.steps
        assert len(inversions) == len(nonzero)
        assert all(np.array_equal(got, want) for got, want in zip(inversions, nonzero))
        inversions.clear()
        phi = bump_test_function(g, center=[L / 2], radius=L / 8)
        transformed_residual(fpath, straightening, b, phi, path)
        pushforward_path_under_diffeo([fpath[3]], straightening, [3 * dt])
        assert inversions == []

    def test_stored_nodes_are_the_inverse_and_its_determinant(self):
        g = build_grid(2, L, 16)
        u = still(
            g,
            [
                lambda x, y: 0.3 * np.sin(x) * np.cos(y),
                lambda x, y: 0.3 * np.cos(2 * x) * np.sin(y),
            ],
            T=0.25,
        )
        straightening = transform_coeffs(u, 3.0)
        y, det = straightening.inverted[0]
        assert np.array_equal(y, reference_invert(u.slices[0], nodes_of(g), node_step(u.slices[0])))
        # invert_diffeo starts from y = x, not from a node near the preimage
        assert np.abs(y - invert_diffeo(straightening.diffeo, 0.1, nodes_of(g))).max() < 1e-11
        jac_at = PeriodicInterpolant(g, jacobian(u.slices[0]))(y)
        cols = jac_at + np.eye(2).reshape(2, 2, 1, 1)
        assert np.array_equal(det, cols[0, 0] * cols[1, 1] - cols[0, 1] * cols[1, 0])

    def test_time_dependent_straightening_reads_the_slice_in_force(self):
        g = grid1()
        T, steps, lam = 0.25, 16, 8.0
        b = sampled_drift(g, wiggly_drift, T, steps)
        u = mild_solve(b, lam, steps).u
        straightening = transform_coeffs(u, lam)
        f = GridScalar.from_function(g, lambda x: 1.0 + 0.5 * np.sin(x + 0.3))
        for j in (0, 5, steps - 1):
            t = float(u.times[j])
            y = reference_invert(u.slices[j], nodes_of(g), node_step(u.slices[j]))
            jac_at = PeriodicInterpolant(g, jacobian(u.slices[j]))(y)
            det = np.linalg.det(np.moveaxis(jac_at, (0, 1), (-2, -1)) + np.eye(1))
            h = pushforward_path_under_diffeo([f], straightening, [t])[0]
            assert np.array_equal(h.values, PeriodicInterpolant(g, f.values)(y) / det)
        h_end = pushforward_path_under_diffeo([f], straightening, [T])[0]  # u(T) = 0
        assert np.array_equal(h_end.values, f.values)
        rec = relaxation_metrics(straightening, b, 4.0, 8.0, 4.0)
        div_gap = [
            lp_norm(GridScalar(g, np.abs(divergence(bh).values - divergence(bb).values)), 1.0)
            for bh, bb in zip(straightening.b_hat.slices[:-1], b.slices[:-1])
        ]
        assert abs(rec.div_err - sum(div_gap) * (T / steps)) <= 1e-12 * rec.div_err

    def test_shared_and_copied_slices_agree_bitwise(self):
        # slice sharing only saves work: copies give the numbers of references
        g = grid1()
        T, steps, lam = 0.25, 8, 4.0
        u = still(g, [lambda x: 0.3 * np.sin(x + 0.2)], T=T, steps=steps)
        b = sampled_drift(g, wiggly_drift, T, steps)
        results = []
        for uu, bb in ((u, b), (copied(u), copied(b))):
            straightening = transform_coeffs(uu, lam)
            rec = relaxation_metrics(straightening, bb, 4.0, 8.0, 4.0)
            results.append((straightening, rec))
        (shared, rec_s), (copies, rec_c) = results
        assert len(shared.inverted) == 1 and len(copies.inverted) == steps + 1
        fields = ("bhat_err", "sigma_err", "grad_sigma_err", "div_err")
        hexed = [[getattr(rec, f).hex() for f in fields] for rec in (rec_s, rec_c)]
        assert hexed[0] == hexed[1]
        assert all(getattr(rec_s, f) > 0.0 for f in fields)
        for c_s, c_c in zip([shared.b_hat, *shared.sigma_hat], [copies.b_hat, *copies.sigma_hat]):
            for sl_s, sl_c in zip(c_s.slices, c_c.slices):
                assert np.array_equal(sl_s.values, sl_c.values)


def drifted_solution(grid, bfun, T, dt, stream_id):
    """Euler-Maruyama solution of the unit-noise problem plus its inputs."""
    steps = round(T / dt)
    b = sampled_drift(grid, bfun, T, steps)
    noise = unit_noise(grid, T, steps)
    f0 = GridScalar.from_function(grid, lambda x: 1.0 + 0.5 * np.sin(x))
    path = sample_brownian(T, dt, 1, stream_id=stream_id)
    ensemble = simulate_flow(b, [noise], SdeConfig(dt=dt), path)
    fpath = [pushforward_solution(f0, ensemble, l * dt) for l in range(steps + 1)]
    return fpath, b, noise, path


def wiggly_drift(x):
    return 1.5 * np.sin(x + 0.7)


class TestTransformedResidual:
    def test_zero_displacement_reduces_to_plain_ledger(self):
        g = grid1()
        T, dt = 0.125, 0.125 / 20
        fpath, _, noise, path = drifted_solution(g, lambda x: 0.0 * x, T, dt, stream_id=9)
        zero = zero_displacement(g, T=T, steps=path.steps)
        phi = bump_test_function(g, center=[L / 2], radius=L / 8)
        straightened = transformed_residual(fpath, transform_coeffs(zero, 4.0), zero, phi, path)
        plain = residual_renormalized(fpath, zero, [noise], phi, make_renormalizer("linear"), path)
        assert straightened.terms == plain.terms
        assert straightened.lhs_delta == plain.lhs_delta
        assert straightened.residual == plain.residual

    def test_straightened_ledger_closes_and_damping_doubling_is_tame(self):
        g = grid1()
        T, dt = 0.25, 2.5e-3
        fpath, b, _, path = drifted_solution(g, wiggly_drift, T, dt, stream_id=77)
        phi = bump_test_function(g, center=[L / 2], radius=L / 8)
        residuals = []
        for lam in (8.0, 16.0, 32.0):
            u = mild_solve(b, lam, path.steps).u
            straightening = transform_coeffs(u, lam)
            residuals.append(transformed_residual(fpath, straightening, b, phi, path).residual)
        for r in residuals:
            assert abs(r) <= 1e-2
        for lo, hi in zip(residuals, residuals[1:]):
            assert abs(hi) <= 3.0 * abs(lo)

    def test_rms_residual_shrinks_under_refinement(self):
        g = grid1()
        T, dt, lam = 0.125, 2.5e-3, 16.0
        phi = bump_test_function(g, center=[L / 2], radius=L / 8)
        coarse, fine = [], []
        straightened = {}
        for m in range(4):
            fpath, b, noise, path = drifted_solution(g, wiggly_drift, T, dt, stream_id=1800 + m)
            if "c" not in straightened:
                straightened["c"] = transform_coeffs(mild_solve(b, lam, path.steps).u, lam)
            coarse.append(transformed_residual(fpath, straightened["c"], b, phi, path).residual)
            half = refine_brownian(path, 8)
            steps_f = half.steps
            b_f = sampled_drift(g, wiggly_drift, T, steps_f)
            noise_f = unit_noise(g, T, steps_f)
            f0 = GridScalar.from_function(g, lambda x: 1.0 + 0.5 * np.sin(x))
            ens_f = simulate_flow(b_f, [noise_f], SdeConfig(dt=half.dt), half)
            fpath_f = [
                pushforward_solution(f0, ens_f, l * half.dt) for l in range(steps_f + 1)
            ]
            if "f" not in straightened:
                straightened["f"] = transform_coeffs(mild_solve(b_f, lam, steps_f).u, lam)
            fine.append(transformed_residual(fpath_f, straightened["f"], b_f, phi, half).residual)
        rms = lambda v: float(np.sqrt(np.mean(np.square(v))))
        assert rms(fine) <= rms(coarse) / 1.4

    def test_mismatched_displacement_warns(self, caplog):
        g = grid1()
        T, dt = 0.125, 0.125 / 20
        fpath, b, _, path = drifted_solution(g, wiggly_drift, T, dt, stream_id=9)
        zero = zero_displacement(g, T=T, steps=path.steps)
        phi = bump_test_function(g, center=[L / 2], radius=L / 8)
        with caplog.at_level(logging.WARNING, logger="renormlab.zvonkin"):
            transformed_residual(fpath, transform_coeffs(zero, 4.0), b, phi, path)
        assert any("parabolic balance" in message for message in caplog.messages)

    def test_displacement_of_another_drift_warns_and_its_own_does_not(self, caplog):
        g = grid1()
        T, steps, lam = 0.25, 100, 16.0
        b = sampled_drift(g, wiggly_drift, T, steps)
        other = sampled_drift(g, lambda x: -2.0 * np.cos(2.0 * x), T, steps)
        with caplog.at_level(logging.WARNING, logger="renormlab.zvonkin"):
            zvonkin._warn_if_displacement_mismatches(mild_solve(b, lam, steps).u, b, lam)
            assert not caplog.records
            zvonkin._warn_if_displacement_mismatches(mild_solve(other, lam, steps).u, b, lam)
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "parabolic balance" in caplog.messages[0]

    def test_time_grid_and_noise_validation(self):
        g = grid1()
        T, dt = 0.125, 0.125 / 20
        fpath, b, _, path = drifted_solution(g, wiggly_drift, T, dt, stream_id=9)
        phi = bump_test_function(g, center=[L / 2], radius=L / 8)
        short = zero_displacement(g, T=T, steps=path.steps // 2)
        with pytest.raises(ZvonkinError, match="time grid"):
            transformed_residual(fpath, transform_coeffs(short, 4.0), b, phi, path)
        wide = sample_brownian(T, dt, 2, stream_id=9)
        good = zero_displacement(g, T=T, steps=path.steps)
        with pytest.raises(ZvonkinError, match="unit noise"):
            transformed_residual(fpath, transform_coeffs(good, 4.0), b, phi, wide)


class TestRelaxationMetrics:
    @pytest.mark.parametrize("exponents,named", [
        ((math.nan, 8.0, 4.0), "exponents must be positive, got (q, p, r) = (nan, 8.0, 4.0)"),
        ((4.0, 8.0, math.nan), "exponents must be positive, got (q, p, r) = (4.0, 8.0, nan)"),
        ((True, 8.0, True), "exponents must be numbers, got (q, p, r) = (True, 8.0, True)"),
        ((4.0, "8", 4.0), "exponents must be numbers, got (q, p, r) = (4.0, '8', 4.0)"),
    ])
    def test_an_exponent_that_is_no_number_is_refused_before_any_transform(
        self, monkeypatch, exponents, named
    ):
        # nan once read as nan errors and True as 1
        g = grid1()
        zero = zero_displacement(g, T=0.25, steps=8)
        coeffs = transform_coeffs(zero, 4.0)
        monkeypatch.setattr(zvonkin, "jacobian_stack", lambda *args: pytest.fail("transformed"))
        with pytest.raises(ZvonkinError, match=f"^{re.escape(named)}$"):
            relaxation_metrics(coeffs, zero, *exponents)

    def test_trivial_zero(self):
        g = grid1()
        zero = zero_displacement(g, T=0.25, steps=8)
        rec = relaxation_metrics(transform_coeffs(zero, 4.0), zero, 4.0, 8.0, 4.0)
        assert (rec.bhat_err, rec.sigma_err, rec.grad_sigma_err, rec.div_err) == (
            0.0,
            0.0,
            0.0,
            0.0,
        )

    def test_constant_drift_closed_form_norm(self):
        g = grid1()
        c, lam, T, steps = 0.8, 6.0, 0.5, 64
        q, p = 4.0, 2.0
        times = np.linspace(0.0, T, steps + 1)
        b = sample_constant_in_time(GridVector.constant(g, [c]), T, steps)
        u = mild_solve(b, lam, steps).u
        rec = relaxation_metrics(transform_coeffs(u, lam), b, q, p, 1.0)
        dt = T / steps
        closed = (
            abs(c)
            * L ** (1.0 / p)
            * float((np.exp(-lam * (T - times[:-1])) ** q).sum() * dt) ** (1.0 / q)
        )
        assert abs(rec.bhat_err - closed) < 1e-12
        assert rec.sigma_err == 0.0
        assert rec.grad_sigma_err == 0.0
        assert rec.div_err < 1e-12

    def test_metrics_decrease_with_damping(self):
        g = grid1()
        T, steps = 0.25, 128
        b = sampled_drift(g, lambda x: 1.5 * np.sin(x + 0.7), T, steps)
        records = []
        for lam in (4.0, 16.0, 64.0):
            u = mild_solve(b, lam, steps).u
            records.append(relaxation_metrics(transform_coeffs(u, lam), b, 4.0, 8.0, 4.0))
        for field in ("bhat_err", "sigma_err", "grad_sigma_err", "div_err"):
            values = [getattr(rec, field) for rec in records]
            assert values[0] > values[1] > values[2] > 0.0

    def test_composition_convergence_with_shrinking_steepness(self):
        g = grid1()
        T, steps = 0.25, 64
        b = sampled_drift(g, lambda x: 1.5 * np.sin(x + 0.7), T, steps)
        target = GridScalar.from_function(g, lambda x: np.cos(2 * x) + 0.3 * np.sin(x))
        pts = nodes_of(g)
        fixed, moving = [], []
        for lam in (4.0, 16.0, 64.0):
            u = mild_solve(b, lam, steps).u
            d = build_diffeo(u)
            y = invert_diffeo(d, 0.0, pts, tol=1e-12)
            composed = PeriodicInterpolant(g, target.values)(y)
            fixed.append(lp_norm(GridScalar(g, np.abs(composed - target.values)), 2.0))
            shifted = GridScalar(g, target.values + d.lip * np.sin(3.0 * pts[0]))
            moving.append(
                lp_norm(
                    GridScalar(g, np.abs(PeriodicInterpolant(g, shifted.values)(y) - target.values)),
                    2.0,
                )
            )
        assert fixed[0] > fixed[1] > fixed[2]
        assert moving[0] > moving[1] > moving[2]

    def test_exponent_validation(self):
        g = grid1()
        zero = zero_displacement(g, T=0.25, steps=4)
        coeffs = transform_coeffs(zero, 4.0)
        with pytest.raises(ZvonkinError, match="r < p"):
            relaxation_metrics(coeffs, zero, 4.0, 8.0, 8.0)
        with pytest.raises(ZvonkinError, match=">= 1"):
            relaxation_metrics(coeffs, zero, 0.5, 8.0, 4.0)


# ---------------------------------------------------------------------------
# Batched straightening against the per-slice computation it replaced
# ---------------------------------------------------------------------------


def node_step(sl):
    """The first Newton iterate of the straightening, on node arrays alone.

    It is taken from a node near each preimage: candidates z = x - m h,
    m = 0 and then once in 1-d, three times in 2-d, m = rint(u(x - m h) / h),
    of which each node keeps the first of least max|u(z) - m h| / h.
    """
    grid, dim = sl.grid, sl.grid.dim
    index = np.indices(grid.shape)

    def at(values, m):  # values at the nodes x - m h, wrapped onto the torus
        return values[(Ellipsis,) + tuple((index - m) % grid.N)]

    m = best = np.zeros_like(index)
    least = np.abs(sl.values / grid.h).max(axis=0)
    for _ in range(3 if dim == 2 else 1):
        m = np.rint(at(sl.values / grid.h, m)).astype(int)
        size = np.abs(at(sl.values / grid.h, m) - m).max(axis=0)
        best = np.where(size < least, m, best)
        least = np.minimum(size, least)
    shift = best * grid.h
    u = at(sl.values, best) - shift
    mat = at(jacobian(sl), best) + np.eye(dim).reshape((dim, dim) + (1,) * dim)
    if dim == 1:
        return nodes_of(grid) - shift - u / mat[0, 0]
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    step = [(mat[1, 1] * u[0] - mat[0, 1] * u[1]) / det, (mat[0, 0] * u[1] - mat[1, 0] * u[0]) / det]
    return nodes_of(grid) - shift - np.stack(step)


def reference_invert(sl, pts, y, tol=1e-12, max_newton=30):
    """Newton on y + u(y) = x for one slice alone, with its own interpolants.

    From the first iterate y: up to max_newton full steps, then a restart
    from y = x with up to max_newton + 1 rounds of steps halved point by
    point (at most 30 times) until the residual there drops.  Each round is
    one residual evaluation, and a row stops once max|y + u(y) - x| < tol.
    """
    dim = sl.grid.dim
    u_t, grad_u = PeriodicInterpolant(sl.grid, sl.values), PeriodicInterpolant(sl.grid, jacobian(sl))
    eye = np.eye(dim).reshape((dim, dim) + (1,) * (pts.ndim - 1))
    for rounds in range(1, 2 * max_newton + 2):
        F = y + u_t(y) - pts
        size = np.abs(F).max(axis=0)
        if size.max() < tol:
            return y
        if rounds == max_newton:
            y = pts.copy()
            continue
        mat = eye + grad_u(y)
        if dim == 1:
            step = F / mat[0, 0]
        else:
            det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
            step = np.stack([
                (mat[1, 1] * F[0] - mat[0, 1] * F[1]) / det,
                (mat[0, 0] * F[1] - mat[1, 0] * F[0]) / det,
            ])
        scale = np.ones_like(size)
        for _ in range(31):
            trial = y - scale * step
            if rounds < max_newton:
                break
            worse = (np.abs(trial + u_t(trial) - pts).max(axis=0) >= size) & (size >= tol)
            if not worse.any():
                break
            scale[worse] *= 0.5
        y = trial
    raise AssertionError("reference Newton did not converge")


def reference_straightening(u, lam, tol=1e-12):
    """lip, the node det range and, per row of u, (lam u(y), I + grad u(y), node),
    one slice at a time with fresh interpolants."""
    grid, dim = u.grid, u.grid.dim
    slices = [GridVector(grid, row) for row in u.values]
    lip, dets = 0.0, []
    for sl in slices:
        jac = jacobian(sl)
        mats = np.moveaxis(jac.reshape(dim, dim, -1), -1, 0)
        lip = max(lip, float(np.linalg.norm(mats, ord=2, axis=(1, 2)).max()))
        if dim == 1:
            dets.append(1.0 + jac[0, 0])
        else:
            dets.append((jac[0, 0] + 1.0) * (jac[1, 1] + 1.0) - jac[0, 1] * jac[1, 0])
    det_min = min(float(d.min()) for d in dets)
    det_max = max(float(d.max()) for d in dets)
    nodes = nodes_of(grid)
    eye = np.eye(dim).reshape((dim, dim) + (1,) * dim)
    per_slice = []
    for sl in slices:
        if not np.any(sl.values):
            per_slice.append((np.zeros_like(nodes), eye + np.zeros((dim, dim) + grid.shape), None))
            continue
        y = reference_invert(sl, nodes, node_step(sl), tol)
        cols = eye + PeriodicInterpolant(sl.grid, jacobian(sl))(y)
        det = cols[0, 0] if dim == 1 else cols[0, 0] * cols[1, 1] - cols[0, 1] * cols[1, 0]
        per_slice.append((lam * PeriodicInterpolant(sl.grid, sl.values)(y), cols, (y, det)))
    return lip, det_min, det_max, per_slice


def ragged_displacement(grid, count, zero_every=5):
    """count samples of a moving sine displacement: amplitudes (so Newton
    round counts) differ, every zero_every-th sample is 0 and every 7th repeats
    the row before it."""
    slices, index = [], []
    for j in range(count):
        if j % zero_every == 2:
            slices.append(GridVector.constant(grid, [0.0] * grid.dim))
        elif j % 7 == 6:
            index.append(index[-1])
            continue
        else:
            amp = 0.05 + 0.35 * j / count
            if grid.dim == 1:
                fns = [lambda x, a=amp, j=j: a * np.sin(x + 0.3 * j)]
            else:
                fns = [
                    lambda x, y, a=amp, j=j: a * np.sin(x + 0.3 * j) * np.cos(y),
                    lambda x, y, a=amp, j=j: 0.5 * a * np.cos(2 * x) * np.sin(y - 0.2 * j),
                ]
            slices.append(GridVector.from_functions(grid, fns))
        index.append(len(slices) - 1)
    rows = np.stack([sl.values for sl in slices])
    return TimeGridVector(grid, np.linspace(0.0, 0.5, count), rows, index)


def ragged_cases():
    # 1-d: 58 distinct live slices, two blocks of 32; 2-d on 16^2: blocks of 8
    return [(grid1(), 70), (build_grid(2, L, 16), 20)]


class TestBatchedStraightening:
    @pytest.mark.parametrize("grid,count", ragged_cases(), ids=["1d", "2d"])
    def test_bitwise_equal_to_per_slice_reference(self, grid, count):
        u = ragged_displacement(grid, count)
        lam = 5.0
        straightening = transform_coeffs(u, lam)
        lip, det_min, det_max, per_slice = reference_straightening(u, lam)
        d = straightening.diffeo
        assert (d.lip, d.det_min, d.det_max) == (lip, det_min, det_max)
        assert d.det_lo <= d.det_min < 1.0 < d.det_max <= d.det_hi
        assert len(straightening.inverted) == len(per_slice)
        for coefficient in (straightening.b_hat, *straightening.sigma_hat):
            assert np.array_equal(coefficient.index, u.index)
        for n, (b_hat, cols, node) in enumerate(per_slice):
            assert np.array_equal(straightening.b_hat.values[n], b_hat)
            for k in range(grid.dim):
                assert np.array_equal(straightening.sigma_hat[k].values[n], cols[:, k])
            got = straightening.inverted[n]
            if node is None:
                assert got is None
            else:
                assert np.array_equal(got[0], node[0]) and np.array_equal(got[1], node[1])
        live = [node for _, _, node in per_slice if node is not None]
        assert len(live) > flow_block(grid) and None in straightening.inverted

    @pytest.mark.parametrize("grid,count", ragged_cases(), ids=["1d", "2d"])
    def test_invert_diffeo_is_the_one_row_call(self, grid, count):
        u = ragged_displacement(grid, count)
        d = build_diffeo(u)
        rng = np.random.default_rng(7)
        for shape in ((grid.dim,), (grid.dim, 5, 3)):
            x = rng.uniform(-3.0, 9.0, size=shape)
            for j in (0, 2, count - 1):
                got = invert_diffeo(d, float(u.times[j]), x)
                assert got.shape == x.shape
                assert np.array_equal(got, reference_invert(u.slices[j], x, x.copy()))

    @pytest.mark.parametrize("grid,count", ragged_cases(), ids=["1d", "2d"])
    def test_path_pushforward_matches_one_field_at_a_time(self, grid, count):
        u = ragged_displacement(grid, count)
        straightening = transform_coeffs(u, 2.0)
        rng = np.random.default_rng(11)
        fields = [
            GridScalar(grid, 1.0 + 0.3 * rng.standard_normal(grid.shape)) for _ in range(count)
        ]
        fields[4] = GridScalar.constant(grid, 0.7)  # a constant field is exact
        times = np.concatenate([u.times[:-1] + 0.25 * (u.times[1] - u.times[0]), [u.T]])
        path = pushforward_path_under_diffeo(fields, straightening, times)
        for f, t, h in zip(fields, times, path):
            node = straightening.inverted[u.index[u.slice_indices(t)]]
            want = f.values if node is None else PeriodicInterpolant(grid, f.values)(node[0]) / node[1]
            assert np.array_equal(h.values, want)
            assert h.values is not f.values
            alone = pushforward_path_under_diffeo([f], straightening, [t])[0]
            assert np.array_equal(h.values, alone.values)
        with pytest.raises(ZvonkinError, match="as many times"):
            pushforward_path_under_diffeo(fields, straightening, times[:-1])

    @pytest.mark.parametrize("grid,count", ragged_cases(), ids=["1d", "2d"])
    def test_relaxation_metrics_match_per_time_reference(self, grid, count):
        u = ragged_displacement(grid, count)
        if grid.dim == 1:
            fns = lambda t: [lambda x: 0.5 + 0.3 * np.sin(x + 5 * t)]
        else:
            fns = lambda t: [
                lambda x, y: np.sin(x + t) * np.cos(y),
                lambda x, y: 0.4 * np.cos(x - y),
            ]
        rows = np.stack([GridVector.from_functions(grid, fns(t)).values for t in u.times])
        b = TimeGridVector(grid, u.times, rows, np.arange(len(u.times)))
        straightening = transform_coeffs(u, 3.0)
        fields = ("bhat_err", "sigma_err", "grad_sigma_err", "div_err")
        for q, p, r in ((4.0, 8.0, 4.0), (2.0, math.inf, 1.0), (3.0, 3.5, 2.0)):
            got = relaxation_metrics(straightening, b, q, p, r)
            want = reference_relaxation_metrics(straightening, b, q, p, r)
            assert [getattr(got, f).hex() for f in fields] == [getattr(want, f).hex() for f in fields]
            assert all(getattr(got, f) > 0.0 for f in fields)

    def test_a_halving_row_leaves_the_other_rows_alone(self):
        # 0.999 sin(x + 0.4) has lip 0.999 < 1, so the straightening takes
        # it, but full Newton steps from the node start do not converge in 30
        # rounds there (0.99 sin(x) now converges in 8): that row restarts
        # from y = x and halves its steps, in the same block as rows that
        # converge in a few rounds
        g = grid1()
        x = g.axis_coordinates()
        shapes = [(0.3, 0.4), (0.999, 0.4), (0.1, 0.8), (0.6, 1.2)]
        slices = [GridVector(g, (a * np.sin(x + phase))[None]) for a, phase in shapes]
        values = np.stack([sl.values for sl in slices])
        u = TimeGridVector(g, np.linspace(0.0, 0.5, len(slices)), values, np.arange(len(slices)))
        jac = jacobian_stack(g, values)
        nodes = nodes_of(g)[:, None]
        first = np.stack([node_step(sl) for sl in slices], axis=1)
        _, _, rounds, _ = flow._newton_rows(g, values, jac, nodes, first.copy(), 1e-12)
        assert rounds[1] > flow._MAX_NEWTON >= max(rounds[[0, 2, 3]])
        straightening = transform_coeffs(u, 2.0)
        for n, sl in enumerate(slices):
            want = reference_invert(sl, nodes_of(g), node_step(sl))
            assert np.array_equal(straightening.inverted[n][0], want)
            alone, at, *_ = flow._newton_rows(
                g, values[[n]], jac[[n]], nodes, first[:, [n]].copy(), 1e-12
            )
            assert np.array_equal(alone[:, 0], want)
            assert np.array_equal(straightening.b_hat.slices[n].values, 2.0 * at[:1, 0])
        y = straightening.inverted[1][0]
        assert np.abs(y + PeriodicInterpolant(g, slices[1].values)(y) - nodes_of(g)).max() < 1e-12


def flow_block(grid):
    """Slices in one block of the straightening: field's block rule."""
    return max(1, field._BLOCK_POINTS // grid.N**grid.dim)


def reference_relaxation_metrics(coeffs, b, q, p, r):
    """relaxation_metrics one time sample at a time, with per-slice spectral
    calls and each spatial norm taken by lp_norm on its own GridScalar."""
    grid = b.grid
    dim = grid.dim
    dt = float(b.times[1] - b.times[0])
    steps = len(b.times) - 1
    eye = np.eye(dim).reshape((dim, dim) + (1,) * dim)
    norms = np.empty((4, steps + 1))
    for l in range(steps + 1):
        diff = coeffs.b_hat.slices[l].values - b.slices[l].values
        norms[0, l] = lp_norm(GridScalar(grid, np.sqrt((diff**2).sum(axis=0))), p)
        stack = np.stack([coeffs.sigma_hat[k].slices[l].values for k in range(dim)], axis=1)
        dev = stack - eye
        norms[1, l] = lp_norm(GridScalar(grid, np.sqrt((dev**2).sum(axis=(0, 1)))), p)
        grads = np.stack([jacobian(coeffs.sigma_hat[k].slices[l]) for k in range(dim)])
        norms[2, l] = lp_norm(GridScalar(grid, np.sqrt((grads**2).sum(axis=(0, 1, 2)))), r)
        div_gap = divergence(coeffs.b_hat.slices[l]).values - divergence(b.slices[l]).values
        norms[3, l] = lp_norm(GridScalar(grid, np.abs(div_gap)), 1.0)

    def time_lq(values, q):
        return float((np.abs(values[:-1]) ** q).sum() * dt) ** (1.0 / q)

    return zvonkin.RelaxationRecord(
        time_lq(norms[0], q), time_lq(norms[1], q), time_lq(norms[2], q), time_lq(norms[3], 1.0)
    )
