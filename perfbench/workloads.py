"""The benchmark's workloads, each driven through renormlab's public API.

A workload builds the inputs of one unit of work from (seed, unit), runs the
unit (the timed body) and checks its outputs.  Each unit of a run draws its
own random inputs, so that a cache cannot serve one unit from another.
``run`` returns the outputs plus the work time (``clock``) of each alike
operation, where the workload has one; ``check`` returns (attempted, raised,
wrong, numbers): operations that raised and so gave no output, outputs that
break their oracle, and the unit's numeric outputs that go into the run's
digest.

Why these workloads (the layer each one stresses, and the one it leaves idle):

accept            the acceptance suite through ``renormlab.cli.main`` minus its
                  three heaviest check groups; every layer but zvonkin runs,
                  and lab, cli and commutator run nowhere else.
flow_mc_1d        Monte Carlo members on the 1-d trig preset: many small
                  spline evaluations in the flow recursions, no parabolic solve.
pushforward_2d    one 2-d flow pushed forward at every step: few large spline
                  evaluations, flow inversion dominates, nothing to batch.
parabolic_ladder  mild solves along damping ladders: FFT-bound, no flow.
accept_full       the whole acceptance suite (not in BENCHMARK.json: one run
                  takes about two minutes, too long for the run budget).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import sys
import time
import traceback
from pathlib import Path

import numpy as np

# Calls go through the module attributes so that the tracer's rebinding of
# them is seen here too.
from renormlab import cli, field, flow, lab, parabolic, parallel, presets, weakform, zvonkin

TWO_PI = 2.0 * math.pi

# Times operations; the runner swaps in a clock that leaves out host probing.
clock = time.perf_counter

# Oracles.  0.05 and 2e-2 are the acceptance gates of the same quantities.
LOGDET_GAP_GATE = 0.05
RESIDUAL_GATE = 2e-2
MILD_DEFECT_GATE = 1e-9


def derived_seed(seed: int, *indices: int) -> int:
    """Non-negative 62-bit stream id for (seed, indices), stable everywhere."""
    text = "/".join(str(i) for i in (seed, *indices)).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "little") >> 2


# ---------------------------------------------------------------------------
# accept / accept_full
# ---------------------------------------------------------------------------

# Check groups left out of ``accept``: together about 100 s of the suite's
# 125 s on a 2-vCPU KVM guest, which no run budget of the benchmark can hold.
# ``flow_mc_1d`` repeats the jacobian group's per-member work and
# ``pushforward_2d`` the divfree half of the renorm group.
HEAVY_GROUPS = ("_check_jacobian", "_check_renorm_residual", "_check_zvonkin")


class Accept:
    """``renormlab accept`` on a config of its own, one suite per run.

    master_seed stays 0 whatever the workload seed: the suite's gates are
    certified at seed 0 only (see ``renormlab.lab``), and at seed 11
    ``stability_constancy`` reads 2.0556 against its gate of 2, so a seeded
    suite would make fail_ratio a property of the seed.  One suite per run
    keeps a cache that outlives a suite call from timing a second, warm one.
    """

    ops_alike = False
    unit_s = None  # one suite per run

    def __init__(self, workdir: Path, skip: tuple[str, ...]):
        self.workdir = workdir
        self.skip = skip

    def build(self, seed: int, unit: int) -> Path:
        out = self.workdir / f"accept-u{unit}"
        out.mkdir(parents=True, exist_ok=True)
        config = {
            "experiment": "acceptance_all",
            "scalars": {"master_seed": 0},
            "output_dir": str(out),
        }
        path = out / "config.json"
        path.write_text(json.dumps(config))
        return path

    def run(self, config_path: Path):
        reports = []
        suite, run_suite = lab._SUITE, cli.acceptance_suite

        def capture(*args, **kwargs):
            reports.append(run_suite(*args, **kwargs))
            return reports[-1]

        lab._SUITE = tuple(fn for fn in suite if fn.__name__ not in self.skip)
        cli.acceptance_suite = capture
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["accept", str(config_path)])
        finally:
            lab._SUITE, cli.acceptance_suite = suite, run_suite
        return (code, reports), []

    def check(self, config_path: Path, outputs):
        code, reports = outputs
        csv_path = config_path.parent / "acceptance_report.csv"
        if len(reports) != 1 or not csv_path.is_file():
            return 1, 1, 0, []
        with open(csv_path, newline="") as handle:
            rows = list(csv.DictReader(line for line in handle if not line.startswith("#")))
        failed = sum(row["passed"] != "pass" for row in rows)
        report = reports[0]
        consistent = (
            len(rows) == len(report.checks)
            and failed == sum(not c.passed for c in report.checks)
            and (code == 0) == (failed == 0)
        )
        numbers = [v for c in report.checks for v in (c.value, c.threshold)]
        return len(rows), 0, failed if consistent else len(rows), numbers


# ---------------------------------------------------------------------------
# flow_mc_1d
# ---------------------------------------------------------------------------

class FlowMC1d:
    """Members of the jacobian check's ensemble, plus a pushforward at T."""

    ops_alike = True
    unit_s = 2.7  # seconds per unit on an unloaded host at the seed commit
    members, T, dt, N = 8, 0.5, 1e-3, 64

    def build(self, seed: int, unit: int):
        grid = field.build_grid(1, TWO_PI, self.N)
        steps = round(self.T / self.dt)
        coeffs = []
        for n in (steps, 4 * steps):
            b = presets.sample_constant_in_time(presets.trig_flow_drift(grid), self.T, n)
            sigmas = [presets.sample_constant_in_time(s, self.T, n)
                      for s in presets.trig_flow_noise(grid)]
            coeffs.append((b, sigmas))
        paths = [flow.sample_brownian(self.T, self.dt, 1, derived_seed(seed, unit, m))
                 for m in range(self.members)]
        fine = [flow.refine_brownian(p, 4) for p in paths]
        return coeffs, list(zip(paths, fine)), presets.default_datum(grid)

    def run(self, inputs):
        ((b, sigmas), (b4, sigmas4)), paths, f0 = inputs

        def member(pair):
            start = clock()
            path, fine_path = pair
            try:
                ens = flow.simulate_flow(b, sigmas, flow.SdeConfig(dt=self.dt), path)
                flow.variational_jacobian(ens, b, sigmas)
                flow.logdet_stochastic_exponential(ens, b, sigmas)
                ens4 = flow.simulate_flow(b4, sigmas4, flow.SdeConfig(dt=self.dt / 4.0), fine_path)
                flow.variational_jacobian(ens4, b4, sigmas4)
                flow.logdet_stochastic_exponential(ens4, b4, sigmas4)
                result = (flow.logdet_gap(ens), flow.logdet_gap(ens4),
                          flow.pushforward_solution(f0, ens, self.T).values)
            except Exception:
                print("flow_mc_1d member raised:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                result = None
            return result, clock() - start

        done = parallel.ordered_map(member, paths)
        return [r for r, _ in done], [s for _, s in done]

    def check(self, inputs, results):
        done = [r for r in results if r is not None]
        wrong = sum(not r[0] <= LOGDET_GAP_GATE for r in done)
        numbers = [v for r in done for v in (r[0], r[1], *r[2])]
        return len(results), len(results) - len(done), wrong, numbers


# ---------------------------------------------------------------------------
# pushforward_2d
# ---------------------------------------------------------------------------

class Pushforward2d:
    """One divfree path pushed forward at every step, then its ledger."""

    ops_alike = True
    unit_s = 3.9
    T, dt, N = 0.25, 1e-3, 64

    def build(self, seed: int, unit: int):
        grid = field.build_grid(2, TWO_PI, self.N)
        steps = round(self.T / self.dt)
        b = presets.sample_constant_in_time(presets.divfree_2d_drift(grid), self.T, steps)
        sigmas = [presets.sample_constant_in_time(s, self.T, steps)
                  for s in presets.divfree_2d_noise(grid)]
        phi = weakform.bump_test_function(grid, (grid.L / 2.0, grid.L / 2.0), grid.L / 6.0)
        path = flow.sample_brownian(self.T, self.dt, 2, derived_seed(seed, unit))
        return b, sigmas, presets.default_datum(grid), phi, weakform.make_renormalizer("tanh"), path

    def run(self, inputs):
        b, sigmas, f0, phi, renorm, path = inputs
        ens = flow.simulate_flow(b, sigmas, flow.SdeConfig(dt=self.dt), path)
        fpath, op_s = [], []
        for step in range(path.steps + 1):
            start = clock()
            fpath.append(flow.pushforward_solution(f0, ens, step * self.dt))
            op_s.append(clock() - start)
        ledger = weakform.residual_renormalized(fpath, b, sigmas, phi, renorm, path)
        return (ledger, [float(f.values.sum()) for f in fpath]), op_s

    def check(self, inputs, outputs):
        ledger, masses = outputs
        wrong = int(not abs(ledger.residual) <= RESIDUAL_GATE)
        numbers = [ledger.residual, ledger.lhs_delta, *ledger.terms.values(), *masses]
        return 1, 0, wrong, numbers


# ---------------------------------------------------------------------------
# parabolic_ladder
# ---------------------------------------------------------------------------

class ParabolicLadder:
    """decay_study ladders on the decay preset, then the straightening
    ladder of the zvonkin check (mild solve, transform, metrics) on the trig
    preset.

    The seed shifts both preset profiles by a whole number of grid cells.  It
    does not redraw their random modes: the Picard iteration count, and with
    it the cost of a ladder, moves by up to 40% with the modes, which would
    make wall_s a property of the seed instead of the code.  A shift leaves
    the iteration counts alone."""

    ops_alike = False
    unit_s = 3.9
    T, N = 0.5, 64
    decay_lambdas, decay_steps = (32.0, 64.0, 128.0, 256.0), 256
    trig_lambdas, trig_steps = (4.0, 16.0, 64.0), 128

    def build(self, seed: int, unit: int):
        grid = field.build_grid(1, TWO_PI, self.N)
        drifts = []
        for k, (profile, steps) in enumerate(((presets.decay_drift(grid), self.decay_steps),
                                              (presets.trig_flow_drift(grid), self.trig_steps))):
            shift = derived_seed(seed, unit, k) % self.N
            moved = field.GridVector(grid, np.roll(profile.values, shift, axis=-1))
            drifts.append(presets.sample_constant_in_time(moved, self.T, steps))
        return tuple(drifts)

    def run(self, inputs):
        b_decay, b_trig = inputs
        solves = []
        solve = parabolic.mild_solve

        def capture(*args, **kwargs):
            solves.append(solve(*args, **kwargs))
            return solves[-1]

        # decay_study calls mild_solve through the parabolic namespace; keep
        # its solutions for the defect oracle, which runs after the timing.
        parabolic.mild_solve = capture
        try:
            studies = [parabolic.decay_study(b_decay, self.decay_lambdas, alpha, 8.0, 8.0, 4.0)
                       for alpha in (0, 1)]
        finally:
            parabolic.mild_solve = solve
        checked = [(sol, b_decay) for sol in solves]
        ladder = []
        for lam in self.trig_lambdas:
            sol = parabolic.mild_solve(b_trig, lam, self.trig_steps)
            checked.append((sol, b_trig))
            coeffs = zvonkin.transform_coeffs(sol.u, lam)
            rec = zvonkin.relaxation_metrics(coeffs, b_trig, q=4.0, p=8.0, r=4.0)
            ladder.append((rec.bhat_err, rec.sigma_err, rec.grad_sigma_err, rec.div_err))
        return (studies, ladder, checked), []

    def check(self, inputs, outputs):
        studies, ladder, checked = outputs
        wrong = sum(not parabolic.mild_defect(sol, b) <= MILD_DEFECT_GATE for sol, b in checked)
        numbers = [v for s in studies for v in (*s.norms, s.fitted_slope)]
        numbers += [v for row in ladder for v in row]
        return len(checked), 0, wrong, numbers


def make(name: str, workdir: Path):
    if name == "accept":
        return Accept(workdir, HEAVY_GROUPS)
    if name == "accept_full":
        return Accept(workdir, ())
    return {"flow_mc_1d": FlowMC1d, "pushforward_2d": Pushforward2d,
            "parabolic_ladder": ParabolicLadder}[name]()


NAMES = ("accept", "flow_mc_1d", "pushforward_2d", "parabolic_ladder", "accept_full")
