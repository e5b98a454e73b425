"""Experiment registry, config ingestion, and the acceptance suite.

Everything user-facing funnels through here: JSON configs become
``ExperimentConfig``, ``run_experiment`` writes CSV/field artifacts under the
configured output directory, and ``acceptance_suite`` replays the whole
battery of desk-scale checks into a ``RunReport``.  All randomness is derived
from ``master_seed`` plus fixed per-check offsets, so a report is a pure
function of its config; the certified pass margins were frozen at
``master_seed = 0`` and other seeds are run at the caller's own risk.

CSV artifacts carry a leading ``# renormlab v1`` comment so downstream
consumers can detect schema drift.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import platform
from dataclasses import dataclass, field as dataclass_field, fields as dataclass_fields, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__, commutator, parallel, presets
from .field import (
    Grid,
    GridScalar,
    GridVector,
    TimeGridVector,
    central_half,
    divergence,
    jacobian,
    kernel_moment,
    load_field,
    lp_norm,
    mollifier,
    save_field,
)
from .flow import (
    BrownianPath,
    SdeConfig,
    ensemble_moment,
    logdet_gap,
    logdet_stochastic_exponential,
    pushforward_solution,
    refine_brownian,
    sample_brownian,
    save_ensemble,
    simulate_flow,
    variational_jacobian,
)
from .parabolic import (
    ParabolicSolution,
    decay_study,
    mild_solve,
    relaxation_residuals,
    write_decay_csv,
)
from .weakform import (
    RENORMALIZED_TERMS,
    TestFunction,
    bump_test_function,
    make_renormalizer,
    residual_original,
    residual_renormalized,
    weighted_l1_stability,
    write_ledger_csv,
)
from .zvonkin import (
    build_diffeo,
    relaxation_metrics,
    transform_coeffs,
    transformed_residual,
    write_relaxation_csv,
)

logger = logging.getLogger(__name__)

CSV_VERSION_LINE = "# renormlab v1"

EXPERIMENT_TAGS = (
    "commutator_study",
    "parabolic_decay",
    "flow_conservation",
    "renorm_residual",
    "zvonkin_relaxation",
    "acceptance_all",
)

# Stream-id offsets added to master_seed; one disjoint block per consumer so
# no two checks ever share a Brownian draw.
_STREAM_PUSHFORWARD = 501
_STREAM_DIVFREE = 601
_STREAM_STABILITY = 800
_STREAM_CONSTANCY = 890
_STREAM_LOGDET = 1000
_STREAM_ZVONKIN = 1700
_STREAM_MOMENT = 2000


class LabError(ValueError):
    """Invalid experiment configuration or artifact request."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridConfig:
    dim: int = 1
    L: float = 2.0 * math.pi
    N: int = 64


@dataclass(frozen=True)
class TimeConfig:
    T: float = 0.5
    dt: float = 1e-3


@dataclass(frozen=True)
class CoefficientConfig:
    """Either a named preset or explicit .fld files for drift and noise."""

    preset: str | None = "trig_flow"
    drift_file: str | None = None
    noise_files: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScalarConfig:
    lambdas: tuple[float, ...] = (4.0, 16.0, 64.0)
    epsilons: tuple[float, ...] = ()
    p: float = 8.0
    q: float = 4.0
    r: float = 4.0
    mc_members: int = 8
    master_seed: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated description of one experiment run.

    Construction never partially succeeds: every violated precondition is
    collected and reported in a single itemized LabError.
    """

    experiment: str
    grid: GridConfig = dataclass_field(default_factory=GridConfig)
    time: TimeConfig = dataclass_field(default_factory=TimeConfig)
    coefficients: CoefficientConfig = dataclass_field(default_factory=CoefficientConfig)
    scalars: ScalarConfig = dataclass_field(default_factory=ScalarConfig)
    output_dir: str = "out"

    def __post_init__(self):
        problems = _validate(self)
        if problems:
            raise LabError(
                "invalid experiment config:\n" + "\n".join(f"  - {p}" for p in problems)
            )

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        if not isinstance(payload, dict):
            raise LabError(f"config must be a JSON object, got {type(payload).__name__}")
        known = {f.name for f in dataclass_fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise LabError(
                "invalid experiment config:\n"
                + "\n".join(f"  - unknown key {k!r}" for k in unknown)
            )
        kwargs: dict = {}
        if "experiment" in payload:
            kwargs["experiment"] = payload["experiment"]
        else:
            raise LabError("invalid experiment config:\n  - missing required key 'experiment'")
        for name, sub_cls in (
            ("grid", GridConfig),
            ("time", TimeConfig),
            ("coefficients", CoefficientConfig),
            ("scalars", ScalarConfig),
        ):
            if name in payload:
                kwargs[name] = _sub_config(name, sub_cls, payload[name])
        if "output_dir" in payload:
            kwargs["output_dir"] = payload["output_dir"]
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise LabError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise LabError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)


def _sub_config(name: str, sub_cls, payload):
    if not isinstance(payload, dict):
        raise LabError(f"invalid experiment config:\n  - {name} must be an object")
    known = {f.name for f in dataclass_fields(sub_cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise LabError(
            "invalid experiment config:\n"
            + "\n".join(f"  - unknown key {name}.{k!r}" for k in unknown)
        )
    coerced = dict(payload)
    for key in ("lambdas", "epsilons", "noise_files"):
        if key in coerced and isinstance(coerced[key], list):
            coerced[key] = tuple(coerced[key])
    return sub_cls(**coerced)


def _validate(cfg: ExperimentConfig) -> list[str]:
    out: list[str] = []
    if cfg.experiment not in EXPERIMENT_TAGS:
        out.append(
            f"unknown experiment {cfg.experiment!r}; valid tags: {', '.join(EXPERIMENT_TAGS)}"
        )
    g, t, c, s = cfg.grid, cfg.time, cfg.coefficients, cfg.scalars
    if g.dim not in (1, 2):
        out.append(f"grid.dim must be 1 or 2, got {g.dim}")
    if not (g.L > 0 and math.isfinite(g.L)):
        out.append(f"grid.L must be a positive float, got {g.L}")
    if not (isinstance(g.N, int) and 8 <= g.N <= 512):
        out.append(f"grid.N must be an integer in [8, 512], got {g.N}")
    elif g.N % 2 != 0:
        out.append(f"grid.N must be even (odd N has no Nyquist mode), got {g.N}")
    if not (t.T > 0 and math.isfinite(t.T)):
        out.append(f"time.T must be positive, got {t.T}")
    if not (t.dt > 0 and t.dt <= t.T):
        out.append(f"time.dt must lie in (0, T], got {t.dt}")
    elif abs(t.T / t.dt - round(t.T / t.dt)) > 1e-9:
        out.append(f"time.T must be an integer multiple of dt, got T/dt = {t.T / t.dt}")
    if c.preset is None and c.drift_file is None:
        out.append("coefficients need a preset or a drift_file")
    if c.preset is not None:
        if c.preset not in presets.PRESET_TAGS:
            out.append(
                f"unknown coefficient preset {c.preset!r}; "
                f"valid presets: {', '.join(presets.PRESET_TAGS)}"
            )
        else:
            want = presets.PRESETS[c.preset].dim
            if want is not None and g.dim in (1, 2) and want != g.dim:
                out.append(f"preset {c.preset!r} is {want}-dimensional, grid.dim is {g.dim}")
    if c.drift_file is not None and not Path(c.drift_file).is_file():
        out.append(f"drift_file {c.drift_file!r} does not exist")
    for nf in c.noise_files:
        if not Path(nf).is_file():
            out.append(f"noise file {nf!r} does not exist")
    if len(s.lambdas) < 1 or any(l <= 0 for l in s.lambdas):
        out.append(f"scalars.lambdas must be positive, got {s.lambdas}")
    elif any(b <= a for a, b in zip(s.lambdas, s.lambdas[1:])):
        out.append(f"scalars.lambdas must be strictly increasing, got {s.lambdas}")
    if any(e <= 0 for e in s.epsilons):
        out.append(f"scalars.epsilons must be positive, got {s.epsilons}")
    elif any(b >= a for a, b in zip(s.epsilons, s.epsilons[1:])):
        out.append(f"scalars.epsilons must be strictly decreasing, got {s.epsilons}")
    for label, value in (("p", s.p), ("q", s.q), ("r", s.r)):
        if not value >= 1:
            out.append(f"scalars.{label} must be >= 1, got {value}")
    if not (isinstance(s.mc_members, int) and 2 <= s.mc_members <= 256):
        out.append(f"scalars.mc_members must be an integer in [2, 256], got {s.mc_members}")
    if not (isinstance(s.master_seed, int) and s.master_seed >= 0):
        out.append(f"scalars.master_seed must be a nonnegative integer, got {s.master_seed}")
    if not str(cfg.output_dir).strip():
        out.append("output_dir must be a nonempty path")
    return out


def _load_vector(path_name: str, grid: Grid) -> GridVector:
    """Load a static vector field; 1-d scalars are one-component vectors."""
    obj = load_field(path_name)
    if isinstance(obj, GridScalar) and obj.grid.dim == 1:
        obj = GridVector(obj.grid, obj.values[None])
    if not isinstance(obj, GridVector):
        raise LabError(f"{path_name!r} does not hold a static vector field")
    if obj.grid != grid:
        raise LabError(f"{path_name!r} lives on a different grid than the config")
    return obj


def _config_source(cfg: ExperimentConfig) -> presets.Preset:
    """The config's coefficients as a preset on its grid dimension.

    A ``.fld`` drift/noise pair becomes a preset whose builders load the files
    and refuse any grid but the one the files were saved on.
    """
    c = cfg.coefficients
    if c.drift_file is None:
        return replace(presets.PRESETS[c.preset], dim=cfg.grid.dim)
    if not c.noise_files:
        raise LabError("field-file coefficients need at least one noise file")
    return presets.Preset(
        cfg.grid.dim,
        lambda grid: _load_vector(c.drift_file, grid),
        lambda grid: [_load_vector(nf, grid) for nf in c.noise_files],
    )


@dataclass(frozen=True)
class Problem:
    """Coefficients held constant on [0, T] at step dt, datum f0 and test function phi.

    Each coefficient holds one slice object at every time, so the flow
    kernels see one spline group per coefficient set.
    """

    grid: Grid
    dt: float
    steps: int
    b: TimeGridVector
    sigmas: list[TimeGridVector]
    f0: GridScalar
    phi: TestFunction


def _problem(
    source: str | presets.Preset, N: int, T: float, dt: float, L: float = 2.0 * math.pi
) -> Problem:
    """Build a preset (a ``presets.PRESETS`` tag or a Preset) on an N-point grid."""
    if isinstance(source, str):
        source = presets.PRESETS[source]
    grid = Grid(dim=source.dim, L=L, N=N)
    steps = round(T / dt)
    b, *sigmas = [
        presets.sample_constant_in_time(v, T, steps)
        for v in (source.drift(grid), *source.noise(grid))
    ]
    phi = bump_test_function(grid, tuple([grid.L / 2.0] * grid.dim), grid.L / 6.0)
    return Problem(grid, dt, steps, b, sigmas, presets.default_datum(grid), phi)


def _config_problem(cfg: ExperimentConfig) -> Problem:
    return _problem(
        _config_source(cfg), cfg.grid.N, cfg.time.T, cfg.time.dt, cfg.grid.L
    )


def _pushforward_pair(
    source: str | presets.Preset, N: int, fine_N: int, T: float, dt: float, seed: int,
    factor: int = 4, L: float = 2.0 * math.pi,
) -> list[tuple[Problem, BrownianPath, list[GridScalar]]]:
    """f0 pushed forward at every step, base and refined, on one Brownian path.

    The base run is (N, dt) on the path drawn from stream ``seed``; the
    refined run is (fine_N, dt / factor) on its bridge refinement.  Each entry
    is (problem, path, pushforward at steps 0..steps).
    """
    base = _problem(source, N, T, dt, L)
    path = sample_brownian(T, dt, len(base.sigmas), seed)
    fine = _problem(source, fine_N, T, dt / factor, L)
    runs = []
    for prob, p in ((base, path), (fine, refine_brownian(path, factor))):
        ens = simulate_flow(prob.b, prob.sigmas, SdeConfig(dt=prob.dt), p)
        fpath = [pushforward_solution(prob.f0, ens, l * prob.dt) for l in range(prob.steps + 1)]
        runs.append((prob, p, fpath))
    return runs


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    """One measured quantity against its acceptance gate."""

    name: str
    value: float
    threshold: float
    relation: str  # "<=", "<", or ">="
    passed: bool
    detail: str = ""

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{verdict} {self.name}: {self.value:.6g} {self.relation} {self.threshold:.6g}"
            + (f"  [{self.detail}]" if self.detail else "")
        )


@dataclass
class RunReport:
    """Full acceptance record: per-check rows plus the environment stamp."""

    checks: list[CheckResult]
    environment: dict[str, str]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary_lines(self) -> list[str]:
        return [c.line() for c in self.checks]


def _environment_stamp(cfg: ExperimentConfig) -> dict[str, str]:
    return {
        "renormlab": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "grid": f"dim={cfg.grid.dim} L={cfg.grid.L:.12g} N={cfg.grid.N}",
        "master_seed": str(cfg.scalars.master_seed),
        "workers": str(parallel.worker_count()),
    }


def write_report_csv(report: RunReport, path_name) -> None:
    with open(path_name, "w", newline="") as handle:
        handle.write(CSV_VERSION_LINE + "\n")
        for key, value in report.environment.items():
            handle.write(f"# {key}={value}\n")
        writer = csv.writer(handle)
        writer.writerow(["name", "value", "relation", "threshold", "passed", "detail"])
        for c in report.checks:
            writer.writerow(
                [c.name, f"{c.value:.12g}", c.relation, f"{c.threshold:.12g}",
                 "pass" if c.passed else "fail", c.detail]
            )


def _stamp_version(path_name) -> None:
    """Prepend the schema comment to a CSV a module writer just produced."""
    path = Path(path_name)
    body = path.read_text()
    path.write_text(CSV_VERSION_LINE + "\n" + body)


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig) -> list[Path]:
    """Execute cfg and return the artifact paths written under output_dir."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    runner = {
        "commutator_study": _run_commutator_study,
        "parabolic_decay": _run_parabolic_decay,
        "flow_conservation": _run_flow_conservation,
        "renorm_residual": _run_renorm_residual,
        "zvonkin_relaxation": _run_zvonkin_relaxation,
        "acceptance_all": _run_acceptance_all,
    }[cfg.experiment]
    files = runner(cfg, out)
    logger.info("experiment %s wrote %d artifacts to %s", cfg.experiment, len(files), out)
    return files


def _epsilon_ladder(cfg: ExperimentConfig, grid: Grid) -> list[float]:
    if cfg.scalars.epsilons:
        return list(cfg.scalars.epsilons)
    return [grid.L / 4.0, grid.L / 8.0, grid.L / 16.0]


def _run_commutator_study(cfg: ExperimentConfig, out: Path) -> list[Path]:
    prob = _config_problem(cfg)
    grid = prob.grid
    sigma = prob.sigmas[0].slices[0]
    eps = _epsilon_ladder(cfg, grid)
    region = central_half(grid)
    files = []
    for tag in (commutator.TAG_T, commutator.TAG_S):
        study = commutator.convergence_study(tag, sigma, prob.f0, eps, cfg.scalars.r, region)
        path = out / f"commutator_{tag}.csv"
        commutator.write_study_csv(study, path)
        _stamp_version(path)
        files.append(path)
    return files


def _run_parabolic_decay(cfg: ExperimentConfig, out: Path) -> list[Path]:
    b = _config_problem(cfg).b
    s = cfg.scalars
    files = []
    for alpha in (0, 1):
        study = decay_study(b, list(s.lambdas), alpha, s.r, s.p, s.q)
        path = out / f"decay_alpha{alpha}.csv"
        write_decay_csv(study, path)
        _stamp_version(path)
        files.append(path)
    return files


def _run_flow_conservation(cfg: ExperimentConfig, out: Path) -> list[Path]:
    prob = _config_problem(cfg)
    grid, b, sigmas, f0, steps = prob.grid, prob.b, prob.sigmas, prob.f0, prob.steps
    T, dt = cfg.time.T, cfg.time.dt
    mass0 = float(np.sum(f0.values)) * grid.cell_volume
    norm0 = lp_norm(f0, cfg.scalars.p)
    stride = max(1, steps // 10)
    seed0 = cfg.scalars.master_seed + _STREAM_DIVFREE

    def one_member(m: int):
        path = sample_brownian(T, dt, len(sigmas), seed0 + m)
        ens = simulate_flow(b, sigmas, SdeConfig(dt=dt), path)
        rows = []
        for l in range(0, steps + 1, stride):
            f_l = pushforward_solution(f0, ens, l * dt)
            mass = float(np.sum(f_l.values)) * grid.cell_volume
            rows.append((m, l, l * dt, mass - mass0, lp_norm(f_l, cfg.scalars.p) / norm0))
        return ens, rows

    results = parallel.ordered_map(one_member, range(cfg.scalars.mc_members))
    csv_path = out / "flow_conservation.csv"
    with open(csv_path, "w", newline="") as handle:
        handle.write(CSV_VERSION_LINE + "\n")
        writer = csv.writer(handle)
        writer.writerow(["member", "step", "time", "mass_gap", "lp_ratio"])
        for _, rows in results:
            for m, l, t, gap, ratio in rows:
                writer.writerow([m, l, f"{t:.12g}", f"{gap:.12g}", f"{ratio:.12g}"])
    last_ens = results[-1][0]
    field_path = out / "flow_final.fld"
    save_field(field_path, pushforward_solution(f0, last_ens, T))
    ens_path = out / "flow_paths.flo"
    save_ensemble(ens_path, last_ens)
    return [csv_path, field_path, ens_path]


def _run_renorm_residual(cfg: ExperimentConfig, out: Path) -> list[Path]:
    renorm = make_renormalizer("tanh")
    N = cfg.grid.N
    # Joint space-time refinement for 1-d presets; dt-only in 2-d, where
    # doubling N is past the desk budget, and for .fld coefficients, whose
    # files fix N.
    fine_N = 2 * N if cfg.grid.dim == 1 and cfg.coefficients.drift_file is None else N
    runs = _pushforward_pair(
        _config_source(cfg), N, fine_N, cfg.time.T, cfg.time.dt,
        cfg.scalars.master_seed + _STREAM_PUSHFORWARD, L=cfg.grid.L,
    )
    ledgers = [
        residual_renormalized(fpath, prob.b, prob.sigmas, prob.phi, renorm, path)
        for prob, path, fpath in runs
    ]

    ledger_path = out / "renorm_ledger.csv"
    write_ledger_csv(ledgers[0], ledger_path)
    _stamp_version(ledger_path)
    refine_path = out / "renorm_refinement.csv"
    with open(refine_path, "w", newline="") as handle:
        handle.write(CSV_VERSION_LINE + "\n")
        writer = csv.writer(handle)
        writer.writerow(["dt", "h", "epsilon", "residual"])
        for (prob, _, _), led in zip(runs, ledgers):
            eps = "" if renorm.epsilon is None else f"{renorm.epsilon:.12g}"
            writer.writerow([
                f"{prob.dt:.12g}", f"{prob.grid.L / prob.grid.N:.12g}", eps,
                f"{led.residual:.12g}",
            ])
    return [ledger_path, refine_path]


def _run_zvonkin_relaxation(cfg: ExperimentConfig, out: Path) -> list[Path]:
    prob = _config_problem(cfg)
    b, steps = prob.b, prob.steps
    s = cfg.scalars
    rows = []
    for lam in s.lambdas:
        sol = mild_solve(b, lam, steps)
        coeffs = transform_coeffs(sol.u, lam)
        rows.append((lam, relaxation_metrics(coeffs, b, q=s.q, p=s.p, r=s.r)))
    path = out / "zvonkin_relaxation.csv"
    write_relaxation_csv(rows, path)
    _stamp_version(path)
    return [path]


def _run_acceptance_all(cfg: ExperimentConfig, out: Path) -> list[Path]:
    report = acceptance_suite(cfg)
    path = out / "acceptance_report.csv"
    write_report_csv(report, path)
    return [path]


# ---------------------------------------------------------------------------
# Acceptance suite
# ---------------------------------------------------------------------------

# Sources the checks build beyond the table's own entries.
_CONSTANT_1D = replace(presets.PRESETS["constant"], dim=1)
_TRIG_UNIT_NOISE = replace(presets.PRESETS["trig_flow"], noise=presets.unit_noise)


def _adjacent_ratio(values) -> float:
    """Largest successive ratio; < 1 means the sequence strictly decreases."""
    vals = [float(v) for v in values]
    return max(b / a for a, b in zip(vals, vals[1:]))


def _result(name, value, threshold, relation, detail="") -> CheckResult:
    value = float(value)
    threshold = float(threshold)
    passed = {
        "<=": value <= threshold,
        "<": value < threshold,
        ">=": value >= threshold,
    }[relation]
    return CheckResult(name, value, threshold, relation, passed, detail)


def _check_mollifier(cfg: ExperimentConfig) -> list[CheckResult]:
    grid = Grid(dim=1, L=2.0 * math.pi, N=64)
    eps = grid.L / 8.0
    kernel = mollifier(grid, eps)
    v = kernel.values
    mass = float(np.sum(v)) * grid.cell_volume
    mirrored = np.roll(np.flip(v, axis=0), 1, axis=0)
    asym = float(np.max(np.abs(v - mirrored)))
    dist = np.abs(grid.wrapped_coordinates()[0])
    outside = float(np.max(np.abs(v[dist > eps]))) if np.any(dist > eps) else 0.0
    # Integration by parts on the torus: moment of x^a against the b-th
    # derivative equals the (a choose b)-type derivative of lower moments.
    oracle = {((1,), (1,)): -1.0, ((2,), (1,)): 0.0, ((2,), (2,)): 2.0}
    worst = max(abs(kernel_moment(kernel, a, b) - want) for (a, b), want in oracle.items())
    return [
        _result("mollifier_mass", abs(mass - 1.0), 1e-10, "<="),
        _result("mollifier_symmetry", asym, 0.0, "<="),
        _result("mollifier_support", outside, 0.0, "<="),
        _result("mollifier_moments", worst, 5e-3, "<=", "x d(eta), x^2 d(eta), x^2 d2(eta)"),
    ]


def _trig_commutator_data(N: int):
    grid = Grid(dim=1, L=2.0 * math.pi, N=N)
    x = grid.coordinates()[0]
    sigma = GridVector(grid, np.sin(x)[None])
    f = GridScalar(grid, np.cos(x))
    return grid, sigma, f


def _check_commutator_t(cfg: ExperimentConfig) -> list[CheckResult]:
    grid, sigma, f = _trig_commutator_data(64)
    eps = [grid.L / 8.0, grid.L / 16.0, grid.L / 32.0]
    study = commutator.convergence_study(
        commutator.TAG_T, sigma, f, eps, 2.0, central_half(grid)
    )
    decreasing = _adjacent_ratio(study.errors) < 1.0
    rate = study.fitted_rate if decreasing else 0.0
    const = GridVector(grid, np.full((1, grid.N), 0.7))
    degen = commutator.convergence_study(
        commutator.TAG_T, const, f, eps, 2.0, central_half(grid)
    )
    return [
        _result(
            "commutator_T_rate", rate, 0.9, ">=",
            "errors " + " ".join(f"{e:.3e}" for e in study.errors),
        ),
        _result("commutator_T_degenerate", max(degen.errors), 1e-9, "<="),
    ]


def _check_commutator_s(cfg: ExperimentConfig) -> list[CheckResult]:
    grid, sigma, f = _trig_commutator_data(64)
    eps = [grid.L / 8.0, grid.L / 16.0, grid.L / 32.0]
    study = commutator.convergence_study(
        commutator.TAG_S, sigma, f, eps, 2.0, central_half(grid)
    )
    decreasing = _adjacent_ratio(study.errors) < 1.0
    rate = study.fitted_rate if decreasing else 0.0
    ratios = {}
    for N in (32, 64):
        g, s, ff = _trig_commutator_data(N)
        ladder = [g.L / 4.0, g.L / 8.0, g.L / 16.0]
        region = central_half(g)
        st_t = commutator.convergence_study(commutator.TAG_T, s, ff, ladder, 2.0, region)
        st_s = commutator.convergence_study(commutator.TAG_S, s, ff, ladder, 2.0, region)
        ratios[N] = (max(st_t.bound_ratios), max(st_s.bound_ratios))
    finite = all(math.isfinite(v) for pair in ratios.values() for v in pair)
    drift = max(
        abs(ratios[32][i] / ratios[64][i] - 1.0) for i in range(2)
    ) if finite else math.inf
    return [
        _result("commutator_S_rate", rate, 0.9, ">="),
        _result(
            "commutator_bound_stability", drift, 0.2, "<=",
            f"T {ratios[32][0]:.4f}/{ratios[64][0]:.4f} S {ratios[32][1]:.4f}/{ratios[64][1]:.4f}",
        ),
    ]


def _check_cancellation(cfg: ExperimentConfig) -> list[CheckResult]:
    grid, sigma, f = _trig_commutator_data(64)
    renorm = make_renormalizer("tanh")
    eps = grid.L / 8.0
    region = central_half(grid)
    out = []
    for label, rem_fn, rec_fn in (
        ("R1", commutator.r1_remainder, commutator.r1_reconstruction),
        ("R2", commutator.r2_remainder, commutator.r2_reconstruction),
    ):
        remainder = rem_fn(sigma, f, eps, renorm)
        scale = lp_norm(remainder, 2.0, region)
        errs = {}
        for sign in (1.0, -1.0):
            recon = rec_fn(sigma, f, eps, renorm, sign=sign)
            gap = lp_norm(GridScalar(grid, remainder.values - recon.values), 2.0, region)
            errs[sign] = gap / scale
        good = [s for s, e in errs.items() if e <= 1e-6]
        exactly_one = len(good) == 1
        value = errs[good[0]] if exactly_one else min(errs.values())
        if exactly_one:
            logger.info("%s reconstruction passes with sign %+g", label, good[0])
        out.append(
            _result(
                f"cancellation_{label}",
                value if exactly_one else math.inf,
                1e-6,
                "<=",
                f"sign +1 err {errs[1.0]:.2e}, sign -1 err {errs[-1.0]:.2e}",
            )
        )
    return out


def _logdet_sup_gaps(cfg: ExperimentConfig, members: int, T: float, dt: float):
    """Per-path sup gap at (dt, dt/4); bridge-coupled refinement."""
    prob = _problem("trig_flow", 64, T, dt)
    b, sigmas = prob.b, prob.sigmas
    prob4 = _problem("trig_flow", 64, T, dt / 4.0)
    b4, sigmas4 = prob4.b, prob4.sigmas
    seed0 = cfg.scalars.master_seed + _STREAM_LOGDET

    def one_path(m: int):
        path = sample_brownian(T, dt, 1, seed0 + m)
        ens = simulate_flow(b, sigmas, SdeConfig(dt=dt), path)
        variational_jacobian(ens, b, sigmas)
        logdet_stochastic_exponential(ens, b, sigmas)
        coarse = logdet_gap(ens)
        fine_path = refine_brownian(path, 4)
        ens4 = simulate_flow(b4, sigmas4, SdeConfig(dt=dt / 4.0), fine_path)
        variational_jacobian(ens4, b4, sigmas4)
        logdet_stochastic_exponential(ens4, b4, sigmas4)
        return coarse, logdet_gap(ens4)

    results = parallel.ordered_map(one_path, range(members))
    coarse = [r[0] for r in results]
    fine = [r[1] for r in results]
    return coarse, fine


def _check_jacobian(cfg: ExperimentConfig) -> list[CheckResult]:
    coarse, fine = _logdet_sup_gaps(cfg, members=64, T=0.5, dt=1e-3)
    rms_c = math.sqrt(sum(v * v for v in coarse) / len(coarse))
    rms_f = math.sqrt(sum(v * v for v in fine) / len(fine))
    order = math.log(rms_c / rms_f) / math.log(4.0)
    return [
        _result("jacobian_logdet_gap", max(coarse), 0.05, "<=", "64 paths, trig preset"),
        _result(
            "jacobian_logdet_order", order, 0.4, ">=",
            f"rms {rms_c:.3e} -> {rms_f:.3e} under dt/4",
        ),
    ]


def _check_pushforward_residual(cfg: ExperimentConfig) -> list[CheckResult]:
    runs = _pushforward_pair(
        "drift_dominated", 64, 128, 0.5, 1e-3, cfg.scalars.master_seed + _STREAM_PUSHFORWARD
    )
    base, fine = (
        residual_original(fpath, prob.b, prob.sigmas, prob.phi, path).residual
        for prob, path, fpath in runs
    )
    prob, path, _ = runs[0]
    frozen = residual_original(
        [prob.f0] * (prob.steps + 1), prob.b, prob.sigmas, prob.phi, path
    ).residual
    return [
        _result("pushforward_residual", abs(base), 1e-2, "<="),
        _result(
            "pushforward_refinement", abs(base) / abs(fine), 2.0, ">=",
            f"residual {base:+.3e} -> {fine:+.3e} under (2N, dt/4)",
        ),
        _result("pushforward_frozen_anti", abs(frozen) / abs(base), 10.0, ">="),
    ]


def _check_conservation(cfg: ExperimentConfig) -> list[CheckResult]:
    T, dt = 0.25, 1e-3
    prob = _problem("divfree_2d", 64, T, dt)
    grid, b, sigmas, f0, steps = prob.grid, prob.b, prob.sigmas, prob.f0, prob.steps
    mass0 = float(np.sum(f0.values)) * grid.cell_volume
    norm0 = lp_norm(f0, 2.0)
    seed0 = cfg.scalars.master_seed + _STREAM_DIVFREE

    def one_path(m: int):
        path = sample_brownian(T, dt, 2, seed0 + m)
        ens = simulate_flow(b, sigmas, SdeConfig(dt=dt), path)
        worst_mass, worst_norm = 0.0, 0.0
        for l in range(0, steps + 1, 25):
            f_l = pushforward_solution(f0, ens, l * dt)
            mass = float(np.sum(f_l.values)) * grid.cell_volume
            worst_mass = max(worst_mass, abs(mass - mass0))
            worst_norm = max(worst_norm, abs(lp_norm(f_l, 2.0) / norm0 - 1.0))
        return worst_mass, worst_norm

    results = parallel.ordered_map(one_path, range(4))
    h = grid.L / grid.N
    return [
        _result(
            "conservation_mass", max(r[0] for r in results), 10.0 * h * h, "<=",
            "4 paths, nodes every 25 steps",
        ),
        _result("conservation_lp", max(r[1] for r in results), 2e-2, "<="),
    ]


def _check_moment_bound(cfg: ExperimentConfig) -> list[CheckResult]:
    T, dt, members, p = 0.5, 2.5e-3, 64, 2.0
    prob = _problem("trig_flow", 64, T, dt)
    b, sigmas, f0 = prob.b, prob.sigmas, prob.f0
    b0, s0 = b.slices[0], sigmas[0].slices[0]

    # Growth constant from the stochastic-exponential form of the Jacobian:
    # the 2p-th moment of the pushforward obeys d/dt E||f||^{2p} <= C with
    # C = (2p-1)(sup|Div b| + sup|twist|/2) + (2p-1)^2 sup|Div sigma|^2 / 2.
    div_b = float(np.max(np.abs(divergence(b0).values)))
    jac_s = jacobian(s0)
    twist = float(np.max(np.abs(np.einsum("ij...,ji...->...", jac_s, jac_s))))
    div_s = float(np.max(np.abs(divergence(s0).values)))
    m = 2.0 * p - 1.0
    growth = m * (div_b + 0.5 * twist) + 0.5 * m * m * div_s**2
    envelope = math.exp(growth * T) * lp_norm(f0, 2.0 * p) ** (2.0 * p)

    seed0 = cfg.scalars.master_seed + _STREAM_MOMENT
    ensembles = parallel.ordered_map(
        lambda mm: simulate_flow(
            b, sigmas, SdeConfig(dt=dt), sample_brownian(T, dt, 1, seed0 + mm)
        ),
        range(members),
    )
    est = ensemble_moment(
        ensembles, lambda e: lp_norm(pushforward_solution(f0, e, T), 2.0 * p), power=2.0 * p
    )
    upper = est.mean + 1.645 * est.stderr  # one-sided 95% confidence
    return [
        _result(
            "moment_bound", upper / envelope, 1.0, "<=",
            f"mean {est.mean:.3f} se {est.stderr:.3f} envelope {envelope:.2f}",
        )
    ]


def _grad_sup(sol) -> float:
    return max(float(np.max(np.abs(jacobian(sl)))) for sl in sol.u.slices)


def _check_parabolic_closed_form(cfg: ExperimentConfig) -> list[CheckResult]:
    T, c, lam = 0.5, 0.8, 6.0  # c is the constant preset's drift
    b_const = _problem(_CONSTANT_1D, 64, T, T / 512).b
    sol = mild_solve(b_const, lam, 512)
    gap = 0.0
    for j, t in enumerate(sol.u.times):
        exact = c / lam * (1.0 - math.exp(-lam * (T - t)))
        gap = max(gap, float(np.max(np.abs(sol.u.slices[j].values[0] - exact))))

    b_trig = _problem("trig_flow", 64, T, T / 128).b
    sups = [_grad_sup(mild_solve(b_trig, l, 128)) for l in (4.0, 16.0, 64.0)]
    return [
        _result("parabolic_closed_form", gap, 1e-4, "<=", "constant drift, quad_steps 512"),
        _result(
            "parabolic_lipschitz_decay", _adjacent_ratio(sups), 1.0, "<",
            "grad sups " + " ".join(f"{s:.4f}" for s in sups),
        ),
    ]


def _check_decay_exponents(cfg: ExperimentConfig) -> list[CheckResult]:
    b = _problem("decay", 64, 0.5, 0.5 / 256).b
    lambdas = [32.0, 64.0, 128.0, 256.0]
    out = []
    for alpha in (0, 1):
        study = decay_study(b, lambdas, alpha, 8.0, 8.0, 4.0)
        out.append(
            _result(
                f"decay_slope_alpha{alpha}",
                abs(study.fitted_slope + study.theory_delta),
                0.15,
                "<=",
                f"slope {study.fitted_slope:.4f} vs -{study.theory_delta:g}",
            )
        )
    return out


def _check_relaxation(cfg: ExperimentConfig) -> list[CheckResult]:
    T = 0.5
    b_trig = _problem("trig_flow", 64, T, T / 128).b
    records = [
        relaxation_residuals(mild_solve(b_trig, lam, 128), b_trig)
        for lam in (4.0, 16.0, 64.0)
    ]
    ladder = max(
        _adjacent_ratio([r.drift_residual for r in records]),
        _adjacent_ratio([r.divergence_residual for r in records]),
    )

    c, lam, quad = 0.8, 6.0, 128  # c is the constant preset's drift
    b_const = _problem(_CONSTANT_1D, 64, T, T / quad).b
    rec = relaxation_residuals(mild_solve(b_const, lam, quad), b_const)
    dtq = T / quad
    closed = abs(c) * sum(math.exp(-lam * (T - j * dtq)) for j in range(quad)) * dtq
    gap = max(abs(rec.drift_residual - closed), rec.divergence_residual)
    return [
        _result("relaxation_ladder", ladder, 1.0, "<", "both residuals, lambda 4/16/64"),
        _result("relaxation_closed_form", gap, 1e-6, "<="),
    ]


def _renorm_ledgers(cfg: ExperimentConfig, flip_sign_of: str | None):
    """Base and refined renormalized residuals for both criterion presets."""
    renorm = make_renormalizer("tanh")
    seed = cfg.scalars.master_seed

    def residual(run, flip=flip_sign_of) -> float:
        prob, path, fpath = run
        return residual_renormalized(
            fpath, prob.b, prob.sigmas, prob.phi, renorm, path, flip_sign_of=flip
        ).residual

    divfree = _pushforward_pair("divfree_2d", 64, 64, 0.25, 1e-3, seed + _STREAM_DIVFREE)
    out = {"divfree": tuple(residual(run) for run in divfree)}
    smooth = _pushforward_pair(
        "drift_dominated", 64, 128, 0.5, 1e-3, seed + _STREAM_PUSHFORWARD
    )
    out["smooth"] = tuple(residual(run) for run in smooth)
    out["anti"] = (out["smooth"][0], residual(smooth[0], flip="g_div_b"))
    return out


def _check_renorm_residual(cfg: ExperimentConfig, flip_sign_of: str | None = None):
    led = _renorm_ledgers(cfg, flip_sign_of)
    base_d, fine_d = led["divfree"]
    base_s, fine_s = led["smooth"]
    honest, flipped = led["anti"]
    return [
        _result("renorm_divfree_residual", abs(base_d), 2e-2, "<=", "unit noise, 2-d"),
        _result(
            "renorm_divfree_refinement", abs(base_d) / abs(fine_d), 2.0, ">=",
            f"{base_d:+.3e} -> {fine_d:+.3e} under dt/4",
        ),
        _result("renorm_smooth_residual", abs(base_s), 2e-2, "<=", "Div sigma != 0, 1-d"),
        _result(
            "renorm_smooth_refinement", abs(base_s) / abs(fine_s), 2.0, ">=",
            f"{base_s:+.3e} -> {fine_s:+.3e} under (2N, dt/4)",
        ),
        _result(
            "renorm_sign_flip_anti", abs(flipped) / abs(honest), 10.0, ">=",
            "g_div_b term negated",
        ),
    ]


def _zvonkin_member_residual(
    sid: int, T: float, dt: float, solutions: list[ParabolicSolution]
) -> tuple[float, float]:
    """Transformed residual on one path at dt and on its 8-fold bridge refinement.

    ``solutions`` holds the straightening solve at dt and at dt/8; every
    member shares them, since the drift, lambda and steps do not depend on
    the path.
    """
    runs = _pushforward_pair(_TRIG_UNIT_NOISE, 64, 64, T, dt, sid, factor=8)
    return tuple(
        transformed_residual(fpath, sol.u, sol.lam, prob.b, prob.phi, path).residual
        for (prob, path, fpath), sol in zip(runs, solutions)
    )


def _check_zvonkin(cfg: ExperimentConfig) -> list[CheckResult]:
    T, dt, lam = 0.25, 2.5e-3, 16.0
    seed0 = cfg.scalars.master_seed + _STREAM_ZVONKIN
    solutions = []
    for step in (dt, dt / 8):
        prob = _problem(_TRIG_UNIT_NOISE, 64, T, step)
        solutions.append(mild_solve(prob.b, lam, prob.steps))
    pairs = parallel.ordered_map(
        lambda m: _zvonkin_member_residual(seed0 + m, T, dt, solutions), range(8)
    )
    rms_c, rms_f = (
        math.sqrt(sum(pair[i] * pair[i] for pair in pairs) / len(pairs)) for i in range(2)
    )

    steps = 128
    b = _problem("trig_flow", 64, T, T / steps).b
    ladder_rows = []
    bracket_worst = 0.0
    for lam_j in (4.0, 16.0, 64.0):
        sol = mild_solve(b, lam_j, steps)
        coeffs = transform_coeffs(sol.u, lam_j)
        rec = relaxation_metrics(coeffs, b, q=4.0, p=8.0, r=4.0)
        ladder_rows.append((rec.bhat_err, rec.sigma_err, rec.grad_sigma_err, rec.div_err))
        diffeo = build_diffeo(sol.u)
        for sl in sol.u.slices:
            det = 1.0 + jacobian(sl)[0, 0]
            bracket_worst = max(
                bracket_worst,
                diffeo.det_lo - float(det.min()),
                float(det.max()) - diffeo.det_hi,
            )
    ladder = max(
        _adjacent_ratio([row[i] for row in ladder_rows]) for i in range(4)
    )
    return [
        _result(
            "zvonkin_residual_refinement", rms_c / rms_f, 1.4, ">=",
            f"rms {rms_c:.3e} -> {rms_f:.3e} under dt/8, 8 members",
        ),
        _result("zvonkin_metrics_ladder", ladder, 1.0, "<", "all four metrics, lambda 4/16/64"),
        _result("zvonkin_det_bracketing", max(bracket_worst, 0.0), 0.0, "<="),
    ]


def _stability_series(cfg, members: int, T: float, dt: float, seed_offset: int):
    prob = _problem("trig_flow", 64, T, dt)
    b, sigmas, f0 = prob.b, prob.sigmas, prob.f0
    seed0 = cfg.scalars.master_seed + seed_offset
    ensembles = parallel.ordered_map(
        lambda m: simulate_flow(
            b, sigmas, SdeConfig(dt=dt), sample_brownian(T, dt, 1, seed0 + m)
        ),
        range(members),
    )
    return weighted_l1_stability(ensembles, f0, b, sigmas, 2.0)


def _check_stability(cfg: ExperimentConfig) -> list[CheckResult]:
    series = _stability_series(cfg, members=8, T=0.5, dt=2.5e-3, seed_offset=_STREAM_STABILITY)
    # The envelope is exactly tight at step 0 (no noise has acted yet), so
    # the gate carries a round-off allowance on top of the confidence band.
    exceed = float(np.max(series.mean - series.envelope - 1.645 * series.stderr))

    T2, dt2 = 0.25, 0.025
    prob2 = _problem("divfree_2d", 64, T2, dt2)
    b2, sig2, f02 = prob2.b, prob2.sigmas, prob2.f0
    seed0 = cfg.scalars.master_seed + _STREAM_CONSTANCY
    ens2 = parallel.ordered_map(
        lambda m: simulate_flow(
            b2, sig2, SdeConfig(dt=dt2), sample_brownian(T2, dt2, 2, seed0 + m)
        ),
        range(8),
    )
    series2 = weighted_l1_stability(ens2, f02, b2, sig2, 0.0)
    z = np.abs(series2.mean[1:] - series2.mean[0]) / np.maximum(series2.stderr[1:], 1e-300)
    return [
        _result("stability_envelope", exceed, 1e-12, "<=", "trig preset, 8 members, 95%"),
        _result(
            "stability_constancy", float(z.max()), 2.0, "<=",
            "flat weight, divergence-free preset",
        ),
    ]


def _determinism_payload(cfg: ExperimentConfig) -> tuple:
    """Reduced-scale re-run of the three Monte Carlo checks, flattened."""
    coarse, fine = _logdet_sup_gaps(cfg, members=6, T=0.25, dt=2e-3)

    T, dt = 0.25, 5e-3
    prob = _problem("trig_flow", 64, T, dt)
    b, sigmas, f0 = prob.b, prob.sigmas, prob.f0
    seed0 = cfg.scalars.master_seed + _STREAM_MOMENT
    ensembles = parallel.ordered_map(
        lambda m: simulate_flow(
            b, sigmas, SdeConfig(dt=dt), sample_brownian(T, dt, 1, seed0 + m)
        ),
        range(8),
    )
    est = ensemble_moment(
        ensembles, lambda e: lp_norm(pushforward_solution(f0, e, T), 4.0), power=4.0
    )

    series = _stability_series(cfg, members=4, T=0.25, dt=5e-3, seed_offset=_STREAM_STABILITY)
    return (
        tuple(coarse),
        tuple(fine),
        (est.mean, est.stderr),
        tuple(series.mean.tolist()),
        tuple(series.stderr.tolist()),
    )


def _check_determinism(cfg: ExperimentConfig) -> list[CheckResult]:
    import os

    previous = os.environ.get(parallel.ENV_VAR)
    payloads = []
    try:
        for workers in ("1", "8"):
            os.environ[parallel.ENV_VAR] = workers
            payloads.append(_determinism_payload(cfg))
    finally:
        if previous is None:
            os.environ.pop(parallel.ENV_VAR, None)
        else:
            os.environ[parallel.ENV_VAR] = previous
    identical = payloads[0] == payloads[1]
    return [
        _result(
            "determinism_workers", 0.0 if identical else 1.0, 0.0, "<=",
            "logdet/moment/stability kernels at 1 and 8 workers, bitwise",
        )
    ]


# perfbench's accept workload leaves out _check_jacobian, _check_renorm_residual
# and _check_zvonkin by function name, so renaming one of these puts its work
# (about 100 s together) silently back into that workload.
_SUITE = (
    _check_mollifier,
    _check_commutator_t,
    _check_commutator_s,
    _check_cancellation,
    _check_jacobian,
    _check_pushforward_residual,
    _check_conservation,
    _check_moment_bound,
    _check_parabolic_closed_form,
    _check_decay_exponents,
    _check_relaxation,
    _check_renorm_residual,
    _check_zvonkin,
    _check_stability,
    _check_determinism,
)


def acceptance_suite(cfg: ExperimentConfig, flip_sign_of: str | None = None) -> RunReport:
    """Run every acceptance check at desk scale and collect the report.

    flip_sign_of is a debug hook: it negates the named term inside the
    renormalized-residual check, which must make that check fail; it exists
    to certify that the suite actually watches the term signs.  A name outside
    RENORMALIZED_TERMS is refused before any check runs.
    """
    if flip_sign_of is not None and flip_sign_of not in RENORMALIZED_TERMS:
        raise LabError(
            f"cannot flip unknown term {flip_sign_of!r}; "
            f"valid terms: {', '.join(RENORMALIZED_TERMS)}"
        )
    checks: list[CheckResult] = []
    for fn in _SUITE:
        if fn is _check_renorm_residual:
            rows = fn(cfg, flip_sign_of=flip_sign_of)
        else:
            rows = fn(cfg)
        checks.extend(rows)
        for row in rows:
            logger.info("%s", row.line())
    return RunReport(checks=checks, environment=_environment_stamp(cfg))
