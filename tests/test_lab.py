"""Config ingestion, experiment artifacts, report plumbing, and the CLI.

Every CSV artifact goes through lab's one writer, so one parametrized test
checks the format of each (version line, LF endings, header, row count, first
row).  These tests exercise the plumbing (paths, formats, byte determinism,
exit codes) rather than re-deriving the numerics, which live in the
per-module suites and tests/test_acceptance.py.
"""

from __future__ import annotations

import csv
import gc
import json
import math
import re
import subprocess
import threading
import warnings
import weakref
from dataclasses import fields as dataclass_fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_record
import seed_sweep
from renormlab import cli, commutator, flow, lab, parabolic, parallel, presets, weakform, zvonkin
from renormlab.field import (
    FieldError,
    Grid,
    GridVector,
    TimeGridVector,
    epsilon_ladder,
    load_field,
    lp_norm,
    save_field,
)
from renormlab.flow import load_ensemble, sample_brownian
from renormlab.lab import (
    CheckResult,
    CoefficientConfig,
    ExperimentConfig,
    GridConfig,
    LabError,
    RunReport,
    ScalarConfig,
    TimeConfig,
)
from renormlab.parabolic import mild_solve, relaxation_residuals
from renormlab.weakform import RENORMALIZED_TERMS, WeakFormError, WeakFormLedger

TWO_PI = 2.0 * math.pi
ROOT = Path(__file__).resolve().parents[1]


def config_payload(**overrides) -> dict:
    payload = {
        "experiment": "commutator_study",
        "grid": {"dim": 1, "N": 32},
        "time": {"T": 0.25, "dt": 0.0125},
        "coefficients": {"preset": "trig_flow"},
        "scalars": {"r": 2.0, "master_seed": 0},
        "output_dir": "out",
    }
    payload.update(overrides)
    return payload


class TestExperimentConfig:
    def test_from_dict_round_trip(self):
        cfg = ExperimentConfig.from_dict(config_payload())
        assert cfg.experiment == "commutator_study"
        assert cfg.grid.N == 32
        assert cfg.time.dt == 0.0125
        assert cfg.coefficients.preset == "trig_flow"
        assert cfg.scalars.master_seed == 0

    def test_defaults_are_valid(self):
        cfg = ExperimentConfig(experiment="acceptance_all")
        assert cfg.grid == GridConfig()
        assert cfg.scalars.lambdas == (4.0, 16.0, 64.0)

    def test_unknown_tag_lists_valid_tags(self):
        with pytest.raises(LabError) as info:
            ExperimentConfig(experiment="frobnicate")
        message = str(info.value)
        for tag in lab.EXPERIMENT_TAGS:
            assert tag in message

    def test_diagnostics_are_itemized(self):
        with pytest.raises(LabError) as info:
            ExperimentConfig.from_dict(
                config_payload(
                    experiment="nope",
                    grid={"dim": 7, "N": 4},
                    scalars={"mc_members": 1, "p": 0.5},
                )
            )
        message = str(info.value)
        assert message.count("\n  - ") >= 4
        assert "grid.dim" in message and "grid.N" in message
        assert "mc_members" in message and "scalars.p" in message

    def test_unknown_keys_rejected(self):
        with pytest.raises(LabError, match="unknown key 'colour'"):
            ExperimentConfig.from_dict(config_payload(colour="red"))
        with pytest.raises(LabError, match="grid.'shape'"):
            ExperimentConfig.from_dict(config_payload(grid={"dim": 1, "shape": 3}))

    def test_odd_grid_rejected(self):
        payload = config_payload(grid={"dim": 1, "N": 63})
        with pytest.raises(LabError, match=r"grid\.N: N must be even and >= 8"):
            ExperimentConfig.from_dict(payload)

    def test_lambda_ladder_must_increase(self):
        with pytest.raises(LabError, match="strictly increasing"):
            ExperimentConfig(
                experiment="zvonkin_relaxation",
                scalars=ScalarConfig(lambdas=(16.0, 4.0)),
            )

    @pytest.mark.parametrize(
        "experiment,section,fields,message",
        [
            ("commutator_study", "grid", {"N": 63},
             "grid.N: N must be even and >= 8 (aliasing hazard), got 63"),
            ("commutator_study", "scalars", {"epsilons": [0.8, 0.4]},
             "scalars.epsilons: need at least 3 epsilons, got 2"),
            ("commutator_study", "scalars", {"r": 0.5}, "scalars.r must be >= 1"),
            ("zvonkin_relaxation", "time", {"dt": 0},
             "time.T, time.dt: dt must be positive, got 0.0"),
            ("zvonkin_relaxation", "time", {"T": 0},
             "time.T, time.dt: T must be positive, got 0.0"),
            ("zvonkin_relaxation", "scalars", {"lambdas": [16.0, 4.0]},
             "scalars.lambdas: lambdas must be strictly increasing, got [16.0, 4.0]"),
            ("parabolic_decay", "scalars", {"lambdas": [4.0, 16.0]},
             "scalars.lambdas: lambdas must hold at least 3, got 2"),
            ("parabolic_decay", "scalars", {"q": 2.0},
             "scalars.r, scalars.p, scalars.q: "
             "(p, q) = (8.0, 2.0) violates 2/q + n/p < 1 in dim 1"),
            ("parabolic_decay", "scalars", {"r": 9.0},
             "scalars.r, scalars.p, scalars.q: spatial exponent r = 9.0 incompatible with p = 8.0"),
            ("zvonkin_relaxation", "scalars", {"r": 8.0, "p": 8.0},
             "scalars.q, scalars.p, scalars.r: gradient norm wants r < p, got r=8.0 and p=8.0"),
            ("commutator_study", "grid", {"N": 16},
             f"grid.N = 16 (default ladder): epsilon {TWO_PI / 16} below resolution 2h"),
            ("commutator_study", "scalars", {"epsilons": [3.0, 1.0, 0.5]},
             f"scalars.epsilons: epsilon 3.0 above box quarter-width {TWO_PI / 4}"),
            ("commutator_study", "scalars", {"epsilons": [1.0, 0.5, 0.01]},
             "scalars.epsilons: epsilon 0.01 below resolution 2h"),
        ],
        ids=[
            "N", "epsilons", "r", "dt", "T", "lambdas", "decay_lambdas", "decay_pq",
            "decay_r", "zvonkin_r", "ladder_N", "epsilon_above", "epsilon_below",
        ],
    )
    def test_study_field_exits_2_by_name(
        self, tmp_path, capsys, experiment, section, fields, message
    ):
        # each study's ladder, grid, horizon and exponents is a config field of
        # `renormlab run`, refused by name before the output directory is made
        payload = config_payload(experiment=experiment, output_dir=str(tmp_path / "out"))
        payload[section] = {**payload[section], **fields}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "LabError" in err and message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "experiment,section,fields",
        [
            ("commutator_study", "scalars", {"lambdas": [4.0, 16.0], "q": 2.0, "r": 9.0}),
            ("parabolic_decay", "grid", {"N": 16}),
            ("parabolic_decay", "scalars", {"epsilons": [3.0, 1.0, 0.01]}),
            ("zvonkin_relaxation", "scalars", {"lambdas": [4.0], "q": 2.0}),
            ("acceptance_all", "scalars", {"lambdas": [4.0], "r": 8.0, "p": 8.0}),
        ],
        ids=["commutator", "decay_N", "decay_epsilons", "zvonkin", "acceptance"],
    )
    def test_study_rules_bind_their_experiment_only(self, experiment, section, fields):
        payload = config_payload(experiment=experiment)
        payload[section] = {**payload[section], **fields}
        # a study's own rule does not bind another experiment's config
        assert ExperimentConfig.from_dict(payload).experiment == experiment

    @pytest.mark.parametrize(
        "experiment,section,fields,name,owner",
        [
            ("commutator_study", "grid", {"dim": 3}, "grid.dim", lambda: Grid(3, TWO_PI, 32)),
            ("commutator_study", "grid", {"N": 4}, "grid.N", lambda: Grid(1, TWO_PI, 4)),
            ("commutator_study", "time", {"T": 0.5, "dt": 0.3}, "time.T, time.dt",
             lambda: flow._step_count(0.5, 0.3, 0, 0)),
            ("commutator_study", "time", {"T": 1e308, "dt": 1e-300}, "time.T, time.dt",
             lambda: flow._step_count(1e308, 1e-300, 0, 0)),
            ("commutator_study", "time", {"dt": -0.1}, "time.T, time.dt",
             lambda: flow._step_count(0.25, -0.1, 0, 0)),
            ("parabolic_decay", "scalars", {"lambdas": [4.0, 16.0]}, "scalars.lambdas",
             lambda: parabolic.check_lambda_ladder([4.0, 16.0], 3)),
            ("parabolic_decay", "scalars", {"lambdas": [4.0, -1.0, 16.0]}, "scalars.lambdas",
             lambda: parabolic.check_lambda_ladder([4.0, -1.0, 16.0], 3)),
            ("parabolic_decay", "scalars", {"q": 2.0}, "scalars.r, scalars.p, scalars.q",
             lambda: parabolic.check_decay_regime(0, 2.0, 8.0, 2.0, 1)),
            ("parabolic_decay", "scalars", {"r": 9.0}, "scalars.r, scalars.p, scalars.q",
             lambda: parabolic.check_decay_regime(0, 9.0, 8.0, 4.0, 1)),
            ("zvonkin_relaxation", "scalars", {"lambdas": [16.0, 4.0]}, "scalars.lambdas",
             lambda: parabolic.check_lambda_ladder([16.0, 4.0], 1)),
            ("zvonkin_relaxation", "scalars", {"r": 8.0, "p": 8.0},
             "scalars.q, scalars.p, scalars.r",
             lambda: zvonkin._relaxation_exponents(4.0, 8.0, 8.0)),
            ("commutator_study", "scalars", {"epsilons": [0.8, 0.4]}, "scalars.epsilons",
             lambda: epsilon_ladder(Grid(1, TWO_PI, 32), [0.8, 0.4])),
            ("commutator_study", "scalars", {"epsilons": [0.4, 0.8, 0.3]}, "scalars.epsilons",
             lambda: epsilon_ladder(Grid(1, TWO_PI, 32), [0.4, 0.8, 0.3])),
            ("commutator_study", "scalars", {"epsilons": [3.0, 1.0, 0.5]}, "scalars.epsilons",
             lambda: epsilon_ladder(Grid(1, TWO_PI, 32), [3.0, 1.0, 0.5])),
            ("commutator_study", "grid", {"N": 16}, "grid.N = 16 (default ladder)",
             lambda: epsilon_ladder(
                 Grid(1, TWO_PI, 16), [TWO_PI / 4, TWO_PI / 8, TWO_PI / 16])),
        ],
        ids=[
            "dim", "N", "fractional_steps", "overflowing_steps", "negative_dt",
            "decay_ladder_short", "decay_ladder_negative", "decay_pq", "decay_r",
            "zvonkin_ladder", "zvonkin_r", "epsilons_short", "epsilons_order",
            "epsilon_above", "default_ladder",
        ],
    )
    def test_an_owned_rule_is_refused_in_its_owners_words(
        self, experiment, section, fields, name, owner
    ):
        # the run's own check, on the config's values, gives the one message;
        # the config check files it under the field's name
        with pytest.raises(ValueError) as own:
            owner()
        assert not isinstance(own.value, LabError)
        payload = config_payload(experiment=experiment)
        payload[section] = {**payload[section], **fields}
        with pytest.raises(LabError) as info:
            ExperimentConfig.from_dict(payload)
        assert f"\n  - {name}: {own.value}\n" in f"{info.value}\n"

    def test_construction_builds_no_kernel(self, monkeypatch):
        # the ladder is checked by the function mollifier itself calls, so a
        # config is checked without building any of the kernels its run builds
        def no_kernel(*args, **kwargs):
            raise AssertionError("a kernel was built")

        monkeypatch.setattr(lab, "mollifier", no_kernel)
        monkeypatch.setattr("renormlab.field.bump_values", no_kernel)
        for epsilons in ([], [1.2, 0.8, 0.4]):
            payload = config_payload(scalars={"epsilons": epsilons})
            assert ExperimentConfig.from_dict(payload).experiment == "commutator_study"

    def test_box_must_be_two_pi(self, tmp_path, capsys):
        # every preset and the default datum is 2*pi-periodic, so the box is
        # not a config field: an L key is refused as unknown, before any run
        assert "L" not in {f.name for f in dataclass_fields(GridConfig)}
        for L in (TWO_PI, 6, -1.0):
            payload = config_payload(output_dir=str(tmp_path / "out"))
            payload["grid"] = {**payload["grid"], "L": L}
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(payload))
            assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG_ERROR
            err = capsys.readouterr().err
            assert "unknown key grid.'L'" in err and err.count("\n  - ") == 1
            assert not (tmp_path / "out").exists()

    def test_horizon_must_be_step_multiple(self):
        step_count = r"time\.T, time\.dt: T/dt = .* is not an integer step count"
        with pytest.raises(LabError, match=step_count):
            ExperimentConfig(
                experiment="commutator_study", time=TimeConfig(T=0.5, dt=0.3)
            )

    def test_preset_dimension_cross_check(self):
        with pytest.raises(LabError, match="2-dimensional"):
            ExperimentConfig(
                experiment="flow_conservation",
                grid=GridConfig(dim=1),
                coefficients=CoefficientConfig(preset="divfree_2d"),
            )
        with pytest.raises(LabError, match="valid presets"):
            ExperimentConfig(
                experiment="commutator_study",
                coefficients=CoefficientConfig(preset="banded"),
            )

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_payload()))
        assert ExperimentConfig.from_json(path).grid.N == 32
        path.write_text("{not json")
        with pytest.raises(LabError, match="not valid JSON"):
            ExperimentConfig.from_json(path)
        with pytest.raises(LabError, match="cannot read"):
            ExperimentConfig.from_json(tmp_path / "absent.json")

    @pytest.mark.parametrize("experiment", sorted(lab._RUNNERS))
    def test_drift_file_without_noise_files_exits_2_by_name(self, tmp_path, capsys, experiment):
        drift_path = tmp_path / "b.fld"
        save_field(drift_path, presets.trig_flow_drift(Grid(dim=1, L=TWO_PI, N=32)))
        payload = config_payload(experiment=experiment, output_dir=str(tmp_path / "out"))
        payload["coefficients"] = {"preset": None, "drift_file": str(drift_path)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "coefficients.noise_files" in err and "Traceback" not in err
        assert err.count("\n  - ") == 1
        assert not (tmp_path / "out").exists()

    def test_missing_coefficient_files_reported(self, tmp_path):
        with pytest.raises(LabError, match="does not exist"):
            ExperimentConfig(
                experiment="commutator_study",
                coefficients=CoefficientConfig(
                    preset=None, drift_file=str(tmp_path / "b.fld")
                ),
            )


def small_config(experiment: str, tmp_path, **kwargs) -> ExperimentConfig:
    defaults = dict(
        experiment=experiment,
        grid=GridConfig(dim=1, N=32),
        time=TimeConfig(T=0.125, dt=0.0125),
        coefficients=CoefficientConfig(preset="trig_flow"),
        scalars=ScalarConfig(mc_members=2, r=2.0),
        output_dir=str(tmp_path / experiment),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


# The artifacts each experiment writes, as README's experiment table lists them.
ARTIFACTS = {
    "commutator_study": ["commutator_S.csv", "commutator_T.csv"],
    "parabolic_decay": ["decay_alpha0.csv", "decay_alpha1.csv"],
    "flow_conservation": ["flow_conservation.csv", "flow_final.fld", "flow_paths.flo"],
    "renorm_residual": ["renorm_ledger.csv", "renorm_refinement.csv"],
    "zvonkin_relaxation": ["zvonkin_relaxation.csv"],
}
# Every CSV artifact: its header, its row count under small_config and the
# leading cells of its first row (numbers compared after reading back with
# float).  acceptance_report.csv is write_report_csv on CANNED_REPORT.
CSV_ARTIFACTS = {
    "commutator_S.csv": (["epsilon", "error_Lr", "bound_ratio"], 3, [TWO_PI / 4]),
    "commutator_T.csv": (["epsilon", "error_Lr", "bound_ratio"], 3, [TWO_PI / 4]),
    "decay_alpha0.csv": (["lambda", "norm", "theory_delta", "fitted_slope"], 3, [4.0]),
    "decay_alpha1.csv": (["lambda", "norm", "theory_delta", "fitted_slope"], 3, [4.0]),
    "flow_conservation.csv": (
        ["member", "step", "time", "mass_gap", "lp_ratio"], 2 * 11, ["0", "0", 0.0],
    ),
    "renorm_ledger.csv": (["term_name", "value"], 2 + len(RENORMALIZED_TERMS), ["lhs_delta"]),
    "renorm_refinement.csv": (["dt", "h", "residual"], 2, [0.0125, TWO_PI / 32]),
    "zvonkin_relaxation.csv": (
        ["lambda", "bhat_err", "sigma_err", "grad_sigma_err", "div_err",
         "drift_residual", "divergence_residual"], 3, [4.0],
    ),
    "acceptance_report.csv": (
        ["name", "value", "relation", "threshold", "passed", "headroom", "seconds", "detail"], 2,
        ["alpha", 0.5, "<=", 1.0, "pass", 0.5, 0.0, ""],
    ),
}
CANNED_REPORT = RunReport(
    checks=[
        CheckResult("alpha", 0.5, 1.0, "<=", True),
        CheckResult("beta", 3.0, 2.0, "<=", False, "of interest"),
    ],
    environment={"renormlab": "0.1.0", "master_seed": "0"},
)


@pytest.fixture(scope="module")
def csv_artifacts(tmp_path_factory) -> dict[str, tuple[Path, list[list]]]:
    """Every CSV artifact by name, from one small run of each experiment, with
    the rows that ``_write_csv`` was handed for it."""
    root = tmp_path_factory.mktemp("artifacts")
    handed, write = {}, lab._write_csv

    def recording(path, columns, rows, *comments_and_version):
        rows = [list(row) for row in rows]
        handed[Path(path).name] = (Path(path), rows)
        return write(path, columns, rows, *comments_and_version)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lab, "_write_csv", recording)
        for experiment in ARTIFACTS:
            lab.run_experiment(small_config(experiment, root))
        lab.write_report_csv(CANNED_REPORT, root / "acceptance_report.csv")
    return handed


def csv_rows(path: Path) -> list[list[str]]:
    """The header and rows of a CSV artifact, below its comment lines."""
    lines = path.read_text().splitlines()
    return list(csv.reader(line for line in lines if not line.startswith("#")))


def test_every_csv_artifact_is_listed(csv_artifacts):
    assert sorted(csv_artifacts) == sorted(CSV_ARTIFACTS)


@pytest.mark.parametrize("name", sorted(CSV_ARTIFACTS))
def test_csv_artifact_format(csv_artifacts, name):
    columns, count, first = CSV_ARTIFACTS[name]
    path, handed = csv_artifacts[name]
    raw = path.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
    version = lab.REPORT_VERSION_LINE if name == "acceptance_report.csv" else lab.CSV_VERSION_LINE
    assert raw.decode().split("\n")[0] == version
    header, *rows = csv_rows(path)
    assert header == columns
    assert len(rows) == count == len(handed)
    for cell, want in zip(rows[0], first):
        assert cell == want if isinstance(want, str) else float(cell) == pytest.approx(want)
    if name != "acceptance_report.csv":
        assert all(math.isfinite(float(cell)) for cell in rows[0][len(first):])
    # every float cell reads back to the value it was written from, bit for bit
    floats = [
        (cell, value) for row, values in zip(rows, handed)
        for cell, value in zip(row, values, strict=True) if isinstance(value, float)
    ]
    assert floats and [float(c).hex() for c, _ in floats] == [v.hex() for _, v in floats]


def test_write_csv_cells(tmp_path):
    rows = [
        (0.1 + 0.2, 3, None, 'x, "y"'), (1.0 / 3.0, -2.5e-17, "", math.inf),
        (np.float64(0.1), np.int64(2), "", 1e22),
    ]
    path = lab._write_csv(tmp_path / "cells.csv", ["a", "b", "c", "d"], rows, [("k", "v=1")])
    assert path == tmp_path / "cells.csv"
    assert path.read_bytes() == (
        b"# renormlab v1\n# k=v=1\na,b,c,d\n"
        b'0.30000000000000004,3,,"x, ""y"""\n0.3333333333333333,-2.5e-17,,inf\n'
        b"0.1,2,,1e+22\n"
    )


def test_commutator_csv_records_the_fitted_rate(csv_artifacts):
    # each study's fitted rate is the comment line above its table, bit for bit
    grid = Grid(dim=1, L=TWO_PI, N=32)
    sigma = presets.trig_flow_noise(grid)[0]
    for tag in (commutator.TAG_T, commutator.TAG_S):
        path = csv_artifacts[f"commutator_{tag}.csv"][0]
        lines = path.read_text().splitlines()
        _, *rows = csv_rows(path)
        epsilons = [float(row[0]) for row in rows]
        study = commutator.convergence_study(
            tag, sigma, presets.default_datum(grid), epsilons, 2.0
        )
        assert lines[1] == f"# fitted_rate={study.fitted_rate!r}"
        assert float(lines[1].partition("=")[2]).hex() == study.fitted_rate.hex()


def test_zvonkin_csv_records_both_relaxation_residuals(csv_artifacts):
    # the last two columns are relaxation_residuals of each lambda's solve, bit for bit
    grid = Grid(dim=1, L=TWO_PI, N=32)
    steps = 10  # small_config: T 0.125, dt 0.0125
    b = presets.sample_constant_in_time(presets.trig_flow_drift(grid), 0.125, steps)
    _, *rows = csv_rows(csv_artifacts["zvonkin_relaxation.csv"][0])
    for row in rows:
        rel = relaxation_residuals(mild_solve(b, float(row[0]), steps), b)
        assert [float(cell).hex() for cell in row[-2:]] == [
            rel.drift_residual.hex(), rel.divergence_residual.hex(),
        ]


def test_renorm_ledger_rows_close(csv_artifacts):
    _, *rows = csv_rows(csv_artifacts["renorm_ledger.csv"][0])
    assert [name for name, _ in rows] == ["lhs_delta", *RENORMALIZED_TERMS, "residual"]
    values = [float(value) for _, value in rows]
    assert values[-1] == pytest.approx(values[0] - sum(values[1:-1]), rel=1e-9, abs=1e-12)


class TestRunExperiment:
    def test_commutator_csv_one_row_per_epsilon(self, tmp_path):
        cfg = small_config("commutator_study", tmp_path)
        files = lab.run_experiment(cfg)
        assert sorted(f.name for f in files) == ["commutator_S.csv", "commutator_T.csv"]
        for path in files:
            lines = path.read_text().splitlines()
            assert lines[0] == lab.CSV_VERSION_LINE
            assert lines[1].startswith("# fitted_rate=")
            assert lines[2].startswith("epsilon,")
            assert len(lines) == 3 + 3  # version, rate, header, one row per epsilon

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_a = small_config("commutator_study", tmp_path, output_dir=str(tmp_path / "a"))
        cfg_b = small_config("commutator_study", tmp_path, output_dir=str(tmp_path / "b"))
        files_a = lab.run_experiment(cfg_a)
        files_b = lab.run_experiment(cfg_b)
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()

    def test_zvonkin_rows_follow_lambda_ladder(self, tmp_path):
        cfg = small_config(
            "zvonkin_relaxation", tmp_path, scalars=ScalarConfig(lambdas=(4.0, 16.0))
        )
        (path,) = lab.run_experiment(cfg)
        lines = path.read_text().splitlines()
        assert lines[0] == lab.CSV_VERSION_LINE
        assert lines[1].split(",") == [
            "lambda", "bhat_err", "sigma_err", "grad_sigma_err", "div_err",
            "drift_residual", "divergence_residual",
        ]
        assert [row.split(",")[0] for row in lines[2:]] == ["4.0", "16.0"]

    def test_flow_conservation_artifacts_load(self, tmp_path):
        cfg = small_config(
            "flow_conservation",
            tmp_path,
            grid=GridConfig(dim=2, N=16),
            time=TimeConfig(T=0.1, dt=0.01),
            coefficients=CoefficientConfig(preset="divfree_2d"),
            scalars=ScalarConfig(mc_members=2, p=2.0),
        )
        csv_path, field_path, ens_path = lab.run_experiment(cfg)
        rows = csv_path.read_text().splitlines()
        assert rows[0] == lab.CSV_VERSION_LINE
        gaps = [abs(float(r.split(",")[3])) for r in rows[2:]]
        assert max(gaps) < 1e-3
        final = load_field(field_path)
        assert final.grid.N == 16
        ens = load_ensemble(ens_path)
        assert ens.path.k_count == 2

    def test_flow_conservation_keeps_only_the_saved_ensemble(self, tmp_path, monkeypatch):
        # 40 members of 10 steps on 64 nodes: two chunks of flows (32 + 8)
        chunks, alive_at_save = [], []
        march, save_ensemble = flow._march, lab.save_ensemble

        def marching(grid, splines, groups, path, chunk, targets, *rest):
            chunks.append((len(chunk), weakref.ref(targets[0].base)))
            return march(grid, splines, groups, path, chunk, targets, *rest)

        def saving(path_name, ens):
            gc.collect()
            alive_at_save.append(sum(ref() is not None for _, ref in chunks))
            save_ensemble(path_name, ens)

        monkeypatch.setattr(flow, "_march", marching)
        monkeypatch.setattr(lab, "save_ensemble", saving)
        cfg = small_config(
            "flow_conservation",
            tmp_path,
            grid=GridConfig(dim=1, N=64),
            time=TimeConfig(T=0.1, dt=0.01),
            scalars=ScalarConfig(mc_members=40, p=2.0),
        )
        csv_path, _, ens_path = lab.run_experiment(cfg)
        assert [members for members, _ in chunks] == [32, 8] and alive_at_save == [0]
        members = [int(row.split(",")[0]) for row in csv_path.read_text().splitlines()[2:]]
        assert members == [m for m in range(40) for _ in range(11)]
        prob = lab._config_problem(cfg)
        last = flow.simulate_flow(
            prob.b, prob.sigmas, flow.SdeConfig(dt=0.01),
            sample_brownian(0.1, 0.01, 1, lab._STREAM_DIVFREE + 39),
        )
        assert np.array_equal(load_ensemble(ens_path).paths, last.paths)

    def test_renorm_refinement_schema(self, tmp_path):
        cfg = small_config(
            "renorm_residual",
            tmp_path,
            grid=GridConfig(dim=1, N=32),
            time=TimeConfig(T=0.125, dt=0.005),
            coefficients=CoefficientConfig(preset="drift_dominated"),
        )
        ledger_path, refine_path = lab.run_experiment(cfg)
        assert ledger_path.read_text().splitlines()[0] == lab.CSV_VERSION_LINE
        lines = refine_path.read_text().splitlines()
        assert lines[1] == "dt,h,residual"
        base, fine = lines[2].split(","), lines[3].split(",")
        assert float(base[0]) == pytest.approx(4.0 * float(fine[0]))
        assert float(base[1]) == pytest.approx(2.0 * float(fine[1]))
        assert len(base) == len(fine) == 3 and math.isfinite(float(base[2]))

    def test_field_file_coefficients(self, tmp_path):
        grid = Grid(dim=1, L=TWO_PI, N=32)
        drift_path = tmp_path / "b.fld"
        noise_path = tmp_path / "s.fld"
        save_field(drift_path, presets.trig_flow_drift(grid))
        save_field(noise_path, presets.trig_flow_noise(grid)[0])
        cfg = small_config(
            "commutator_study",
            tmp_path,
            coefficients=CoefficientConfig(
                preset=None,
                drift_file=str(drift_path),
                noise_files=(str(noise_path),),
            ),
        )
        files = lab.run_experiment(cfg)
        assert len(files) == 2

    def test_field_file_renorm_refines_in_dt_only(self, tmp_path):
        # A .fld pair fixes N, so the refined ledger keeps the files' grid.
        grid = Grid(dim=1, L=TWO_PI, N=32)
        drift_path = tmp_path / "b.fld"
        noise_path = tmp_path / "s.fld"
        save_field(drift_path, presets.drift_dominated_drift(grid))
        save_field(noise_path, presets.drift_dominated_noise(grid)[0])
        cfg = small_config(
            "renorm_residual",
            tmp_path,
            time=TimeConfig(T=0.125, dt=0.005),
            coefficients=CoefficientConfig(
                preset=None,
                drift_file=str(drift_path),
                noise_files=(str(noise_path),),
            ),
        )
        ledger_path, refine_path = lab.run_experiment(cfg)
        assert ledger_path.is_file() and refine_path.is_file()
        assert ledger_path.read_text().splitlines()[0] == lab.CSV_VERSION_LINE
        lines = refine_path.read_text().splitlines()
        base, fine = lines[2].split(","), lines[3].split(",")
        assert base[1] == fine[1]
        assert float(base[0]) == pytest.approx(4.0 * float(fine[0]))

    def test_field_file_grid_mismatch(self, tmp_path):
        wrong = Grid(dim=1, L=TWO_PI, N=16)
        drift_path = tmp_path / "b.fld"
        save_field(drift_path, presets.trig_flow_drift(wrong))
        cfg = small_config(
            "commutator_study",
            tmp_path,
            coefficients=CoefficientConfig(
                preset=None, drift_file=str(drift_path), noise_files=(str(drift_path),)
            ),
        )
        with pytest.raises(LabError, match="different grid"):
            lab.run_experiment(cfg)

    def test_acceptance_all_is_refused_naming_accept(self, tmp_path, monkeypatch):
        # the suite and its report belong to `renormlab accept`
        monkeypatch.setattr(lab, "acceptance_suite", None)
        cfg = small_config("acceptance_all", tmp_path)
        with pytest.raises(LabError, match="renormlab accept"):
            lab.run_experiment(cfg)
        assert not (tmp_path / "acceptance_all").exists()


class TestPresetTable:
    @pytest.mark.parametrize("tag", presets.PRESET_TAGS)
    def test_every_tag_builds_at_its_dimension(self, tag):
        preset = presets.PRESETS[tag]
        for dim in (1, 2) if preset.dim is None else (preset.dim,):
            source = preset if preset.dim is not None else replace(preset, dim=dim)
            prob = lab._problem(source, 16, 0.1, 0.025)
            assert prob.grid.dim == dim and prob.grid.N == 16
            assert prob.steps == 4 and prob.dt == 0.025
            assert prob.b.grid == prob.grid and prob.b.slices[0].values.shape[0] == dim
            assert len(prob.sigmas) >= 1
            assert all(s.grid == prob.grid for s in prob.sigmas)
            assert prob.f0.grid == prob.grid and prob.phi.grid == prob.grid

    @pytest.mark.parametrize("tag", presets.PRESET_TAGS)
    def test_coefficients_hold_one_slice_object(self, tag):
        source = replace(presets.PRESETS[tag], dim=presets.PRESETS[tag].dim or 1)
        prob = lab._problem(source, 16, 0.1, 0.025)
        for c in (prob.b, *prob.sigmas):
            slices = c.slices
            assert len(c.values) == 1 and len(slices) == prob.steps + 1
            assert c.index.tolist() == [0] * (prob.steps + 1)
            assert all(s is slices[0] for s in slices)
        path = sample_brownian(0.1, 0.025, len(prob.sigmas), 7)
        row_sets, group_of_step = flow._slice_groups(prob.b, prob.sigmas, path)
        assert len(row_sets) == 1 and not group_of_step.any()

    @pytest.mark.parametrize(
        "tag", [t for t in presets.PRESET_TAGS if presets.PRESETS[t].dim is not None]
    )
    def test_config_dimension_must_match_table(self, tag):
        want = presets.PRESETS[tag].dim
        with pytest.raises(LabError, match=f"{want}-dimensional, grid.dim is {3 - want}"):
            ExperimentConfig(
                experiment="commutator_study",
                grid=GridConfig(dim=3 - want),
                coefficients=CoefficientConfig(preset=tag),
            )

    @pytest.mark.parametrize(
        "T, steps, message",
        [
            # numpy's "'float' object cannot be interpreted as an integer"
            (0.5, 2.5, "steps must be an integer >= 1, got 2.5"),
            (0.5, 0, "steps must be an integer >= 1, got 0"),
            (0.5, True, "steps must be an integer >= 1, got True"),
            # "first time must be 0, got nan"
            (math.nan, 4, "T must be finite, got nan"),
            (math.inf, 4, "T must be finite, got inf"),
            (-0.5, 4, "T must be positive, got -0.5"),
        ],
        ids=["float_steps", "no_steps", "bool_steps", "nan_T", "inf_T", "negative_T"],
    )
    def test_sampling_in_time_refuses_its_arguments_by_name(self, T, steps, message):
        drift = presets.constant_drift(Grid(dim=1, L=TWO_PI, N=16))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            presets.sample_constant_in_time(drift, T, steps)


def test_cancellation_check_mollifies_once(monkeypatch):
    # R1 and R2, each from its definition and rebuilt at both signs, read one
    # mollification; the rows are those of the suite
    calls = []
    kernel = commutator.mollifier

    def counting(grid, epsilon):
        calls.append(epsilon)
        return kernel(grid, epsilon)

    monkeypatch.setattr(commutator, "mollifier", counting)
    monkeypatch.setattr(lab, "mollifier", counting)
    rows = lab._check_cancellation(lab.Run(ExperimentConfig(experiment="acceptance_all")))
    assert [row.name for row in rows if row.passed] == ["cancellation_R1", "cancellation_R2"]
    assert calls == [TWO_PI / 8.0]


class TestReports:
    def test_check_result_lines(self):
        ok = CheckResult("alpha", 0.5, 1.0, "<=", True, "fine")
        bad = CheckResult("beta", 2.0, 1.0, "<=", False)
        assert ok.line().startswith("PASS alpha: 0.5 <= 1")
        assert "[fine]" in ok.line()
        assert bad.line().startswith("FAIL beta")

    def test_result_relations(self):
        assert lab._result("x", 1.0, 2.0, "<=").passed
        assert not lab._result("x", 2.0, 2.0, "<").passed
        assert lab._result("x", 2.0, 2.0, ">=").passed

    @pytest.mark.parametrize("relation,value,headroom", [
        ("<=", 0.5, 1.5), ("<=", 3.0, -1.0), ("<", 2.0, 0.0), ("<", 1.75, 0.25),
        (">=", 2.5, 0.5), (">=", 0.5, -1.5),
    ])
    def test_headroom_is_the_signed_distance_to_the_gate(self, relation, value, headroom):
        # positive on the passing side, in the gate's units
        row = lab._result("x", value, 2.0, relation)
        assert row.headroom == headroom
        assert (row.headroom > 0) <= row.passed

    def test_seconds_take_no_part_in_row_equality(self):
        row = lab._result("x", 1.0, 2.0, "<=")
        assert row.seconds == 0.0
        assert replace(row, seconds=4.5) == row and replace(row, value=1.5) != row

    def test_suite_times_each_check_group(self, monkeypatch):
        clock = [10.0]  # each stand-in check advances the clock by its own time

        def check(seconds, *rows):
            def run_check(run):
                clock[0] += seconds
                return [lab._result(*row) for row in rows]
            return run_check

        monkeypatch.setattr(lab.time, "perf_counter", lambda: clock[0])
        monkeypatch.setattr(lab, "_SUITE", (
            check(1.5, ("a", 0.5, 1.0, "<="), ("b", 3.0, 1.0, ">=")),
            check(2.5, ("c", 2.0, 1.0, "<=")),
        ))
        report = lab.acceptance_suite(ExperimentConfig(experiment="acceptance_all"))
        assert [(c.name, c.seconds) for c in report.checks] == [
            ("a", 1.5), ("b", 1.5), ("c", 2.5)
        ]
        assert [c.headroom for c in report.checks] == [0.5, 2.0, -1.0]

    def test_report_csv_round_trip(self, tmp_path):
        assert not CANNED_REPORT.passed
        path = tmp_path / "report.csv"
        lab.write_report_csv(CANNED_REPORT, path)
        lines = path.read_text().splitlines()
        assert lines[0] == lab.REPORT_VERSION_LINE == "# renormlab v2"
        assert "# renormlab=0.1.0" in lines
        assert lines[-1] == "beta,3.0,<=,2.0,fail,-1.0,0.0,of interest"

    def test_flip_refuses_an_unknown_term(self):
        terms = {name: 0.25 for name in RENORMALIZED_TERMS}
        ledger = WeakFormLedger.from_terms(terms, 3.0)
        ledgers = {"divfree": (ledger, ledger), "smooth": (ledger, ledger)}
        report = RunReport(checks=lab._renorm_rows(ledgers), environment={})
        flipped = report.flipped("g_div_b").checks
        assert flipped[0].value == abs(ledger.flipped("g_div_b").residual) == 1.5
        with pytest.raises(WeakFormError, match="cannot flip unknown term 'g_div_bb'"):
            report.flipped("g_div_bb")

    def test_flip_keeps_seconds_and_regates_headroom(self):
        terms = {name: 0.25 for name in RENORMALIZED_TERMS}
        ledger = WeakFormLedger.from_terms(terms, 3.0)
        ledgers = {"divfree": (ledger, ledger), "smooth": (ledger, ledger)}
        rows = [lab._result("alpha", 0.5, 1.0, "<=")] + lab._renorm_rows(ledgers)
        report = RunReport(
            checks=[replace(row, seconds=7.0 + i) for i, row in enumerate(rows)], environment={}
        )
        flipped = report.flipped("g_div_b").checks
        assert [c.seconds for c in flipped] == [7.0 + i for i in range(len(rows))]
        negated = {key: (ledger.flipped("g_div_b"),) * 2 for key in ledgers}
        regated = [row.headroom for row in lab._renorm_rows(negated)]
        assert [c.headroom for c in flipped] == [0.5] + regated
        assert flipped[1].headroom == 2e-2 - 1.5 != report.checks[1].headroom

    def test_flip_needs_ledgers(self):
        report = RunReport(checks=[CheckResult("alpha", 0.5, 1.0, "<=", True)], environment={})
        with pytest.raises(LabError, match="no renormalized ledgers"):
            report.flipped("g_div_b")

    def test_environment_stamp_fields(self):
        cfg = ExperimentConfig(experiment="acceptance_all")
        stamp = lab._environment_stamp(cfg)
        # every check builds its own grids, and every estimate runs in one
        # thread: the stamp names no config grid and no worker count
        assert list(stamp) == ["renormlab", "python", "numpy", "scipy", "master_seed"]

    @given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=2, max_size=8))
    def test_adjacent_ratio_flags_strict_decrease(self, values):
        strictly_decreasing = all(b < a for a, b in zip(values, values[1:]))
        assert (lab._adjacent_ratio(values) < 1.0) == strictly_decreasing


SCALAR_FOR_LIST = [
    ("coefficients", "noise_files", "a.fld"),
    ("scalars", "lambdas", 4),
    ("scalars", "epsilons", 0.5),
]


class TestListFields:
    """A scalar where a JSON list belongs is refused by name, not iterated."""

    @pytest.mark.parametrize("section,key,value", SCALAR_FOR_LIST)
    def test_from_dict_names_the_field(self, section, key, value):
        payload = config_payload()
        payload[section] = {**payload[section], key: value}
        with pytest.raises(LabError, match=rf"{section}\.{key} must be a list") as err:
            ExperimentConfig.from_dict(payload)
        assert "does not exist" not in str(err.value)

    @pytest.mark.parametrize("section,key,value", SCALAR_FOR_LIST)
    def test_direct_construction_names_the_field(self, section, key, value):
        sub_cls = {"coefficients": CoefficientConfig, "scalars": ScalarConfig}[section]
        with pytest.raises(LabError, match=rf"{section}\.{key} must be a list") as err:
            ExperimentConfig(experiment="commutator_study", **{section: sub_cls(**{key: value})})
        assert "does not exist" not in str(err.value)

    def test_from_dict_makes_tuples_of_exactly_the_tuple_fields(self):
        # every field of every section given a JSON list: the fields annotated
        # tuple[...] hold a tuple, every other keeps the list for the type check
        sections = {"grid": GridConfig, "time": TimeConfig,
                    "coefficients": CoefficientConfig, "scalars": ScalarConfig}
        tuples = set()
        for section, sub_cls in sections.items():
            names = [f.name for f in dataclass_fields(sub_cls)]
            built = lab._sub_config(section, sub_cls, {name: [1.0] for name in names})
            for name in names:
                value = getattr(built, name)
                assert value in ([1.0], (1.0,)) and type(value) in (list, tuple)
                if isinstance(value, tuple):
                    tuples.add(f"{section}.{name}")
        assert tuples == {"coefficients.noise_files", "scalars.lambdas", "scalars.epsilons"}
        cfg = ExperimentConfig.from_dict(config_payload(
            coefficients={"preset": "trig_flow", "noise_files": []},
            scalars={"lambdas": [4, 16, 64], "epsilons": [1.5, 1.0, 0.5]},
        ))
        assert (cfg.coefficients.noise_files, cfg.scalars.lambdas, cfg.scalars.epsilons) == (
            (), (4, 16, 64), (1.5, 1.0, 0.5)  # a list equals no tuple
        )
        with pytest.raises(LabError, match=r"scalars\.p must be a number, got \[8\.0\]"):
            ExperimentConfig.from_dict(config_payload(scalars={"p": [8.0]}))

    def test_direct_construction_takes_lists_and_tuples(self):
        for lambdas in ([4.0, 16.0], (4.0, 16.0)):
            cfg = ExperimentConfig(
                experiment="commutator_study", scalars=ScalarConfig(lambdas=lambdas)
            )
            assert list(cfg.scalars.lambdas) == [4.0, 16.0]

    @pytest.mark.parametrize("section,key,value", SCALAR_FOR_LIST)
    def test_run_exits_2(self, tmp_path, capsys, section, key, value):
        payload = config_payload(output_dir=str(tmp_path / "out"))
        payload[section] = {**payload[section], key: value}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "LabError" in err and f"{section}.{key} must be a list" in err
        assert "Traceback" not in err


# (section or None for a top-level key, fields, the name the message gives)
WRONG_TYPE_PROBES = [
    ("time", {"T": "abc"}, "time.T must be a number"),
    ("time", {"T": 1e308, "dt": 1e-300}, "time.T, time.dt: T/dt = inf is not a finite step count"),
    ("scalars", {"lambdas": [4, "x"]}, "scalars.lambdas must be a list of numbers"),
    ("grid", {"dim": True}, "grid.dim must be an integer"),
    (None, {"output_dir": 5}, "output_dir must be a string"),
    # an integer no float can hold
    ("time", {"T": 10**400}, "time.T must be a number"),
    ("scalars", {"lambdas": [4, 10**400]}, "scalars.lambdas must be a list of numbers"),
    # json reads NaN and Infinity; a run on them failed without naming the key
    ("scalars", {"lambdas": [4, math.nan, 64]}, "scalars.lambdas must be a list of numbers"),
    ("scalars", {"lambdas": [4, 16, math.inf]}, "scalars.lambdas must be a list of numbers"),
    ("scalars", {"epsilons": [1, math.nan, 0.2]}, "scalars.epsilons must be a list of numbers"),
    ("scalars", {"p": math.inf}, "scalars.p must be a number"),
]


class TestSeedRange:
    """rng.stream keeps the low 64 bits of a stream id, so a master_seed whose
    stream ids (seed + offset + member index) reach 2**64 would rerun a
    smaller seed's draws; such a seed is refused by name."""

    @pytest.mark.parametrize("seed", [2**64, 2**64 - lab._LAST_STREAM, 2**70])
    def test_run_exits_2(self, tmp_path, capsys, seed):
        payload = config_payload(output_dir=str(tmp_path / "out"))
        payload["scalars"] = {**payload["scalars"], "master_seed": seed}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert f"scalars.master_seed must be an integer in [0, 2**64 - 2255), got {seed}" in err
        assert err.count("\n  - ") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_largest_seed_reaches_the_last_stream_id(self):
        top = 2**64 - lab._LAST_STREAM - 1
        cfg = ExperimentConfig.from_dict(config_payload(scalars={"master_seed": top}))
        assert cfg.scalars.master_seed + lab._LAST_STREAM == 2**64 - 1

    def test_bound_covers_every_offset_and_member(self):
        offsets = [v for k, v in vars(lab).items() if k.startswith("_STREAM_")]
        assert len(offsets) == 7
        assert lab._LAST_STREAM == max(offsets) + 255 == 2255


class TestTypeFirstValidation:
    """A field of the wrong type is refused by name; its value checks are skipped."""

    @pytest.mark.parametrize("section,fields,message", WRONG_TYPE_PROBES)
    def test_run_exits_2(self, tmp_path, capsys, section, fields, message):
        payload = config_payload(output_dir=str(tmp_path / "out"))
        if section is None:
            payload.update(fields)
        else:
            payload[section] = {**payload[section], **fields}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "LabError" in err and message in err
        assert err.count("\n  - ") == 1
        assert "Traceback" not in err

    def test_bool_is_not_a_number(self):
        with pytest.raises(LabError) as err:
            ExperimentConfig(
                experiment="commutator_study",
                grid=GridConfig(N=True),
                scalars=ScalarConfig(master_seed=False, p=True, lambdas=(True, 4.0)),
            )
        message = str(err.value)
        for name in ("grid.N", "scalars.master_seed", "scalars.p", "scalars.lambdas"):
            assert f"{name} must be " in message
        assert message.count("\n  - ") == 4

    def test_ints_are_numbers(self):
        cfg = ExperimentConfig(experiment="commutator_study", time=TimeConfig(T=1, dt=0.5))
        assert cfg.time.T == 1 and cfg.time.dt == 0.5

    def test_a_section_of_the_wrong_type(self):
        with pytest.raises(LabError, match="grid must be an object, got 5"):
            ExperimentConfig(experiment="commutator_study", grid=5)


def saved_artifact(tmp_path, suffix):
    """A small saved .fld or .flo: its path, its header and its payload bytes."""
    grid = Grid(dim=1, L=TWO_PI, N=16)
    target = tmp_path / f"edited{suffix}"
    if suffix == ".fld":
        save_field(target, presets.default_datum(grid))
    else:
        path = sample_brownian(0.02, 0.01, 1, 3)
        flow.save_ensemble(
            target, flow.FlowEnsemble(seeds_grid=grid, path=path, paths=np.zeros((3, 1, 16)))
        )
    head, payload = target.read_bytes().split(b"\n", 1)
    return target, json.loads(head), payload


# hand-edited .fld header keys that loaded, or failed without naming the key
FIELD_HEADER_PROBES = [
    ("N", "8", "header N must be an integer, got '8'"),
    ("N", 8.5, "header N must be an integer, got 8.5"),
    ("N", True, "header N must be an integer, got True"),
    ("L", "6.28", "header L must be a finite positive number, got '6.28'"),
    ("L", float("inf"), "header L must be a finite positive number, got inf"),
    ("dim", 1.0, "header dim must be an integer, got 1.0"),
    ("components", 1.0, "header components must be an integer, got 1.0"),
    ("components", 2, "header components must be dim, or 1 for a static scalar"),
    ("times", "abc", "header times must be a list of numbers, got 'abc'"),
    ("times", [0.0], "need at least two time samples"),
]


class TestCli:
    def test_no_command_is_config_error(self, capsys):
        assert cli.main([]) == cli.EXIT_CONFIG_ERROR

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"experiment": "frobnicate"}))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "LabError" in err and "valid tags" in err

    def test_odd_grid_exits_2(self, tmp_path, capsys):
        path = tmp_path / "odd.json"
        payload = config_payload(grid={"dim": 1, "N": 63})
        path.write_text(json.dumps(payload))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "grid.N: N must be even" in err and "63" in err

    def test_overflowing_drift_exits_2_naming_the_step(self, tmp_path, capsys):
        # a .fld drift near 1e300 overflows the mild march of parabolic_decay
        grid = Grid(dim=1, L=TWO_PI, N=64)
        huge = presets.trig_flow_drift(grid).values * 1e300
        save_field(tmp_path / "b.fld", GridVector(grid, huge))
        save_field(tmp_path / "s.fld", presets.trig_flow_noise(grid)[0])
        payload = json.loads((ROOT / "configs" / "parabolic_decay.json").read_text())
        payload["coefficients"] = {
            "drift_file": str(tmp_path / "b.fld"), "noise_files": [str(tmp_path / "s.fld")]
        }
        payload["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(payload))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG_ERROR
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert "ParabolicError" in err and "overflows at step 2 of 256" in err

    def test_step_budget_exits_2_before_any_flow(self, tmp_path, capsys, monkeypatch):
        # 500 steps on 512^2 nodes would hold 2.1 GB of positions per member
        def no_flow(*args, **kwargs):
            raise AssertionError("a flow started")

        monkeypatch.setattr(lab, "simulate_flows", no_flow)
        payload = json.loads((ROOT / "configs" / "flow_conservation.json").read_text())
        payload["grid"]["N"] = 512
        payload["time"] = {"T": 0.25, "dt": 0.0005}
        payload["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "big.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        message = "time steps x grid nodes = 500 x 262144 = 131072000 exceeds the budget of"
        assert "LabError" in err and f"{message} 16777216" in err
        assert err.count("\n  - ") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_step_budget_admits_its_bound_and_every_shipped_config(self):
        assert lab._STEP_BUDGET == 2**24
        # exactly at the budget: 256 steps on 256^2 nodes
        divfree = {"preset": "divfree_2d"}
        at = config_payload(
            grid={"dim": 2, "N": 256}, time={"T": 0.256, "dt": 0.001}, coefficients=divfree
        )
        ExperimentConfig.from_dict(at)
        over = {**at, "time": {"T": 0.257, "dt": 0.001}}
        with pytest.raises(LabError, match=r"257 x 65536 = 16842752 exceeds") as err:
            ExperimentConfig.from_dict(over)
        assert str(err.value).count("\n  - ") == 1
        for path in sorted((ROOT / "configs").glob("*.json")):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize(
        "grid,time,preset,largest",
        [
            # base level 512 x 32768 = 2**24, the budget; refined (2N, dt/4) 8x it
            ({"dim": 1, "N": 512}, {"T": 1.0, "dt": 2**-15}, "drift_dominated",
             "131072 x 1024 = 134217728"),
            # dt-only refinement in 2-d: 4x the base level
            ({"dim": 2, "N": 256}, {"T": 0.065, "dt": 0.001}, "divfree_2d",
             "260 x 65536 = 17039360"),
        ],
        ids=["1d_joint", "2d_dt_only"],
    )
    def test_step_budget_counts_the_refined_level(self, grid, time, preset, largest):
        # construction only: renorm_residual also runs its refined level, which
        # is refused at construction although the config's own level fits
        payload = config_payload(
            experiment="renorm_residual", grid=grid, time=time, coefficients={"preset": preset}
        )
        with pytest.raises(LabError, match=f"{largest} exceeds the budget of 16777216") as err:
            ExperimentConfig.from_dict(payload)
        assert str(err.value).count("\n  - ") == 1
        # the same grid and time on an experiment without a refined level fit
        ExperimentConfig.from_dict({**payload, "experiment": "flow_conservation"})

    @pytest.mark.parametrize("experiment", lab.EXPERIMENT_TAGS)
    def test_step_budget_binds_the_runs_that_build_grid_and_time(self, experiment):
        # 100 steps on 512^2 nodes; acceptance_all's suite runs fixed sizes
        # and builds neither, so only it is accepted
        payload = config_payload(
            experiment=experiment, grid={"dim": 2, "N": 512}, time={"T": 0.1, "dt": 0.001},
            coefficients={"preset": "divfree_2d"},
        )
        if experiment == "acceptance_all":
            assert ExperimentConfig.from_dict(payload).grid.N == 512
            return
        steps = 400 if experiment == "renorm_residual" else 100  # its refined level, dt/4
        with pytest.raises(LabError, match=f"{steps} x 262144 = {steps * 262144} exceeds"):
            ExperimentConfig.from_dict(payload)

    def test_run_prints_artifacts(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        payload = config_payload(output_dir=str(tmp_path / "out"))
        path.write_text(json.dumps(payload))
        assert cli.main(["run", str(path)]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "commutator_T.csv" in out and "commutator_S.csv" in out

    def test_inspect_field_and_ensemble(self, tmp_path, capsys):
        grid = Grid(dim=1, L=TWO_PI, N=16)
        field_path = tmp_path / "datum.fld"
        save_field(field_path, presets.default_datum(grid))
        assert cli.main(["inspect", str(field_path)]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "field (scalar)" in out and "N = 16" in out

    def test_inspect_time_indexed_field_prints_slice_0(self, tmp_path, capsys):
        grid = Grid(dim=1, L=TWO_PI, N=16)
        rows = np.stack([np.full((1, 16), -2.0), np.linspace(1.0, 3.0, 16)[None]])
        field_path = tmp_path / "b.fld"
        save_field(field_path, TimeGridVector(grid, [0.0, 0.5, 1.0], rows, [1, 0, 1]))
        assert cli.main(["inspect", str(field_path)]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "field (time-indexed vector)" in out and "times = 3 slices on [0, 1]" in out
        assert "values: min 1  max 3  mean 2" in out

    def test_inspect_rejects_other_files(self, tmp_path, capsys):
        stray = tmp_path / "notes.txt"
        stray.write_text("hello")
        assert cli.main(["inspect", str(stray)]) == cli.EXIT_CONFIG_ERROR
        assert cli.main(["inspect", str(tmp_path / "ghost.fld")]) == cli.EXIT_CONFIG_ERROR

    def test_inspect_reports_truncated_field(self, tmp_path, capsys):
        field_path = tmp_path / "cut.fld"
        save_field(field_path, presets.default_datum(Grid(dim=1, L=TWO_PI, N=16)))
        field_path.write_bytes(field_path.read_bytes()[:-8])
        assert cli.main(["inspect", str(field_path)]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "FieldError" in err and "120 bytes" in err and "16 float64 values" in err

    def test_inspect_reports_field_header_without_key(self, tmp_path, capsys):
        field_path = tmp_path / "bare.fld"
        field_path.write_bytes(b'{"dim": 1, "L": 6.28, "N": 16}\n' + bytes(128))
        assert cli.main(["inspect", str(field_path)]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "FieldError" in err and "header lacks times, components" in err
        field_path.write_bytes(b"[1, 16]\n" + bytes(128))
        assert cli.main(["inspect", str(field_path)]) == cli.EXIT_CONFIG_ERROR
        assert "header is not a JSON object" in capsys.readouterr().err

    def test_inspect_reports_flow_header_without_key(self, tmp_path, capsys):
        ensemble_path = tmp_path / "bare.flo"
        header = {"format": "flo", "dim": 1, "L": 6.28, "N": 16, "T": 0.5, "dt": 0.25}
        ensemble_path.write_bytes(json.dumps(header).encode("ascii") + b"\n")
        assert cli.main(["inspect", str(ensemble_path)]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "FlowError" in err
        assert "header lacks k_count, seed" in err
        ensemble_path.write_bytes(b"[1, 16]\n")
        assert cli.main(["inspect", str(ensemble_path)]) == cli.EXIT_CONFIG_ERROR
        assert "not a flow ensemble file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("k_count", "1", "header k_count must be"),
            ("T", "0.01", "header T must be"),
            ("dt", 0, "header dt must be"),
            ("T", 1e300, "payload ends before the blocks the header implies"),
            ("seed", 5.5, "header seed must be an integer, got 5.5"),
            ("seed", "7", "header seed must be an integer, got '7'"),
            ("N", 8.0, "header N must be an integer, got 8.0"),
            ("dim", True, "header dim must be an integer, got True"),
            ("dim", 3, "header dim must be 1 or 2, got 3"),
            ("dt", -1e-3, "header dt must be a finite positive number, got -0.001"),
            ("k_count", -1, "header k_count must be a non-negative integer, got -1"),
        ],
    )
    def test_inspect_reports_bad_flow_header_value(self, tmp_path, capsys, key, value, message):
        ensemble_path, header, payload = saved_artifact(tmp_path, ".flo")
        header[key] = value
        ensemble_path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload)
        assert cli.main(["inspect", str(ensemble_path)]) == cli.EXIT_CONFIG_ERROR
        out, err = capsys.readouterr()
        assert out == "" and f"FlowError: {ensemble_path}: {message}" in err

    @pytest.mark.parametrize("key,value,message", FIELD_HEADER_PROBES)
    def test_inspect_reports_bad_field_header_value(self, tmp_path, capsys, key, value, message):
        field_path, header, payload = saved_artifact(tmp_path, ".fld")
        header[key] = value
        field_path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload)
        assert cli.main(["inspect", str(field_path)]) == cli.EXIT_CONFIG_ERROR
        out, err = capsys.readouterr()
        assert out == "" and f"FieldError: {field_path}: {message}" in err

    @pytest.mark.parametrize(
        "suffix,key,value",
        [
            (".fld", "colour", "red"),
            (".fld", "format", "fld"),
            (".flo", "sede", 3),
            (".flo", "has_jacobian", False),
            (".flo", "has_logdet", True),
        ],
    )
    def test_inspect_refuses_an_unknown_header_key(self, tmp_path, capsys, suffix, key, value):
        # a typo or a legacy flag is refused by name, whatever its value
        target, header, payload = saved_artifact(tmp_path, suffix)
        target.write_bytes(json.dumps({**header, key: value}).encode("ascii") + b"\n" + payload)
        assert cli.main(["inspect", str(target)]) == cli.EXIT_CONFIG_ERROR
        out, err = capsys.readouterr()
        error = "FieldError" if suffix == ".fld" else "FlowError"
        assert out == "" and f"{error}: {target}: header has unknown key {key}\n" in err

    @pytest.mark.parametrize("suffix", [".fld", ".flo"])
    @pytest.mark.parametrize("head", [b'{"dim": 1, "N"', b"\xff\xfe\x00\x01"])
    def test_inspect_refuses_a_header_that_is_not_json(self, tmp_path, capsys, suffix, head):
        target = tmp_path / f"garbled{suffix}"
        target.write_bytes(head + b"\n" + bytes(128))
        assert cli.main(["inspect", str(target)]) == cli.EXIT_CONFIG_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{target}: header is not one line of JSON text" in err

    @pytest.mark.parametrize("cut", [8, 3])
    def test_inspect_refuses_a_cut_flow_payload(self, tmp_path, capsys, cut):
        target, _, _ = saved_artifact(tmp_path, ".flo")
        target.write_bytes(target.read_bytes()[:-cut])
        assert cli.main(["inspect", str(target)]) == cli.EXIT_CONFIG_ERROR
        out, err = capsys.readouterr()
        assert out == "" and f"FlowError: {target}: payload" in err

    def test_record_writer_lists_every_run_artifact(self):
        found = reference_record.artifact_digests()
        assert [(config, name) for config, name, _ in found] == [
            (f"{tag}.json", name) for tag in sorted(ARTIFACTS) for name in ARTIFACTS[tag]
        ]
        assert len(found) == 10 and all(len(bytes.fromhex(digest)) == 32 for *_, digest in found)

    def test_seed_sweep_tabulates_each_row(self, tmp_path):
        header = (
            "# renormlab v2\n# numpy=2.4.6\n"
            "name,value,relation,threshold,passed,headroom,seconds,detail\n"
        )
        reports = []
        for n, rows in enumerate([
            "alpha,0.5,<=,1.0,pass,0.5,0.1,one\nbeta,3.0,>=,2.0,pass,1.0,0.2,\n",
            "alpha,1.25,<=,1.0,fail,-0.25,0.1,one\nbeta,2.5,>=,2.0,pass,0.5,0.3,\n",
        ]):
            path = tmp_path / f"report_{n}.csv"
            path.write_text(header + rows)
            reports.append(seed_sweep.read_report(path))
        assert [row["name"] for row in reports[0]] == ["alpha", "beta"]
        assert seed_sweep.sweep_table(reports) == [
            ["alpha", "<=", 1.0, 1, 2, 0.5, 0.875, 1.25, -0.25],
            ["beta", ">=", 2.0, 2, 2, 2.5, 2.75, 3.0, 0.5],
        ]

    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_seed_sweep_reads_no_stale_report(self, tmp_path, monkeypatch, code):
        # a report an earlier sweep left is gone before the run, and a run
        # without a verdict (exit 2) counts as no report even if one is there
        report = tmp_path / "acceptance_report.csv"
        report.write_text("stale")

        def run(args, **kwargs):
            assert not report.exists()
            report.write_text("fresh")
            return subprocess.CompletedProcess(args, code)

        monkeypatch.setattr(seed_sweep.subprocess, "run", run)
        assert seed_sweep.run_seed(2256, tmp_path) == (report if code in (0, 1) else None)
        monkeypatch.setattr(
            seed_sweep.subprocess, "run", lambda args, **kw: subprocess.CompletedProcess(args, 0)
        )
        assert seed_sweep.run_seed(2256, tmp_path) is None

    def test_accept_exit_codes(self, tmp_path, capsys, monkeypatch):
        # The real suite runs for a minute; the exit-code mapping is what the
        # CLI owns, so substitute a canned report for each verdict.
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"experiment": "acceptance_all", "output_dir": str(tmp_path)})
        )

        def canned(passed):
            return RunReport(
                checks=[CheckResult("only", 0.0, 1.0, "<=", passed)],
                environment={"renormlab": "test"},
            )

        monkeypatch.setattr(cli, "acceptance_suite", lambda cfg: canned(True))
        assert cli.main(["accept", str(path)]) == cli.EXIT_OK
        assert (tmp_path / "acceptance_report.csv").exists()
        monkeypatch.setattr(cli, "acceptance_suite", lambda cfg: canned(False))
        assert cli.main(["accept", str(path)]) == cli.EXIT_CHECK_FAIL
        out = capsys.readouterr().out
        assert "FAIL only" in out

    def test_accept_flip_sign_writes_the_regated_report(self, tmp_path, capsys, monkeypatch):
        # renorm rows that pass, on ledgers where g_div_b carries the balance
        terms = {**{name: 0.0 for name in RENORMALIZED_TERMS}, "g_div_b": 0.25}
        base, fine = (WeakFormLedger.from_terms(terms, 0.25 + r)
                      for r in (1e-3, 1e-4))
        report = RunReport(
            checks=[CheckResult("alpha", 0.5, 1.0, "<=", True),
                    *lab._renorm_rows({"divfree": (base, fine), "smooth": (base, fine)})],
            environment={"renormlab": "test"},
        )
        assert report.passed
        monkeypatch.setattr(cli, "acceptance_suite", lambda cfg: report)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "acceptance_all", "output_dir": str(tmp_path)}))
        written = tmp_path / "acceptance_report.csv"
        assert cli.main(["accept", str(path)]) == cli.EXIT_OK
        assert "flipped" not in written.read_text()

        code = cli.main(["accept", str(path), "--flip-sign", "g_div_b"])
        assert code == cli.EXIT_CHECK_FAIL
        out = capsys.readouterr().out
        assert "PASS alpha" in out and out.count("FAIL renorm_") == 5
        lab.write_report_csv(report.flipped("g_div_b"), tmp_path / "want.csv")
        assert written.read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert "# flipped=g_div_b" in written.read_text().splitlines()

    def test_accept_refuses_an_unknown_flip_term_before_any_check(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_suite(cfg):
            raise AssertionError("a check ran")

        monkeypatch.setattr(cli, "acceptance_suite", no_suite)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "acceptance_all", "output_dir": str(tmp_path)}))
        assert cli.main(["accept", str(path), "--flip-sign", "g_div_bb"]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "--flip-sign" in err and "'g_div_bb'" in err and "Traceback" not in err
        assert not (tmp_path / "acceptance_report.csv").exists()

    def test_accept_refuses_an_unusable_output_dir_before_any_check(
        self, tmp_path, capsys, monkeypatch
    ):
        ran = []

        def counting(run):
            ran.append(1)
            return [CheckResult("only", 0.0, 1.0, "<=", True)]

        monkeypatch.setattr(lab, "_SUITE", (counting,))
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"experiment": "acceptance_all", "output_dir": str(blocker / "out")})
        )
        assert cli.main(["accept", str(path)]) == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert ran == []
        assert captured.out == ""
        assert "Not a directory" in captured.err and "Traceback" not in captured.err
        # the same check runs once the directory can be made
        path.write_text(
            json.dumps({"experiment": "acceptance_all", "output_dir": str(tmp_path / "out")})
        )
        assert cli.main(["accept", str(path)]) == cli.EXIT_OK
        assert ran == [1] and "PASS only" in capsys.readouterr().out

    def test_bad_options_return_two_and_help_returns_zero(self, capsys):
        assert cli.main(["run"]) == cli.EXIT_CONFIG_ERROR
        assert "the following arguments are required: config" in capsys.readouterr().err
        assert cli.main(["accept", "--help"]) == cli.EXIT_OK
        assert "--flip-sign" in capsys.readouterr().out

    def test_run_on_acceptance_all_takes_the_accept_path(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"experiment": "acceptance_all", "output_dir": str(tmp_path / "out")})
        )
        for passed, code in ((True, cli.EXIT_OK), (False, cli.EXIT_CHECK_FAIL)):
            report = RunReport(
                checks=[CheckResult("only", 0.0, 1.0, "<=", passed)],
                environment={"renormlab": "test"},
            )
            monkeypatch.setattr(cli, "acceptance_suite", lambda cfg: report)
            assert cli.main(["run", str(path)]) == code
            assert ("PASS" if passed else "FAIL") + " only" in capsys.readouterr().out
            # cli._accept is the one writer of the report
            lab.write_report_csv(report, tmp_path / "want.csv")
            written = tmp_path / "out" / "acceptance_report.csv"
            assert written.read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestPerMember:
    def test_values_in_path_order_by_bounded_chunks(self, monkeypatch):
        prob = lab._problem("trig_flow", 64, 0.1, 0.01)
        per_chunk = flow.members_per_chunk(prob.grid, prob.steps + 1)
        paths = [sample_brownian(0.1, 0.01, 1, 7 + m) for m in range(2 * per_chunk + 3)]
        chunks, positions, march = [], [], flow._march

        def marching(grid, splines, groups, path, chunk, targets, *rest):
            gc.collect()
            # the chunks marched before were reduced and let go
            assert all(ref() is None for ref in positions)
            assert targets[0].base.shape[0] == prob.steps + 1  # every step stored
            chunks.append([p.seed for p in chunk])
            positions.append(weakref.ref(targets[0].base))
            return march(grid, splines, groups, path, chunk, targets, *rest)

        monkeypatch.setattr(flow, "_march", marching)
        finals = lab._per_member(prob, paths, lambda ens: (ens.path.seed, ens.paths[-1].copy()))
        monkeypatch.setattr(flow, "_march", march)
        assert [seed for seed, _ in finals] == [p.seed for p in paths]
        assert [len(c) for c in chunks] == [per_chunk, per_chunk, 3]
        assert sum(chunks, []) == [p.seed for p in paths]
        gc.collect()
        assert len(positions) == 3 and all(ref() is None for ref in positions)
        # each member's flow is the one it has when integrated alone
        for path, (_, final) in zip(paths[per_chunk - 1 : per_chunk + 1], finals[per_chunk - 1 :]):
            alone = flow.simulate_flow(prob.b, prob.sigmas, flow.SdeConfig(dt=0.01), path)
            assert np.array_equal(final, alone.paths[-1])

    @pytest.mark.parametrize("source,N,dt", [("trig_flow", 64, 0.01), ("divfree_2d", 16, 0.005)])
    def test_sampled_conservation_rows_equal_full_storage(self, source, N, dt):
        prob = lab._problem(source, N, 0.1, dt)
        sampled = range(0, prob.steps + 1, 5)
        paths = [sample_brownian(0.1, dt, len(prob.sigmas), 31 + m) for m in range(3)]
        reduce = lab._conservation_rows(prob, 2.0, sampled)
        stored = []

        def keep(ens):
            stored.append(len(ens.paths))
            return reduce(ens)

        rows = lab._per_member(prob, paths, keep, sampled)
        assert stored == [len(sampled)] * 3
        want = lab._per_member(prob, paths, reduce)
        assert [[(l, a.hex(), r.hex()) for l, a, r in m] for m in rows] == [
            [(l, a.hex(), r.hex()) for l, a, r in m] for m in want
        ]

    @pytest.mark.parametrize(
        "source,T,dt,r", [("trig_flow", 0.1, 0.01, 2.0), ("divfree_2d", 0.05, 0.025, 0.0)]
    )
    def test_moment_and_stability_equal_whole_ensemble_reductions(self, source, T, dt, r):
        # reference: every member's full ensemble kept, then reduced in a second loop
        run = lab.Run(ExperimentConfig(experiment="acceptance_all"))
        prob = lab._problem(source, 64, T, dt)

        def ensembles(consumer):
            paths = run.paths(consumer, 3, T, dt, len(prob.sigmas))
            config = flow.SdeConfig(dt=dt)
            return [flow.simulate_flow(prob.b, prob.sigmas, config, p) for p in paths]

        values = [
            float(lp_norm(flow.pushforward_solution(prob.f0, e, T), 4.0)) ** 4.0
            for e in ensembles(lab._STREAM_MOMENT)
        ]
        got = lab._moment(run, prob, 3, 4.0)
        assert [v.hex() for v in got] == [v.hex() for v in flow._mean_stderr(values)]

        weight = weakform._stability_weight(prob.grid, r)
        masses = np.array([
            [float(np.sum(weight * np.abs(f.values))) * prob.grid.cell_volume
             for f in flow.pushforward_path(prob.f0, e)]
            for e in ensembles(lab._STREAM_STABILITY)
        ])
        want = [flow._mean_stderr(masses[:, l]) for l in range(prob.steps + 1)]
        series = lab._stability_series(run, source, lab._STREAM_STABILITY, 3, T, dt, r)
        assert [(m.hex(), s.hex()) for m, s in zip(series.mean, series.stderr)] == [
            (m.hex(), s.hex()) for m, s in want
        ]

    def test_logdet_gap_takes_the_fused_pass(self, monkeypatch):
        prob = lab._problem("trig_flow", 64, 0.1, 0.01)
        paths = [sample_brownian(0.1, 0.01, 1, 5 + m) for m in range(3)]
        stored, march = [], flow._march

        def marching(grid, splines, groups, path, chunk, targets, *rest):
            stored.append(len({t.ctypes.data for t in targets}))
            return march(grid, splines, groups, path, chunk, targets, *rest)

        monkeypatch.setattr(flow, "_march", marching)
        gaps = lab._per_member(prob, paths, flow.logdet_gap)
        monkeypatch.setattr(flow, "_march", march)
        assert stored == [1]  # one chunk, marched through one work array: no positions kept
        want = []
        for p in paths:
            ens = flow.simulate_flow(prob.b, prob.sigmas, flow.SdeConfig(dt=0.01), p)
            flow.variational_jacobian(ens, prob.b, prob.sigmas)
            flow.logdet_stochastic_exponential(ens, prob.b, prob.sigmas)
            want.append(flow.logdet_gap(ens))
        assert [g.hex() for g in gaps] == [w.hex() for w in want]


class TestWorkerInvariant:
    def test_determinism_payload_hands_the_pool_its_four_kernels_at_once(self, monkeypatch):
        # determinism_workers compares 1 and 8 workers; it means something only
        # while the payload gives an 8-worker pool more than one item at once
        handed, threads, caller = [], [], threading.current_thread()
        together = threading.Barrier(4, timeout=60)

        class Recording(parallel.ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                items = list(iterables[0])
                handed.append((self._max_workers, len(items)))
                return super().map(fn, items, **kwargs)

        def spied(name, kernel):
            def run(*args):
                threads.append((name, threading.current_thread()))
                if threading.current_thread() is not caller:
                    together.wait()  # passes once all four kernels run at the same time
                return kernel(*args)
            return run

        for name in ("_logdet_sup_gaps", "_moment", "_stability_series"):
            monkeypatch.setattr(lab, name, spied(name, getattr(lab, name)))
        monkeypatch.setattr(parallel, "ThreadPoolExecutor", Recording)
        run = lab.Run(ExperimentConfig(experiment="acceptance_all"))
        kernels = ["_logdet_sup_gaps", "_logdet_sup_gaps", "_moment", "_stability_series"]
        serial = lab._determinism_payload(run)
        assert handed == [] and threads == [(n, caller) for n in kernels]
        threads.clear()
        with parallel.workers(8):
            pooled = lab._determinism_payload(run)
        assert handed == [(8, 4)] and sorted(n for n, _ in threads) == kernels
        assert len({t for _, t in threads}) == 4
        assert caller not in {t for _, t in threads}
        assert pooled == serial

    def test_scope_sets_the_count_inside_and_one_after(self):
        assert parallel.worker_count() == 1
        with parallel.workers(8):
            assert parallel.worker_count() == 8
            with parallel.workers(1):
                assert parallel.worker_count() == 1
            assert parallel.worker_count() == 8
        assert parallel.worker_count() == 1
        with pytest.raises(ZeroDivisionError):
            with parallel.workers(8):
                assert parallel.worker_count() == 8
                1 / 0
        assert parallel.worker_count() == 1

    def test_determinism_check_runs_the_payload_at_one_then_eight(self, monkeypatch):
        seen = []

        def payload(run):
            seen.append(parallel.worker_count())
            return (0.0,)

        monkeypatch.setattr(lab, "_determinism_payload", payload)
        [row] = lab._check_determinism(lab.Run(ExperimentConfig(experiment="acceptance_all")))
        assert row.passed and seen == [1, 8] and parallel.worker_count() == 1


CONFIG_FILES = sorted((ROOT / "configs").glob("*.json"))
SECTIONS = {
    "grid": GridConfig, "time": TimeConfig, "coefficients": CoefficientConfig,
    "scalars": ScalarConfig,
}
# every field a config can carry: the top-level ones and each section's
FIELD_PATHS = [(f.name,) for f in dataclass_fields(ExperimentConfig)] + [
    (section, f.name) for section, cls in SECTIONS.items() for f in dataclass_fields(cls)
]
HUGE_AND_TINY = st.sampled_from(
    [1e308, -1e308, 1.7976931348623157e308, 1e-308, 5e-324, -5e-324, 0.0, -0.0,
     float("inf"), float("-inf"), float("nan"), 2**63, -(2**63), 10**400, -1]
)
WRONG_TYPES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.integers(), st.floats(),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
MUTATION = st.one_of(
    HUGE_AND_TINY, WRONG_TYPES, st.lists(st.one_of(HUGE_AND_TINY, WRONG_TYPES), max_size=3)
)
# nan and infinity on their own and as list entries, which a config must refuse
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
CONFIG_MUTATION = st.one_of(
    MUTATION, NON_FINITE, st.lists(st.one_of(NON_FINITE, HUGE_AND_TINY), min_size=1, max_size=3)
)


@pytest.mark.parametrize(
    "config_file", [p for p in CONFIG_FILES if p.name != "acceptance.json"],
    ids=lambda p: p.name,
)
def test_shipped_config_writes_its_artifacts(config_file, tmp_path):
    payload = json.loads(config_file.read_text())
    payload["output_dir"] = str(tmp_path)
    files = lab.run_experiment(ExperimentConfig.from_dict(payload))
    assert sorted(f.name for f in files) == ARTIFACTS[payload["experiment"]]
    assert all(f.parent == tmp_path and f.is_file() for f in files)


def test_a_dimension_beyond_float_range_is_refused_by_name():
    # parabolic_decay's 2/q + n/p check reads grid.dim only when it is 1 or 2,
    # so an int no float can hold is refused by name, not by an OverflowError
    payload = json.loads((ROOT / "configs" / "parabolic_decay.json").read_text())
    payload["grid"] = {**payload.get("grid", {}), "dim": 10**400}
    with pytest.raises(LabError, match=r"grid\.dim: dim must be 1 or 2"):
        ExperimentConfig.from_dict(payload)


@pytest.mark.parametrize("config_file", CONFIG_FILES, ids=lambda p: p.name)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_config_returns_or_raises_lab_error(config_file, data):
    payload = json.loads(config_file.read_text())
    targets = data.draw(st.lists(st.sampled_from(FIELD_PATHS), min_size=1, max_size=3))
    for target in targets:
        value = data.draw(CONFIG_MUTATION)
        if len(target) == 1:
            payload[target[0]] = value
        elif isinstance(payload.get(target[0], {}), dict):
            payload.setdefault(target[0], {})[target[1]] = value
    try:
        cfg = ExperimentConfig.from_dict(payload)
    except LabError:
        return
    for section in SECTIONS:  # an accepted config holds only finite numbers
        for value in vars(getattr(cfg, section)).values():
            for v in value if isinstance(value, tuple) else (value,):
                assert not isinstance(v, float) or math.isfinite(v), (section, value)
    # ... and passes the run's own checks: its grid builds, its (T, dt) is a
    # step count, and, on an experiment whose run builds them (not
    # acceptance_all's fixed suite), its largest level (renorm_residual's
    # refined one: dt/4, and 2N in 1-d on a preset) fits the budget
    g = cfg.grid
    Grid(g.dim, TWO_PI, g.N)
    steps, nodes = flow._step_count(cfg.time.T, cfg.time.dt, 0, 0), g.N**g.dim
    if cfg.experiment == "renorm_residual":
        steps *= 4
        nodes *= 2 if g.dim == 1 and cfg.coefficients.drift_file is None else 1
    assert cfg.experiment == "acceptance_all" or steps * nodes <= lab._STEP_BUDGET


@pytest.mark.parametrize("suffix", [".fld", ".flo"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_header_loads_or_raises_its_module_error(tmp_path_factory, suffix, data):
    target, header, payload = saved_artifact(tmp_path_factory.mktemp("header"), suffix)
    for key in data.draw(st.lists(st.sampled_from(sorted(header)), min_size=1, max_size=3)):
        header[key] = data.draw(MUTATION)
    cut = data.draw(st.sampled_from([0, 0, 1, 8]))
    target.write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload[cut:])
    try:
        (load_field if suffix == ".fld" else load_ensemble)(target)
    except (FieldError, flow.FlowError):
        pass
