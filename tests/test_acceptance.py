"""Full acceptance gate: every desk-scale criterion at its stated tolerance.

The suite runs once per session through ``acceptance_suite`` and each
criterion owns one test that picks its rows out of the shared report, prints
the measured-vs-threshold lines, and fails if any row failed.  Margins were
frozen at master_seed 0; see the per-module test files for the oracles behind
the individual thresholds.  The same run, with the shipped configs'
artifacts, is compared bit for bit with tests/reference_record.json, which
scripts/reference_record.py writes.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import reference_record
from renormlab import lab
from renormlab.weakform import RENORMALIZED_TERMS

CFG = lab.ExperimentConfig(experiment="acceptance_all")
DRIFT_DOMINATED = (lab._STREAM_PUSHFORWARD, "drift_dominated", 64, 128, 0.5, 1e-3)


@pytest.fixture(scope="module")
def suite() -> tuple[lab.RunReport, dict]:
    """The report, and the drift_dominated pairs, trig-ladder solves and
    determinism payloads (the first at one worker) its run computed."""
    trig = lab._problem("trig_flow", 64, 0.5, 0.5 / 128).b
    computed = {"pairs": [], "ladder": [], "payloads": []}
    pair, solve, payload = lab._pushforward_pair, lab.mild_solve, lab._determinism_payload

    def counting_pair(run, *args):
        if args == DRIFT_DOMINATED:
            computed["pairs"].append(args)
        return pair(run, *args)

    def counting_solve(b, lam, steps):
        if b.T == trig.T and np.array_equal(b.times, trig.times) and np.array_equal(
            b.values, trig.values
        ):
            computed["ladder"].append((lam, steps))
        return solve(b, lam, steps)

    def kept_payload(run):
        computed["payloads"].append(payload(run))
        return computed["payloads"][-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lab, "_pushforward_pair", counting_pair)
        patch.setattr(lab, "mild_solve", counting_solve)
        patch.setattr(lab, "_determinism_payload", kept_payload)
        return lab.acceptance_suite(CFG), computed


@pytest.fixture(scope="module")
def report(suite) -> lab.RunReport:
    return suite[0]


def criterion(report: lab.RunReport, *prefixes: str) -> list[lab.CheckResult]:
    rows = [c for c in report.checks if c.name.startswith(prefixes)]
    assert rows, f"no checks matched {prefixes}"
    for row in rows:
        print(row.line())
    failed = [row.name for row in rows if not row.passed]
    assert not failed, f"failed: {failed}"
    return rows


def renorm_rows(report: lab.RunReport) -> list[lab.CheckResult]:
    return [c for c in report.checks if c.name.startswith("renorm_")]


def test_01_mollifier_certification(report):
    rows = criterion(report, "mollifier_")
    assert len(rows) == 4


def test_02_first_order_commutator_limit(report):
    criterion(report, "commutator_T_")


def test_03_second_order_commutator_limit(report):
    criterion(report, "commutator_S_", "commutator_bound_")


def test_04_cancellation_identities(report):
    rows = criterion(report, "cancellation_")
    # exactly-one-sign certification is folded into each row's pass rule;
    # the detail string records both sign errors for the log.
    for row in rows:
        assert "sign +1" in row.detail and "sign -1" in row.detail


def test_05_jacobian_determinant_cross_check(report):
    criterion(report, "jacobian_")


def test_06_pushforward_weak_solution(report):
    criterion(report, "pushforward_")


def test_07_mass_and_lp_conservation(report):
    criterion(report, "conservation_")


def test_08_moment_growth_bound(report):
    criterion(report, "moment_")


def test_09_parabolic_closed_form_and_decay(report):
    criterion(report, "parabolic_")


def test_10_decay_exponents(report):
    rows = criterion(report, "decay_")
    assert {r.name for r in rows} == {"decay_slope_alpha0", "decay_slope_alpha1"}


def test_11_relaxation_residuals(report):
    criterion(report, "relaxation_")


def test_12_renormalized_residual(report):
    rows = criterion(report, "renorm_")
    assert len(rows) == 5


def test_13_straightening_chain(report):
    criterion(report, "zvonkin_")


def test_14_stability_functional(report):
    criterion(report, "stability_")


def test_15_worker_count_determinism(report):
    criterion(report, "determinism_")


def test_suite_computes_its_shared_inputs_once(suite):
    # the pushforward check and the smooth renorm ledgers read one pair, and
    # the closed-form and relaxation checks one ladder
    _, computed = suite
    assert computed["pairs"] == [DRIFT_DOMINATED]
    assert computed["ladder"] == [(4.0, 128), (16.0, 128), (64.0, 128)]


def test_report_carries_at_least_twelve_checks(report):
    assert len(report.checks) >= 12
    names = [c.name for c in report.checks]
    assert len(names) == len(set(names))
    assert report.passed


def test_flip_sign_debug_hook_turns_check_red(report):
    rows = renorm_rows(report.flipped("g_div_b"))
    assert any(not row.passed for row in rows)
    by_name = {row.name: row for row in rows}
    assert not by_name["renorm_smooth_residual"].passed


BELOW_RESIDUAL = pytest.mark.xfail(
    strict=True, reason="below the discretization residual; ROADMAP item 4"
)


@pytest.mark.parametrize(
    "term",
    [
        pytest.param(t, marks=BELOW_RESIDUAL) if t in ("g_gradsigma", "h_divsigma_sq") else t
        for t in RENORMALIZED_TERMS
    ],
)
def test_every_flipped_term_turns_a_renorm_row_red(report, term):
    flipped = report.flipped(term)
    assert [c.name for c in flipped.checks] == [c.name for c in report.checks]
    assert any(not row.passed for row in renorm_rows(flipped))


def test_flip_regates_without_recomputing_a_flow(report, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a flip recomputed a flow or a ledger")

    monkeypatch.setattr(lab, "_pushforward_pair", refuse)
    monkeypatch.setattr(lab, "residual_renormalized", refuse)
    flipped = report.flipped("g_div_b")
    assert not flipped.passed
    others = [c for c in report.checks if not c.name.startswith("renorm_")]
    assert [c for c in flipped.checks if not c.name.startswith("renorm_")] == others
    # flipping twice restores every row bit for bit
    assert flipped.flipped("g_div_b").checks == report.checks


def test_light_checks_rerun_bitwise():
    def snapshot():
        rows = []
        run = lab.Run(CFG)
        for fn in (lab._check_mollifier, lab._check_commutator_t, lab._check_stability):
            rows.extend(fn(run))
        return [(row.name, row.value) for row in rows]

    assert snapshot() == snapshot()


def _record_rows(report: lab.RunReport) -> list[dict]:
    return [
        reference_record.row(c.name, c.value, c.relation, c.threshold, c.passed)
        for c in report.checks
    ]


def _without_bits(record: dict) -> dict:
    """What a record pins on any environment: each row's name, relation,
    threshold and verdict, and each artifact's config and name."""
    return {
        "rows": [
            [{k: v for k, v in row.items() if k != "value"} for row in record[key]]
            for key in ("report", f"report_flipped_{reference_record.FLIPPED}")
        ],
        "artifacts": [entry[:2] for entry in record["artifacts"]],
    }


def test_every_number_is_the_reference_records(suite):
    # Made on other Python, numpy or scipy versions than the record's, the
    # run may move a value by round-off: there the names, gates and verdicts
    # are compared and the test skips, naming both sets of versions.
    report, computed = suite
    want = json.loads(reference_record.RECORD.read_text())
    got = reference_record.record(
        _record_rows(report),
        _record_rows(report.flipped(reference_record.FLIPPED)),
        reference_record.artifact_digests(),
        reference_record.hexes(computed["payloads"][0]),
    )
    assert _without_bits(got) == _without_bits(want)
    if got["versions"] != want["versions"]:
        pytest.skip(
            f"reference record made on {want['versions']}, this is {got['versions']}: "
            "row values, artifact digests and the determinism payload not compared"
        )
    for key in want:  # one section at a time, so a failure names its section
        assert got[key] == want[key], key
