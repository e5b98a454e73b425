"""Rewrite tests/reference_record.json, the numbers the Tier-1 suite pins bit for bit.

    PYTHONPATH=src python scripts/reference_record.py

The record holds, at master_seed 0:

- each acceptance report row's name, relation, threshold, verdict and value
  (as ``float.hex``; the ``seconds`` column, a wall time, stays out), and
  the same under ``--flip-sign g_div_b``;
- the sha256 of each artifact of each shipped run config but
  acceptance.json;
- the determinism check's payload at one worker, every float as
  ``float.hex``;
- the Python, numpy and scipy versions it was made on.

The two reports come from ``renormlab accept`` run in subprocesses (as
seed_sweep.py runs it); the artifacts and the payload are made in this
process.  tests/test_acceptance.py builds the same record from its run and
compares it with the file, so a change that moves a number reruns this script
and the file's diff shows the old and the new value.  Exit codes: 0 the
record was written, 2 a run wrote no report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from renormlab import lab, parallel
from seed_sweep import read_report, run_seed

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
RECORD = ROOT / "tests" / "reference_record.json"
FLIPPED = "g_div_b"


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def row(name: str, value: float, relation: str, threshold: float, passed: bool) -> dict:
    """One report row as the record holds it."""
    return {"name": name, "relation": relation, "threshold": threshold, "passed": passed,
            "value": float.hex(value)}


def hexes(payload):
    """A nest of tuples of floats as lists of float.hex strings."""
    if isinstance(payload, (tuple, list)):
        return [hexes(item) for item in payload]
    return float.hex(payload)


def record(rows: list[dict], flipped_rows: list[dict], artifacts: list, payload: list) -> dict:
    return {"versions": versions(), "report": rows, f"report_flipped_{FLIPPED}": flipped_rows,
            "artifacts": artifacts, "determinism_payload": payload}


def artifact_digests(configs: Path = CONFIGS) -> list[list[str]]:
    """[config, artifact, sha256] for each artifact of each run config but
    acceptance.json, each config run into its own temporary directory."""
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted(configs.glob("*.json")):
            if config.name == "acceptance.json":
                continue
            payload = json.loads(config.read_text())
            payload["output_dir"] = str(Path(tmp) / config.stem)
            for path in sorted(lab.run_experiment(lab.ExperimentConfig.from_dict(payload))):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                found.append([config.name, path.name, digest])
    return found


def determinism_payload() -> list:
    """The determinism check's payload at one worker, as _check_determinism takes it."""
    run = lab.Run(lab.ExperimentConfig(experiment="acceptance_all"))
    with parallel.workers(1):
        return hexes(lab._determinism_payload(run))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args()
    reports = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, options in (("plain", ()), ("flipped", ("--flip-sign", FLIPPED))):
            path = run_seed(0, Path(tmp) / name, *options)
            if path is None:
                print(f"{name} run: no report written", file=sys.stderr)
                return 2
            reports.append([
                row(r["name"], float(r["value"]), r["relation"], float(r["threshold"]),
                    r["passed"] == "pass")
                for r in read_report(path)
            ])
    text = json.dumps(record(*reports, artifact_digests(), determinism_payload()), indent=1)
    RECORD.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
