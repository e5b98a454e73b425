"""Run the acceptance suite at many seeds and tabulate each report row.

    PYTHONPATH=src python scripts/seed_sweep.py OUT_DIR > sweep.csv

Each seed runs `renormlab accept` in its own process on a config whose
``master_seed`` is 2256 k, k = 1..20 (2,256 is one past the suite's last
stream, so no two seeds share a stream), writing to OUT_DIR/seed_<s>.  Each
run's ``acceptance_report.csv`` is then read back, and one CSV line per row
is printed: the pass count, the min / median / max value and the min
headroom over the seeds.  Exit codes: 0 the table was written, 2 a run
wrote no report (it exited with neither a verdict, 0 or 1, nor a report).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEED_STEP = 2256
SEEDS = 20
# `renormlab accept`'s exit codes that come with a report: all checks passed, some failed
VERDICT_CODES = (0, 1)
COLUMNS = ["name", "relation", "threshold", "passed", "seeds", "min", "median", "max",
           "min_headroom"]


def read_report(path: Path) -> list[dict]:
    """The rows of one acceptance_report.csv, comment lines skipped."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


def sweep_table(reports: list[list[dict]]) -> list[list]:
    """One line per report row, in the first report's order (COLUMNS)."""
    by_name: dict[str, list[dict]] = {}
    for report in reports:
        for row in report:
            by_name.setdefault(row["name"], []).append(row)
    table = []
    for name, rows in by_name.items():
        values = [float(r["value"]) for r in rows]
        table.append([
            name, rows[0]["relation"], float(rows[0]["threshold"]),
            sum(r["passed"] == "pass" for r in rows), len(rows),
            min(values), statistics.median(values), max(values),
            min(float(r["headroom"]) for r in rows),
        ])
    return table


def run_seed(seed: int, out: Path, *options: str) -> Path | None:
    """Run `renormlab accept` at ``seed`` into ``out``, with ``options`` after
    the config; return its report, None if the run ended without a verdict."""
    out.mkdir(parents=True, exist_ok=True)
    config = out / "config.json"
    config.write_text(json.dumps({
        "experiment": "acceptance_all", "scalars": {"master_seed": seed},
        "output_dir": str(out),
    }))
    report = out / "acceptance_report.csv"
    report.unlink(missing_ok=True)  # a report left by an earlier sweep is not this run's
    run = subprocess.run([sys.executable, "-m", "renormlab.cli", "accept", str(config), *options],
                         stdout=subprocess.DEVNULL, check=False)
    return report if run.returncode in VERDICT_CODES and report.exists() else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory for the runs' outputs")
    args = parser.parse_args()
    reports = []
    for k in range(1, SEEDS + 1):
        seed = SEED_STEP * k
        path = run_seed(seed, args.out / f"seed_{seed}")
        if path is None:
            print(f"seed {seed}: no report written", file=sys.stderr)
            return 2
        reports.append(read_report(path))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(COLUMNS)
    writer.writerows(sweep_table(reports))
    sys.stdout.write(buffer.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
