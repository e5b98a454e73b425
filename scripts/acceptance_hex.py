"""Print each acceptance row as `name float.hex(value) pass|fail`.

Two runs agree bit for bit when the `diff` of their outputs is empty, so a
change that must not move any number is checked with

    PYTHONPATH=src python scripts/acceptance_hex.py configs/acceptance.json > after.txt

run once on each side.  Exit codes: 0 every row passed, 1 some row failed,
2 bad config.
"""

from __future__ import annotations

import argparse

from renormlab import lab


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="JSON config supplying the master seed")
    args = parser.parse_args()
    try:
        cfg = lab.ExperimentConfig.from_json(args.config)
    except lab.LabError as exc:
        parser.error(str(exc))  # exits 2, as the CLI does
    checks = lab.acceptance_suite(cfg).checks
    for row in checks:
        print(f"{row.name} {float(row.value).hex()} {'pass' if row.passed else 'fail'}")
    return 0 if all(row.passed for row in checks) else 1


if __name__ == "__main__":
    raise SystemExit(main())
