"""Print each acceptance row as `name float.hex(value) pass|fail`.

Two runs agree bit for bit when the `diff` of their outputs is empty, so a
change that must not move any number is checked with

    PYTHONPATH=src python scripts/acceptance_hex.py configs/acceptance.json > after.txt

run once on each side.  With `--against before.txt` (an earlier output of
this script) only the rows whose hex changed are printed, as
`name old_hex -> new_hex relative_change`, so a change that moves numbers
shows what it moved; a row on one side only reads `absent` on the other.
Exit codes: 0 every row passed, 1 some row failed, 2 bad config or file.
"""

from __future__ import annotations

import argparse

from renormlab import lab


def read_rows(path: str) -> dict[str, str]:
    """name -> hex value of each row of an earlier output."""
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            fields = line.split()
            if len(fields) != 3:
                raise ValueError(f"{path}:{number}: expected `name hex verdict`, got {line!r}")
            float.fromhex(fields[1])
            rows[fields[0]] = fields[1]
    return rows


def changed_rows(before: dict[str, str], after: dict[str, str]) -> list[str]:
    """`name old -> new relative` for each row whose hex differs, in the order of after."""
    lines = []
    for name in [*after, *(n for n in before if n not in after)]:
        old, new = before.get(name, "absent"), after.get(name, "absent")
        if old == new:
            continue
        if "absent" in (old, new):
            lines.append(f"{name} {old} -> {new}")
            continue
        a, b = float.fromhex(old), float.fromhex(new)
        relative = (b - a) / abs(a) if a != 0.0 else float("inf")
        lines.append(f"{name} {old} -> {new} {relative:+.2e}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="JSON config supplying the master seed")
    parser.add_argument("--against", metavar="BEFORE",
                        help="an earlier output: print only the rows whose hex changed")
    args = parser.parse_args()
    try:
        cfg = lab.ExperimentConfig.from_json(args.config)
        before = read_rows(args.against) if args.against else None
    except (lab.LabError, OSError, ValueError) as exc:
        parser.error(str(exc))  # exits 2, as the CLI does
    checks = lab.acceptance_suite(cfg).checks
    if before is None:
        for row in checks:
            print(f"{row.name} {float(row.value).hex()} {'pass' if row.passed else 'fail'}")
    else:
        after = {row.name: float(row.value).hex() for row in checks}
        for line in changed_rows(before, after):
            print(line)
    return 0 if all(row.passed for row in checks) else 1


if __name__ == "__main__":
    raise SystemExit(main())
