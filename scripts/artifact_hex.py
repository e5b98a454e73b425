"""Print `config artifact sha256` for each artifact of each shipped run config.

Every `configs/*.json` but `acceptance.json` is run into its own temporary
directory, so two trees write the same artifacts bit for bit when the `diff`
of their outputs is empty:

    PYTHONPATH=src python scripts/artifact_hex.py > after.txt

run once on each side.  Exit codes: 0 every config ran, 2 bad config.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import tempfile
from pathlib import Path

from renormlab import lab

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="?", default=CONFIGS, type=Path,
                        help="directory of JSON run configs (default: the shipped ones)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted(args.configs.glob("*.json")):
            if config.name == "acceptance.json":
                continue
            payload = json.loads(config.read_text())
            payload["output_dir"] = str(Path(tmp) / config.stem)
            try:
                cfg = lab.ExperimentConfig.from_dict(payload)
            except lab.LabError as exc:
                parser.error(f"{config.name}: {exc}")  # exits 2, as the CLI does
            for path in sorted(lab.run_experiment(cfg)):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{config.name} {path.name} {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
