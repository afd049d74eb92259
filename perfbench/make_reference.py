"""Capture the reference CSVs that the benchmark's correctness gate uses.

Run from the repository root at the commit whose output is the reference:

    python3 perfbench/make_reference.py

For every workload config, scale and one of the REFERENCE_SEEDS master
seeds, the study runs once through ``irslink.cli.run`` and its CSV text
and sha256 go into ``perfbench/reference.json``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from workloads import (
    ACCEPTANCE_SEED,
    REFERENCE_PATH,
    REFERENCE_SEEDS,
    SCALES,
    SRC,
    THREAD_ENV,
    WORKLOADS,
    reference_key,
    sha256,
)


def main() -> int:
    os.environ.update(THREAD_ENV)  # before numpy loads, as in the timed studies
    sys.path.insert(0, str(SRC))
    from irslink import cli

    csv: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory(dir=REFERENCE_PATH.parent) as tmp:
        out = Path(tmp) / "study.csv"
        for workload in WORKLOADS.values():
            for scale in SCALES:
                for master_seed in range(ACCEPTANCE_SEED, ACCEPTANCE_SEED + REFERENCE_SEEDS):
                    key = reference_key(workload, scale, master_seed)
                    if key in csv:
                        continue
                    code = cli.run(cli.CliInvocation(
                        subcommand=workload.subcommand,
                        config_path=str(workload.config_path),
                        out_path=str(out),
                        seed_override=master_seed,
                        realizations_override=workload.realizations[scale],
                        quiet=True,
                    ))
                    if code != 0:
                        print(f"{key}: study exited {code}", file=sys.stderr)
                        return 1
                    data = out.read_bytes()
                    csv[key] = {"sha256": sha256(data), "text": data.decode("ascii")}
                    print(f"{key} {csv[key]['sha256']}")
    REFERENCE_PATH.write_text(
        json.dumps({"csv": csv}, indent=1, sort_keys=True) + "\n", encoding="ascii"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
