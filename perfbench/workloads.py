"""Workload table, seed mapping and the CSV correctness gate.

Shared by ``run.py`` (which times the workloads) and ``make_reference.py``
(which captures the reference CSVs the gate compares against).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = HERE / "configs"
REFERENCE_PATH = HERE / "reference.json"

ACCEPTANCE_SEED = 20240811
# A reference CSV exists for the master seeds ACCEPTANCE_SEED .. +15, so
# every benchmark seed maps onto one of these sixteen studies.
REFERENCE_SEEDS = 16

# metric_value may drift by this much (dB or dBm; the CSV prints six
# decimals) before a row counts as wrong.
VALUE_TOL = 1e-4
# Interference rows at or below this level (100 dB under the noise) are
# numerically perfect nulls: their digits are solver round-off, so any
# two such values agree.
DEEP_NULL_DB = -100.0

SCALES = ("bench", "smoke")

# One Python thread per worker and no BLAS or OpenMP pool, so a study never
# runs more threads than the host's two cores.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    config: str
    workers: int
    realizations: dict[str, int]

    @property
    def config_path(self) -> Path:
        return CONFIGS / self.config


# Why each workload exists: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("power_n", "power-vs-n", "power_n.cfg", 1, {"bench": 40, "smoke": 2}),
        Workload("power_distance", "power-vs-distance", "power_distance.cfg", 1,
                 {"bench": 200, "smoke": 3}),
        Workload("interference", "interference-vs-n", "interference.cfg", 1,
                 {"bench": 150, "smoke": 3}),
        Workload("power_distance_w2", "power-vs-distance", "power_distance.cfg", 2,
                 {"bench": 200, "smoke": 3}),
    )
}


def study_seed(seed: int) -> int:
    """Master seed of the study that benchmark seed ``seed`` runs."""
    return ACCEPTANCE_SEED + (seed - ACCEPTANCE_SEED) % REFERENCE_SEEDS


def reference_key(workload: Workload, scale: str, master_seed: int) -> str:
    # Workloads that differ only in their worker count share a reference:
    # workers change the runtime, never the output.
    return f"{Path(workload.config).stem}/{workload.realizations[scale]}/{master_seed}"


def load_reference() -> dict[str, dict[str, str]]:
    return json.loads(REFERENCE_PATH.read_text(encoding="ascii"))["csv"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rows(text: str) -> tuple[str, list[list[str]]]:
    lines = text.splitlines()
    return (lines[0] if lines else ""), [line.split(",") for line in lines[1:]]


def check_csv(text: str, reference: str) -> list[str]:
    """Problems with a study CSV against its reference; empty when it passes.

    The header and every row key (sweep value, scheme, unit, realization
    count, seed) must equal the reference's, in order; every metric value
    must be finite and within VALUE_TOL of the reference, or both must be
    deep nulls.
    """
    header, rows = _rows(text)
    ref_header, ref_rows = _rows(reference)
    if header != ref_header:
        return [f"header {header!r} != {ref_header!r}"]
    keys = [r[:2] + r[3:] for r in rows]
    ref_keys = [r[:2] + r[3:] for r in ref_rows]
    if keys != ref_keys:
        return [f"row keys differ from the reference ({len(rows)} rows, {len(ref_rows)} expected)"]
    problems = []
    for row, ref in zip(rows, ref_rows):
        try:
            value = float(row[2])
        except ValueError:
            problems.append(f"{row[0]},{row[1]}: metric_value {row[2]!r} is not a number")
            continue
        expected = float(ref[2])
        if not math.isfinite(value):
            problems.append(f"{row[0]},{row[1]}: metric_value {row[2]} is not finite")
        elif abs(value - expected) > VALUE_TOL and not (
            value <= DEEP_NULL_DB and expected <= DEEP_NULL_DB
        ):
            problems.append(f"{row[0]},{row[1]}: metric_value {value} != reference {expected}")
    return problems
