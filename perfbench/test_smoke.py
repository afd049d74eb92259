"""Smoke test of the benchmark itself, at a tiny realization count.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import _union_length  # noqa: E402
from workloads import WORKLOADS, check_csv, load_reference  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_and_reports_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seconds", "1", "--trace", str(trace),
                  "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        out = HERE / "out" / workload
        assert (out / "traced.csv").read_bytes() == (out / "untraced.csv").read_bytes()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "power_n", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def _edit_first_row(text: str, column: int, value: str) -> str:
    lines = text.splitlines(keepends=True)
    fields = lines[1].rstrip("\n").split(",")
    fields[column] = value
    lines[1] = ",".join(fields) + "\n"
    return "".join(lines)


def test_gate_rejects_drift_non_finite_values_and_changed_keys():
    reference = next(iter(load_reference().values()))["text"]
    value = float(reference.splitlines()[1].split(",")[2])
    assert check_csv(reference, reference) == []
    assert check_csv(_edit_first_row(reference, 2, f"{value + 5e-5:.6f}"), reference) == []
    assert check_csv(_edit_first_row(reference, 2, f"{value + 1e-3:.6f}"), reference)
    assert check_csv(_edit_first_row(reference, 2, "nan"), reference)
    assert check_csv(_edit_first_row(reference, 1, "other"), reference)
    assert check_csv(reference.rsplit("\n", 2)[0] + "\n", reference)


def test_union_counts_overlapping_children_once():
    assert _union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)]) == 4.0
    assert _union_length([(2.0, 1.0)]) == 0.0
