"""Measure every workload over several seeds and record the result.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json

Each seed is one ``run.py --trace 0`` run of ``run_seconds`` (from
BENCHMARK.json) per workload; one traced run per workload at the
acceptance seed adds the per-layer figures.  For every end-to-end metric
the file holds the values, their median and the quartile spread
(third minus first quartile over the median) that the benchmark's bounds
are checked against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata

from workloads import ACCEPTANCE_SEED, HERE, ROOT, THREAD_ENV, WORKLOADS


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}")
    return result


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    seconds = bench["run_seconds"]

    report = {
        "environment": {
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "thread_env": THREAD_ENV,
        },
        "run_seconds": seconds,
        "seeds": list(range(1, args.seeds + 1)),
        "workloads": {},
    }
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    for name in WORKLOADS:
        runs = [_run(name, seed, seconds, 0) for seed in report["seeds"]]
        end_to_end = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            end_to_end[metric["name"]] = {
                "unit": metric["unit"], "median": median, "spread": (q3 - q1) / median,
                "values": values,
            }
            print(f"{name} {metric['name']}: median {median:.6g} {metric['unit']}, "
                  f"spread {(q3 - q1) / median:.4f} (bound {metric['bound']})", flush=True)
        traced = _run(name, ACCEPTANCE_SEED, seconds, 1)
        report["workloads"][name] = {
            "why": why[name],
            "realizations": WORKLOADS[name].realizations["bench"],
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
