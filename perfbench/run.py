"""irslink benchmark: times whole Monte Carlo studies, one fresh process each.

Usage (from the repository root):

    python3 perfbench/run.py --workload power_n --seed 20240811 --seconds 25 --trace 0

The load is a closed loop with one client: studies run one after another,
each in a new process (``child.py``), until ``--seconds`` have passed.
With ``--trace 0`` the last line reports the end-to-end metrics (medians
over the studies run); with ``--trace 1`` it alternates untraced and
traced studies and reports the per-layer metrics.  Every CSV is checked
against the reference captured by ``make_reference.py``.  ``--workload
all`` runs every workload in turn.  See README.md for the metric map.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import (
    ACCEPTANCE_SEED,
    HERE,
    SCALES,
    SRC,
    THREAD_ENV,
    WORKLOADS,
    check_csv,
    load_reference,
    reference_key,
    sha256,
    study_seed,
)

OUT = HERE / "out"
# The host's speed drifts by up to a factor of two over seconds to minutes
# (neighbours on shared cores), so run medians of raw times spread wider
# than any usable bound.  wall_s and setup_s are therefore reported at a
# reference host speed: each study's times are scaled by PROBE_REF_S over
# the per-thread time of the fixed probe run in the same process.
PROBE_REF_S = 0.02
CHILD_TIMEOUT_S = 150.0


def _child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_study(workload, scale: str, master_seed: int, trace: bool, out_dir: Path) -> dict:
    """Run one study in a fresh process; returns its JSON line plus the CSV."""
    csv_path = out_dir / ("traced.csv" if trace else "untraced.csv")
    csv_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--subcommand", workload.subcommand,
        "--config", str(workload.config_path),
        "--out", str(csv_path),
        "--seed", str(master_seed),
        "--realizations", str(workload.realizations[scale]),
        "--workers", str(workload.workers),
        "--trace", str(int(trace)),
        "--spans", str(out_dir / "spans.jsonl"),
    ]
    env = _child_env()
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"study did not finish within {CHILD_TIMEOUT_S:.0f} s"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"no result line in {proc.stdout[-200:]!r}"}
    result["csv"] = csv_path.read_bytes() if csv_path.is_file() else b""
    return result


def _scaled(results: list[dict], metric: str) -> list[float]:
    """The studies' times of ``metric`` at the reference host speed."""
    return [r[metric] * PROBE_REF_S / r["probe_s"] for r in results]


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    workload = WORKLOADS[name]
    master_seed = study_seed(seed)
    reference = load_reference()[reference_key(workload, scale, master_seed)]
    out_dir = OUT / name
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"workload {name}: {workload.subcommand} workers={workload.workers} "
          f"realizations={workload.realizations[scale]} seed={seed} master_seed={master_seed}")

    untraced, traced, problems, digests = [], [], [], set()
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    # A traced run needs at least one study of each kind.
    while attempted < 1 + trace or time.perf_counter() < deadline:
        traced_run = trace and attempted % 2 == 1
        result = run_study(workload, scale, master_seed, traced_run, out_dir)
        attempted += 1
        errors = [result["error"]] if "error" in result else []
        if not errors:
            errors += check_csv(result["csv"].decode("ascii", "replace"), reference["text"])
            errors += result.get("problems", [])
            digests.add(sha256(result["csv"]))
        if errors:
            failed += 1
            problems += errors
            continue
        (traced if traced_run else untraced).append(result)

    if len(digests) > 1:
        problems.append(f"{len(digests)} distinct CSVs from one seed (traced and untraced differ)")
    for digest in sorted(digests):
        same = "identical to" if digest == reference["sha256"] else "differs from"
        print(f"  csv sha256 {digest} ({same} the reference)")
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    print(f"  attempted {attempted}, failed {failed}, "
          f"failed_frac {failed / attempted:.4f} ratio")

    metrics: dict[str, dict] = {}
    if untraced and not trace:
        for metric in ("wall_s", "setup_s"):
            raw = [r[metric] for r in untraced]
            scaled = _scaled(untraced, metric)
            metrics[metric] = {"value": statistics.median(scaled), "unit": "s"}
            print(f"  {metric} {statistics.median(scaled):.6g} s at reference host speed "
                  f"(median of {len(raw)}; raw median {statistics.median(raw):.6g} s, "
                  f"min {min(raw):.6g}, max {max(raw):.6g})")
        rss = [r["peak_rss_mb"] for r in untraced]
        metrics["peak_rss_mb"] = {"value": statistics.median(rss), "unit": "MB"}
        print(f"  peak_rss_mb {statistics.median(rss):.6g} MB (median of {len(rss)})")
        print(f"  host probe {statistics.median(r['probe_s'] for r in untraced):.6g} s "
              f"per thread (reference {PROBE_REF_S} s)")
    if untraced and traced and trace:
        import spans

        for metric, unit in spans.layer_metric_names():
            value = statistics.median(r["layers"][metric] for r in traced)
            metrics[metric] = {"value": value, "unit": unit}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(_scaled(traced, "wall_s"))
            - statistics.median(_scaled(untraced, "wall_s")),
            "unit": "s",
        }
        for metric, entry in metrics.items():
            print(f"  {metric} {entry['value']:.6g} {entry['unit']}")
        print(f"  (medians of {len(traced)} traced and {len(untraced)} untraced studies)")
    return {
        "correct": failed == 0 and not problems and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=ACCEPTANCE_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="bench",
                        help="realization counts: bench, or smoke for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "irslink" / "__init__.py").is_file():
        print(f"error: no irslink sources under {SRC}", file=sys.stderr)
        return 2
    # Byte-compile once, so the first study does not pay for it in set-up.
    compileall.compile_dir(str(SRC / "irslink"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    print(f"python {platform.python_version()}, numpy {metadata.version('numpy')}, "
          f"nproc {os.cpu_count()}, "
          + ", ".join(f"{k}={v}" for k, v in THREAD_ENV.items()))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), args.scale)
               for n in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
