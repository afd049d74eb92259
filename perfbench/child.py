"""One study in a fresh process: the unit of work the benchmark times.

Imports irslink from the checkout's ``src``, parses the workload config
(the end of set-up), then runs the study through the public entry point
``irslink.cli.run`` and prints one JSON line with its timings.  A short
fixed probe just before and just after the study measures how fast the
host runs at that moment.  With
``--trace 1`` the layers are wrapped for the run, the spans are written to
``--spans`` and the per-layer figures are added to the JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _probe_kernel() -> None:
    import numpy as np

    a = np.exp(1j * np.arange(40.0)) * (1.0 + np.arange(40.0) / 40.0)
    acc = 0j
    for _ in range(1500):
        v = np.exp(1j * -np.angle(a))
        acc += complex(np.vdot(a, v)) / (1.0 + abs(acc))
        for x in a[:10].tolist():
            acc += x * v[0] - acc * 1e-3


def host_probe_s(threads: int) -> float:
    """Seconds per thread for a fixed mix of small numpy calls and Python
    complex arithmetic, run on ``threads`` threads at once like the study."""
    if threads <= 1:
        start = time.perf_counter()
        _probe_kernel()
        return time.perf_counter() - start
    with ThreadPoolExecutor(max_workers=threads) as pool:
        start = time.perf_counter()
        for future in [pool.submit(_probe_kernel) for _ in range(threads)]:
            future.result()
        return (time.perf_counter() - start) / threads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="CLOCK_MONOTONIC reading just before this process was spawned")
    parser.add_argument("--subcommand", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--realizations", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    import irslink
    from irslink import cli

    if not Path(irslink.__file__).resolve().is_relative_to(SRC):
        print(f"irslink imported from {irslink.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    cli.parse_config(args.config, experiment=args.subcommand)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at

    inv = cli.CliInvocation(
        subcommand=args.subcommand,
        config_path=args.config,
        out_path=args.out,
        seed_override=args.seed,
        realizations_override=args.realizations,
        quiet=True,
        workers=args.workers,
    )
    probe_before = host_probe_s(args.workers)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        code = cli.run(inv)
    finally:
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    probe_after = host_probe_s(args.workers)
    result = {
        "exit": code,
        "probe_s": (probe_before + probe_after) / 2,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        if args.spans:
            tracer.write(args.spans)
        result["layers"] = tracer.layer_metrics()
        result["problems"] = tracer.study_accounting(args.workers)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
