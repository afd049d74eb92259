"""In-memory span tracer for one traced study, and the per-layer figures
derived from its spans.

The tracer wraps the public functions of the irslink layers from outside
the package: each wrapper records a span (id, name, start, end, parent).
``experiments`` and ``beamforming`` import names directly, so a function
is patched under every module attribute that is bound to it, which is
where callers look it up.  ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

MODULES = ("numerics", "channel", "reflection", "beamforming", "experiments", "cli")

# (module, function, span name).  The three study runners share one name.
FUNCTIONS = (
    ("numerics", "sample_cscg", "numerics.sample_cscg"),
    ("channel", "realize", "channel.realize"),
    ("channel", "gen_bs_irs_los", "channel.gen_bs_irs_los"),
    ("reflection", "project", "reflection.project"),
    ("reflection", "effective_channel", "reflection.effective_channel"),
    ("beamforming", "alternating_optimize", "beamforming.alternating_optimize"),
    ("beamforming", "bs_irs_mrt", "beamforming.bs_irs_mrt"),
    ("beamforming", "align_phases", "beamforming.align_phases"),
    ("beamforming", "mrt", "beamforming.mrt"),
    ("beamforming", "discrete_refine", "beamforming.discrete_refine"),
    ("beamforming", "null_interference", "beamforming.null_interference"),
    ("experiments", "run_power_vs_distance", "experiments.study"),
    ("experiments", "run_power_vs_n", "experiments.study"),
    ("experiments", "run_interference_vs_n", "experiments.study"),
    ("cli", "parse_config", "cli.parse_config"),
)
# (module, class, method, span name)
METHODS = (
    ("reflection", "ReflectionState", "__init__", "reflection.ReflectionState"),
    ("experiments", "ExperimentResult", "write_csv", "experiments.write_csv"),
)
# Spans whose arguments and result are kept for the derived ratios below.
PROBED = ("beamforming.alternating_optimize", "beamforming.discrete_refine",
          "beamforming.null_interference")

# A null counts as reached when the residual interference power is this
# far (120 dB) below the direct interference power |t|^2.
NULL_FLOOR = 1e-12

# Per-layer metrics: span name -> the figures reported for it.
TIMED = {
    "numerics.sample_cscg": (),
    "channel.realize": ("p50_us", "p99_us"),
    "channel.gen_bs_irs_los": (),
    "reflection.project": (),
    "reflection.effective_channel": (),
    "reflection.ReflectionState": (),
    "beamforming.alternating_optimize": ("p50_us", "p99_us", "iters_mean", "capped_frac"),
    "beamforming.bs_irs_mrt": (),
    "beamforming.align_phases": (),
    "beamforming.mrt": (),
    "beamforming.discrete_refine": ("p50_us", "p99_us", "improved_frac"),
    "beamforming.null_interference": ("p50_us", "p99_us", "nulled_frac"),
}
UNITS = {"calls": "count", "self_s": "s", "p50_us": "us", "p99_us": "us",
         "iters_mean": "iter", "capped_frac": "ratio", "improved_frac": "ratio",
         "nulled_frac": "ratio"}
TOTALS = ("experiments.study_s", "experiments.self_s", "experiments.write_csv_s",
          "cli.parse_config_s")


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced study reports, with its unit."""
    names = []
    for span, extra in TIMED.items():
        for figure in ("calls", "self_s") + extra:
            names.append((f"{span}.{figure}", UNITS[figure]))
    return names + [(name, "s") for name in TOTALS]


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()
        self._patches: list[tuple[object, str, object]] = []
        self._probes: list[tuple[str, object, tuple, dict, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list[int], int, int]:
        stack = self._stack()
        # A call on a pool thread was caused by the span the creating
        # thread has open (the study, blocked in the pool).
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else 0)
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    @contextmanager
    def span(self, name: str):
        stack, sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent))

    def _wrap(self, name: str, fn):
        probe = self._probes.append if name in PROBED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, parent))
            if probe is not None:
                probe((name, fn, args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever an irslink module binds it."""
        modules = [importlib.import_module("irslink")] + [
            importlib.import_module(f"irslink.{m}") for m in MODULES
        ]
        for module, attr, name in FUNCTIONS:
            fn = getattr(importlib.import_module(f"irslink.{module}"), attr)
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        for module, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(f"irslink.{module}"), cls_name)
            fn = vars(cls)[attr]
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn))

    def restore(self) -> None:
        """Put every original back, and fail if any name is still wrapped."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        left = [f"{getattr(o, '__name__', o)}.{k}" for o, k, f in self._patches
                if vars(o)[k] is not f]
        self._patches.clear()
        if left:
            raise RuntimeError(f"wrappers not restored: {left}")

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first start."""
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="ascii") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                     "start": s.start - t0, "end": s.end - t0}) + "\n")

    def self_times(self) -> dict[int, float]:
        """Span duration minus the union of its children's intervals.

        Children on different threads may overlap each other (workers > 1);
        the union counts the time they cover once.
        """
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            children[s.parent].append(s)
        return {
            s.id: (s.end - s.start) - _union_length(
                [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
            )
            for s in self.spans
        }

    def study_accounting(self, workers: int) -> list[str]:
        """Check that the self times in the study's subtree account for it.

        With one worker the subtree's self times sum to the study span
        exactly; with more, spans on different threads overlap, so the sum
        may exceed it but never falls short.
        """
        self_s = self.self_times()
        children: dict[int, list[int]] = defaultdict(list)
        for s in self.spans:
            children[s.parent].append(s.id)
        problems = []
        studies = [s for s in self.spans if s.name == "experiments.study"]
        if len(studies) != 1:
            return [f"expected one experiments.study span, got {len(studies)}"]
        study = studies[0]
        total, todo = 0.0, [study.id]
        while todo:
            sid = todo.pop()
            total += self_s[sid]
            todo.extend(children[sid])
        duration = study.end - study.start
        if workers <= 1 and abs(total - duration) > 1e-6 * duration + 1e-9:
            problems.append(f"self times sum to {total} s, study span is {duration} s")
        if workers > 1 and total < duration * (1 - 1e-6):
            problems.append(f"self times sum to {total} s, short of the study span {duration} s")
        return problems

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures, keyed as in ``layer_metric_names``."""
        self_s = self.self_times()
        by_name: dict[str, list[Span]] = defaultdict(list)
        for s in self.spans:
            by_name[s.name].append(s)
        out: dict[str, float] = {}
        for name, extra in TIMED.items():
            spans = by_name[name]
            out[f"{name}.calls"] = len(spans)
            out[f"{name}.self_s"] = sum(self_s[s.id] for s in spans)
            durations_us = [(s.end - s.start) * 1e6 for s in spans] or [0.0]
            if "p50_us" in extra:
                out[f"{name}.p50_us"] = float(np.percentile(durations_us, 50))
                out[f"{name}.p99_us"] = float(np.percentile(durations_us, 99))
        out.update(self._probe_ratios())
        out["experiments.study_s"] = sum(s.end - s.start for s in by_name["experiments.study"])
        out["experiments.self_s"] = sum(self_s[s.id] for s in by_name["experiments.study"])
        out["experiments.write_csv_s"] = sum(
            s.end - s.start for s in by_name["experiments.write_csv"])
        out["cli.parse_config_s"] = sum(s.end - s.start for s in by_name["cli.parse_config"])
        return out

    def _probe_ratios(self) -> dict[str, float]:
        from irslink.beamforming import direct_and_cascade

        iters, capped, improved, nulled = [], [], [], []
        for name, fn, args, kwargs, result in self._probes:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            if name == "beamforming.alternating_optimize":
                iters.append(len(result.trace))
                capped.append(len(result.trace) >= a["max_iter"])
            elif name == "beamforming.discrete_refine":
                t, coeff = direct_and_cascade(a["ch"], a["w"])
                before = abs(t + np.dot(coeff, a["start"].coefficients)) ** 2
                after = abs(t + np.dot(coeff, result.coefficients)) ** 2
                improved.append(after > before)
            else:
                ch, residual = a["ch"], result[1]
                direct = abs(ch.h_bs_user[0])
                reach = float(np.sum(np.abs(ch.h_irs_user * ch.g_bs_irs[:, 0])))
                nulled.append(reach >= direct and residual <= NULL_FLOOR * direct ** 2)
        return {
            "beamforming.alternating_optimize.iters_mean": _mean(iters),
            "beamforming.alternating_optimize.capped_frac": _mean(capped),
            "beamforming.discrete_refine.improved_frac": _mean(improved),
            "beamforming.null_interference.nulled_frac": _mean(nulled),
        }


def _mean(values: list) -> float:
    return float(np.mean(values)) if values else 0.0


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end <= max(start, reach):
            continue
        total += end - max(start, reach)
        reach = end
    return total
