"""Monte Carlo studies: required power versus distance and element count,
and residual interference versus element count.

Every study draws its channels from streams keyed by the realization
index, so the same fading is reused across sweep values and across
schemes (paired comparisons), and the output is independent of evaluation
order and of the worker count.  One driver runs every study in ``STUDIES``;
with more than one worker it shards the realizations over processes.  On
Linux it forks each shard itself and reads its samples back through a
pipe; elsewhere a ``ProcessPoolExecutor`` spawns them.  Within a shard,
realizations are walked in blocks of as many rows as an element budget
allows (``_block_rows``): each realization's fading is drawn once and
reused for every sweep value (the block's streams are keyed together, with
the bits each stream has alone), and the study's metric gets the block
once, for every sweep value.  A sweep value's arrays are the shared
line-of-sight matrix ``g`` (N, M) and the stacked links ``h_r`` (R, N) and
``h_d`` (R, M).  Both power studies share one metric, ``_power_gains``:
the closed form that the rank-one ``g`` allows, computed for each sweep
value in turn and serving every power scheme, with power-versus-N's
discrete phases refined for the whole block together.  The interference
study's swept surfaces are nested, each the first N elements of the
largest, so it forms the largest value's arrays once and nulls the block's
rows at every swept N in one loop.
Every realization gets the same values as it would alone, and the tests
check them against the general per-realization solvers of ``beamforming``.
"""

from __future__ import annotations

import enum
import math
import os
import pickle
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .beamforming import (
    _anti_aligned,
    _null_prefixes,
    _rank_one_beam,
    _within_reach,
    nulling_residual,
    refine_levels,
)
from .channel import DB_LIMIT, ScenarioConfig, draw_fading_rows, scenario_links
from .numerics import db_to_linear
from .reflection import unit_phases

POWER_DISTANCE_SCHEMES = ("joint", "bs_user_mrt", "bs_irs_mrt", "no_irs")
_DEFAULT_DISTANCES = (20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0, 55.0)
# Realizations evaluated together: as many as keep rows x (the study's
# block width) within _ELEMENT_BUDGET, and at least _MIN_ROWS.  The width
# is the largest swept N for the power studies, whose metric holds one
# value's (rows, N) arrays at a time, and the sum of the swept N for the
# interference study, whose nulling holds every value's (rows, N) state at
# once: 16 bytes per element of that sum, besides about 80 per element of
# the largest N (fading, channel, cascade, anti-aligned start and angles).
# A block at the row floor nulls its swept N in runs that fit the budget.
# So memory does not grow with n_realizations or the sweep's length, and
# wide blocks spread the kernels' per-call cost.
_ELEMENT_BUDGET = 1 << 17
_MIN_ROWS = 64

# How shard processes start.  A forked shard inherits the imported modules
# and the validated config, so it starts in milliseconds, and needs no
# process pool (_fork_shards).  Windows has no fork and it is unsafe on
# macOS, so there a process pool spawns the shards, which re-import
# everything.
_START_METHOD = "fork" if sys.platform == "linux" else "spawn"

# Maps one block of R realizations at every sweep value, (the ScenarioLinks
# of each sweep value, fading_r (R, largest swept N), fading_d (R, M), cfg),
# to one dict per sweep value, in sweep order, of the values kept as
# samples, stacked over the block per key.
_BlockMetric = Callable[..., list[dict[str, np.ndarray]]]


class ConfigErrorCode(enum.Enum):
    MISSING_FILE = "missing_file"
    BAD_SYNTAX = "bad_syntax"
    UNKNOWN_KEY = "unknown_key"
    TYPE_MISMATCH = "type_mismatch"
    INVALID_VALUE = "invalid_value"


class ConfigError(ValueError):
    """Invalid experiment configuration, with a code and optional line."""

    def __init__(self, code: ConfigErrorCode, message: str, line: int | None = None):
        self.code = code
        self.message = message
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"[{code.value}]{where} {message}")

    def __reduce__(self):
        # rebuilt from its own arguments, so it can cross from a shard process
        return type(self), (self.code, self.message, self.line)


class ResultRow(NamedTuple):
    sweep_value: float
    scheme: str
    metric_value: float
    metric_unit: str
    n_realizations: int
    master_seed: int


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one Monte Carlo study."""

    scenario: ScenarioConfig = ScenarioConfig()
    sweep: tuple[str, tuple[float, ...]] = ("d", _DEFAULT_DISTANCES)
    schemes: tuple[str, ...] = POWER_DISTANCE_SCHEMES
    n_realizations: int = 500
    master_seed: int = 1
    snr_target_db: float = 20.0
    interferer_power_dbm: float = 30.0

    def __post_init__(self) -> None:
        for count in ("n_realizations", "master_seed"):
            if not isinstance(getattr(self, count), (int, np.integer)):
                raise ConfigError(ConfigErrorCode.INVALID_VALUE,
                                  f"{count} must be an integer, got {getattr(self, count)!r}")
        if self.n_realizations < 1:
            raise ConfigError(
                ConfigErrorCode.INVALID_VALUE,
                f"n_realizations must be >= 1, got {self.n_realizations}",
            )
        if not self.schemes:
            raise ConfigError(ConfigErrorCode.INVALID_VALUE, "schemes needs at least one scheme")
        repeated = sorted({s for s in self.schemes if self.schemes.count(s) > 1})
        if repeated:
            raise ConfigError(
                ConfigErrorCode.INVALID_VALUE, f"schemes lists {', '.join(repeated)} more than once"
            )
        name, values = self.sweep
        if name not in ("d", "n"):
            raise ConfigError(ConfigErrorCode.INVALID_VALUE, f"unknown sweep variable {name!r}")
        if len(values) == 0:
            raise ConfigError(ConfigErrorCode.INVALID_VALUE, "sweep needs at least one value")
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(ConfigErrorCode.INVALID_VALUE, f"sweep values must be finite: {values}")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError(
                ConfigErrorCode.INVALID_VALUE, f"sweep values must be strictly increasing: {values}"
            )
        keys = [_sweep_key(v) for v in values]
        if len(set(keys)) < len(keys):
            raise ConfigError(
                ConfigErrorCode.INVALID_VALUE, f"sweep values {values} print as colliding keys {keys}"
            )
        if not 0 <= self.master_seed < 1 << 64:
            raise ConfigError(
                ConfigErrorCode.INVALID_VALUE, f"master_seed must fit in 64 bits, got {self.master_seed}"
            )
        for level in ("snr_target_db", "interferer_power_dbm"):
            if not abs(getattr(self, level)) <= DB_LIMIT:
                raise ConfigError(
                    ConfigErrorCode.INVALID_VALUE,
                    f"{level} must be finite and within +-{DB_LIMIT:g}, got {getattr(self, level)}",
                )
        _sweep_scenarios(self)


@dataclass(eq=False)
class ExperimentResult:
    """Aggregated rows, and the per-realization samples behind them.

    A study's result always carries its samples: one array per (sweep
    value, key), in realization order.
    """

    rows: list[ResultRow]
    samples: dict[tuple[float, str], np.ndarray] = field(default_factory=dict)

    CSV_HEADER = "sweep_value,scheme,metric_value,metric_unit,n_realizations,master_seed"

    def to_csv_text(self) -> str:
        lines = [self.CSV_HEADER]
        for row in sorted(self.rows, key=lambda r: (r.sweep_value, r.scheme)):
            lines.append(
                f"{_sweep_key(row.sweep_value)},{row.scheme},{row.metric_value:.6f},"
                f"{row.metric_unit},{row.n_realizations},{row.master_seed}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(self.to_csv_text())

    def value(self, sweep_value: float, scheme: str) -> float:
        for row in self.rows:
            if row.sweep_value == sweep_value and row.scheme == scheme:
                return row.metric_value
        raise KeyError((sweep_value, scheme))


def _sweep_key(value: float) -> str:
    """A sweep value as the CSV prints it."""
    return f"{value:g}"


def _sweep_scenarios(cfg: ExperimentConfig) -> list[ScenarioConfig]:
    """The scenario of each sweep value.

    A fractional count or a scenario that fails its own validation raises
    ConfigError.
    """
    name, values = cfg.sweep
    scenarios = []
    for value in values:
        try:
            if name == "d":
                y = cfg.scenario.user_position[1]
                scenarios.append(replace(cfg.scenario, user_position=(float(value), y)))
            elif float(value).is_integer():
                scenarios.append(replace(cfg.scenario, n_elements=int(value)))
            else:
                raise ValueError("element counts must be integers")
        except ValueError as exc:
            raise ConfigError(
                ConfigErrorCode.INVALID_VALUE, f"sweep value {name} = {value:g}: {exc}"
            ) from None
    return scenarios


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # complex x * y from real products: numpy's complex multiply rounds
    # differently when an operand is broadcast along its inner loop, as a
    # length-one axis (M or N = 1) makes it, and the block's size would
    # move a row's bits
    return (x.real * y.real - x.imag * y.imag) + 1j * (x.real * y.imag + x.imag * y.real)


def _power_gains(
    g: np.ndarray, h_r: np.ndarray, h_d: np.ndarray, schemes
) -> dict[str, np.ndarray]:
    """Channel power gain per scheme of a block of realizations that share
    one rank-one ``g`` = gamma b^H, in closed form, stacked per key.

    b is the unit principal right vector of G; per row, p = b^H h_d,
    r = sum_n |h_r,n| ||G[n, :]|| (both 0 without elements) and c = |p|.
    For a fixed beam w, aligned phases give the gain
    (|h_d^H w| + sum_n |h_r,n| |(G w)_n|)^2, so the schemes' gains are

    - joint and continuous: ||h_d||^2 + r^2 + 2rc, the joint optimum (Wu
      & Zhang, IEEE TWC 2019), reached by w* = mrt(q), q = h_d + r e^{j
      arg p} b, and unit-modulus phases aligned to w*;
    - bs_user_mrt (w = h_d / ||h_d||): (||h_d|| + rc / ||h_d||)^2;
    - bs_irs_mrt (w = b): (c + r)^2;
    - no_irs: ||h_d||^2;
    - b{b} (N >= 1): the phases aligned to w* rounded to the b-bit
      lattice, key 'b{b}_quant', then refined at w*, key 'b{b}'.  The
      beam is re-matched to each state v: the gain is ||h_d + s b||^2,
      s = sum_n conj(gamma_n v_n) h_r,n.

    Row reductions, not matrix products, so that each row gets the bits it
    gets alone.
    """
    norm_d = np.linalg.norm(h_d, axis=1)
    r = np.sum(np.abs(h_r) * np.linalg.norm(g, axis=1), axis=1)
    b = _rank_one_beam(g) if len(g) else None
    p = np.sum(_mul(h_d, np.conj(b)), axis=1) if len(g) else np.zeros(len(h_d), np.complex128)
    c = np.abs(p)
    joint = norm_d**2 + r**2 + 2.0 * r * c
    gains: dict[str, np.ndarray] = {}
    a = None  # the lattice schemes' terms, made by the first of them
    for scheme in schemes:
        if scheme in ("joint", "continuous"):
            gains[scheme] = joint
        elif scheme == "bs_user_mrt":
            if not norm_d.all():
                raise ValueError("MRT undefined for an all-zero channel")
            gains[scheme] = (norm_d + r * c / norm_d) ** 2
        elif scheme == "bs_irs_mrt":
            gains[scheme] = (c + r) ** 2
        elif scheme == "no_irs":
            gains[scheme] = norm_d**2
        elif scheme in ("b1", "b2"):
            if a is None:
                f = _mul(np.conj(h_r), g @ b)  # so that s = conj(sum_n f_n v_n)
                # (t, a) of direct_and_cascade at w*, both times ||q||:
                # h_d^H q = ||h_d||^2 + r|p| and b^H q = p + r e^{j arg p}
                t = norm_d**2 + r * c
                a = _mul(f, (p + r * unit_phases(p))[:, None])
            bits = int(scheme[1:])
            # the phases aligned to w* (t is real and >= 0), on the lattice
            quantized = unit_phases(np.conj(a), bits)
            for key, v in ((f"{scheme}_quant", quantized),
                           (scheme, refine_levels(t, a, quantized, bits))):
                s = np.conj(np.sum(f * v, axis=1))
                gains[key] = np.linalg.norm(h_d + _mul(s[:, None], b), axis=1) ** 2
    return gains


def _runs(sizes, cap: int) -> list[list[int]]:
    """``sizes`` cut into consecutive runs, each summing to at most ``cap``
    or holding a single size."""
    runs: list[list[int]] = [[]]
    for n in sizes:
        if runs[-1] and sum(runs[-1]) + n > cap:
            runs.append([])
        runs[-1].append(n)
    return runs


def _interference_gains(
    g: np.ndarray, h_r: np.ndarray, h_d: np.ndarray, schemes, sizes
) -> list[dict[str, np.ndarray]]:
    """Residual interference channel gain per scheme of a block of
    single-antenna realizations, stacked per key, for each element count n
    of ``sizes``: the surface of the first n rows of ``g`` and columns of
    ``h_r``.

    With (t, f) what ``direct_and_cascade`` gives each row for w = [1],
    every row is solved at once, as ``null_interference`` solves one
    realization: ``joint_amp_phase`` by the disk closed form
    (:func:`null_free_amplitude`), ``phase_only`` by :func:`null_phases`,
    every size in one loop (in runs of sizes whose states fit
    ``_ELEMENT_BUDGET``, when a block at its row floor would exceed it);
    each solver starts from the anti-aligned state, computed once for all
    sizes.  Key 'margin' holds the cancellation feasibility margin
    sum|f_n| - |t| (non-negative means a perfect null is reachable with
    amplitude control).
    """
    t = np.conj(h_d[:, 0])  # vdot(h_d, [1]) of each row
    f = np.conj(h_r) * (g @ np.ones(1))
    abs_t = np.hypot(t.real, t.imag)
    start = _anti_aligned(t, f)
    reach = [np.sum(np.abs(f[:, :n]), axis=1) for n in sizes]
    out = [{"margin": r - abs_t} for r in reach]
    # scheme by scheme, so that each scheme's states are held only while
    # its residuals are taken
    for scheme in schemes:
        if scheme == "joint_amp_phase":
            for n, r, gains in zip(sizes, reach, out):
                gains[scheme] = nulling_residual(
                    t, f[:, :n], _within_reach(start[:, :n].copy(), abs_t, r))
        elif scheme == "phase_only":
            rest = iter(out)
            for run in _runs(sizes, _ELEMENT_BUDGET // max(len(t), 1)):
                # popped, so that no view keeps the packed states alive after
                phases = _null_prefixes(t, f, start, run)
                for n, gains in zip(run, rest):
                    gains[scheme] = nulling_residual(t, f[:, :n], phases.pop(0))
        elif scheme == "no_irs":
            for gains in out:
                gains[scheme] = np.float_power(abs_t, 2)
    return out


def _required_powers(
    g: np.ndarray, h_r: np.ndarray, h_d: np.ndarray, cfg: ExperimentConfig
) -> dict[str, np.ndarray]:
    """``min_power_for_snr`` of every row's :func:`_power_gains` per key.

    Each log10 is ``math.log10`` of one element, as ``min_power_for_snr``
    takes it: ``np.log10``'s SIMD loops can round differently.
    """
    level = cfg.snr_target_db + cfg.scenario.noise_power_dbm
    powers = {}
    for scheme, gains in _power_gains(g, h_r, h_d, cfg.schemes).items():
        bad = gains[gains <= 0]
        if len(bad):
            raise ValueError(f"channel gain must be > 0 to reach any SNR, got {bad[0]}")
        logs = np.fromiter(map(math.log10, gains.tolist()), float, len(gains))
        powers[scheme] = level - 10.0 * logs
    return powers


def _power_samples(links, fading_r: np.ndarray, fading_d: np.ndarray,
                   cfg: ExperimentConfig) -> list[dict[str, np.ndarray]]:
    # each sweep value's arrays are built and consumed in turn, so a block
    # holds one value's (R, N) arrays at a time
    return [_required_powers(*link.block(fading_r, fading_d), cfg) for link in links]


def _interference_samples(links, fading_r: np.ndarray, fading_d: np.ndarray,
                          cfg: ExperimentConfig) -> list[dict[str, np.ndarray]]:
    # an element-count sweep's surfaces are nested: each value's arrays are
    # the first N elements of the last, largest value's, so its block serves all
    sizes = [len(link.g_bs_irs) for link in links]
    p_tx_mw = db_to_linear(cfg.interferer_power_dbm)
    noise_mw = db_to_linear(cfg.scenario.noise_power_dbm)
    return [
        {key: values if key == "margin" else p_tx_mw * values / noise_mw
         for key, values in gains.items()}
        for gains in _interference_gains(*links[-1].block(fading_r, fading_d), cfg.schemes, sizes)
    ]


def _power_rows(samples: dict[str, np.ndarray]) -> list[tuple[str, float, str]]:
    mean = {scheme: float(10.0 * np.log10(np.mean(db_to_linear(powers_dbm))))
            for scheme, powers_dbm in samples.items()}
    rows = [(scheme, value, "dBm") for scheme, value in mean.items()]
    if "continuous" in mean:
        rows += [(f"loss_{scheme}", value - mean["continuous"], "dB")
                 for scheme, value in mean.items() if scheme != "continuous"]
    return rows


def _interference_rows(samples: dict[str, np.ndarray]) -> list[tuple[str, float, str]]:
    # perfect cancellation would give -inf dB; floor keeps metrics finite
    return [(scheme, float(10.0 * np.log10(max(float(np.mean(normalized)), 1e-30))), "dB")
            for scheme, normalized in samples.items() if scheme != "margin"]


class Study(NamedTuple):
    """What sets one Monte Carlo study apart from the others.

    ``metric`` maps one block of realizations to its samples per key (a
    scheme) at every sweep value, in sweep order; each row must be what the
    realization gives alone.  ``rows`` turns those values, stacked over all
    realizations of one sweep value, into (scheme, metric, unit) rows.
    ``block_width`` gives, from the swept element counts, how many elements
    per realization the metric holds at once (``max`` when it forms each
    value's arrays in turn, ``sum`` when it solves every value together),
    which sizes the blocks.  ``defaults`` is the configuration of a run
    that sets nothing: only its sweep variable may be swept, and its
    schemes are the ones allowed.
    """

    defaults: ExperimentConfig
    min_elements: int | None  # smallest swept element count; None for a distance sweep
    single_antenna: bool
    metric: _BlockMetric  # (links, fading_r, fading_d, cfg) of one block
    rows: Callable[[dict[str, np.ndarray]], list[tuple[str, float, str]]]
    block_width: Callable[[list[int]], int]  # elements per row a block holds, from the swept N


STUDIES = {
    "power-vs-distance": Study(
        defaults=ExperimentConfig(), min_elements=None, single_antenna=False,
        metric=_power_samples, rows=_power_rows, block_width=max,
    ),
    "power-vs-n": Study(
        defaults=ExperimentConfig(sweep=("n", (50.0, 100.0, 150.0, 200.0, 250.0, 300.0)),
                                  schemes=("continuous", "b1", "b2")),
        min_elements=1, single_antenna=False,
        metric=_power_samples, rows=_power_rows, block_width=max,
    ),
    "interference-vs-n": Study(
        defaults=ExperimentConfig(scenario=ScenarioConfig(m_antennas=1),
                                  sweep=("n", (20.0, 40.0, 60.0, 80.0, 100.0)),
                                  schemes=("joint_amp_phase", "phase_only", "no_irs"),
                                  n_realizations=200),
        min_elements=0, single_antenna=True, metric=_interference_samples,
        rows=_interference_rows, block_width=sum,
    ),
}


def _block_rows(width: int) -> int:
    """Realizations per block when a block holds ``width`` elements per
    realization (``Study.block_width`` of the swept element counts)."""
    return max(_MIN_ROWS, _ELEMENT_BUDGET // max(width, 1))


def _sweep_samples(
    study: str, cfg: ExperimentConfig, start: int, stop: int
) -> list[dict[str, np.ndarray]]:
    """Metrics of realizations ``start`` .. ``stop - 1``, stacked per key,
    for each sweep value in turn.

    The range is walked in blocks of ``_block_rows`` realizations, sized by
    the study's ``block_width`` of the swept element counts; rows are
    independent, so the block size moves no bits.  Each realization's
    fading is drawn once, at the largest swept element count ``n_max``,
    and the study's metric gets each block once, with every sweep value's
    ``ScenarioLinks``, which form that value's arrays from the block's.
    One shard of a study; module-level so that worker processes can
    unpickle it.
    """
    spec = STUDIES[study]
    scenarios = _sweep_scenarios(cfg)
    links = [scenario_links(scen) for scen in scenarios]
    sizes = [scen.n_elements for scen in scenarios]
    m, n_max = cfg.scenario.m_antennas, max(sizes)
    rows = _block_rows(spec.block_width(sizes))
    per_value: list[list[dict[str, np.ndarray]]] = [[] for _ in scenarios]
    for lo in range(start, stop, rows):
        # realization i draws from SeededRng(master_seed, i), whatever its block
        fading_r, fading_d = draw_fading_rows(cfg.master_seed, range(lo, min(lo + rows, stop)),
                                              m, n_max)
        for blocks, samples in zip(per_value, spec.metric(links, fading_r, fading_d, cfg)):
            blocks.append(samples)
    return [{key: np.concatenate([b[key] for b in blocks]) for key in blocks[0]}
            for blocks in per_value]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (``taskset`` narrows it), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_shards(study: str, cfg: ExperimentConfig, bounds: list[int]) -> list:
    """``_sweep_samples`` of realizations ``bounds[k]`` .. ``bounds[k + 1] - 1``
    for every shard k, each run in a child forked for it, in shard order.

    Each child pickles ``(True, samples)`` or ``(False, exception)`` to its
    own pipe and leaves by ``os._exit``: it never returns into the caller's
    stack, runs no atexit handler and flushes no inherited stdio buffer.
    A shard's exception is raised here; a child that exits without sending
    a result raises RuntimeError.  On any failure the shards still running
    are killed, and every child is reaped.
    """
    # else a child that flushes would repeat what the parent had buffered
    for stream in (sys.stdout, sys.stderr):
        if stream is not None and not stream.closed:
            stream.flush()
    children: list[tuple[int, int]] = []  # (pid, read end), not yet reaped
    try:
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:  # the shard
                status = 1
                try:
                    os.close(r)
                    try:
                        result = (True, _sweep_samples(study, cfg, lo, hi))
                    except Exception as exc:  # raised again in the parent
                        result = (False, exc)
                    with open(w, "wb") as pipe:
                        pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            # no later shard inherits this write end, so the pipe ends
            # when its own shard exits
            os.close(w)
            children.append((pid, r))
        shards = []
        while children:
            pid, r = children[0]
            with open(r, "rb", closefd=False) as pipe:
                data = pipe.read()
            _, wait_status = os.waitpid(pid, 0)
            children.pop(0)
            os.close(r)
            status = os.waitstatus_to_exitcode(wait_status)
            if status != 0 or not data:
                raise RuntimeError(f"shard {len(shards)} of {study} exited with status "
                                   f"{status} without sending a result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            shards.append(value)
        return shards
    finally:
        if children:
            import signal  # only a failure needs it; importing it costs ~1 ms
        for pid, r in children:
            os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_study(cfg: ExperimentConfig, study: str, workers: int) -> ExperimentResult:
    """Validate ``cfg`` for ``STUDIES[study]`` (the one check of its schemes
    and element counts, which the block metrics trust), then evaluate and
    aggregate it.

    With ``workers > 1``, contiguous realization ranges run in separate
    processes, at most one per usable CPU, and are concatenated in
    realization order: bit-identical to ``workers = 1``, since each
    realization draws from its own stream.  On Linux each shard is forked
    and sends its samples through a pipe (:func:`_fork_shards`); elsewhere
    a ``ProcessPoolExecutor`` spawns them.
    """
    spec = STUDIES[study]
    if workers < 1:
        raise ConfigError(ConfigErrorCode.INVALID_VALUE, f"workers must be >= 1, got {workers}")
    if spec.single_antenna and cfg.scenario.m_antennas != 1:
        raise ConfigError(
            ConfigErrorCode.INVALID_VALUE,
            f"{study} requires m_antennas = 1, got {cfg.scenario.m_antennas}",
        )
    defaults = spec.defaults
    unknown = [s for s in cfg.schemes if s not in defaults.schemes]
    if unknown:
        raise ConfigError(
            ConfigErrorCode.INVALID_VALUE,
            f"unknown scheme(s) {unknown}; allowed: {list(defaults.schemes)}",
        )
    name, values = cfg.sweep
    if name != defaults.sweep[0]:
        raise ConfigError(ConfigErrorCode.INVALID_VALUE, f"{study} sweeps {defaults.sweep[0]!r}")
    if "bs_irs_mrt" in cfg.schemes and cfg.scenario.n_elements == 0:
        raise ConfigError(ConfigErrorCode.INVALID_VALUE, "scheme 'bs_irs_mrt' needs n_elements >= 1")
    if spec.min_elements is not None:
        bad = [v for v in values if v < spec.min_elements]
        if bad:
            raise ConfigError(
                ConfigErrorCode.INVALID_VALUE,
                f"element counts must be >= {spec.min_elements}, got {bad}",
            )

    n = cfg.n_realizations
    n_shards = min(workers, n, _usable_cpus())
    bounds = [n * k // n_shards for k in range(n_shards + 1)]
    if n_shards == 1:
        shards = [_sweep_samples(study, cfg, 0, n)]
    elif _START_METHOD == "fork":
        shards = _fork_shards(study, cfg, bounds)
    else:
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor

        context = multiprocessing.get_context(_START_METHOD)
        with ProcessPoolExecutor(n_shards, mp_context=context) as pool:
            shards = list(pool.map(_sweep_samples, [study] * n_shards, [cfg] * n_shards,
                                   bounds[:-1], bounds[1:]))

    rows: list[ResultRow] = []
    samples: dict[tuple[float, str], np.ndarray] = {}
    for k, value in enumerate(values):
        # each shard's arrays are dropped as they are stacked, so that no
        # sample is held twice
        stacked = {key: np.concatenate([s[k].pop(key) for s in shards])
                   for key in list(shards[0][k])}
        rows += [ResultRow(float(value), scheme, metric, unit, n, cfg.master_seed)
                 for scheme, metric, unit in spec.rows(stacked)]
        samples.update({(float(value), key): arr for key, arr in stacked.items()})
    return ExperimentResult(rows=rows, samples=samples)


def run_power_vs_distance(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Minimum transmit power (dBm) to hit the SNR target, versus distance.

    For each swept user distance the requested schemes are evaluated on
    the same channel realizations and the per-realization required powers
    are averaged in the linear domain.
    """
    return _run_study(cfg, "power-vs-distance", workers)


def run_power_vs_n(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Required transmit power versus the number of reflecting elements.

    The 'continuous' scheme keeps unit amplitudes with free phases; 'b1'
    and 'b2' round those phases to 1- and 2-bit lattices and refine them
    elementwise.  Rounding-only variants are reported as 'b{b}_quant'
    rows, and per-N quantization losses as 'loss_*' rows in dB.
    """
    return _run_study(cfg, "power-vs-n", workers)


def run_interference_vs_n(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Interference power at the user, normalized by noise power, versus N.

    The interferer transmits at ``interferer_power_dbm`` through a single
    antenna; the surface is driven to cancel.  Reported in dB after
    linear-domain averaging across realizations.
    """
    return _run_study(cfg, "interference-vs-n", workers)
