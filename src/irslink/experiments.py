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
the bits each stream has alone), and each sweep value hands the study's
metric one block of three arrays, the shared line-of-sight matrix ``g``
(N, M) and the stacked links ``h_r`` (R, N) and ``h_d`` (R, M).  Both
power studies take their optimum in closed form on these arrays, which the
rank-one ``g`` allows, and power-versus-N refines the block's discrete
phases together; the interference study nulls the block's rows together.
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
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .beamforming import (
    _anti_aligned,
    _rank_one_beam,
    null_free_amplitude,
    null_phases,
    nulling_residual,
    refine_levels,
)
from .channel import DB_LIMIT, ScenarioConfig, draw_fading_rows, scenario_links
from .numerics import SeededRng, db_to_linear
from .reflection import unit_phases

POWER_DISTANCE_SCHEMES = ("joint", "bs_user_mrt", "bs_irs_mrt", "no_irs")
_DEFAULT_DISTANCES = (20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0, 55.0)
# Realizations evaluated together at one sweep value: as many as keep
# rows x (largest swept N) within _ELEMENT_BUDGET, and at least _MIN_ROWS.
# A block's arrays are (rows, N), so memory does not grow with
# n_realizations, and wide blocks spread the kernels' per-call cost.
_ELEMENT_BUDGET = 1 << 17
_MIN_ROWS = 64

# How shard processes start.  A forked shard inherits the imported modules
# and the validated config, so it starts in milliseconds, and needs no
# process pool (_fork_shards).  Windows has no fork and it is unsafe on
# macOS, so there a process pool spawns the shards, which re-import
# everything.
_START_METHOD = "fork" if sys.platform == "linux" else "spawn"

# Maps one block of R realizations, (g (N, M), h_r (R, N), h_d (R, M), cfg),
# to the values kept as samples, stacked over the block per key.
_BlockMetric = Callable[..., dict[str, np.ndarray]]


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
    keep_samples: bool = False

    def __post_init__(self) -> None:
        if self.n_realizations < 1:
            raise ConfigError(
                ConfigErrorCode.INVALID_VALUE,
                f"n_realizations must be >= 1, got {self.n_realizations}",
            )
        if not self.schemes:
            raise ConfigError(ConfigErrorCode.INVALID_VALUE, "schemes needs at least one scheme")
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
    """Aggregated rows, plus optional per-realization samples."""

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

    A scenario that fails its own validation raises ConfigError.
    """
    name, values = cfg.sweep
    scenarios = []
    for value in values:
        try:
            if name == "d":
                y = cfg.scenario.user_position[1]
                scenarios.append(replace(cfg.scenario, user_position=(float(value), y)))
            else:
                scenarios.append(replace(cfg.scenario, n_elements=int(value)))
        except ValueError as exc:
            raise ConfigError(
                ConfigErrorCode.INVALID_VALUE, f"sweep value {name} = {value:g}: {exc}"
            ) from None
    return scenarios


def channel_stream(master_seed: int, realization: int) -> SeededRng:
    """Stream for one Monte Carlo realization (shared across sweep values)."""
    return SeededRng(master_seed, realization)


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # complex x * y from real products: numpy's complex multiply rounds
    # differently when an operand is broadcast along its inner loop, as a
    # length-one axis (M or N = 1) makes it, and the block's size would
    # move a row's bits
    return (x.real * y.real - x.imag * y.imag) + 1j * (x.real * y.imag + x.imag * y.real)


def _rank_one_terms(g: np.ndarray, h_r: np.ndarray, h_d: np.ndarray) -> tuple:
    """For a block sharing the rank-one ``g`` = gamma b^H: b, the unit
    principal right vector of G (None without elements), and per row
    p = b^H h_d, r = sum_n |h_r,n| ||G[n, :]|| (both 0 without elements),
    ||h_d|| and the joint optimum ||h_d||^2 + r^2 + 2r|p| (Wu & Zhang,
    IEEE TWC 2019).  Row reductions, not matrix products, so that each row
    gets the bits it gets alone."""
    norm_d = np.linalg.norm(h_d, axis=1)
    r = np.sum(np.abs(h_r) * np.linalg.norm(g, axis=1), axis=1)
    b = _rank_one_beam(g) if len(g) else None
    p = np.sum(_mul(h_d, np.conj(b)), axis=1) if len(g) else np.zeros(len(h_d), np.complex128)
    return b, p, r, norm_d, norm_d**2 + r**2 + 2.0 * r * np.abs(p)


def _signal_gains(
    g: np.ndarray, h_r: np.ndarray, h_d: np.ndarray, schemes
) -> dict[str, np.ndarray]:
    """Channel power gain per signal-enhancement scheme of a block of
    realizations that share one rank-one ``g``, in closed form, stacked
    per scheme.

    For a fixed beam w, aligned phases give the gain
    (|h_d^H w| + sum_n |h_r,n| |(G w)_n|)^2.  With b, p and r from
    :func:`_rank_one_terms` and c = |p|, the schemes' gains are

    - joint: ||h_d||^2 + r^2 + 2rc, the joint optimum;
    - bs_user_mrt (w = h_d / ||h_d||): (||h_d|| + rc / ||h_d||)^2;
    - bs_irs_mrt (w = b): (c + r)^2;
    - no_irs: ||h_d||^2.
    """
    _, p, r, norm_d, joint = _rank_one_terms(g, h_r, h_d)
    c = np.abs(p)
    gains: dict[str, np.ndarray] = {}
    for scheme in schemes:
        if scheme == "joint":
            gains[scheme] = joint
        elif scheme == "bs_user_mrt":
            if not norm_d.all():
                raise ValueError("MRT undefined for an all-zero channel")
            gains[scheme] = (norm_d + r * c / norm_d) ** 2
        elif scheme == "bs_irs_mrt":
            if not len(g):
                raise ValueError("transmitter-surface MRT needs at least one element")
            gains[scheme] = (c + r) ** 2
        elif scheme == "no_irs":
            gains[scheme] = norm_d**2
        else:
            raise ConfigError(ConfigErrorCode.INVALID_VALUE, f"unknown scheme {scheme!r}")
    return gains


def _quantized_gains(
    g: np.ndarray, h_r: np.ndarray, h_d: np.ndarray, schemes
) -> dict[str, np.ndarray]:
    """Continuous-phase optimum and its b-bit quantized/refined variants of
    a block of realizations that share one rank-one ``g`` = gamma b^H
    (N >= 1), in closed form, stacked per key.

    Keys are the requested schemes among 'continuous' (the unit-modulus
    joint optimum of :func:`_rank_one_terms`, reached by w* = mrt(q),
    q = h_d + r e^{j arg p} b, and phases aligned to w*) and 'b{b}' (those
    phases rounded to the b-bit lattice, then refined at w*), plus
    'b{b}_quant' (rounding only) for every 'b{b}'.  The beam is re-matched
    to each state v: the gain is ||h_d + s b||^2, s = sum_n conj(gamma_n
    v_n) h_r,n.
    """
    b, p, r, norm_d, joint = _rank_one_terms(g, h_r, h_d)
    f = _mul(np.conj(h_r), g @ b)  # so that s = conj(sum_n f_n v_n)
    # (t, a) of direct_and_cascade at w*, both times ||q||: h_d^H q =
    # ||h_d||^2 + r|p| and b^H q = p + r e^{j arg p}
    t = norm_d**2 + r * np.abs(p)
    a = _mul(f, (p + r * unit_phases(p))[:, None])

    def block_gains(v: np.ndarray) -> np.ndarray:
        s = np.conj(np.sum(f * v, axis=1))
        return np.linalg.norm(h_d + _mul(s[:, None], b), axis=1) ** 2

    gains = {"continuous": joint} if "continuous" in schemes else {}
    for bits in (int(s[1:]) for s in schemes if s != "continuous"):
        # the phases aligned to w* (t is real and >= 0), on the lattice
        quantized = unit_phases(np.conj(a), bits)
        gains[f"b{bits}_quant"] = block_gains(quantized)
        gains[f"b{bits}"] = block_gains(refine_levels(t, a, quantized, bits))
    return gains


def _interference_gains(
    g: np.ndarray, h_r: np.ndarray, h_d: np.ndarray, schemes
) -> dict[str, np.ndarray]:
    """Residual interference channel gain per scheme of a block of
    single-antenna realizations, stacked per key.

    With (t, f) what ``direct_and_cascade`` gives each row for w = [1],
    every row is solved at once: ``joint_amp_phase`` by the disk closed
    form, ``phase_only`` by :func:`null_phases` from the anti-aligned
    state, as ``null_interference`` does for one realization.  Key
    'margin' holds the cancellation feasibility margin sum|f_n| - |t|
    (non-negative means a perfect null is reachable with amplitude
    control).
    """
    t = np.conj(h_d[:, 0])  # vdot(h_d, [1]) of each row
    f = np.conj(h_r) * (g @ np.ones(1))
    abs_t = np.hypot(t.real, t.imag)
    out = {"margin": np.sum(np.abs(f), axis=1) - abs_t}
    # both nulling schemes start from it; null_free_amplitude scales its copy
    anti = _anti_aligned(t, f)
    for scheme in schemes:
        if scheme == "joint_amp_phase":
            out[scheme] = nulling_residual(t, f, null_free_amplitude(t, f, anti.copy()))
        elif scheme == "phase_only":
            out[scheme] = nulling_residual(
                t, f, null_phases(t, f, anti, tol=1e-14, max_passes=400))
        elif scheme == "no_irs":
            out[scheme] = np.float_power(abs_t, 2)
        else:
            raise ConfigError(ConfigErrorCode.INVALID_VALUE, f"unknown scheme {scheme!r}")
    return out


def _required_powers(
    block_gains: _BlockMetric, g: np.ndarray, h_r: np.ndarray, h_d: np.ndarray,
    cfg: ExperimentConfig,
) -> dict[str, np.ndarray]:
    """``min_power_for_snr`` of every row's gain per scheme, on arrays.

    Each log10 is ``math.log10`` of one element, as ``min_power_for_snr``
    takes it: ``np.log10``'s SIMD loops can round differently.
    """
    level = cfg.snr_target_db + cfg.scenario.noise_power_dbm
    powers = {}
    for scheme, gains in block_gains(g, h_r, h_d, cfg.schemes).items():
        bad = gains[gains <= 0]
        if len(bad):
            raise ValueError(f"channel gain must be > 0 to reach any SNR, got {bad[0]}")
        logs = np.fromiter(map(math.log10, gains.tolist()), float, len(gains))
        powers[scheme] = level - 10.0 * logs
    return powers


def _interference_powers(
    g: np.ndarray, h_r: np.ndarray, h_d: np.ndarray, cfg: ExperimentConfig
) -> dict[str, np.ndarray]:
    p_tx_mw = db_to_linear(cfg.interferer_power_dbm)
    noise_mw = db_to_linear(cfg.scenario.noise_power_dbm)
    return {
        key: values if key == "margin" else p_tx_mw * values / noise_mw
        for key, values in _interference_gains(g, h_r, h_d, cfg.schemes).items()
    }


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

    ``metric`` maps one block at one sweep value to its samples per key (a
    scheme); each row must be what the realization gives alone.  ``rows``
    turns those values, stacked over all realizations of one sweep value,
    into (scheme, metric, unit) rows.
    """

    runner: str  # public entry point, looked up by name when called
    sweep: tuple[str, tuple[float, ...]]  # default; only its variable may be swept
    min_elements: int | None  # smallest swept element count; None for a distance sweep
    single_antenna: bool
    schemes: tuple[str, ...]  # allowed, and the default
    n_realizations: int
    scenario: ScenarioConfig
    metric: _BlockMetric  # (g, h_r, h_d, cfg) of one block
    rows: Callable[[dict[str, np.ndarray]], list[tuple[str, float, str]]]


STUDIES = {
    "power-vs-distance": Study(
        runner="run_power_vs_distance", sweep=("d", _DEFAULT_DISTANCES), min_elements=None,
        single_antenna=False, schemes=POWER_DISTANCE_SCHEMES, n_realizations=500,
        scenario=ScenarioConfig(), metric=partial(_required_powers, _signal_gains),
        rows=_power_rows,
    ),
    "power-vs-n": Study(
        runner="run_power_vs_n", sweep=("n", (50.0, 100.0, 150.0, 200.0, 250.0, 300.0)),
        min_elements=1, single_antenna=False, schemes=("continuous", "b1", "b2"),
        n_realizations=500, scenario=ScenarioConfig(),
        metric=partial(_required_powers, _quantized_gains), rows=_power_rows,
    ),
    "interference-vs-n": Study(
        runner="run_interference_vs_n", sweep=("n", (20.0, 40.0, 60.0, 80.0, 100.0)),
        min_elements=0, single_antenna=True, schemes=("joint_amp_phase", "phase_only", "no_irs"),
        n_realizations=200, scenario=ScenarioConfig(m_antennas=1),
        metric=_interference_powers, rows=_interference_rows,
    ),
}


def _block_rows(n_max: int) -> int:
    """Realizations per block when the largest swept element count is
    ``n_max``."""
    return max(_MIN_ROWS, _ELEMENT_BUDGET // max(n_max, 1))


def _sweep_samples(
    study: str, cfg: ExperimentConfig, start: int, stop: int
) -> list[dict[str, np.ndarray]]:
    """Metrics of realizations ``start`` .. ``stop - 1``, stacked per key,
    for each sweep value in turn.

    The range is walked in blocks of ``_block_rows(n_max)`` realizations,
    ``n_max`` being the largest swept element count; rows are independent,
    so the block size moves no bits.  Each realization's fading is drawn
    once, at ``n_max``; every sweep value's arrays are formed from the
    block's by ``ScenarioLinks.block``.  One shard of a study; module-level
    so that worker processes can unpickle it.
    """
    metric = STUDIES[study].metric
    scenarios = _sweep_scenarios(cfg)
    links = [scenario_links(scen) for scen in scenarios]
    m, n_max = cfg.scenario.m_antennas, max(scen.n_elements for scen in scenarios)
    rows = _block_rows(n_max)
    per_value: list[list[dict[str, np.ndarray]]] = [[] for _ in scenarios]
    for lo in range(start, stop, rows):
        # realization i draws from channel_stream(master_seed, i): stream id i
        fading_r, fading_d = draw_fading_rows(cfg.master_seed, range(lo, min(lo + rows, stop)),
                                              m, n_max)
        for blocks, link in zip(per_value, links):
            blocks.append(metric(*link.block(fading_r, fading_d), cfg))
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
    """Validate ``cfg`` for ``STUDIES[study]``, then evaluate and aggregate it.

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
    unknown = [s for s in cfg.schemes if s not in spec.schemes]
    if unknown:
        raise ConfigError(
            ConfigErrorCode.INVALID_VALUE,
            f"unknown scheme(s) {unknown}; allowed: {list(spec.schemes)}",
        )
    name, values = cfg.sweep
    if name != spec.sweep[0]:
        raise ConfigError(ConfigErrorCode.INVALID_VALUE, f"{study} sweeps {spec.sweep[0]!r}")
    if "bs_irs_mrt" in cfg.schemes and cfg.scenario.n_elements == 0:
        raise ConfigError(ConfigErrorCode.INVALID_VALUE, "scheme 'bs_irs_mrt' needs n_elements >= 1")
    if spec.min_elements is not None:
        bad = [v for v in values if not float(v).is_integer() or v < spec.min_elements]
        if bad:
            raise ConfigError(
                ConfigErrorCode.INVALID_VALUE,
                f"element counts must be integers >= {spec.min_elements}, got {bad}",
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
        stacked = {key: np.concatenate([s[k][key] for s in shards]) for key in shards[0][k]}
        rows += [ResultRow(float(value), scheme, metric, unit, n, cfg.master_seed)
                 for scheme, metric, unit in spec.rows(stacked)]
        if cfg.keep_samples:
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
