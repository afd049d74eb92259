"""Monte Carlo studies: required power versus distance and element count,
and residual interference versus element count.

Every study draws its channels from streams keyed by the realization
index, so the same fading is reused across sweep values and across
schemes (paired comparisons), and the output is independent of evaluation
order and of the worker count.  One driver runs every study in ``STUDIES``;
with more than one worker it shards the realizations over processes, as
many as its work pays for, so a small study runs in process.  It forks
each shard itself and reads its samples back through a pipe; off Linux,
where fork is missing or unsafe, every study runs in process.  Within a
shard, :func:`_sweep_samples` alone decides how work is cut to fit
memory, by one rule for every study: it walks the realizations in blocks
sized by the largest swept N, draws each realization's fading once for
every sweep value (the block's streams are keyed together, with the bits
each stream has alone), and gives the study's metric each block at runs of
consecutive sweep values whose summed N fits the budget, so a metric may
hold every value of its run at once.  A sweep value's arrays are the
shared line-of-sight matrix ``g`` (N, M) and the stacked links ``h_r``
(R, N) and ``h_d`` (R, M).  Both power studies share one metric,
``_power_samples``: ``min_power_for_snr`` of the gains of
:func:`_sweep_power_gains`, which forms each sweep value's block in turn,
takes the closed forms that the rank-one ``g`` allows for every power
scheme and drops the block; for the lattice schemes it keeps every swept
N's coefficients, packed, and refines each bit width once for the run,
all its rows in one loop.  The interference study's swept surfaces are
nested, each the first N elements of the largest, so it forms the run's
largest arrays once; free-amplitude nulling is the disk's closed-form
value, and unit-modulus nulling runs the block's rows at every swept N
of the run in one loop.  Every realization gets the same values as it
would alone, and the tests check them against the general
per-realization solvers of ``beamforming``.  Every study's rows follow
:func:`_rows`: the mean of each realization's ``Study.contribution``
(linear) in dB, -300 for an exact zero, and ``loss_*`` rows as differences.
"""

from __future__ import annotations

import os
import pickle
import sys
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .beamforming import (
    _disk_residual,
    _groups,
    _null_prefixes,
    _rank_one_beam,
    _refine_rows,
    min_power_for_snr,
    nulling_residual,
)
from .channel import DB_LIMIT, ScenarioConfig, ScenarioLinks, draw_fading_rows, scenario_links
# ConfigError and ConfigErrorCode are importable from here too
from .numerics import (_MASK64, ConfigError, ConfigErrorCode, db_to_linear, integer, invalid, number,
                       sequence)
from .reflection import unit_phases

POWER_DISTANCE_SCHEMES = ("joint", "bs_user_mrt", "bs_irs_mrt", "no_irs")
_DEFAULT_DISTANCES = (20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0, 55.0)
# Elements, realizations times elements per realization, that one metric
# call may hold; _sweep_samples sizes every block (by N + M per row) and
# run (by the summed N) by it.
_ELEMENT_BUDGET = 1 << 17
_MIN_ROWS = 64


class ResultRow(NamedTuple):
    sweep_value: float
    scheme: str
    metric_value: float
    metric_unit: str
    n_realizations: int
    master_seed: int


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one Monte Carlo study, its numbers stored as plain ints and
    floats, its schemes and sweep values as tuples."""

    scenario: ScenarioConfig = ScenarioConfig()
    sweep: tuple[str, tuple[float, ...]] = ("d", _DEFAULT_DISTANCES)
    schemes: tuple[str, ...] = POWER_DISTANCE_SCHEMES
    n_realizations: int = 500
    master_seed: int = 1
    snr_target_db: float = 20.0
    interferer_power_dbm: float = 30.0

    def __post_init__(self) -> None:
        # plain numbers and tuples, as parse_config reads what serialize_config writes
        store = partial(object.__setattr__, self)
        if not isinstance(self.scenario, ScenarioConfig):
            raise invalid(f"scenario must be a ScenarioConfig, got {self.scenario!r}")
        store("n_realizations", integer("n_realizations", self.n_realizations, 1))
        store("master_seed", integer("master_seed", self.master_seed, 0, _MASK64))
        for level in ("snr_target_db", "interferer_power_dbm"):
            store(level, number(level, getattr(self, level)))
            if abs(getattr(self, level)) > DB_LIMIT:
                raise invalid(f"{level} must be within +-{DB_LIMIT:g}, got {getattr(self, level)}")
        store("schemes", sequence("schemes", self.schemes, "names"))
        if not self.schemes:
            raise invalid("schemes needs at least one scheme")
        stray = [s for s in self.schemes if not isinstance(s, str)]
        if stray:
            raise invalid(f"schemes must be strings, got {stray[0]!r}")
        repeated = sorted({s for s in self.schemes if self.schemes.count(s) > 1})
        if repeated:
            raise invalid(f"schemes lists {', '.join(repeated)} more than once")
        try:
            name, values = () if isinstance(self.sweep, str) else self.sweep
        except (TypeError, ValueError):
            raise invalid(f"sweep must be a (variable, values) pair, got {self.sweep!r}") from None
        if name not in ("d", "n"):
            raise invalid(f"unknown sweep variable {name!r}")
        values = sequence("sweep values", values, "numbers")
        if len(values) == 0:
            raise invalid("sweep needs at least one value")
        values = tuple(number(f"sweep value {name}", v) + 0.0 for v in values)  # -0 prints as 0
        store("sweep", (name, values))
        if any(b <= a for a, b in zip(values, values[1:])):
            raise invalid(f"sweep values must be strictly increasing: {values}")
        keys = [_sweep_key(v) for v in values]
        if len(set(keys)) < len(keys):
            raise invalid(f"sweep values {values} print as colliding keys {keys}")
        # not a field, so outside ==, hash, repr and serialization; replace() rebuilds it
        store("_scenarios", _sweep_scenarios(self))


@dataclass(eq=False)
class ExperimentResult:
    """Aggregated rows, and the per-realization samples behind them.

    A study's result always carries its samples: one array per (sweep
    value, key), in realization order.  In the power studies a key is a
    scheme, ``b{b}_quant`` included, and a sample its required power in
    dBm; in the interference study, its residual interference power over
    the noise power (linear), and under ``margin``, sum|f_n| - |t|, a
    sample with no row.  A row is the mean of its key's samples in linear
    units, in dB (:func:`_rows`); a ``loss_*`` row, a difference of rows.
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
        # encoded here, not by a text file: str.encode's built-in ASCII path
        # spares the first write in a process the import of the ascii codec
        with open(path, "wb") as fh:
            fh.write(self.to_csv_text().encode("ascii"))

    def value(self, sweep_value: float, scheme: str) -> float:
        for row in self.rows:
            if row.sweep_value == sweep_value and row.scheme == scheme:
                return row.metric_value
        raise KeyError((sweep_value, scheme))


def _sweep_key(value: float) -> str:
    """A sweep value as the CSV prints it."""
    return f"{value:g}"


def _sweep_scenarios(cfg: ExperimentConfig) -> tuple[ScenarioConfig, ...]:
    """The scenario of each sweep value, kept as ``cfg._scenarios`` by validation.

    A fractional count or a scenario that fails its own validation raises
    ConfigError, which names the sweep value.
    """
    name, values = cfg.sweep
    scenarios = []
    for value in values:
        try:
            if name == "d":
                y = cfg.scenario.user_position[1]
                scenarios.append(replace(cfg.scenario, user_position=(value, y)))
            elif value.is_integer():
                scenarios.append(replace(cfg.scenario, n_elements=int(value)))
            else:
                raise invalid("element counts must be integers")
        except ConfigError as exc:
            raise invalid(f"sweep value {name} = {value:g}: {exc.message}") from None
    return tuple(scenarios)


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # complex x * y from real products: numpy's complex multiply rounds
    # differently when an operand is broadcast along its inner loop, as a
    # length-one axis (M or N = 1) makes it, and the block's size would
    # move a row's bits
    return (x.real * y.real - x.imag * y.imag) + 1j * (x.real * y.imag + x.imag * y.real)


def _sweep_power_gains(links: list[ScenarioLinks], fading_r: np.ndarray, fading_d: np.ndarray,
                       schemes) -> list[dict[str, np.ndarray]]:
    """Channel power gain per scheme of one block of realizations at every
    sweep value, in closed form, stacked per key: a dict per value, whose
    ``links`` form its ``(g, h_r, h_d)`` from the block's fading (unit
    amplitudes, ``ScenarioLinks(g, 1.0, 1.0)``, keep the fading bit for bit).

    Each value's ``g`` = gamma b^H is rank one: b is the unit principal
    right vector of G; per row, p = b^H h_d, r = sum_n |h_r,n| ||G[n, :]||
    (both 0 without elements) and c = |p|.  For a fixed beam w, aligned
    phases give the gain (|h_d^H w| + sum_n |h_r,n| |(G w)_n|)^2, so the
    schemes' gains are

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
    gets alone.  Each value's block is formed in turn and dropped once its
    closed forms are taken.  For the lattice schemes each value keeps t and
    a of ``direct_and_cascade`` at w* (both times ||q||), every value's a
    packed end to end, row by row; f, so that s = conj(sum_n f_n v_n); and
    the direct links and beam to re-match.  Then each bit width is refined
    once, by :func:`_refine_rows` over the rows of every value, in one
    state buffer that the widths reuse: the loop runs for the steps of the
    slowest row of the sweep, not for their sum over the values, and each
    row gets the bits it gets alone.
    """
    lattice = [scheme for scheme in schemes if scheme in ("b1", "b2")]
    rows, sizes = len(fading_r), [len(link.g_bs_irs) for link in links]
    packed = np.empty(rows * sum(sizes) if lattice else 0, dtype=np.complex128)
    coefficients = _groups(packed, rows, sizes)[0] if lattice else [None] * len(links)
    out, kept = [], []  # kept: (t, f, h_d, b) of each value, for the lattice schemes
    for link, a in zip(links, coefficients):
        g, h_r, h_d = link.block(fading_r, fading_d)
        norm_d = np.linalg.norm(h_d, axis=1)
        r = np.sum(np.abs(h_r) * np.linalg.norm(g, axis=1), axis=1)
        b = _rank_one_beam(g) if len(g) else None
        p = np.sum(_mul(h_d, np.conj(b)), axis=1) if len(g) else np.zeros(len(h_d), np.complex128)
        c = np.abs(p)
        joint = norm_d**2 + r**2 + 2.0 * r * c
        gains: dict[str, np.ndarray | None] = {}
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
                gains[f"{scheme}_quant"] = gains[scheme] = None  # slots: keys keep the listed order
        if lattice:
            f = _mul(np.conj(h_r), g @ b)  # so that s = conj(sum_n f_n v_n)
            # h_d^H q = ||h_d||^2 + r|p| and b^H q = p + r e^{j arg p}
            a[:] = _mul(f, (p + r * unit_phases(p))[:, None])
            kept.append((norm_d**2 + r * c, f, h_d, b))
        out.append(gains)
        # the block goes before the next one is formed, the last before the states
        del h_r, h_d, norm_d, r, p, c, joint
    if lattice:
        def matched(f, h_d, b, v):  # each row's gain at state v under the re-matched beam
            s = np.conj(np.sum(f * v, axis=1))
            return np.linalg.norm(h_d + _mul(s[:, None], b), axis=1) ** 2

        state = np.empty_like(packed)
        states = _groups(state, rows, sizes)[0]
        for scheme in lattice:
            bits = int(scheme[1:])
            for gains, a, v, (_, f, h_d, b) in zip(out, coefficients, states, kept):
                # the phases aligned to w* (t is real and >= 0), on the lattice
                v[:] = unit_phases(np.conj(a), bits)
                gains[f"{scheme}_quant"] = matched(f, h_d, b, v)
            _refine_rows([t for t, *_ in kept], packed, state, rows, sizes, bits)
            for gains, v, (_, f, h_d, b) in zip(out, states, kept):
                gains[scheme] = matched(f, h_d, b, v)
    return out


def _interference_gains(
    g: np.ndarray, h_r: np.ndarray, h_d: np.ndarray, schemes, sizes
) -> list[dict[str, np.ndarray]]:
    """Residual interference channel gain per scheme of a block of
    single-antenna realizations, stacked per key, for each element count n
    of ``sizes``: the surface of the first n rows of ``g`` and columns of
    ``h_r``.

    With (t, f) what ``direct_and_cascade`` gives each row for w = [1],
    every row is solved at once, as ``null_interference`` solves one
    realization: ``joint_amp_phase`` is the disk's closed-form value
    max(0, |t| - sum|f_n|)^2 (:func:`_disk_residual`), so an exact zero
    wherever a perfect null is reachable; ``phase_only`` runs
    :func:`_null_prefixes` from the anti-aligned state, every size in one
    loop.  Key 'margin' holds the cancellation feasibility margin
    sum|f_n| - |t| (non-negative means a perfect null is reachable with
    amplitude control).
    """
    t = np.conj(h_d[:, 0])  # vdot(h_d, [1]) of each row
    f = np.conj(h_r) * (g @ np.ones(1))
    abs_t = np.hypot(t.real, t.imag)
    reach = [np.sum(np.abs(f[:, :n]), axis=1) for n in sizes]
    out = [{"margin": r - abs_t} for r in reach]
    for scheme in schemes:
        if scheme == "joint_amp_phase":
            for r, gains in zip(reach, out):
                gains[scheme] = _disk_residual(abs_t, r)
        elif scheme == "phase_only":
            for n, gains, v in zip(sizes, out, _null_prefixes(t, f, sizes)):
                gains[scheme] = nulling_residual(t, f[:, :n], v)
        elif scheme == "no_irs":
            for gains in out:
                gains[scheme] = np.float_power(abs_t, 2)
    return out


def _power_samples(links, fading_r: np.ndarray, fading_d: np.ndarray,
                   cfg: ExperimentConfig) -> list[dict[str, np.ndarray]]:
    level = (cfg.snr_target_db, cfg.scenario.noise_power_dbm)
    return [{key: min_power_for_snr(values, *level) for key, values in gains.items()}
            for gains in _sweep_power_gains(links, fading_r, fading_d, cfg.schemes)]


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


class Study(NamedTuple):
    """What sets one Monte Carlo study apart from the others.

    ``metric`` maps one block of realizations at a run of consecutive
    sweep values to its samples per key (a scheme) at each of them, in
    sweep order; each row must be what the realization gives alone.
    ``contribution`` maps those values, stacked over one sweep value's
    realizations, to what each adds to its row in linear units, and ``unit``
    is the unit of its scheme rows (:func:`_rows`).  A metric may hold
    every value of its run at once: :func:`_sweep_samples` sizes runs by
    their summed N.
    ``defaults`` is the configuration of a run that sets nothing: only its
    sweep variable may be swept, and its schemes are the ones allowed.
    ``shard_work`` is the least work, in realizations times their N + M
    summed over the sweep, that a shard process is started for: with
    less, starting it costs more time than it saves.  It is measured per
    study (README), as an element costs each metric its own time: a
    closed form, a refinement or a nulling loop.
    """

    defaults: ExperimentConfig
    single_antenna: bool
    metric: Callable[..., list[dict[str, np.ndarray]]]  # (links, fading_r, fading_d, cfg)
    contribution: Callable[[np.ndarray], np.ndarray]
    unit: str
    shard_work: int


STUDIES = {
    "power-vs-distance": Study(
        defaults=ExperimentConfig(), single_antenna=False, metric=_power_samples,
        contribution=db_to_linear, unit="dBm", shard_work=1 << 19,
    ),
    "power-vs-n": Study(
        defaults=ExperimentConfig(sweep=("n", (50.0, 100.0, 150.0, 200.0, 250.0, 300.0)),
                                  schemes=("continuous", "b1", "b2")),
        single_antenna=False, metric=_power_samples, contribution=db_to_linear, unit="dBm",
        shard_work=1 << 14,
    ),
    "interference-vs-n": Study(
        defaults=ExperimentConfig(scenario=ScenarioConfig(m_antennas=1),
                                  sweep=("n", (20.0, 40.0, 60.0, 80.0, 100.0)),
                                  schemes=("joint_amp_phase", "phase_only", "no_irs"),
                                  n_realizations=200),
        single_antenna=True, metric=_interference_samples, contribution=np.asarray,
        unit="dB", shard_work=1 << 14,
    ),
}


def _rows(spec: Study, samples: dict[str, np.ndarray]) -> list[tuple[str, float, str]]:
    """One sweep value's rows: every key's but 'margin', its mean contribution
    in dB; with 'continuous', each other key's 'loss_*' row, the difference."""
    means = {key: float(np.mean(spec.contribution(values)))
             for key, values in samples.items() if key != "margin"}
    # a perfect null, a mean of exactly zero, would be -inf dB: it prints as -300
    level = {key: float(10.0 * np.log10(mean)) if mean else -300.0 for key, mean in means.items()}
    rows = [(key, value, spec.unit) for key, value in level.items()]
    if "continuous" in level:
        rows += [(f"loss_{key}", value - level["continuous"], "dB")
                 for key, value in level.items() if key != "continuous"]
    return rows


def _block_rows(per_row: int) -> int:
    """Realizations per block when each holds ``per_row`` elements: its
    largest swept N plus its M antennas."""
    return max(_MIN_ROWS, _ELEMENT_BUDGET // max(per_row, 1))


def _study_work(cfg: ExperimentConfig) -> int:
    """The work of ``cfg``'s study as ``Study.shard_work`` counts it: its
    realizations times their N + M summed over the sweep."""
    return cfg.n_realizations * sum(scen.n_elements + scen.m_antennas for scen in cfg._scenarios)


def _runs(sizes: list[int], cap: int) -> list[slice]:
    """``sizes`` cut into consecutive runs, as slices, each summing to at
    most ``cap`` or holding a single size."""
    runs, lo, held = [], 0, 0
    for k, n in enumerate(sizes):
        held += n
        if k > lo and held > cap:
            runs.append(slice(lo, k))
            lo, held = k, n
    return runs + [slice(lo, len(sizes))]


def _sweep_samples(spec: Study, links: list[ScenarioLinks], cfg: ExperimentConfig,
                   start: int, stop: int) -> list[list[dict[str, np.ndarray]]]:
    """``spec.metric`` of realizations ``start`` .. ``stop - 1``, its dict of
    each block for each sweep value in turn: one shard of a study.

    The one place that sizes work, by one rule for every study.  The range
    is walked in blocks of as many realizations as keep rows x (the largest
    swept N plus M) within ``_ELEMENT_BUDGET``, and at least ``_MIN_ROWS``,
    so memory grows with neither n_realizations nor the sweep's length, and
    wide blocks spread the kernels' per-call cost.  Each realization's
    fading is drawn once, at the largest swept N.  The metric gets the
    block once per run of consecutive sweep values whose summed N fits the
    budget, or of one value.  Each value's ``links`` form its arrays from
    the block's fading.  Rows are independent, and a run forms prefixes of
    the largest value's arrays, so neither blocks nor runs move any bits.
    """
    sizes = [len(link.g_bs_irs) for link in links]
    m, n_max = cfg.scenario.m_antennas, max(sizes)
    rows = _block_rows(n_max + m)
    per_value: list[list[dict[str, np.ndarray]]] = [[] for _ in links]
    for lo in range(start, stop, rows):
        # realization i draws from SeededRng(master_seed, i), whatever its block
        fading_r, fading_d = draw_fading_rows(cfg.master_seed, range(lo, min(lo + rows, stop)),
                                              m, n_max)
        for run in _runs(sizes, _ELEMENT_BUDGET // len(fading_r)):
            for blocks, samples in zip(per_value[run],
                                       spec.metric(links[run], fading_r, fading_d, cfg)):
                blocks.append(samples)
    return per_value


def _usable_cpus() -> int:
    """CPUs that shards may run on: on Linux this process's affinity mask
    (``taskset`` narrows it); elsewhere 1, as shards are only forked, and
    fork is missing on Windows and unsafe on macOS."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


def _fork_shards(study: str, shard: Callable[[int, int], list], bounds: list[int]) -> list:
    """``shard(bounds[k], bounds[k + 1])`` for every shard k, each run in a
    child forked for it, in shard order.

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
                        result = (True, shard(lo, hi))
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
    """Validate ``cfg`` for ``STUDIES[study]`` (the one check of its schemes,
    antennas and element counts, which the block metrics trust), then
    evaluate and aggregate it.

    With ``workers > 1``, contiguous realization ranges run in forked
    processes (:func:`_fork_shards`), at most one per usable CPU
    (:func:`_usable_cpus`, 1 off Linux) and one per ``shard_work`` of the
    study's work (:func:`_study_work`), and are concatenated in realization
    order: bit-identical to ``workers = 1``, since each realization draws
    from its own stream.  A study of less than twice ``shard_work`` starts
    no process.
    """
    spec = STUDIES[study]
    workers = integer("workers", workers, 1)
    if spec.single_antenna and cfg.scenario.m_antennas != 1:
        raise invalid(f"{study} requires m_antennas = 1, got {cfg.scenario.m_antennas}")
    defaults = spec.defaults
    unknown = [s for s in cfg.schemes if s not in defaults.schemes]
    if unknown:
        raise invalid(f"unknown scheme(s) {unknown}; allowed: {list(defaults.schemes)}")
    name, values = cfg.sweep
    if name != defaults.sweep[0]:
        raise invalid(f"{study} sweeps {defaults.sweep[0]!r}")
    # the beam at the surface link and the surface's phase resolutions are
    # defined by its elements: without any, these schemes have no row
    bare = min(scen.n_elements for scen in cfg._scenarios) == 0
    surface = [s for s in cfg.schemes if s in ("bs_irs_mrt", "continuous", "b1", "b2")]
    if bare and surface:
        raise invalid(f"scheme(s) {surface} need a surface: n_elements must be >= 1, got 0")
    if spec.metric is _power_samples and cfg.scenario.m_antennas == 1:
        # a power row is the mean of 1/gain: a gain of |h_d|^2 is then
        # exponential, and the mean of its inverse is infinite; with elements,
        # (|h_d| + r)^2 keeps it finite
        direct = [s for s in cfg.schemes
                  if s == "no_irs" or (bare and s in ("joint", "bs_user_mrt"))]
        if direct:
            raise invalid(
                f"scheme(s) {direct} at m_antennas = 1{' and n_elements = 0' if bare else ''} "
                "have the gain |h_d|^2, whose required power 1/|h_d|^2 has no finite mean"
            )

    # built once, before any shard is forked, so that every shard inherits them
    links = [scenario_links(scen) for scen in cfg._scenarios]
    shard = partial(_sweep_samples, spec, links, cfg)
    n = cfg.n_realizations
    # a shard per shard_work at most: below twice that, the study runs in process
    n_shards = max(1, min(workers, n, _usable_cpus(), _study_work(cfg) // spec.shard_work))
    bounds = [n * k // n_shards for k in range(n_shards + 1)]
    shards = _fork_shards(study, shard, bounds) if n_shards > 1 else [shard(0, n)]

    rows: list[ResultRow] = []
    samples: dict[tuple[float, str], np.ndarray] = {}
    for k, value in enumerate(values):
        # every shard's blocks in one step, each array dropped as it is
        # stacked, so that no sample is held twice
        blocks = [block for s in shards for block in s[k]]
        stacked = {key: np.concatenate([b.pop(key) for b in blocks]) for key in list(blocks[0])}
        rows += [ResultRow(float(value), scheme, metric, unit, n, cfg.master_seed)
                 for scheme, metric, unit in _rows(spec, stacked)]
        samples.update({(float(value), key): arr for key, arr in stacked.items()})
    return ExperimentResult(rows=rows, samples=samples)


def run_power_vs_distance(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Minimum transmit power (dBm) to hit the SNR target, versus distance,
    of every scheme on the same channel realizations."""
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
    antenna; the surface is driven to cancel."""
    return _run_study(cfg, "interference-vs-n", workers)
