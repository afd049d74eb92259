"""Scenario geometry and channel realization.

One realization consists of three links: a deterministic rank-one
line-of-sight matrix from the transmitter array to the reflecting surface,
and Rayleigh-faded vectors for the surface-to-user and direct
transmitter-to-user links.  Large-scale attenuation follows a power-law
path loss anchored at a reference loss one metre from the transmitter.

A realization is the scenario's deterministic part (``scenario_links``:
the line-of-sight matrix and the two faded links' amplitudes) applied to
unit-variance fading drawn from the realization's stream.  Sweeps draw
that fading once per realization for a whole block of realizations at
once (``draw_fading_rows``, which keys every row's stream in one pass) and
form every sweep value's block of arrays with ``ScenarioLinks.block``;
``realize`` is the one-row call of that path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .numerics import (
    SeededRng,
    _mix64,
    as_complex_matrix,
    as_complex_vector,
    db_to_linear,
    sample_cscg,
    sample_cscg_rows,
)

Point = tuple[float, float]

# Bound on the magnitude of every dB-valued setting and of every link's
# path-loss gain in dB, so that each channel and power of a study is a
# normal float64.
DB_LIMIT = 300.0
# Largest surface and transmit array, so that a configuration can never ask
# for arrays too large to allocate: a study holds (block, N) arrays.
MAX_ELEMENTS = 10_000
MAX_ANTENNAS = 1_000


@dataclass(frozen=True)
class ScenarioConfig:
    """Static geometry and propagation parameters of one link scenario.

    Positions are 2-D points in metres.  The user's x-coordinate is the
    swept transmitter-user horizontal distance in the distance study.
    Every number must be finite; ``c0_db``, ``noise_power_dbm`` and the
    path-loss gain of each link in dB must lie within ``DB_LIMIT``, and
    the antenna spacing within (0, 1000] wavelengths.  The two counts are
    integers (Python's or numpy's, not bools): at most ``MAX_ANTENNAS``
    antennas and ``MAX_ELEMENTS`` elements.  Values are stored as plain
    ints and floats, points as tuples of floats.
    """

    bs_position: Point = (0.0, 0.0)
    irs_position: Point = (50.0, 2.8)
    user_position: Point = (50.0, 0.0)
    m_antennas: int = 5
    n_elements: int = 40
    pl_exponent_bs_irs: float = 2.2
    pl_exponent_bs_user: float = 3.2
    pl_exponent_irs_user: float = 3.2
    c0_db: float = -30.0
    noise_power_dbm: float = -80.0
    antenna_spacing_wavelengths: float = 0.5

    def __post_init__(self) -> None:
        for count in ("m_antennas", "n_elements"):
            value = getattr(self, count)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{count} must be an integer, got {value!r}")
        if not 1 <= self.m_antennas <= MAX_ANTENNAS:
            raise ValueError(f"m_antennas must be in [1, {MAX_ANTENNAS}], got {self.m_antennas}")
        if not 0 <= self.n_elements <= MAX_ELEMENTS:
            raise ValueError(f"n_elements must be in [0, {MAX_ELEMENTS}], got {self.n_elements}")
        for f in fields(self):
            if not all(math.isfinite(x) for x in np.ravel(getattr(self, f.name))):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("c0_db", "noise_power_dbm"):
            if abs(getattr(self, name)) > DB_LIMIT:
                raise ValueError(f"{name} must be within +-{DB_LIMIT:g}, got {getattr(self, name)}")
        for name in ("pl_exponent_bs_irs", "pl_exponent_bs_user", "pl_exponent_irs_user"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if not 0 < self.antenna_spacing_wavelengths <= 1e3:
            raise ValueError("antenna_spacing_wavelengths must be in (0, 1000]")
        for a, b, pair, exponent in (
            (self.bs_position, self.irs_position, "bs/irs", self.pl_exponent_bs_irs),
            (self.bs_position, self.user_position, "bs/user", self.pl_exponent_bs_user),
            (self.irs_position, self.user_position, "irs/user", self.pl_exponent_irs_user),
        ):
            d = _dist(a, b)
            if d <= 0.0:
                raise ValueError(f"coincident {pair} positions: {a} / {b}")
            gain_db = self.c0_db - 10.0 * exponent * math.log10(d)
            if not abs(gain_db) <= DB_LIMIT:
                raise ValueError(
                    f"{pair} link gain {gain_db:g} dB is beyond +-{DB_LIMIT:g} dB "
                    f"(distance {d:g} m, exponent {exponent:g})"
                )
        # plain numbers, as parse_config reads what serialize_config writes
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            plain = tuple(map(float, value)) if kind is tuple else kind(value)
            object.__setattr__(self, f.name, plain)

    def bs_irs_distance(self) -> float:
        return _dist(self.bs_position, self.irs_position)

    def bs_user_distance(self) -> float:
        return _dist(self.bs_position, self.user_position)

    def irs_user_distance(self) -> float:
        return _dist(self.irs_position, self.user_position)


def _dist(a: Point, b: Point) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One draw of the three links: g_bs_irs is N x M, vectors are N and M.

    ``bs_irs_mrt`` and the transmitter-surface start of
    ``alternating_optimize`` assume ``g_bs_irs`` is rank one, as
    ``realize`` draws it.
    """

    g_bs_irs: np.ndarray
    h_irs_user: np.ndarray
    h_bs_user: np.ndarray

    def __post_init__(self) -> None:
        g = as_complex_matrix(self.g_bs_irs, "g_bs_irs")
        hr = as_complex_vector(self.h_irs_user, "h_irs_user")
        hd = as_complex_vector(self.h_bs_user, "h_bs_user")
        if g.shape != (hr.shape[0], hd.shape[0]):
            raise ValueError(
                f"inconsistent dimensions: g_bs_irs {g.shape}, "
                f"h_irs_user {hr.shape}, h_bs_user {hd.shape}"
            )
        object.__setattr__(self, "g_bs_irs", g)
        object.__setattr__(self, "h_irs_user", hr)
        object.__setattr__(self, "h_bs_user", hd)

    @property
    def n_elements(self) -> int:
        return self.h_irs_user.shape[0]

    @property
    def m_antennas(self) -> int:
        return self.h_bs_user.shape[0]


def path_loss(distance_m: float, exponent: float, c0_db: float) -> float:
    """Linear power gain 10^(c0/10) * d^(-exponent) at distance d metres."""
    if distance_m <= 0:
        raise ValueError(f"distance must be > 0, got {distance_m}")
    return db_to_linear(c0_db) * distance_m ** (-exponent)


def ula_response(n: int, cos_angle: float, spacing_wavelengths: float = 0.5) -> np.ndarray:
    """Uniform-linear-array response with unit-modulus entries."""
    return np.exp(2j * np.pi * spacing_wavelengths * np.arange(n) * cos_angle)


def gen_bs_irs_los(cfg: ScenarioConfig) -> np.ndarray:
    """Deterministic rank-one LoS matrix sqrt(PL) * a_irs * a_bs^H (N x M).

    Array responses are taken at the geometric departure/arrival angles of
    the transmitter-surface path, with arrays laid out along the x-axis.
    """
    if cfg.n_elements < 1:
        raise ValueError("gen_bs_irs_los requires at least one reflecting element")
    d = cfg.bs_irs_distance()
    pl = path_loss(d, cfg.pl_exponent_bs_irs, cfg.c0_db)
    cos_dep = (cfg.irs_position[0] - cfg.bs_position[0]) / d
    cos_arr = (cfg.bs_position[0] - cfg.irs_position[0]) / d
    a_bs = ula_response(cfg.m_antennas, cos_dep, cfg.antenna_spacing_wavelengths)
    a_irs = ula_response(cfg.n_elements, cos_arr, cfg.antenna_spacing_wavelengths)
    return np.sqrt(pl) * np.outer(a_irs, a_bs.conj())


def gen_rayleigh(pl_linear: float, n: int, rng: SeededRng) -> np.ndarray:
    """Rayleigh-faded vector: sqrt(pl) times unit-variance CSCG samples."""
    if pl_linear <= 0:
        raise ValueError(f"path-loss gain must be > 0, got {pl_linear}")
    return np.sqrt(pl_linear) * sample_cscg(rng, n)


def draw_fading_rows(master_seed: int, streams, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-variance fading of the realizations ``(master_seed, i)`` for
    every stream id ``i`` of ``streams``, stacked as (R, n) surface-user and
    (R, m) direct samples: row r holds the draws of the substreams
    ``split(1)`` and ``split(2)`` of its stream, whatever the block, and
    each link's samples of the whole block are drawn by one call.

    The first ``k`` surface-user samples of a row are those of a
    ``k``-element draw (see :func:`sample_cscg`), so one draw at the largest
    element count serves every smaller surface.
    """
    ids = np.array(streams, dtype=np.uint64)
    # the stream ids of SeededRng.split(1) and split(2) of every stream
    return (sample_cscg_rows(master_seed, _mix64(ids, 1), n),
            sample_cscg_rows(master_seed, _mix64(ids, 2), m))


class ScenarioLinks(NamedTuple):
    """What a scenario fixes for all its realizations: the line-of-sight
    matrix and the amplitude (square root of the path-loss gain) of each
    faded link.  Build it with :func:`scenario_links`.
    """

    g_bs_irs: np.ndarray
    amp_irs_user: float
    amp_bs_user: float

    def block(self, fading_r: np.ndarray, fading_d: np.ndarray) -> tuple[np.ndarray, ...]:
        """``(g_bs_irs, h_irs_user, h_bs_user)`` of R realizations: the shared
        (N, M) matrix and (R, N) and (R, M) links from the stacked fading of
        :func:`draw_fading_rows`, ``fading_r`` (R, >= N; the elements take each
        row's prefix) and ``fading_d`` (R, M).  Shapes and finiteness are
        checked once for the block, as ``ChannelRealization`` checks one.
        """
        n, m = self.g_bs_irs.shape
        if fading_r.ndim != 2 or fading_r.shape[1] < n or fading_d.shape != (len(fading_r), m):
            raise ValueError(
                f"fading {fading_r.shape} / {fading_d.shape} does not fit g_bs_irs {(n, m)}"
            )
        with np.errstate(invalid="ignore", over="ignore"):  # reported just below
            h_r = self.amp_irs_user * fading_r[:, :n]
            h_d = self.amp_bs_user * fading_d
        if not all(np.isfinite(x).all() for x in (self.g_bs_irs, h_r, h_d)):
            raise ValueError("channel block contains non-finite entries")
        return self.g_bs_irs, h_r, h_d


def scenario_links(cfg: ScenarioConfig) -> ScenarioLinks:
    """The deterministic part of the scenario's channel.  With zero
    elements the transmitter-surface matrix is empty (0 x M)."""
    if cfg.n_elements >= 1:
        g = gen_bs_irs_los(cfg)
    else:
        g = np.zeros((0, cfg.m_antennas), dtype=np.complex128)
    pl_ru = path_loss(cfg.irs_user_distance(), cfg.pl_exponent_irs_user, cfg.c0_db)
    pl_du = path_loss(cfg.bs_user_distance(), cfg.pl_exponent_bs_user, cfg.c0_db)
    return ScenarioLinks(g, np.sqrt(pl_ru), np.sqrt(pl_du))


def realize(cfg: ScenarioConfig, rng: SeededRng) -> ChannelRealization:
    """Draw one channel realization for the scenario, a pure function of
    (cfg, rng): the one-row block of ``scenario_links(cfg).block`` on
    ``draw_fading_rows(rng.master_seed, [rng.stream_id], M, N)``.

    A sweep's blocks give each row these bits.  With zero elements the
    surface links are empty.
    """
    fading = draw_fading_rows(rng.master_seed, [rng.stream_id], cfg.m_antennas, cfg.n_elements)
    g, h_r, h_d = scenario_links(cfg).block(*fading)
    return ChannelRealization(g_bs_irs=g, h_irs_user=h_r[0], h_bs_user=h_d[0])
