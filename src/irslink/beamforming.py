"""Transmit and reflect beamforming optimizers.

Covers the closed-form pieces (maximum-ratio transmission, coherent phase
alignment, the rank-one transmitter-surface beam, free-amplitude
interference nulling), the alternating joint optimizer, elementwise
refinement of discrete phases and the cyclic unit-modulus nulling
heuristic (both vectorized over a batch of independent problems, each
row getting the bits it gets alone), codebook selection, and the
SNR-to-transmit-power mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .numerics import as_complex_vector
from .reflection import (
    ConstraintKind,
    ConstraintSet,
    ReflectionState,
    absorb_state,
    effective_channel,
    project,
)

# Elements scanned together by refine_levels; 16 and 64 were slower.
_CHUNK = 32

_ALIGN_KINDS = (
    ConstraintKind.IDEAL_CONTINUOUS,
    ConstraintKind.UNIT_MODULUS,
    ConstraintKind.DISCRETE_PHASE,
)


@dataclass(frozen=True, eq=False)
class BeamformingSolution:
    """Result of one optimization run.

    ``gain_linear`` is the channel power gain |<h_eff, w>|^2 achieved by
    the unit-norm beamformer ``w`` together with the reflection state;
    ``trace`` holds the objective after each outer iteration and is
    non-decreasing.
    """

    w: np.ndarray
    refl: ReflectionState
    gain_linear: float
    trace: tuple[float, ...]

    def __post_init__(self) -> None:
        w = as_complex_vector(self.w, "w")
        if abs(np.linalg.norm(w) - 1.0) > 1e-10:
            raise ValueError("beamformer must be unit norm")
        object.__setattr__(self, "w", w)
        tr = tuple(float(x) for x in self.trace)
        if any(b < a * (1.0 - 1e-12) - 1e-300 for a, b in zip(tr, tr[1:])):
            raise ValueError("objective trace must be non-decreasing")
        object.__setattr__(self, "trace", tr)


@dataclass(frozen=True, eq=False)
class Codebook:
    """Pre-designed reflection patterns sharing one constraint set."""

    entries: tuple[ReflectionState, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        if not entries:
            raise ValueError("codebook must be non-empty")
        c0 = entries[0].constraint
        if any(e.constraint != c0 for e in entries[1:]):
            raise ValueError("codebook entries must share one constraint set")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)


def mrt(h: np.ndarray) -> np.ndarray:
    """Maximum-ratio transmit beamformer w = h / ||h||."""
    h = as_complex_vector(h, "channel")
    norm = np.linalg.norm(h)
    if norm == 0.0:
        raise ValueError("MRT undefined for an all-zero channel")
    return h / norm


def direct_and_cascade(ch: ChannelRealization, w: np.ndarray) -> tuple[complex, np.ndarray]:
    """Received-amplitude decomposition for a fixed beamformer.

    Returns (t, a) with direct term t = <h_d, w> and per-element cascade
    coefficients a_n = conj(h_r_n) * (G w)_n, so that a reflection state v
    produces the amplitude t + sum_n a_n v_n.
    """
    t = complex(np.vdot(ch.h_bs_user, w))
    a = np.conj(ch.h_irs_user) * (ch.g_bs_irs @ w)
    return t, a


def received_gain(ch: ChannelRealization, refl: ReflectionState, w: np.ndarray) -> float:
    """Channel power gain |<h_eff, w>|^2."""
    return float(abs(np.vdot(effective_channel(ch, refl), w)) ** 2)


def align_phases(ch: ChannelRealization, w: np.ndarray, c: ConstraintSet) -> ReflectionState:
    """Phase each element so its reflected path adds coherently with the
    direct path at the receiver.

    Sets v_n = exp(j*(arg t - arg a_n)) with (t, a) from
    :func:`direct_and_cascade` (arg t := 0 when t = 0).  Amplitudes stay
    at one, which is optimal for coherent combining; for discrete phase
    control the continuous solution is rounded to the nearest lattice
    level.
    """
    if c.kind not in _ALIGN_KINDS:
        raise ValueError(f"cannot align phases under {c.kind.value}")
    t, a = direct_and_cascade(ch, w)
    ref = np.angle(t) if t != 0 else 0.0
    v = np.exp(1j * (ref - np.angle(a)))
    if c.kind is ConstraintKind.DISCRETE_PHASE:
        return project(v, c)
    return ReflectionState(v, c)


def _rank_one_beam(g: np.ndarray) -> np.ndarray:
    # For G = u v^H every nonzero row is a multiple of v^H, so the conjugate
    # of the largest-norm row is the principal right singular vector.
    return mrt(np.conj(g[np.argmax(np.linalg.norm(g, axis=1))]))


def alternating_optimize(
    ch: ChannelRealization,
    c: ConstraintSet,
    tol: float = 1e-4,
    max_iter: int = 100,
) -> BeamformingSolution:
    """Joint transmit/reflect optimization by alternating closed forms.

    Repeats (i) refl <- align_phases(ch, w, c) and (ii) w <- mrt(h_eff)
    until the relative objective improvement drops below ``tol`` or
    ``max_iter`` is reached.  The run is started once from the direct-link
    MRT beamformer and once from the transmitter-surface beam, and the
    better fixed point is returned, which makes the result dominate both
    heuristic baselines on every realization.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    direct_norm = np.linalg.norm(ch.h_bs_user)
    if ch.n_elements == 0 or c.kind is ConstraintKind.ABSORB:
        w = mrt(ch.h_bs_user)
        refl = absorb_state(ch.n_elements) if c.kind is ConstraintKind.ABSORB else ReflectionState(
            np.zeros(0, dtype=np.complex128), c
        )
        gain = received_gain(ch, refl, w)
        return BeamformingSolution(w=w, refl=refl, gain_linear=gain, trace=(gain,))

    starts = []
    if direct_norm > 0.0:
        starts.append(mrt(ch.h_bs_user))
    starts.append(_rank_one_beam(ch.g_bs_irs))

    best: BeamformingSolution | None = None
    for w0 in starts:
        w = w0
        trace: list[float] = []
        refl = None
        for _ in range(max_iter):
            candidate = align_phases(ch, w, c)
            h_eff = effective_channel(ch, candidate)
            gain = float(np.linalg.norm(h_eff) ** 2)
            if trace and gain < trace[-1]:
                # possible only under discrete levels; keep the best iterate
                break
            refl = candidate
            w = mrt(h_eff)
            trace.append(gain)
            if len(trace) >= 2 and trace[-1] - trace[-2] < tol * trace[-2]:
                break
        sol = BeamformingSolution(w=w, refl=refl, gain_linear=trace[-1], trace=tuple(trace))
        if best is None or sol.gain_linear > best.gain_linear:
            best = sol
    return best


def bs_irs_mrt(ch: ChannelRealization, c: ConstraintSet) -> BeamformingSolution:
    """Beam at the transmitter-surface channel, then align phases.

    Assumes a rank-one ``g_bs_irs``, as the line-of-sight model draws.
    """
    if ch.n_elements == 0:
        raise ValueError("transmitter-surface MRT needs at least one element")
    w = _rank_one_beam(ch.g_bs_irs)
    refl = align_phases(ch, w, c)
    gain = received_gain(ch, refl, w)
    return BeamformingSolution(w=w, refl=refl, gain_linear=gain, trace=(gain,))


def refine_levels(
    t: np.ndarray, a: np.ndarray, start: np.ndarray, bits: int, passes: int = 20
) -> np.ndarray:
    """Cyclic coordinate ascent over the 2^bits phase levels, for R problems
    at once.

    Row r maximizes |t_r + sum_n a_rn v_rn|^2 from the start coefficients
    ``start[r]``: holding all other elements fixed, each element in
    ascending index order moves to the level that maximizes the objective
    (first maximum, so ties pick the lowest level), kept only on strict
    improvement.  The objective never decreases, and a pass that changes
    nothing leaves a row exactly as it was, so a row leaves the batch after
    such a pass (or after ``passes`` full passes) and gets the trajectory it
    has alone.

    Each pass is scanned in chunks of ``_CHUNK`` elements.  A row's running
    total moves only when one of its elements changes, so the decisions of
    a chunk's elements up to a row's first change are the ones the
    element-by-element loop takes; all of them are computed at once, with
    the loop's arithmetic.  Only that first change is applied, the row's
    cursor moves past it, and the chunk is scanned again from the cursors
    until no row changes in it.  Takes ``t`` of shape (R,) and ``a``,
    ``start`` of shape (R, N); returns the refined (R, N) coefficients.
    ``passes`` must be >= 1.
    """
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    n = a.shape[1]
    if n == 0:
        return np.array(start, dtype=np.complex128)
    # summed in element order, one term after another; in place and before
    # the copy below, so that at most one (R, N) array is held besides the
    # inputs
    terms = a * start
    total = t + np.cumsum(terms, axis=1, out=terms)[:, -1]
    del terms
    v = np.array(start, dtype=np.complex128)
    nlev = 1 << bits
    levels = np.exp(2j * np.pi * np.arange(nlev) / nlev)
    live = np.arange(v.shape[0])  # rows that changed in the previous pass
    for _ in range(passes):
        changed = np.zeros(v.shape[0], dtype=bool)
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            offsets = np.arange(hi - lo)
            # the rows scanning this chunk, and the offset each scans from
            rows, cursor = live, np.zeros(live.size, dtype=np.intp)
            while rows.size:
                an, vn = a[rows, lo:hi], v[rows, lo:hi]
                rest = total[rows, None] - an * vn
                candidates = rest[..., None] + an[..., None] * levels
                powers = np.abs(candidates)
                k = powers.argmax(axis=2)
                better = ((levels[k] != vn)
                          & (np.take_along_axis(powers, k[..., None], axis=2)[..., 0]
                             > np.abs(rest + an * vn))
                          & (offsets >= cursor[:, None]))
                hit = np.flatnonzero(better.any(axis=1))
                first = better[hit].argmax(axis=1)
                best = k[hit, first]
                rows, cursor = rows[hit], first + 1
                v[rows, lo + first] = levels[best]
                total[rows] = candidates[hit, first, best]
                changed[rows] = True
        live = np.flatnonzero(changed)
        if not live.size:
            break
    return v


def discrete_refine(
    ch: ChannelRealization,
    w: np.ndarray,
    start: ReflectionState,
    bits: int,
    passes: int = 20,
) -> ReflectionState:
    """Cyclic coordinate ascent over the 2^bits phase levels per element.

    Refines one realization with :func:`refine_levels`, whose rows are
    independent: a block of realizations refined together gets the same
    coefficients as each refined here alone.  Stops after ``passes`` full
    passes at the latest.
    """
    want = ConstraintSet.discrete_phase(bits)
    if start.constraint != want:
        raise ValueError(f"start must satisfy {want}, got {start.constraint}")
    if start.n_elements != ch.n_elements:
        raise ValueError("start state dimension does not match the channel")
    t, a = direct_and_cascade(ch, w)
    v = refine_levels(np.array([t]), a[None, :], start.coefficients[None, :], bits, passes)
    return ReflectionState(v[0], want)


def quantize_then_refine(
    ch: ChannelRealization,
    w: np.ndarray,
    continuous: ReflectionState,
    bits: int,
    passes: int = 20,
) -> ReflectionState:
    """Round a continuous solution to the lattice, then refine elementwise."""
    quantized = project(continuous.coefficients, ConstraintSet.discrete_phase(bits))
    return discrete_refine(ch, w, quantized, bits, passes)


def _check_nulling_caps(tol: float, max_passes: int) -> None:
    if max_passes < 1:
        raise ValueError(f"max_passes must be >= 1, got {max_passes}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def _anti_aligned(t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """v_rn = -exp(j*(arg t_r - arg f_rn)), with arg t_r := 0 when t_r = 0,
    for ``t`` of shape (R,) and ``f`` of shape (R, N)."""
    ref = np.where(t != 0, np.arctan2(t.imag, t.real), 0.0)
    return np.exp(1j * ((np.pi + ref)[:, None] - np.angle(f)))


def null_free_amplitude(
    t: np.ndarray, f: np.ndarray, anti: np.ndarray | None = None
) -> np.ndarray:
    """Free-amplitude nulling optimum of R problems: the anti-aligned state,
    scaled by min(1, |t_r| / sum_n |f_rn|).  ``anti``, if given, is that
    state already computed, and is scaled in place."""
    v = _anti_aligned(t, f) if anti is None else anti
    reach = np.sum(np.abs(f), axis=1)
    abs_t = np.hypot(t.real, t.imag)
    shrink = reach > abs_t
    v[shrink] *= (abs_t[shrink] / reach[shrink])[:, None]
    return v


def null_phases(
    t: np.ndarray,
    f: np.ndarray,
    start: np.ndarray | None = None,
    tol: float = 1e-12,
    max_passes: int = 200,
) -> np.ndarray:
    """Cyclic coordinate descent on |t_r + sum_n f_rn v_rn|^2 under
    |v_rn| = 1, for R problems at once.

    Each element in ascending index order moves to its per-element optimum
    exp(j*(pi + arg c_n - arg f_n)), c_n being the residual without element
    n; elements with f_n = 0 keep their start value.  Row r starts from
    ``start[r]`` (default the anti-aligned state) and stops after the first
    pass that lowers its residual power by at most ``tol`` times the
    previous value, or after ``max_passes`` passes; a stopped row leaves
    the batch.  Every step is the float64 operation of the one-problem loop,
    in its order (unfused complex products, ``hypot`` magnitudes, ``pow``
    squares), so a row gets the same bits in any batch.  Takes ``t`` of
    shape (R,) and ``f``, ``start`` of shape (R, N); returns the (R, N)
    coefficients.
    """
    _check_nulling_caps(tol, max_passes)
    v = _anti_aligned(t, f) if start is None else np.asarray(start, dtype=np.complex128)
    if f.shape[1] == 0:
        return np.array(v)
    # element-major: each step reads one (R,) row; f is only viewed, v copied
    fr, fi = f.real.T, f.imag.T
    vr, vi = v.real.T.copy(), v.imag.T.copy()
    del v
    # r = t + sum_n f_n v_n, the sum taken in element order from +0.0; both
    # parts in one buffer, which keeps the peak memory of a block lower
    terms = fr * vr
    terms -= fi * vi
    terms[0] += 0.0
    rr = t.real + np.cumsum(terms, axis=0, out=terms)[-1]
    terms = np.multiply(fr, vi, out=terms)
    terms += fi * vr
    terms[0] += 0.0
    ri = t.imag + np.cumsum(terms, axis=0, out=terms)[-1]
    del terms
    fixed = (fr == 0) & (fi == 0)
    masked = fixed.any(axis=1)
    prev = np.float_power(np.hypot(rr, ri), 2)
    live = np.arange(len(t))  # the batch row of each active row
    stopped = []  # (batch rows, vr, vi) of rows that left the batch
    for _ in range(max_passes):
        for n, (frn, fin, vrn, vin) in enumerate(zip(fr, fi, vr, vi)):
            cr = rr - (frn * vrn - fin * vin)
            ci = ri - (frn * vin + fin * vrn)
            w = np.exp(1j * (np.pi + np.arctan2(ci, cr) - np.arctan2(fin, frn)))
            wr, wi = w.real, w.imag
            nr = cr + (frn * wr - fin * wi)
            ni = ci + (frn * wi + fin * wr)
            if masked[n]:
                keep = fixed[n]
                wr, wi = np.where(keep, vrn, wr), np.where(keep, vin, wi)
                nr, ni = np.where(keep, rr, nr), np.where(keep, ri, ni)
            vrn[:] = wr
            vin[:] = wi
            rr, ri = nr, ni
        cur = np.float_power(np.hypot(rr, ri), 2)
        done = prev - cur <= tol * np.maximum(prev, 1e-300)
        if done.any():
            stopped.append((live[done], vr[:, done], vi[:, done]))
            go = ~done
            live, rr, ri, cur = live[go], rr[go], ri[go], cur[go]
            fr, fi, vr, vi, fixed = (x[:, go] for x in (fr, fi, vr, vi, fixed))
            if not live.size:
                break
        prev = cur
    stopped.append((live, vr, vi))
    v = np.empty(f.shape, dtype=np.complex128)
    for rows, re, im in stopped:
        v.real[rows] = re.T
        v.imag[rows] = im.T
    return v


def nulling_residual(t: np.ndarray, f: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|t_r + sum_n f_rn v_rn|^2 of R problems, each row as it is alone."""
    total = t + np.sum(f * v, axis=1)
    return np.float_power(np.hypot(total.real, total.imag), 2)


def null_interference(
    ch: ChannelRealization,
    c: ConstraintSet,
    tol: float = 1e-12,
    max_passes: int = 200,
    start: ReflectionState | None = None,
) -> tuple[ReflectionState, float]:
    """Minimize the interference power |t + sum_n f_n v_n|^2 at the user.

    Requires a single-antenna interferer (M = 1), whose scalar beamformer
    is absorbed into (t, f) = direct_and_cascade(ch, [1]).  With free
    amplitudes the reachable set {sum_n f_n v_n} is a disk of radius
    sum|f_n|, so the anti-aligned state v_n = -exp(j*(arg t - arg f_n)),
    scaled by min(1, |t| / sum|f_n|), is exact: max(0, |t| - sum|f_n|)^2.
    With unit modulus, cyclic coordinate descent (a monotone heuristic:
    :func:`null_phases` on one row) moves each element in turn to its
    per-element optimum, starting from the anti-aligned state or
    ``start``; ``tol``, ``max_passes`` and ``start`` apply to this case
    only, though ``max_passes`` must be >= 1 and ``tol`` finite and
    positive in both.  Returns (state, residual power).
    """
    if ch.m_antennas != 1:
        raise ValueError("interference nulling assumes a single-antenna interferer (M = 1)")
    if c.kind not in (ConstraintKind.IDEAL_CONTINUOUS, ConstraintKind.UNIT_MODULUS):
        raise ValueError(f"unsupported constraint for nulling: {c.kind.value}")
    _check_nulling_caps(tol, max_passes)
    if start is not None:
        if start.n_elements != ch.n_elements:
            raise ValueError("start state dimension does not match the channel")
        if not c.contains(start.coefficients):
            raise ValueError("start state violates the requested constraint")
    t, f = direct_and_cascade(ch, np.ones(1))
    t, f = np.array([t]), f[None, :]
    if c.kind is ConstraintKind.IDEAL_CONTINUOUS:
        v = null_free_amplitude(t, f)
    else:
        v = null_phases(t, f, None if start is None else start.coefficients[None, :],
                        tol, max_passes)
    return ReflectionState(v[0], c), float(nulling_residual(t, f, v)[0])


def codebook_sweep(
    ch: ChannelRealization, w: np.ndarray, cb: Codebook
) -> tuple[int, float]:
    """Evaluate every codebook entry and return (argmax index, its gain).

    Ties resolve to the lowest index.
    """
    best_idx = 0
    best_gain = -1.0
    for idx, entry in enumerate(cb.entries):
        g = received_gain(ch, entry, w)
        if g > best_gain:
            best_idx, best_gain = idx, g
    return best_idx, best_gain


def min_power_for_snr(gain_linear: float, snr_target_db: float, noise_dbm: float) -> float:
    """Transmit power (dBm) needed to hit the SNR target over this gain."""
    if gain_linear <= 0:
        raise ValueError(f"channel gain must be > 0 to reach any SNR, got {gain_linear}")
    return snr_target_db + noise_dbm - 10.0 * math.log10(gain_linear)


def quantization_loss_bound(bits: int) -> float:
    """Asymptotic power loss (dB) of b-bit uniform phase quantization.

    Equals -20*log10(E[cos d]) with d uniform on one quantization cell,
    i.e. -20*log10((2^b / pi) * sin(pi / 2^b)).
    """
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    nlev = 1 << bits
    return -20.0 * math.log10(nlev / math.pi * math.sin(math.pi / nlev))
