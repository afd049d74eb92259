"""Transmit and reflect beamforming optimizers.

Covers the closed-form pieces (maximum-ratio transmission, coherent phase
alignment, the rank-one transmitter-surface beam, the joint
transmit/reflect optimum it allows, the disk value of free-amplitude
interference nulling), elementwise refinement of discrete phases and the
cyclic unit-modulus nulling heuristic, codebook selection, and the
SNR-to-transmit-power mapping.  Every transmitter-surface matrix must be
rank one, as the line-of-sight model draws it; :func:`_rank_one_beam`
refuses any other.  The one-realization solvers call the same private
kernels as the studies: refinement over rows of several lengths laid end
to end, nulling over several element counts of one batch, each a prefix
of its elements, each row getting the bits it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .numerics import as_complex_vector, integer
from .reflection import (
    ConstraintKind,
    ConstraintSet,
    ReflectionState,
    absorb_state,
    effective_channel,
    project,
    unit_phases,
)

# The elements each live row of _refine_rows scans per step: the longest
# live row, but at most the larger of _WINDOW and _STEP_CANDIDATES / (live
# rows * 2^bits), so a step wider than _WINDOW holds at most
# _STEP_CANDIDATES candidates.  A fixed width
# of 32, in medians of alternating runs: 16 was 26% slower on the benchmark
# study's blocks (40 rows) and even on the default study's (436 rows); 48
# and 64 were even on the former and 20-23% slower on the latter.  Widening
# as rows finish took the benchmark study's steps from 337 to 261 (and from
# 5599 to 4411 over its 16 seeds); 2048 and 4096 candidates were slower.
_WINDOW = 32
_STEP_CANDIDATES = 1024
# Stopping rules, one per solver, as the studies use them: refinement makes
# at most _REFINE_PASSES full passes; nulling stops after the first pass that
# lowers the residual power by at most _NULL_TOL times its previous value, or
# after _NULL_PASSES passes.
_REFINE_PASSES = 20
_NULL_TOL = 1e-14
_NULL_PASSES = 400
# Live problems at or below which _null_prefixes finishes each one alone on
# Python floats (_null_alone).  On 2 cores a vector step took 30-40 us with 1
# to 32 live problems, and a problem's step alone 3-4 us.  Over the
# interference study at the 16 benchmark seeds (150 realizations) and at
# seeds 1-12 (200), 4, 8 and 12 were within 7% of each other in total time;
# 2 took up to 6% more, 16-32 up to 14% more, and 0 (never) 2.1-2.5x as long.
_NULL_ALONE = 8

_ALIGN_KINDS = (
    ConstraintKind.IDEAL_CONTINUOUS,
    ConstraintKind.UNIT_MODULUS,
    ConstraintKind.DISCRETE_PHASE,
)


@dataclass(frozen=True, eq=False)
class BeamformingSolution:
    """Result of one optimization run.

    ``gain_linear`` is the channel power gain |<h_eff, w>|^2 achieved by
    the unit-norm beamformer ``w`` together with the reflection state.
    """

    w: np.ndarray
    refl: ReflectionState
    gain_linear: float

    def __post_init__(self) -> None:
        w = as_complex_vector(self.w, "w")
        if abs(np.linalg.norm(w) - 1.0) > 1e-10:
            raise ValueError("beamformer must be unit norm")
        object.__setattr__(self, "w", w)


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
    """The unit principal right singular vector b of a rank-one ``g``.

    For G = u v^H every nonzero row is a multiple of v^H, so the conjugate
    of the largest-norm row is b.  A ``g`` with ||G - (G b) b^H|| above
    1e-9 ||G|| is not rank one, and raises ValueError.
    """
    b = mrt(np.conj(g[np.argmax(np.linalg.norm(g, axis=1))]))
    if np.linalg.norm(g - np.outer(g @ b, np.conj(b))) > 1e-9 * np.linalg.norm(g):
        raise ValueError("the transmitter-surface matrix must be rank one")
    return b


def alternating_optimize(ch: ChannelRealization, c: ConstraintSet) -> BeamformingSolution:
    """Joint transmit/reflect optimization of one realization, in the closed
    form of the power studies (Wu & Zhang, IEEE TWC 2019).

    With b = :func:`_rank_one_beam` of ``g_bs_irs``, p = b^H h_d and
    r = sum_n |h_r,n| ||G_n||, the beam w* = mrt(h_d + r e^{j arg p} b) and
    the phases aligned to it reach the optimum ||h_d||^2 + r^2 + 2r|p|
    under free and under unit amplitudes.  Under a b-bit lattice the
    aligned phases are refined at w* by :func:`discrete_refine` and the
    beam is re-matched to the state, as the studies' ``b{b}`` row is.
    Without elements, or with the surface absorbing, the beam is the
    direct link's MRT.
    """
    if ch.n_elements == 0 or c.kind is ConstraintKind.ABSORB:
        w = mrt(ch.h_bs_user)
        refl = absorb_state(ch.n_elements) if c.kind is ConstraintKind.ABSORB else ReflectionState(
            np.zeros(0, dtype=np.complex128), c
        )
        return BeamformingSolution(w=w, refl=refl, gain_linear=received_gain(ch, refl, w))
    b = _rank_one_beam(ch.g_bs_irs)
    p = np.vdot(b, ch.h_bs_user)
    r = np.sum(np.abs(ch.h_irs_user) * np.linalg.norm(ch.g_bs_irs, axis=1))
    w = mrt(ch.h_bs_user + r * unit_phases(p) * b)
    refl = align_phases(ch, w, c)
    if c.kind is ConstraintKind.DISCRETE_PHASE:
        refl = discrete_refine(ch, w, refl, c.bits)
        w = mrt(effective_channel(ch, refl))
    return BeamformingSolution(w=w, refl=refl, gain_linear=received_gain(ch, refl, w))


def bs_irs_mrt(ch: ChannelRealization, c: ConstraintSet) -> BeamformingSolution:
    """Beam at the rank-one transmitter-surface channel, then align phases."""
    if ch.n_elements == 0:
        raise ValueError("transmitter-surface MRT needs at least one element")
    w = _rank_one_beam(ch.g_bs_irs)
    refl = align_phases(ch, w, c)
    return BeamformingSolution(w=w, refl=refl, gain_linear=received_gain(ch, refl, w))


def _groups(buffer: np.ndarray, rows: int, sizes) -> tuple[list, np.ndarray, np.ndarray]:
    """The batch kernels' layout: for each n of ``sizes`` in turn, a group
    of ``rows`` (at least one) rows of n elements, laid end to end.  Returns
    the (rows, n) view of each group in ``buffer``, and the flat index of
    each row's first element and one past its last, in (group, row) order."""
    lengths = np.repeat(sizes, rows)
    stop = np.cumsum(lengths)
    begin = stop - lengths
    views = [buffer[lo:lo + rows * n].reshape(rows, n) for lo, n in zip(begin[::rows], sizes)]
    return views, begin, stop


def _refine_rows(t, a: np.ndarray, v: np.ndarray, rows: int, sizes, bits: int) -> None:
    """Cyclic coordinate ascent over the 2^bits phase levels, for groups of
    rows of several lengths, refining the states ``v`` in place.

    ``a`` and ``v`` are flat buffers that hold, for each n >= 1 of
    ``sizes``, a group of ``rows`` rows of n elements (:func:`_groups`), and
    ``t`` holds each group's (rows,) direct terms.  Row r maximizes
    |t_r + sum_n a_rn v_rn|^2 from its start in ``v``, whose running total
    t_r + sum_n a_rn v_rn is summed in element order, one term after
    another: holding all other elements fixed, each element in ascending
    index order moves to the level that maximizes the objective (first
    maximum, so ties pick the lowest level), kept only on strict
    improvement.  The objective never decreases, and a pass that changes
    nothing leaves a row exactly as it was, so a row leaves the loop after
    such a pass (or after ``_REFINE_PASSES`` full passes).

    Each row keeps its own first and stop index, cursor and pass count, and
    scans from its cursor a window of elements at a time, whatever pass it
    is in.  All rows share the window's width, which is set whenever a row
    leaves the loop: the longest live row, capped at ``_WINDOW`` or at the
    width where a step holds ``_STEP_CANDIDATES`` candidates, whichever is
    more.  So the few rows left at the end of a block scan many elements
    per step, and a window is never wider than the longest live row.  A
    row's running total moves only when one of its elements changes, so
    the decisions of a window's elements up to the row's first change are
    the ones the element-by-element loop takes, at any width; all of them
    are computed at once, with the loop's arithmetic.  Only that first
    change is applied and the cursor moves just past it; a window without a
    change moves the cursor by its width.  So each row gets the bits it
    gets alone, and rows of several lengths are refined in one loop that
    runs for about the steps of the slowest row, not for their sum.
    """
    levels = np.exp(1j * ConstraintSet.discrete_phase(bits).phase_levels())
    # per live row: its running total, the flat index of its first element,
    # of the next element it scans and one past its last element, its pass
    # and whether that pass has changed it
    a_groups, begin, stop = _groups(a, rows, sizes)
    terms = (ak * vk for ak, vk in zip(a_groups, _groups(v, rows, sizes)[0]))  # summed in place
    total = np.concatenate([tk + np.cumsum(x, axis=1, out=x)[:, -1] for tk, x in zip(t, terms)])
    cursor = begin.copy()
    passes = np.ones(cursor.size, dtype=np.intp)
    changed = np.zeros(cursor.size, dtype=bool)
    width = 0  # set again whenever a row leaves
    while cursor.size:
        if not width:
            width = min(int((stop - begin).max()),
                        max(_WINDOW, _STEP_CANDIDATES // (cursor.size << bits)))
            offsets = np.arange(width)
        at = cursor[:, None] + offsets
        # a window reaching past a row's end reads the next row's elements
        # (the last row's are clipped); they are masked out of the decisions
        inside = at < stop[:, None]
        an, vn = a.take(at, mode="clip"), v.take(at, mode="clip")
        now = an * vn
        rest = total[:, None] - now
        current = np.abs(rest + now)
        # the sum taken in place: past a few hundred KiB (as with the
        # hundreds of rows of a study's merged sweep), a second array of
        # this size costs several times the sum itself in fresh pages
        candidates = an * levels[:, None, None]
        candidates += rest
        powers = np.abs(candidates)
        # the first maximum over the levels, as argmax takes it
        top, k = powers[0], np.zeros(an.shape, dtype=np.intp)
        for level in range(1, len(levels)):
            k[powers[level] > top] = level
            top = np.maximum(top, powers[level])
        better = (levels[k] != vn) & (top > current) & inside
        hit = better.any(axis=1)
        first = better.argmax(axis=1)
        moved = np.flatnonzero(hit)
        step = first[moved]
        best = k[moved, step]
        v[cursor[moved] + step] = levels[best]
        total[moved] = candidates[best, moved, step]
        changed[moved] = True
        cursor += np.where(hit, first + 1, width)
        done = cursor >= stop
        if done.any():
            again = done & changed & (passes < _REFINE_PASSES)
            cursor[again] = begin[again]
            passes[again] += 1
            changed[again] = False
            stay = ~done | again
            if not stay.all():
                width = 0
                cursor, begin, stop, passes, changed, total = (
                    x[stay] for x in (cursor, begin, stop, passes, changed, total))


def discrete_refine(
    ch: ChannelRealization,
    w: np.ndarray,
    start: ReflectionState,
    bits: int,
) -> ReflectionState:
    """Cyclic coordinate ascent over the 2^bits phase levels per element.

    Refines one realization with :func:`_refine_rows`, whose rows are
    independent: a block of realizations refined together gets the same
    coefficients as each refined here alone.
    """
    want = ConstraintSet.discrete_phase(bits)
    if start.constraint != want:
        raise ValueError(f"start must satisfy {want}, got {start.constraint}")
    if start.n_elements != ch.n_elements:
        raise ValueError("start state dimension does not match the channel")
    v = np.array(start.coefficients, dtype=np.complex128)
    if len(v):
        t, a = direct_and_cascade(ch, w)
        _refine_rows([np.array([t])], a, v, 1, [len(v)], bits)
    return ReflectionState(v, want)


def quantize_then_refine(
    ch: ChannelRealization,
    w: np.ndarray,
    continuous: ReflectionState,
    bits: int,
) -> ReflectionState:
    """Round a continuous solution to the lattice, then refine elementwise."""
    quantized = project(continuous.coefficients, ConstraintSet.discrete_phase(bits))
    return discrete_refine(ch, w, quantized, bits)


def _anti_aligned(t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """v_rn = -exp(j*(arg t_r - arg f_rn)), with arg t_r := 0 when t_r = 0,
    for ``t`` of shape (R,) and ``f`` of shape (R, N)."""
    ref = np.where(t != 0, np.arctan2(t.imag, t.real), 0.0)
    return np.exp(1j * ((np.pi + ref)[:, None] - np.angle(f)))


def _disk_residual(abs_t: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """max(0, |t| - reach)^2: the least |t + sum_n f_n v_n|^2 over free
    amplitudes |v_n| <= 1, whose reachable set is the disk of radius
    reach = sum_n |f_n|."""
    return np.float_power(np.maximum(abs_t - reach, 0.0), 2)


def _null_prefixes(t: np.ndarray, f: np.ndarray, sizes) -> list[np.ndarray]:
    """Cyclic coordinate descent on |t_r + sum_n f_rn v_rn|^2 under
    |v_rn| = 1, for R rows (``t`` of shape (R,), ``f`` of shape (R, N)) at
    every element count n of ``sizes``, in one loop: problem (r, n) takes
    row r's first n elements, and starts from the first n columns of the
    anti-aligned state ``_anti_aligned(t, f)``.

    Each element in ascending index order moves to its per-element optimum
    exp(j*(pi + arg c_n - arg f_n)), c_n being the residual without element
    n; elements with f_n = 0 keep their start value.  A problem stops after
    the first pass that lowers its residual power by at most ``_NULL_TOL``
    times the previous value, or after ``_NULL_PASSES`` passes.  Every step
    is the float64 operation of the one-problem loop, in its order (unfused
    complex products, ``hypot`` magnitudes, ``pow`` squares), so a problem
    gets the same bits in any batch.

    Each (row, size) problem keeps its own cursor, pass count and residual,
    and the states of all problems are packed in one array, so the loop
    runs for the steps of the slowest problem, not for their sum over the
    sizes.  A problem's stopping test is made at the step that ends its
    pass, and the loop looks for pass ends only at the next step where
    some problem ends one.  Once at most ``_NULL_ALONE`` problems are left
    there, each is finished alone by :func:`_null_alone`, so that a lone
    slow problem does not pay numpy's per-call cost on each of its steps.
    Returns the (R, n) coefficients of each size.
    """
    rows, width = f.shape
    sizes = np.asarray(sizes, dtype=np.intp)
    start = _anti_aligned(t, f)
    live = np.flatnonzero(sizes)  # a size without elements keeps its empty start
    if not (rows and live.size):
        return [start[:, :n].copy() for n in sizes]
    fr, fi = f.real, f.imag
    # r = t + sum_n f_n v_n of every size, the sum taken in element order
    # from +0.0: one running sum over the widest, read at each size's end;
    # taken before the states are made, which keeps the peak memory lower
    terms = fr * start.real
    terms -= fi * start.imag
    terms[:, 0] += 0.0
    rr = t.real[:, None] + np.cumsum(terms, axis=1, out=terms)[:, sizes[live] - 1]
    terms = np.multiply(fr, start.imag, out=terms)
    terms += fi * start.real
    terms[:, 0] += 0.0
    ri = t.imag[:, None] + np.cumsum(terms, axis=1, out=terms)[:, sizes[live] - 1]
    del terms
    state = np.empty(rows * sizes.sum(), dtype=np.complex128)
    out, at, stop = _groups(state, rows, sizes)
    for n, v in zip(sizes, out):
        v[:] = start[:, :n]
    del start
    # per problem with elements, in (size, row) order: the flat index of the
    # element it steps next in the packed states and in f, one past its last
    # state, its size, its pass and its residual power when that pass began
    keep = at < stop
    at, stop = at[keep], stop[keep]
    size = stop - at
    at_f = np.tile(np.arange(rows) * width, live.size)
    rr, ri = rr.T.reshape(-1), ri.T.reshape(-1)
    prev = np.float_power(np.hypot(rr, ri), 2)
    passes = np.ones(size.size, dtype=np.intp)
    f_flat = f.reshape(-1)
    arg_f = np.arctan2(fi, fr).reshape(-1)
    fixed = f_flat == 0
    masked = fixed.any()
    while size.size:
        if size.size <= _NULL_ALONE:
            for j in range(size.size):
                # from its own cursor, which may lie part-way through its pass
                n, first = int(size[j]), int(at[j] - stop[j] + size[j])
                lo, lo_f = at[j] - first, at_f[j] - first
                _null_alone(f_flat[lo_f:lo_f + n], arg_f[lo_f:lo_f + n], state[lo:lo + n], first,
                            float(rr[j]), float(ri[j]), float(prev[j]), int(passes[j]))
            return out
        for _ in range((stop - at).min()):  # steps until a problem ends its pass
            fn, vn = f_flat.take(at_f), state.take(at)
            frn, fin, vrn, vin = fn.real, fn.imag, vn.real, vn.imag
            cr = rr - (frn * vrn - fin * vin)
            ci = ri - (frn * vin + fin * vrn)
            w = np.exp(1j * (np.pi + np.arctan2(ci, cr) - arg_f.take(at_f)))
            wr, wi = w.real, w.imag
            nr = cr + (frn * wr - fin * wi)
            ni = ci + (frn * wi + fin * wr)
            if masked:
                keep = fixed.take(at_f)
                w = np.where(keep, vn, w)
                nr, ni = np.where(keep, rr, nr), np.where(keep, ri, ni)
            state[at] = w
            rr, ri = nr, ni
            at += 1
            at_f += 1
        end = np.flatnonzero(at == stop)
        cur = np.float_power(np.hypot(rr[end], ri[end]), 2)
        last = prev[end]
        done = (last - cur <= _NULL_TOL * np.maximum(last, 1e-300)) | (passes[end] >= _NULL_PASSES)
        prev[end] = cur
        passes[end] += 1
        at[end] -= size[end]
        at_f[end] -= size[end]
        if done.any():
            stay = np.ones(size.size, dtype=bool)
            stay[end[done]] = False
            size, at, at_f, stop, rr, ri, prev, passes = (
                x[stay] for x in (size, at, at_f, stop, rr, ri, prev, passes))
    return out


def _null_alone(f: np.ndarray, arg_f: np.ndarray, v: np.ndarray, first: int,
                rr: float, ri: float, prev: float, passes: int) -> None:
    """Finishes one problem of :func:`_null_prefixes` on Python floats,
    writing its coefficients into ``v`` in place.

    The problem has coefficients ``f``, their angles ``arg_f`` and state
    ``v``, all of shape (N,); it resumes at element ``first`` of pass
    ``passes``, with residual rr + j*ri and residual power ``prev`` at the
    start of that pass.  Each step takes the float64 operations of the
    vector step in its order, ``arctan2`` and ``exp`` as numpy calls, so
    the problem gets the bits it gets in the vector loop.
    """
    fr, fi, arg = f.real.tolist(), f.imag.tolist(), arg_f.tolist()
    vr, vi = v.real.tolist(), v.imag.tolist()
    while True:
        for i in range(first, len(fr)):
            a, b = fr[i], fi[i]
            if a == 0.0 and b == 0.0:  # f_n = 0 keeps its element, as the mask does
                continue
            c, d = vr[i], vi[i]
            cr = rr - (a * c - b * d)
            ci = ri - (a * d + b * c)
            w = complex(np.exp(1j * (math.pi + float(np.arctan2(ci, cr)) - arg[i])))
            vr[i], vi[i] = wr, wi = w.real, w.imag
            rr = cr + (a * wr - b * wi)
            ri = ci + (a * wi + b * wr)
        cur = float(np.float_power(np.hypot(rr, ri), 2))
        if prev - cur <= _NULL_TOL * max(prev, 1e-300) or passes >= _NULL_PASSES:
            break
        prev, passes, first = cur, passes + 1, 0
    v.real, v.imag = vr, vi


def nulling_residual(t: np.ndarray, f: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|t_r + sum_n f_rn v_rn|^2 of R problems, each row as it is alone."""
    total = t + np.sum(f * v, axis=1)
    return np.float_power(np.hypot(total.real, total.imag), 2)


def null_interference(ch: ChannelRealization, c: ConstraintSet) -> tuple[ReflectionState, float]:
    """Minimize the interference power |t + sum_n f_n v_n|^2 at the user.

    Requires a single-antenna interferer (M = 1), whose scalar beamformer
    is absorbed into (t, f) = direct_and_cascade(ch, [1]).  With free
    amplitudes the reachable set {sum_n f_n v_n} is a disk of radius
    sum|f_n|, so the optimum is max(0, |t| - sum|f_n|)^2, the residual
    returned; the state returned, the anti-aligned v_n = -exp(j*(arg t -
    arg f_n)) scaled by min(1, |t| / sum|f_n|), reaches it up to
    round-off.  With unit modulus, cyclic coordinate descent (a monotone
    heuristic: :func:`_null_prefixes` on one row) moves each element in
    turn to its per-element optimum, starting from the anti-aligned state,
    with the stopping rule that the interference study uses.  Returns
    (state, residual power).
    """
    if ch.m_antennas != 1:
        raise ValueError("interference nulling assumes a single-antenna interferer (M = 1)")
    if c.kind not in (ConstraintKind.IDEAL_CONTINUOUS, ConstraintKind.UNIT_MODULUS):
        raise ValueError(f"unsupported constraint for nulling: {c.kind.value}")
    t, f = direct_and_cascade(ch, np.ones(1))
    t, f = np.array([t]), f[None, :]
    if c.kind is ConstraintKind.UNIT_MODULUS:
        v = _null_prefixes(t, f, [f.shape[1]])[0]
        return ReflectionState(v[0], c), float(nulling_residual(t, f, v)[0])
    v = _anti_aligned(t, f)
    abs_t, reach = np.hypot(t.real, t.imag), np.sum(np.abs(f), axis=1)
    if reach[0] > abs_t[0]:
        v *= abs_t[0] / reach[0]
    return ReflectionState(v[0], c), float(_disk_residual(abs_t, reach)[0])


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


def min_power_for_snr(gain_linear, snr_target_db: float, noise_dbm: float):
    """Transmit power (dBm) needed to hit the SNR target over this gain: a
    float for a float (or a 0-d array), else an array of the gains' shape.

    Each log10 is ``math.log10`` of one element, so that an element gets the
    same bits in an array as alone: ``np.log10``'s SIMD loops can round
    differently.  The first gain that is not > 0 is refused; nan passes.
    """
    gains = np.asarray(gain_linear)
    bad = gains[gains <= 0]
    if bad.size:
        raise ValueError(f"channel gain must be > 0 to reach any SNR, got {bad[0]}")
    logs = np.fromiter(map(math.log10, gains.ravel().tolist()), float, gains.size)
    powers = snr_target_db + noise_dbm - 10.0 * logs.reshape(gains.shape)
    return float(powers) if gains.ndim == 0 else powers


def quantization_loss_bound(bits: int) -> float:
    """Asymptotic power loss (dB) of b-bit uniform phase quantization.

    Equals -20*log10(E[cos d]) with d uniform on one quantization cell,
    i.e. -20*log10((2^b / pi) * sin(pi / 2^b)).
    """
    nlev = 1 << integer("bits", bits, 1)
    return -20.0 * math.log10(nlev / math.pi * math.sin(math.pi / nlev))
