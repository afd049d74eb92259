import itertools

import numpy as np
import pytest
from scipy import integrate, optimize

from irslink import beamforming, experiments
from irslink.beamforming import (
    BeamformingSolution,
    Codebook,
    align_phases,
    alternating_optimize,
    bs_irs_mrt,
    codebook_sweep,
    direct_and_cascade,
    discrete_refine,
    min_power_for_snr,
    mrt,
    null_free_amplitude,
    null_interference,
    null_phases,
    nulling_residual,
    quantization_loss_bound,
    quantize_then_refine,
    received_gain,
    refine_levels,
)
from irslink.channel import ChannelRealization, ScenarioConfig, realize
from irslink.numerics import SeededRng
from irslink.reflection import ConstraintSet, ReflectionState, effective_channel, project

IDEAL = ConstraintSet.ideal_continuous()
UNIT = ConstraintSet.unit_modulus()


def make_channel(m=4, n=8, seed=0, d=47.0):
    cfg = ScenarioConfig(m_antennas=m, n_elements=n, user_position=(d, 0.0))
    return realize(cfg, SeededRng(9000 + seed, 0))


def synthetic_channel(t: complex, f: np.ndarray) -> ChannelRealization:
    """M=1 channel whose direct term is t and cascade coefficients are f."""
    f = np.asarray(f, complex)
    return ChannelRealization(
        g_bs_irs=f.reshape(-1, 1),
        h_irs_user=np.ones(f.size, complex),
        h_bs_user=np.array([np.conj(t)]),
    )


class TestMrt:
    def test_axis_case(self):
        h = np.array([1.0, 0.0, 0.0], complex)
        w = mrt(h)
        np.testing.assert_allclose(w, h)
        assert abs(np.vdot(h, w)) ** 2 == pytest.approx(1.0)

    def test_norm_identity(self):
        g = np.random.default_rng(1)
        h = g.standard_normal(6) + 1j * g.standard_normal(6)
        h *= 5.0 / np.linalg.norm(h)
        assert abs(np.vdot(h, mrt(h))) ** 2 == pytest.approx(25.0, rel=1e-12)

    def test_beats_random_unit_vectors(self):
        g = np.random.default_rng(2)
        h = g.standard_normal(5) + 1j * g.standard_normal(5)
        bound = np.linalg.norm(h) ** 2
        u = g.standard_normal((1000, 5)) + 1j * g.standard_normal((1000, 5))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        gains = np.abs(u.conj() @ h) ** 2
        assert np.all(gains <= bound + 1e-9)
        assert abs(np.vdot(h, mrt(h))) ** 2 == pytest.approx(bound, rel=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            mrt(np.zeros(3, complex))


class TestAlignPhases:
    def test_single_element_with_zero_direct_term(self):
        ch = synthetic_channel(0.0, np.array([np.exp(1j * np.pi / 3)]))
        w = np.array([1.0 + 0j])
        t, a = direct_and_cascade(ch, w)
        assert t == pytest.approx(0.0)
        assert a[0] == pytest.approx(np.exp(1j * np.pi / 3))
        state = align_phases(ch, w, UNIT)
        assert state.coefficients[0] == pytest.approx(np.exp(-1j * np.pi / 3))
        assert abs(t + a[0] * state.coefficients[0]) == pytest.approx(abs(a[0]))

    @pytest.mark.parametrize("seed", range(8))
    def test_coherent_sum_identity(self, seed):
        ch = make_channel(m=3, n=12, seed=seed)
        g = np.random.default_rng(seed)
        w = mrt(g.standard_normal(3) + 1j * g.standard_normal(3))
        t, a = direct_and_cascade(ch, w)
        state = align_phases(ch, w, UNIT)
        achieved = abs(np.vdot(effective_channel(ch, state), w))
        target = abs(t) + np.sum(np.abs(a))
        assert achieved == pytest.approx(target, rel=1e-9)

    def test_ideal_amplitudes_stay_at_one(self):
        ch = make_channel(seed=3)
        state = align_phases(ch, mrt(ch.h_bs_user), IDEAL)
        np.testing.assert_allclose(np.abs(state.coefficients), 1.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_quantized_alignment_vs_exhaustive_four_elements(self, seed):
        ch = make_channel(m=2, n=4, seed=100 + seed)
        w = mrt(ch.h_bs_user)
        t, a = direct_and_cascade(ch, w)
        b1 = ConstraintSet.discrete_phase(1)
        quantized = align_phases(ch, w, b1)
        g_quant = received_gain(ch, quantized, w)
        g_cont = received_gain(ch, align_phases(ch, w, UNIT), w)
        best = 0.0
        for combo in itertools.product((1.0, -1.0), repeat=4):
            best = max(best, abs(t + np.sum(a * np.array(combo))) ** 2)
        assert best >= g_quant - 1e-12 * best
        assert g_cont >= best - 1e-12 * best

    def test_rejects_absorb(self):
        ch = make_channel()
        with pytest.raises(ValueError):
            align_phases(ch, mrt(ch.h_bs_user), ConstraintSet.absorb())


class TestAlternatingOptimize:
    def test_no_surface_reduces_to_direct_mrt(self):
        ch = realize(ScenarioConfig(n_elements=0), SeededRng(4, 0))
        sol = alternating_optimize(ch, UNIT)
        assert sol.gain_linear == pytest.approx(np.linalg.norm(ch.h_bs_user) ** 2, rel=1e-12)
        np.testing.assert_allclose(sol.w, mrt(ch.h_bs_user))

    def test_single_antenna_converges_in_one_outer_iteration(self):
        ch = make_channel(m=1, n=10, seed=5)
        sol = alternating_optimize(ch, UNIT)
        # after the first alignment the objective is already maximal
        assert len(sol.trace) <= 2
        assert sol.trace[-1] == pytest.approx(sol.trace[0], rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_dominates_heuristic_baselines(self, seed):
        ch = make_channel(m=2, n=2, seed=200 + seed)
        joint = alternating_optimize(ch, IDEAL).gain_linear
        w1 = mrt(ch.h_bs_user)
        bs_user = received_gain(ch, align_phases(ch, w1, IDEAL), w1)
        bs_irs = bs_irs_mrt(ch, IDEAL).gain_linear
        no_irs = float(np.linalg.norm(ch.h_bs_user) ** 2)
        floor = max(bs_user, bs_irs, no_irs)
        assert joint >= floor - 1e-9 * floor

    @pytest.mark.parametrize("seed", range(5))
    def test_trace_non_decreasing(self, seed):
        ch = make_channel(m=5, n=30, seed=300 + seed, d=50.0)
        sol = alternating_optimize(ch, UNIT)
        diffs = np.diff(sol.trace)
        assert np.all(diffs >= -1e-12 * np.abs(sol.trace[:-1]))

    def test_deterministic(self):
        ch = make_channel(m=3, n=9, seed=6)
        a = alternating_optimize(ch, UNIT)
        b = alternating_optimize(ch, UNIT)
        assert a.gain_linear == b.gain_linear
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.refl.coefficients, b.refl.coefficients)

    def test_gain_recomputable_from_parts(self):
        ch = make_channel(m=4, n=16, seed=7)
        for c in (IDEAL, UNIT, ConstraintSet.discrete_phase(2)):
            sol = alternating_optimize(ch, c)
            assert received_gain(ch, sol.refl, sol.w) == pytest.approx(sol.gain_linear, rel=1e-9)


def rank_one_optimum(ch: ChannelRealization) -> float:
    """max ||h_d + sum_n v_n conj(h_r_n) G_n||^2 over |v_n| <= 1 for a rank-one G.

    Every row G_n is a multiple of one unit row direction v_hat^H, so the
    reflected part is sigma * v_hat^H with |sigma| <= C = sum_n ||G_n|| |h_r_n|
    and any phase of sigma reachable, under free and under unit amplitudes.
    """
    norms = np.linalg.norm(ch.g_bs_irs, axis=1)
    v_hat = np.conj(ch.g_bs_irs[np.argmax(norms)]) / np.max(norms)
    c = float(np.sum(norms * np.abs(ch.h_irs_user)))
    direct = ch.h_bs_user
    return float(np.linalg.norm(direct) ** 2 + c**2 + 2 * c * abs(np.vdot(v_hat, direct)))


class TestRankOneOracle:
    @pytest.mark.parametrize("constraint", [IDEAL, UNIT], ids=["ideal", "unit"])
    @pytest.mark.parametrize("d", [20.0, 45.0, 50.0, 55.0])
    @pytest.mark.parametrize("n", [10, 40, 150, 300])
    def test_alternating_reaches_closed_form(self, n, d, constraint):
        cfg = ScenarioConfig(m_antennas=5, n_elements=n, user_position=(d, 0.0))
        for i in range(10):
            ch = realize(cfg, SeededRng(4242, i))
            exact = rank_one_optimum(ch)
            gain = alternating_optimize(ch, constraint).gain_linear
            assert abs(gain - exact) <= 1e-12 * exact


class TestBsIrsMrt:
    def test_beams_at_rank_one_direction(self):
        ch = make_channel(m=4, n=12, seed=8)
        sol = bs_irs_mrt(ch, UNIT)
        # w must maximize the surface illumination ||G w||
        gw = np.linalg.norm(ch.g_bs_irs @ sol.w)
        s_max = np.linalg.svd(ch.g_bs_irs, compute_uv=False)[0]
        assert gw == pytest.approx(s_max, rel=1e-10)

    def test_zero_first_row_still_reaches_sigma_max(self):
        g = np.random.default_rng(11)
        u = g.standard_normal(6) + 1j * g.standard_normal(6)
        u[0] = 0.0
        v = g.standard_normal(3) + 1j * g.standard_normal(3)
        ch = ChannelRealization(
            g_bs_irs=np.outer(u, v.conj()),
            h_irs_user=g.standard_normal(6) + 1j * g.standard_normal(6),
            h_bs_user=g.standard_normal(3) + 1j * g.standard_normal(3),
        )
        sol = bs_irs_mrt(ch, UNIT)
        s_max = np.linalg.svd(ch.g_bs_irs, compute_uv=False)[0]
        assert np.linalg.norm(ch.g_bs_irs @ sol.w) == pytest.approx(s_max, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_never_beats_joint_optimization(self, seed):
        ch = make_channel(m=3, n=10, seed=400 + seed)
        assert bs_irs_mrt(ch, IDEAL).gain_linear <= alternating_optimize(ch, IDEAL).gain_linear * (
            1 + 1e-12
        )

    def test_equals_joint_when_direct_link_blocked(self):
        import dataclasses

        ch = make_channel(m=4, n=20, seed=9, d=50.0)
        blocked = dataclasses.replace(ch, h_bs_user=np.zeros_like(ch.h_bs_user))
        a = bs_irs_mrt(blocked, UNIT).gain_linear
        b = alternating_optimize(blocked, UNIT).gain_linear
        assert a == pytest.approx(b, rel=1e-6)

    def test_requires_elements(self):
        ch = realize(ScenarioConfig(n_elements=0), SeededRng(4, 0))
        with pytest.raises(ValueError):
            bs_irs_mrt(ch, UNIT)


class TestDiscreteRefine:
    def _refined(self, seed, n=3, bits=1, m=1):
        ch = make_channel(m=m, n=n, seed=500 + seed)
        w = mrt(ch.h_bs_user)
        start = align_phases(ch, w, ConstraintSet.discrete_phase(bits))
        out = discrete_refine(ch, w, start, bits)
        return ch, w, start, out

    def test_fixed_point_returned_unchanged(self):
        ch, w, _, out = self._refined(0)
        again = discrete_refine(ch, w, out, 1)
        assert np.array_equal(again.coefficients, out.coefficients)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("bits", [1, 2])
    def test_matches_exhaustive_search_three_elements(self, seed, bits):
        ch, w, start, out = self._refined(seed, n=3, bits=bits)
        t, a = direct_and_cascade(ch, w)
        levels = np.exp(2j * np.pi * np.arange(1 << bits) / (1 << bits))
        exhaustive = max(
            abs(t + np.sum(a * np.array(combo))) ** 2
            for combo in itertools.product(levels, repeat=3)
        )
        refined = received_gain(ch, out, w)
        assert exhaustive >= refined - 1e-12 * exhaustive
        # coordinate ascent from quantized alignment reaches the optimum here
        assert refined == pytest.approx(exhaustive, rel=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_never_below_start(self, seed):
        ch, w, start, out = self._refined(seed, n=12, bits=1, m=3)
        assert received_gain(ch, out, w) >= received_gain(ch, start, w) * (1 - 1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_more_bits_never_hurt(self, seed):
        ch = make_channel(m=4, n=16, seed=600 + seed, d=50.0)
        sol = alternating_optimize(ch, UNIT)
        gains = {}
        for bits in (1, 2, 3, 4):
            refined = quantize_then_refine(ch, sol.w, sol.refl, bits)
            gains[bits] = received_gain(ch, refined, sol.w)
        for bits in (1, 2, 3):
            assert gains[bits + 1] >= gains[bits] * (1 - 1e-12)

    def test_requires_matching_start(self):
        ch = make_channel(n=4)
        w = mrt(ch.h_bs_user)
        start = align_phases(ch, w, ConstraintSet.discrete_phase(2))
        with pytest.raises(ValueError):
            discrete_refine(ch, w, start, bits=1)

    @pytest.mark.parametrize("n", [10, 40, 150])
    @pytest.mark.parametrize("bits", [1, 2])
    def test_matches_elementwise_loop(self, n, bits):
        cfg = ScenarioConfig(m_antennas=5, n_elements=n, user_position=(50.0, 0.0))
        lattice = ConstraintSet.discrete_phase(bits)
        for i in range(8):
            ch = realize(cfg, SeededRng(6060, i))
            sol = alternating_optimize(ch, UNIT)
            start = project(sol.refl.coefficients, lattice)
            t, a = direct_and_cascade(ch, sol.w)
            expected = loop_refine(t, a, start.coefficients, bits, passes=20)
            got = discrete_refine(ch, sol.w, start, bits).coefficients
            assert got.tobytes() == expected.tobytes()


def loop_refine(t, a, start, bits, passes):
    """Reference: the cyclic coordinate ascent as one Python loop per element."""
    nlev = 1 << bits
    levels = np.exp(2j * np.pi * np.arange(nlev) / nlev)
    v = list(start)
    total = complex(t) + sum(an * vn for an, vn in zip(a, v))
    for _ in range(passes):
        changed = False
        for n, an in enumerate(a):
            rest = total - an * v[n]
            powers = np.abs(rest + an * levels)
            k = int(np.argmax(powers))
            # np.abs of an array, as the kernels take it: Python's abs() of
            # a numpy complex can differ from it in the last bit
            current = np.abs(np.array([rest + an * v[n]]))[0]
            if levels[k] != v[n] and powers[k] > current:
                v[n] = levels[k]
                total = rest + an * v[n]
                changed = True
        if not changed:
            break
    return np.asarray(v, dtype=np.complex128)


def refinement_batch(bits, r=16, n=24, seed=0):
    """Rows t (R,), a (R, N) and lattice starts (R, N) with awkward cases:
    an all-zero row, a column of zero a_n (when N > 3), a row whose only
    nonzero a_n ties two levels exactly (t = 0, a_0 = 1), and rows of mixed
    scales."""
    g = np.random.default_rng(seed)
    nlev = 1 << bits
    t = (g.standard_normal(r) + 1j * g.standard_normal(r)) * 10.0 ** g.uniform(-1, 1, r)
    a = (g.standard_normal((r, n)) + 1j * g.standard_normal((r, n))) * 10.0 ** g.uniform(
        -2, 0, (r, n)
    )
    a[:, 3:4] = 0.0
    a[0] = 0.0
    t[1], a[1] = 0.0, np.eye(1, n, 0)[0]
    start = np.exp(2j * np.pi * g.integers(0, nlev, (r, n)) / nlev)
    return t, a, start


def lockstep_refine(t, a, start, bits, passes, log=None):
    """Reference: a lockstep kernel that :func:`refine_levels`' windowed
    scan replaced, one numpy step per element for all rows until no row
    changes.  Appends (pass, element, changed rows) of every step that
    changes a row to ``log`` if given."""
    if a.shape[1] == 0:
        return np.array(start, dtype=np.complex128)
    terms = a * start
    total = t + np.cumsum(terms, axis=1, out=terms)[:, -1]
    del terms
    v = np.array(start, dtype=np.complex128)
    nlev = 1 << bits
    levels = np.exp(2j * np.pi * np.arange(nlev) / nlev)
    rows = np.arange(v.shape[0])
    for p in range(passes):
        changed = False
        for n, (an, vn) in enumerate(zip(a.T, v.T)):  # column views: vn writes into v
            rest = total - an * vn
            candidates = rest[:, None] + an[:, None] * levels
            powers = np.abs(candidates)
            k = powers.argmax(axis=1)
            better = (levels[k] != vn) & (powers[rows, k] > np.abs(rest + an * vn))
            if better.any():
                vn[better] = levels[k[better]]
                total[better] = candidates[rows[better], k[better]]
                changed = True
                if log is not None:
                    log.append((p, n, rows[better]))
        if not changed:
            break
    return v


K = beamforming._WINDOW


def flips_at(n, wrong):
    """A real 1-bit row at its fixed point except at the elements ``wrong``.

    t = n outweighs sum|a_n| < n, so every element's best level is the one
    that makes a_n v_n positive, and pass 1 changes exactly ``wrong``."""
    levels = np.exp(2j * np.pi * np.arange(2) / 2)
    a = np.linspace(0.5, 1.0, n) * (-1.0) ** np.arange(n)
    k = (a < 0).astype(int)
    k[list(wrong)] ^= 1
    return complex(n), a.astype(complex), levels[k]


def boundary_batch(bits, n, seed=0):
    """refinement_batch rows of length ``n`` (uniform starts, many changes),
    rows started from nearly aligned phases (few changes, as in the
    studies), and, for 1 bit and n = 2K + 1, rows whose changes sit at
    window edges: at K - 1 and K, at 3, 4 and 10 (consecutive and several
    in one window) plus K + 5, at the last element, and none at all."""
    t, a, start = refinement_batch(bits, r=12, n=n, seed=seed)
    g = np.random.default_rng(seed + 100)
    nlev = 1 << bits
    ta = (g.standard_normal(12) + 1j * g.standard_normal(12)) * 3.0
    aa = g.standard_normal((12, n)) + 1j * g.standard_normal((12, n))
    phase = np.angle(ta)[:, None] - np.angle(aa) + g.normal(0.0, 0.4, (12, n))
    sa = np.exp(2j * np.pi * (np.round(phase * nlev / (2 * np.pi)) % nlev) / nlev)
    t, a, start = np.r_[t, ta], np.r_[a, aa], np.r_[start, sa]
    if bits == 1 and n == 2 * K + 1:
        rows = [flips_at(n, w) for w in ([K - 1, K], [3, 4, 10, K + 5], [n - 1], [])]
        t = np.r_[t, [r[0] for r in rows]]
        a = np.r_[a, [r[1] for r in rows]]
        start = np.r_[start, [r[2] for r in rows]]
    return t, a, start


def changes_by_pass(log, row):
    """The elements that ``row`` changes in each pass of a lockstep log."""
    passes = {}
    for p, e, rows in log:
        if row in rows:
            passes.setdefault(p, []).append(e)
    return [passes[p] for p in sorted(passes)]


def steps_per_pass(changes, n, passes):
    """Steps that a row scanning windows of K elements from its own cursor
    takes in each pass it runs: one per change, at the window holding it,
    and one per window without a change; a pass that changes nothing ends
    the row, as does the last of ``passes`` passes."""
    per_pass = []
    for p in range(min(len(changes) + 1, passes)):
        cursor, steps = 0, 0
        for e in changes[p] if p < len(changes) else []:
            steps += (e - cursor) // K + 1
            cursor = e + 1
        steps += -(-(n - cursor) // K)
        per_pass.append(steps)
    return per_pass


class StepCounter:
    """Stands in for numpy in ``beamforming`` and counts the steps of
    :func:`refine_levels`' scan, which calls ``flatnonzero`` once a step."""

    def __init__(self):
        self.steps = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def flatnonzero(self, x):
        self.steps += 1
        return np.flatnonzero(x)


def tied_rows(n):
    """2-bit rows on which element 0 has two levels tied for the best, both
    strictly better than its start: t = 2 + 2j, a_0 = 1, v_0 = -1, so level
    0 gives |3 + 2j| and level 1 (cos(pi/2) rounds away) |2 + 3j|; the
    other a_n are zero.  The second row scales the first by 1/8."""
    a = np.zeros((2, n), complex)
    a[:, 0] = [1.0, 0.125]
    start = np.ones((2, n), complex)
    start[:, 0] = -1.0
    return np.array([2 + 2j, 0.25 + 0.25j]), a, start


def cursor_batch(bits):
    """Rows of length n = 2K whose cursors part ways: rows whose pass-1
    changes sit on the last element of both windows (K - 1 and n - 1), on
    element 0 only, and on every element (that row is still in pass 1 when
    the others are in pass 2 or done), refinement_batch rows that settle
    after different pass counts, and, for 2 bits, tied_rows."""
    n = 2 * K
    rows = [flips_at(n, w) for w in ([K - 1, n - 1], [0], range(n))]
    t = np.r_[[r[0] for r in rows]]
    a = np.array([r[1] for r in rows])
    start = np.array([r[2] for r in rows])
    tr, ar, sr = refinement_batch(bits, r=8, n=n, seed=5)
    t, a, start = np.r_[t, tr], np.r_[a, ar], np.r_[start, sr]
    if bits == 2:
        tt, at, st = tied_rows(n)
        t, a, start = np.r_[t, tt], np.r_[a, at], np.r_[start, st]
    return t, a, start


class TestRefineLevels:
    """The windowed kernel against the lockstep kernel, bit for bit.  (A
    "chunk" in a test name is a window.)"""

    @staticmethod
    def row_by_row(t, a, start, bits, passes):
        return np.array([lockstep_refine(t[r:r + 1], a[r:r + 1], start[r:r + 1], bits, passes)[0]
                         for r in range(len(t))])

    @pytest.mark.parametrize("passes", [1, 2, 20])
    @pytest.mark.parametrize("bits", [1, 2])
    @pytest.mark.parametrize("seed", range(3))
    def test_batch_equals_row_by_row(self, monkeypatch, seed, bits, passes):
        t, a, start = refinement_batch(bits, seed=seed)
        monkeypatch.setattr(beamforming, "_REFINE_PASSES", passes)
        got = refine_levels(t, a, start, bits)
        assert got.shape == a.shape
        assert got.tobytes() == np.ascontiguousarray(
            self.row_by_row(t, a, start, bits, passes)).tobytes()

    @pytest.mark.parametrize("passes", [1, 2, 3, 20])
    @pytest.mark.parametrize("bits", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, K - 1, K, K + 1, 2 * K + 1])
    def test_chunk_edges_match_the_lockstep_kernel(self, monkeypatch, n, bits, passes):
        t, a, start = boundary_batch(bits, n, seed=n)
        monkeypatch.setattr(beamforming, "_REFINE_PASSES", passes)
        got = refine_levels(t, a, start, bits)
        assert got.tobytes() == lockstep_refine(t, a, start, bits, passes).tobytes()
        assert got.tobytes() == np.ascontiguousarray(
            self.row_by_row(t, a, start, bits, passes)).tobytes()

    def test_chunk_edge_rows_change_where_built_to(self):
        n = 2 * K + 1
        t, a, start = boundary_batch(1, n, seed=n)
        log = []
        lockstep_refine(t, a, start, 1, 20, log)
        first_pass = {}  # row -> the elements it changes in pass 1
        for p, e, rows in log:
            if p == 0:
                for r in rows:
                    first_pass.setdefault(int(r), []).append(e)
        edge = len(t) - 4
        assert first_pass[edge] == [K - 1, K]
        assert first_pass[edge + 1] == [3, 4, 10, K + 5]
        assert first_pass[edge + 2] == [n - 1]
        assert edge + 3 not in first_pass
        # rows leave the batch after pass 1 while others go on changing
        later = {int(r) for p, _, rows in log if p >= 1 for r in rows}
        assert later and not later & {edge, edge + 1, edge + 2, edge + 3}
        # each nearly aligned row changes some, but under half, of its
        # elements in pass 1
        assert all(1 <= len(first_pass.get(r, [])) < n // 2 for r in range(12, 24))

    @pytest.mark.parametrize("passes", [1, 2, 20])
    @pytest.mark.parametrize("bits", [1, 2])
    def test_rows_in_different_passes_match_the_lockstep_kernel(self, monkeypatch, bits, passes):
        t, a, start = cursor_batch(bits)
        monkeypatch.setattr(beamforming, "_REFINE_PASSES", passes)
        got = refine_levels(t, a, start, bits)
        assert got.tobytes() == lockstep_refine(t, a, start, bits, passes).tobytes()
        assert got.tobytes() == np.ascontiguousarray(
            self.row_by_row(t, a, start, bits, passes)).tobytes()

    @pytest.mark.parametrize("bits", [1, 2])
    def test_each_row_steps_from_its_own_cursor(self, monkeypatch, bits):
        # the scan takes as many steps as its slowest row needs alone, and
        # some step holds rows in different passes
        t, a, start = cursor_batch(bits)
        n = a.shape[1]
        log = []
        lockstep_refine(t, a, start, bits, 20, log)
        changes = [changes_by_pass(log, r) for r in range(len(t))]
        assert changes[0][0] == [K - 1, n - 1]
        assert changes[1][0] == [0]
        assert changes[2][0] == list(range(n))
        steps = [steps_per_pass(c, n, 20) for c in changes]
        # row 1 starts pass 2 before row 2 ends pass 1
        assert steps[1][0] < steps[2][0]
        assert len({len(x) for x in steps}) >= 3
        counter = StepCounter()
        monkeypatch.setattr(beamforming, "np", counter)
        refine_levels(t, a, start, bits)
        assert counter.steps == max(sum(x) for x in steps)

    @pytest.mark.parametrize("bits", [1, 2])
    @pytest.mark.parametrize("batch", [*(f"refinement-{seed}" for seed in range(6)), "cursor"])
    def test_rows_match_the_elementwise_loop(self, batch, bits):
        # rows with zero a_n, exact ties and different pass counts
        name, _, seed = batch.partition("-")
        t, a, start = (refinement_batch(bits, seed=int(seed)) if name == "refinement"
                       else cursor_batch(bits))
        got = refine_levels(t, a, start, bits)
        for r in range(len(t)):
            want = loop_refine(t[r], a[r], start[r], bits, beamforming._REFINE_PASSES)
            assert got[r].tobytes() == want.tobytes(), r

    def test_level_indices_past_127(self):
        # 8 bits: 256 levels; a small batch, as the lockstep kernel is slow
        t, a, start = refinement_batch(8, r=6, n=5, seed=8)
        got = refine_levels(t, a, start, 8)
        assert not np.array_equal(got, start)
        assert got.tobytes() == lockstep_refine(t, a, start, 8, 20).tobytes()

    def test_ties_go_to_the_lowest_level(self):
        n = 2 * K
        t, a, start = tied_rows(n)
        levels = np.exp(1j * ConstraintSet.discrete_phase(2).phase_levels())
        powers = np.abs(t[:, None] + a[:, :1] * levels)
        assert np.all(powers[:, 0] == powers[:, 1])
        assert np.all(powers[:, 0] > np.abs(t - a[:, 0]))
        got = refine_levels(t, a, start, 2)
        assert np.all(got[:, 0] == levels[0])
        assert got.tobytes() == lockstep_refine(t, a, start, 2, 20).tobytes()

    @pytest.mark.parametrize("bits", [1, 2])
    def test_study_block_matches_the_lockstep_kernel(self, monkeypatch, bits):
        # 40 rows at N = 300, started from the rounded aligned phases that
        # the power-vs-n study refines
        scen = ScenarioConfig(m_antennas=5, n_elements=300, user_position=(50.0, 0.0))
        channels = [realize(scen, SeededRng(20240811, i)) for i in range(40)]
        calls = []

        def spy(*args):
            calls.append(args)
            return refine_levels(*args)

        monkeypatch.setattr(experiments, "refine_levels", spy)
        experiments._power_gains(channels[0].g_bs_irs,
                                 np.array([ch.h_irs_user for ch in channels]),
                                 np.array([ch.h_bs_user for ch in channels]), (f"b{bits}",))
        (t, a, start, _), = calls
        got = refine_levels(t, a, start, bits)
        assert got.tobytes() == lockstep_refine(t, a, start, bits, 20).tobytes()
        # the rounded start is not a fixed point
        assert not np.array_equal(got, start)

    @pytest.mark.parametrize("t_shape, a_shape, start_shape", [
        ((3,), (3, 4), (1, 4)),
        ((1,), (3, 4), (3, 4)),
        ((3,), (4,), (4,)),
        ((3,), (3, 4), (3, 5)),
        ((3, 1), (3, 4), (3, 4)),
        ((), (1, 4), (1, 4)),
    ])
    def test_rejects_mismatched_shapes(self, t_shape, a_shape, start_shape):
        with pytest.raises(ValueError, match="shape"):
            refine_levels(np.ones(t_shape), np.ones(a_shape, complex),
                          np.ones(start_shape, complex), 1)

    def test_batch_covers_rows_converging_on_different_passes(self, monkeypatch):
        # the rows of the batch above stop changing after different pass
        # counts, and some are still changing after one and after two
        t, a, start = refinement_batch(1)
        by_passes = []
        for k in range(1, 8):
            monkeypatch.setattr(beamforming, "_REFINE_PASSES", k)
            by_passes.append(refine_levels(t, a, start, 1))
        settled = [next(k for k in range(7) if np.array_equal(by_passes[k][r], by_passes[-1][r]))
                   for r in range(len(t))]
        assert len(set(settled)) >= 3 and max(settled) >= 2

    def test_ties_and_zero_coefficients_keep_the_start(self):
        t, a, start = refinement_batch(2)
        got = refine_levels(t, a, start, 2)
        # a zero a_n leaves every level tied, so nothing is strictly better
        assert np.array_equal(got[:, 3], start[:, 3])
        assert np.array_equal(got[0], start[0])
        # t = 0 and a single a_0 = 1: every level reaches |a_0| exactly
        assert np.array_equal(got[1], start[1])

    @pytest.mark.parametrize("n", [0, 3])
    def test_rejects_zero_bits(self, n):
        # the levels are ConstraintSet.discrete_phase(bits)'s, as in discrete_refine
        with pytest.raises(ValueError, match="bits >= 1"):
            refine_levels(np.ones(2), np.ones((2, n), complex), np.ones((2, n), complex), 0)

    def test_no_elements(self):
        t = np.array([1.0 + 1j, 0.5j])
        got = refine_levels(t, np.zeros((2, 0), complex), np.zeros((2, 0), complex), 1)
        assert got.shape == (2, 0)
        ch = synthetic_channel(t[0], np.zeros(0, complex))
        start = ReflectionState(np.zeros(0, complex), ConstraintSet.discrete_phase(1))
        assert discrete_refine(ch, np.ones(1), start, 1).n_elements == 0


class TestNullInterference:
    def test_interior_minimizer(self):
        ch = synthetic_channel(0.5, np.array([1.0 + 0j]))
        state, residual = null_interference(ch, IDEAL)
        assert state.coefficients[0] == pytest.approx(-0.5 + 0j, abs=1e-12)
        assert residual == pytest.approx(0.0, abs=1e-20)

    def test_boundary_minimizer_unit_modulus(self):
        ch = synthetic_channel(0.5, np.array([1.0 + 0j]))
        state, residual = null_interference(ch, UNIT)
        assert state.coefficients[0] == pytest.approx(-1.0 + 0j, abs=1e-12)
        assert residual == pytest.approx(0.25, rel=1e-12)

    def test_empty_surface_returns_direct_power(self):
        ch = realize(ScenarioConfig(m_antennas=1, n_elements=0), SeededRng(1, 0))
        state, residual = null_interference(ch, IDEAL)
        assert state.n_elements == 0
        assert residual == pytest.approx(abs(ch.h_bs_user[0]) ** 2, rel=1e-12)

    def test_requires_single_antenna(self):
        ch = make_channel(m=2, n=4)
        with pytest.raises(ValueError):
            null_interference(ch, IDEAL)

    def test_requires_supported_constraint(self):
        ch = make_channel(m=1, n=4)
        with pytest.raises(ValueError):
            null_interference(ch, ConstraintSet.absorb())

    @pytest.mark.parametrize("seed", range(6))
    def test_two_element_grid_oracle(self, seed):
        g = np.random.default_rng(seed)
        t = complex(g.standard_normal() + 1j * g.standard_normal())
        f = g.standard_normal(2) + 1j * g.standard_normal(2)
        ch = synthetic_channel(t, f)
        _, res = null_interference(ch, IDEAL)
        # dense polar grid over both unit disks
        rho = np.linspace(0.0, 1.0, 41)
        phi = np.arange(128) * 2 * np.pi / 128
        disk = (rho[:, None] * np.exp(1j * phi)[None, :]).ravel()
        a_part = t + f[0] * disk
        best = np.inf
        for ai in a_part:
            best = min(best, np.min(np.abs(ai + f[1] * disk) ** 2))
        assert res <= best + 1e-12
        # grid point cannot be farther from optimal than the cell diagonal
        cell = np.sqrt((1 / 80) ** 2 + (np.pi / 128) ** 2)
        slack = np.sum(np.abs(f)) * cell
        assert np.sqrt(best) - np.sqrt(res) <= slack + 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_six_element_independent_solver(self, seed):
        g = np.random.default_rng(40 + seed)
        t = complex(2.0 * g.standard_normal() + 2j * g.standard_normal())
        f = 0.4 * (g.standard_normal(6) + 1j * g.standard_normal(6))
        ch = synthetic_channel(t, f)
        _, res = null_interference(ch, IDEAL)

        def objective(x):
            v = x[:6] + 1j * x[6:]
            return abs(t + np.sum(f * v)) ** 2

        cons = [
            {"type": "ineq", "fun": (lambda x, k=k: 1.0 - x[k] ** 2 - x[6 + k] ** 2)}
            for k in range(6)
        ]
        best = np.inf
        for trial in range(3):
            x0 = 0.5 * g.uniform(-1, 1, 12)
            sol = optimize.minimize(
                objective, x0, method="SLSQP", constraints=cons,
                options={"maxiter": 500, "ftol": 1e-14},
            )
            best = min(best, objective(sol.x))
        scale = max(abs(t) ** 2, 1e-30)
        assert res <= best + 1e-8 * scale
        assert abs(res - best) <= 1e-6 * scale

    @pytest.mark.parametrize("seed", range(4))
    def test_unit_modulus_never_beats_free_amplitude(self, seed):
        ch = make_channel(m=1, n=8, seed=800 + seed, d=50.0)
        _, res_free = null_interference(ch, IDEAL)
        _, res_unit = null_interference(ch, UNIT)
        assert res_free <= res_unit + 1e-18

    def test_exact_null_when_cascade_strong_enough(self):
        g = np.random.default_rng(3)
        f = g.standard_normal(6) + 1j * g.standard_normal(6)
        t = 0.5 * np.sum(np.abs(f))  # feasible: sum |f| >= |t|
        ch = synthetic_channel(complex(t), f)
        _, res = null_interference(ch, IDEAL)
        assert res <= 1e-6 * abs(t) ** 2

    @pytest.mark.parametrize("constraint", [IDEAL, UNIT])
    def test_residual_non_increasing_per_pass(self, monkeypatch, constraint):
        # residual after k full passes, on a row whose unit-modulus residual
        # falls by 30-40% on each of passes 2 and 3, and after that
        # only moves by round-off, which differs between numpy's SIMD
        # kernels
        t, f = nulling_batch(r=40, n=30, seed=2)
        ch = synthetic_channel(t[13], f[13])
        monkeypatch.setattr(beamforming, "_NULL_TOL", 1e-300)
        residuals = []
        for k in range(1, 12):
            monkeypatch.setattr(beamforming, "_NULL_PASSES", k)
            residuals.append(null_interference(ch, constraint)[1])
        if constraint is IDEAL:
            # free amplitudes are solved in closed form, whatever the pass cap
            t, f = direct_and_cascade(ch, np.ones(1))
            scale = (abs(t) + float(np.sum(np.abs(f)))) ** 2
            assert all(abs(r - disk_optimum(t, f)) <= 1e-15 * scale for r in residuals)
            return
        assert residuals[1] < 0.9 * residuals[0] and residuals[2] < 0.9 * residuals[1]
        assert np.all(np.diff(residuals) <= 1e-12 * np.maximum(residuals[:-1], 1e-300))


def disk_optimum(t: complex, f: np.ndarray) -> float:
    return max(0.0, abs(t) - float(np.sum(np.abs(f)))) ** 2


def annulus_optimum(t: complex, f: np.ndarray) -> float:
    # {sum f_n v_n : |v_n| = 1} is the annulus with outer radius sum|f_n|
    # and inner radius max(0, 2 max|f_n| - sum|f_n|) (polygon closure)
    mags = np.abs(f)
    total = float(np.sum(mags))
    inner = 2.0 * float(np.max(mags, initial=0.0)) - total
    return max(0.0, abs(t) - total, inner - abs(t)) ** 2


def nulling_cases():
    g = np.random.default_rng(77)
    cases = [
        (0.0, np.array([0.3 - 0.4j, 1.0 + 0j])),  # t = 0
        (1.5 - 0.5j, np.zeros(4, complex)),  # every f_n zero
        (0.7 + 0.2j, np.array([0.0, 0.2 + 0.1j, 0.0, -0.3j])),  # some f_n zero
        (0.7 + 0.2j, np.zeros(0, complex)),  # no elements
        (0.0, np.zeros(3, complex)),  # t = 0 and every f_n zero
        (2.0 + 0j, np.array([5.0 + 0j, 0.5j, 0.5 + 0j])),  # one element dominates
    ]
    for _ in range(20):
        n = int(g.integers(1, 12))
        t = complex(g.standard_normal() + 1j * g.standard_normal()) * 10.0 ** g.uniform(-1, 1)
        cases.append((t, 0.3 * (g.standard_normal(n) + 1j * g.standard_normal(n))))
    return cases


def loop_free(t, f):
    """Reference: the free-amplitude closed form as the per-realization
    implementation computed it.  Returns (coefficients, residual power)."""
    ref = np.angle(t) if t != 0 else 0.0
    v = np.exp(1j * (np.pi + ref - np.angle(f)))
    reach = float(np.sum(np.abs(f)))
    if reach > abs(t):
        v *= abs(t) / reach
    return v, float(abs(t + np.sum(f * v)) ** 2)


class TestNullingClosedForms:
    @pytest.mark.parametrize("t, f", nulling_cases())
    def test_free_amplitude_equals_disk_optimum(self, t, f):
        state, res = null_interference(synthetic_channel(t, f), IDEAL)
        scale = (abs(t) + float(np.sum(np.abs(f)))) ** 2
        assert abs(res - disk_optimum(t, f)) <= 1e-15 * scale
        assert IDEAL.contains(state.coefficients)

    def test_free_amplitude_matches_the_scalar_closed_form(self):
        cases = nulling_cases() + [(complex(-0.0, -0.0), np.array([0.3 - 0.4j, 1.0 + 0j]))]
        cfg = ScenarioConfig(m_antennas=1, n_elements=30, user_position=(50.0, 0.0))
        for i in range(200):
            cases.append(direct_and_cascade(realize(cfg, SeededRng(717, i)), np.ones(1)))
        for t, f in cases:
            v, res = loop_free(t, f)
            got = null_free_amplitude(np.array([t]), f[None, :])
            assert got[0].tobytes() == v.tobytes()
            assert nulling_residual(np.array([t]), f[None, :], got)[0] == res
        # the realized rows as one block
        t = np.array([c[0] for c in cases[-200:]])
        f = np.array([c[1] for c in cases[-200:]])
        want = np.array([loop_free(tr, fr)[0] for tr, fr in zip(t, f)])
        assert null_free_amplitude(t, f).tobytes() == want.tobytes()

    @pytest.mark.parametrize("t, f", nulling_cases())
    def test_phase_only_never_below_annulus_optimum(self, t, f):
        state, res = null_interference(synthetic_channel(t, f), UNIT)
        assert res >= annulus_optimum(t, f) * (1 - 1e-12) - 1e-15 * abs(t) ** 2
        assert UNIT.contains(state.coefficients)

    @pytest.mark.parametrize("n", [20, 60, 100])
    def test_on_realized_channels(self, n):
        cfg = ScenarioConfig(m_antennas=1, n_elements=n, user_position=(50.0, 0.0))
        for i in range(10):
            ch = realize(cfg, SeededRng(515, i))
            t, f = direct_and_cascade(ch, np.ones(1))
            _, free = null_interference(ch, IDEAL)
            _, unit = null_interference(ch, UNIT)
            scale = (abs(t) + float(np.sum(np.abs(f)))) ** 2
            assert abs(free - disk_optimum(t, f)) <= 1e-15 * scale
            assert unit >= annulus_optimum(t, f) * (1 - 1e-12)


def loop_null(t, f, tol=1e-14, max_passes=400):
    """Reference: unit-modulus nulling as one Python loop per element, the
    per-realization implementation that :func:`null_phases` replaced, from
    the anti-aligned state.

    Returns (coefficients, residual power, [r before the first pass, r after
    each pass])."""
    ref = np.angle(t) if t != 0 else 0.0
    f_list = [complex(x) for x in f]
    vals = [complex(x) for x in np.exp(1j * (np.pi + ref - np.angle(f)))]
    total = 0j  # as sum() adds: from +0.0, one term after another
    for fn, vn in zip(f_list, vals):
        total = total + fn * vn
    r = t + total
    prev = abs(r) ** 2
    trace = [r]
    for _ in range(max_passes):
        for i, fn in enumerate(f_list):
            if fn == 0:
                continue
            cn = r - fn * vals[i]
            vals[i] = complex(np.exp(1j * (np.pi + np.angle(cn) - np.angle(fn))))
            r = cn + fn * vals[i]
        trace.append(r)
        cur = abs(r) ** 2
        if prev - cur <= tol * max(prev, 1e-300):
            break
        prev = cur
    v = np.asarray(vals, dtype=np.complex128)
    return v, float(abs(t + np.sum(f * v)) ** 2), trace


def nulling_batch(r=24, n=16, seed=0):
    """Rows t (R,) and f (R, N) with awkward cases: zero f_n in some rows,
    an all-zero row, t = 0 and t = -0-0j, and rows of mixed scales."""
    g = np.random.default_rng(seed)
    t = (g.standard_normal(r) + 1j * g.standard_normal(r)) * 10.0 ** g.uniform(-2, 1, r)
    f = (g.standard_normal((r, n)) + 1j * g.standard_normal((r, n))) * 10.0 ** g.uniform(
        -2, 0, (r, n))
    f[2:6, 3] = 0.0
    f[4, 7] = complex(-0.0, -0.0)
    f[6] = 0.0
    t[7], t[8] = 0.0, complex(-0.0, -0.0)
    return t, f


def assert_matches_loop(t, f, tol=beamforming._NULL_TOL, max_passes=beamforming._NULL_PASSES):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(beamforming, "_NULL_TOL", tol)
        mp.setattr(beamforming, "_NULL_PASSES", max_passes)
        got = null_phases(t, f)
    res = nulling_residual(t, f, got)
    for k in range(len(t)):
        v, r, _ = loop_null(t[k], f[k], tol, max_passes)
        assert got[k].tobytes() == v.tobytes(), k
        assert res[k].tobytes() == np.float64(r).tobytes(), k


def first_stop_edges(t, f):
    """The smallest tol at which the loop stops after its first pass, and
    the largest at which it goes on."""
    prev, cur = (abs(x) ** 2 for x in loop_null(t, f, max_passes=1)[2])
    tol = (prev - cur) / prev
    while tol * prev < prev - cur:
        tol = np.nextafter(tol, np.inf)
    while np.nextafter(tol, 0.0) * prev >= prev - cur:
        tol = np.nextafter(tol, 0.0)
    return float(tol), float(np.nextafter(tol, 0.0))


class TestNullPhases:
    """The row-batched kernel against the scalar loop, bit for bit."""

    def test_zero_coefficients_and_zero_direct_term(self):
        t, f = nulling_batch()
        assert_matches_loop(t, f)
        got = null_phases(t, f)
        start = anti_aligned_rows(t, f)
        # a zero f_n keeps its start value, an all-zero row keeps its start
        assert np.array_equal(got[2:6, 3], start[2:6, 3])
        assert np.array_equal(got[6], start[6])

    @pytest.mark.parametrize("t", [0j, complex(-0.0, -0.0), 0.3 - 0.1j])
    def test_single_rows(self, t):
        for f in (np.zeros(4, complex), np.array([0.0, 0.2 + 0.1j, -0.0j, -0.3j]),
                  np.array([5.0 + 0j, 0.5j, 0.5 + 0j])):
            assert_matches_loop(np.array([t]), f[None, :])

    def test_no_elements(self):
        t = np.array([0.7 + 0.2j, 0j])
        got = null_phases(t, np.zeros((2, 0), complex))
        assert got.shape == (2, 0)
        assert_matches_loop(t, np.zeros((2, 0), complex))

    def test_stopping_test_at_its_boundary(self):
        # tol at the edge of each row's first stopping test, so that one ulp
        # in |r|^2 flips the decision, on rows where array abs would give |r|
        # another last bit than Python's abs
        g = np.random.default_rng(4)
        t = g.standard_normal(200) + 1j * g.standard_normal(200)
        f = 0.4 * (g.standard_normal((200, 3)) + 1j * g.standard_normal((200, 3)))
        rows = []
        for k in range(len(t)):
            r = loop_null(t[k], f[k], max_passes=1)[2]
            mags = [abs(x) for x in r]
            # a pass that gains nothing stops at any tol
            if mags[1] < mags[0] and np.any(np.abs(r) != mags):
                rows.append(k)
        assert len(rows) >= 12
        for k in rows[:12]:
            for edge in first_stop_edges(t[k], f[k]):
                assert_matches_loop(t[k:k + 1], f[k:k + 1], tol=edge, max_passes=4)

    @pytest.mark.parametrize("t, f", [
        # |r|^2 after the first pass: x * x is one ulp off pow
        (-0.7782179438532578 - 0.07264401627276254j,
         [0.5373755924522856 - 0.14303042994450543j, 0.2417062639784481 + 0.20435353817472157j,
          0.6443880571149166 + 0.15215007406030312j]),
        # |r|^2 of the start
        (-0.5175139562940217 + 1.0631490967372101j,
         [-0.3597011858031847 - 0.8492716363840934j, -0.03668285159360533 - 0.06366133130007519j,
          0.19607260087660883 - 0.4580884185024922j]),
    ], ids=["after_first_pass", "start"])
    def test_stopping_test_squares_by_pow(self, t, f):
        # rows (found among seeded random ones) where squaring |r| by x * x
        # instead of pow moves the first stopping decision at its tol edge,
        # and where a second pass changes the coefficients
        t, f = np.array([t]), np.array([f])
        edges = first_stop_edges(t[0], f[0])
        stop, go = (loop_null(t[0], f[0], tol=edge, max_passes=4)[0] for edge in edges)
        assert stop.tobytes() != go.tobytes()
        for edge in edges:
            assert_matches_loop(t, f, tol=edge, max_passes=4)

    @pytest.mark.parametrize("max_passes", [1, 2, 3])
    def test_explicit_start_and_pass_caps(self, max_passes):
        t, f = nulling_batch(seed=1)
        assert_matches_loop(t, f, tol=1e-14, max_passes=max_passes)

    def test_rows_stopping_on_different_passes(self):
        t, f = nulling_batch(r=40, n=30, seed=2)
        passes = [len(loop_null(tr, fr, tol=1e-6, max_passes=50)[2]) - 1 for tr, fr in zip(t, f)]
        assert len(set(passes)) >= 4 and min(passes) < max(passes) < 50
        assert_matches_loop(t, f, tol=1e-6, max_passes=50)

    @pytest.mark.parametrize("n", [20, 60, 100])
    def test_random_rows_on_realized_channels(self, n):
        cfg = ScenarioConfig(m_antennas=1, n_elements=n, user_position=(50.0, 0.0))
        pairs = [direct_and_cascade(realize(cfg, SeededRng(616, i)), np.ones(1))
                 for i in range(24)]
        t = np.array([p[0] for p in pairs])
        f = np.array([p[1] for p in pairs])
        assert_matches_loop(t, f, tol=1e-14, max_passes=400)

    @pytest.mark.parametrize("seed", range(3))
    def test_batch_equals_row_by_row(self, monkeypatch, seed):
        t, f = nulling_batch(seed=seed)
        monkeypatch.setattr(beamforming, "_NULL_TOL", 1e-10)
        monkeypatch.setattr(beamforming, "_NULL_PASSES", 30)
        got = null_phases(t, f)
        alone = np.concatenate([null_phases(t[k:k + 1], f[k:k + 1]) for k in range(len(t))])
        assert got.tobytes() == alone.tobytes()
        assert nulling_residual(t, f, got).tobytes() == np.concatenate(
            [nulling_residual(t[k:k + 1], f[k:k + 1], alone[k:k + 1])
             for k in range(len(t))]).tobytes()

    def test_residual_squared_by_pow(self):
        # pow(x, 2) and x * x differ in the last bit on a few of these rows
        g = np.random.default_rng(8)
        t = g.standard_normal(20000) + 1j * g.standard_normal(20000)
        f = g.standard_normal((20000, 2)) + 1j * g.standard_normal((20000, 2))
        v = np.exp(1j * g.uniform(0, 2 * np.pi, f.shape))
        mag = np.array([abs(tr + np.sum(fr * vr)) for tr, fr, vr in zip(t, f, v)])
        want = np.array([m ** 2 for m in mag])
        assert np.any(mag * mag != want)
        assert nulling_residual(t, f, v).tobytes() == want.tobytes()

    def test_null_interference_is_the_one_row_call(self):
        t, f = nulling_batch(seed=3)
        for k in (0, 2, 6, 9):
            ch = synthetic_channel(t[k], f[k])
            tk, fk = direct_and_cascade(ch, np.ones(1))
            state, res = null_interference(ch, UNIT)
            v, r, _ = loop_null(tk, fk, tol=1e-14, max_passes=400)
            assert state.coefficients.tobytes() == v.tobytes()
            assert np.float64(res).tobytes() == np.float64(r).tobytes()


class CallCounter:
    """Stands in for numpy in ``beamforming`` and counts the calls of the
    named functions."""

    def __init__(self, *names):
        self.calls = dict.fromkeys(names, 0)

    def __getattr__(self, name):
        func = getattr(np, name)
        if name not in self.calls:
            return func

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return func(*args, **kwargs)
        return counted


class TestNullPrefixes:
    """Every element count of one block in one call of the nulling loop,
    against :func:`null_phases` per count and the scalar loop, bit for bit."""

    SIZES = (0, 1, 3, 30)

    # rows 2-6 of nulling_batch have zero f_n, and rows 7 and 8 have t = 0
    # and t = -0-0j; from row 7 on, no f_n is zero, so the loop needs no mask
    @pytest.mark.parametrize("first", [0, 7], ids=["zero_f", "no_zero_f"])
    @pytest.mark.parametrize("tol, max_passes", [(1e-14, 400), (1e-6, 50), (1e-14, 2)])
    def test_mixed_sizes_match_each_size_alone(self, monkeypatch, first, tol, max_passes):
        t, f = nulling_batch(r=40, n=30, seed=2)
        t, f = t[first:], f[first:]
        monkeypatch.setattr(beamforming, "_NULL_TOL", tol)
        monkeypatch.setattr(beamforming, "_NULL_PASSES", max_passes)
        start = beamforming._anti_aligned(t, f)
        counter = CallCounter("exp", "flatnonzero")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(beamforming, "np", counter)
            got = beamforming._null_prefixes(t, f, start, self.SIZES)
        assert [v.shape for v in got] == [(len(t), n) for n in self.SIZES]
        passes, ends = [], set()
        for n, v in zip(self.SIZES, got):
            assert v.tobytes() == null_phases(t, f[:, :n]).tobytes(), n
            for k in range(len(t)):
                want, _, trace = loop_null(t[k], f[k, :n], tol, max_passes)
                assert v[k].tobytes() == want.tobytes(), (n, k)
                if n:
                    passes.append((len(trace) - 1, n))
                    ends.update(p * n for p in range(1, len(trace)))
        # problems stop on different passes, and the loop runs for the
        # slowest one's steps, not for the sum over the sizes; it looks for
        # pass ends (flatnonzero, after the one call that finds the sizes
        # with elements) only at steps where some problem ends a pass
        assert len({p for p, _ in passes}) >= (3 if max_passes > 2 else 2)
        assert counter.calls["exp"] == max(p * n for p, n in passes)
        assert counter.calls["flatnonzero"] == 1 + len(ends)

    def test_no_rows_or_no_elements(self):
        t, f = nulling_batch(r=10, n=8)
        start = beamforming._anti_aligned(t, f)
        alone = beamforming._null_prefixes(t, f, start, [0, 0])
        assert [v.shape for v in alone] == [(10, 0), (10, 0)]
        empty = beamforming._null_prefixes(t[:0], f[:0], start[:0], [0, 2, 8])
        assert [v.shape for v in empty] == [(0, 0), (0, 2), (0, 8)]


def anti_aligned_rows(t, f):
    return np.array([np.exp(1j * (np.pi + (np.angle(tr) if tr != 0 else 0.0) - np.angle(fr)))
                     for tr, fr in zip(t, f)])


class TestCodebookSweep:
    def _book(self, ch, k, bits=2, seed=0):
        g = np.random.default_rng(seed)
        entries = tuple(
            project(np.exp(1j * g.uniform(0, 2 * np.pi, ch.n_elements)),
                    ConstraintSet.discrete_phase(bits))
            for _ in range(k)
        )
        return Codebook(entries)

    def test_selects_entry_containing_alignment(self):
        ch = make_channel(m=2, n=6, seed=10)
        w = mrt(ch.h_bs_user)
        aligned = align_phases(ch, w, ConstraintSet.discrete_phase(2))
        book = Codebook(self._book(ch, 15, seed=1).entries + (aligned,))
        idx, gain = codebook_sweep(ch, w, book)
        assert gain >= received_gain(ch, aligned, w) * (1 - 1e-12)

    def test_single_entry(self):
        ch = make_channel(m=2, n=6, seed=11)
        book = self._book(ch, 1)
        idx, gain = codebook_sweep(ch, mrt(ch.h_bs_user), book)
        assert idx == 0
        assert gain == pytest.approx(received_gain(ch, book.entries[0], mrt(ch.h_bs_user)))

    def test_matches_independent_reevaluation(self):
        ch = make_channel(m=3, n=8, seed=12)
        w = mrt(ch.h_bs_user)
        book = self._book(ch, 64, seed=2)
        idx, gain = codebook_sweep(ch, w, book)
        gains = [abs(np.vdot(effective_channel(ch, e), w)) ** 2 for e in book.entries]
        assert idx == int(np.argmax(gains))
        assert gain == pytest.approx(max(gains), rel=1e-12)

    def test_codebook_validation(self):
        with pytest.raises(ValueError):
            Codebook(())
        ch = make_channel(n=4)
        mixed = (
            project(np.ones(4, complex), ConstraintSet.discrete_phase(1)),
            project(np.ones(4, complex), ConstraintSet.unit_modulus()),
        )
        with pytest.raises(ValueError):
            Codebook(mixed)


class TestMinPowerForSnr:
    def test_arithmetic_identity(self):
        assert min_power_for_snr(1e-6, 20.0, -80.0) == pytest.approx(0.0, abs=1e-12)

    def test_doubling_gain_saves_three_db(self):
        p1 = min_power_for_snr(2e-7, 20.0, -80.0)
        p2 = min_power_for_snr(4e-7, 20.0, -80.0)
        assert p1 - p2 == pytest.approx(10.0 * np.log10(2.0), abs=1e-12)

    def test_closed_loop_snr_equation(self):
        ch = realize(ScenarioConfig(n_elements=0), SeededRng(21, 0))
        gain = np.linalg.norm(ch.h_bs_user) ** 2
        p_dbm = min_power_for_snr(gain, 20.0, -80.0)
        snr = 10 ** (p_dbm / 10) * gain / 10 ** (-80.0 / 10)
        assert snr == pytest.approx(10 ** (20.0 / 10), rel=1e-12)

    def test_unreachable_snr_rejected(self):
        with pytest.raises(ValueError):
            min_power_for_snr(0.0, 20.0, -80.0)


class TestQuantizationLossBound:
    def test_published_constants(self):
        assert quantization_loss_bound(1) == pytest.approx(3.92, abs=5e-3)
        assert quantization_loss_bound(2) == pytest.approx(0.91, abs=5e-3)

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_matches_quadrature_oracle(self, bits):
        half_cell = np.pi / (1 << bits)
        integral, _ = integrate.quad(np.cos, -half_cell, half_cell, epsabs=1e-14)
        expected = -20.0 * np.log10(integral / (2 * half_cell))
        assert quantization_loss_bound(bits) == pytest.approx(expected, abs=1e-6)

    def test_loss_shrinks_with_bits(self):
        losses = [quantization_loss_bound(b) for b in range(1, 8)]
        assert np.all(np.diff(losses) < 0)
        assert losses[-1] < 0.02

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            quantization_loss_bound(0)


class TestBeamformingSolution:
    def test_rejects_non_unit_beamformer(self):
        refl = project(np.ones(2, complex), UNIT)
        with pytest.raises(ValueError):
            BeamformingSolution(
                w=np.array([1.0, 1.0], complex), refl=refl, gain_linear=1.0, trace=(1.0,)
            )

    def test_rejects_decreasing_trace(self):
        refl = project(np.ones(2, complex), UNIT)
        w = np.array([1.0, 0.0], complex)
        with pytest.raises(ValueError):
            BeamformingSolution(w=w, refl=refl, gain_linear=1.0, trace=(2.0, 1.0))


class TestPowerScalingLaw:
    def test_median_gain_quadruples_when_elements_double(self):
        # pure surface-aided link: direct path removed, unit-amplitude
        # coherent alignment; received power must scale as N^2
        import dataclasses

        n_real = 500
        for n_base in (50, 100, 150):
            ratios = []
            gains = {n_base: np.zeros(n_real), 2 * n_base: np.zeros(n_real)}
            for n in (n_base, 2 * n_base):
                cfg = ScenarioConfig(m_antennas=2, n_elements=n, user_position=(50.0, 0.0))
                for i in range(n_real):
                    ch = realize(cfg, SeededRng(31337, i))
                    blocked = dataclasses.replace(ch, h_bs_user=np.zeros_like(ch.h_bs_user))
                    gains[n][i] = bs_irs_mrt(blocked, UNIT).gain_linear
            ratio = np.median(gains[2 * n_base]) / np.median(gains[n_base])
            assert ratio == pytest.approx(4.0, rel=0.05)
