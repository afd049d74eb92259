import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irslink.channel import ScenarioConfig, realize
from irslink.numerics import SeededRng
from irslink.reflection import (
    ConstraintKind,
    ConstraintSet,
    ReflectionState,
    absorb_state,
    effective_channel,
    _round_to_lattice,
    project,
    unit_phases,
)

finite_complex = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)
coeff_lists = st.lists(finite_complex, min_size=1, max_size=12)
constraints = st.sampled_from(
    [
        ConstraintSet.ideal_continuous(),
        ConstraintSet.unit_modulus(),
        ConstraintSet.discrete_phase(1),
        ConstraintSet.discrete_phase(2),
        ConstraintSet.discrete_phase(3),
        ConstraintSet.absorb(),
    ]
)


class TestConstraintSet:
    def test_discrete_requires_bits(self):
        with pytest.raises(ValueError):
            ConstraintSet(ConstraintKind.DISCRETE_PHASE)
        with pytest.raises(ValueError):
            ConstraintSet.discrete_phase(0)

    @pytest.mark.parametrize("bits", [True, 2.0, 1.5, "2"])
    def test_bits_must_be_an_integer(self, bits):
        # True would be a 1-bit lattice; 2.0 would fail later in phase_levels
        for make in (ConstraintSet.discrete_phase,
                     lambda b: ConstraintSet(ConstraintKind.DISCRETE_PHASE, b)):
            with pytest.raises(ValueError, match="bits must be an integer"):
                make(bits)

    def test_lattice_size_is_bounded(self):
        # 2^16 levels still round to the nearest level exactly; one more bit
        # is refused, by the class method and by the constructor
        c = ConstraintSet.discrete_phase(16)
        k = np.array([0, 1, 12345, 65535])
        v = 1.5 * np.exp(2j * np.pi * (k + np.array([0.0, 0.3, -0.4, 0.2])) / 65536)
        assert np.array_equal(project(v, c).coefficients, np.exp(1j * c.phase_levels())[k])
        for make in (ConstraintSet.discrete_phase,
                     lambda bits: ConstraintSet(ConstraintKind.DISCRETE_PHASE, bits)):
            for bits in (17, 31, 63, 64):
                with pytest.raises(ValueError, match=rf"bits must be in \[1, 16\], got {bits}$"):
                    make(bits)

    def test_bits_are_stored_as_a_python_int(self):
        for make in (ConstraintSet.discrete_phase,
                     lambda b: ConstraintSet(ConstraintKind.DISCRETE_PHASE, b)):
            c = make(np.int64(2))
            assert type(c.bits) is int
            assert c == ConstraintSet.discrete_phase(2)

    def test_bits_only_for_discrete(self):
        with pytest.raises(ValueError):
            ConstraintSet(ConstraintKind.UNIT_MODULUS, bits=1)

    def test_phase_levels_are_exact_lattice(self):
        levels = ConstraintSet.discrete_phase(2).phase_levels()
        np.testing.assert_allclose(levels, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=0)

    @pytest.mark.parametrize("c", [ConstraintSet.ideal_continuous(), ConstraintSet.unit_modulus(),
                                   ConstraintSet.absorb()])
    def test_phase_levels_only_for_discrete_phase(self, c):
        with pytest.raises(ValueError, match="only for discrete phase"):
            c.phase_levels()

    def test_membership_checks(self):
        unit = ConstraintSet.unit_modulus()
        assert unit.contains(np.exp(1j * np.array([0.3, 2.0])))
        assert not unit.contains(np.array([0.5 + 0j]))
        b1 = ConstraintSet.discrete_phase(1)
        assert b1.contains(np.array([1.0 + 0j, -1.0 + 0j]))
        assert not b1.contains(np.array([1j]))
        assert ConstraintSet.absorb().contains(np.zeros(3, complex))
        assert not ConstraintSet.absorb().contains(np.array([1e-12 + 0j]))


def rounded_contains(c, v):
    """``contains`` for a discrete-phase set by the rule it had before it
    measured phases against the levels ``project`` rounds them to: each
    phase's distance to the lattice point that ``np.round`` takes, in steps
    of the lattice."""
    mod = np.abs(v)
    if not np.all(np.abs(mod - 1.0) <= 1e-9):
        return False
    nlev = 1 << c.bits
    steps = np.angle(v) * nlev / (2.0 * np.pi)
    return bool(np.all(np.abs(steps - np.round(steps)) * 2.0 * np.pi / nlev <= 1e-9))


@pytest.mark.parametrize("bits", [1, 2, 3, 5, 8, 16])
def test_contains_keeps_every_decision_of_the_rounding_rule(bits):
    # levels 0-15 and those beside pi and 2*pi, where the phase wraps, each
    # off by a phase and a modulus offset on either side of the tolerances
    c = ConstraintSet.discrete_phase(bits)
    nlev = 1 << bits
    k = np.unique(np.r_[0:min(nlev, 16), nlev // 2 - 1:nlev // 2 + 2, nlev - 2:nlev] % nlev)
    half = np.pi / nlev
    phase_offsets = [0.0, 0.5e-9, 0.9e-9, 0.99e-9, 1.01e-9, 1.1e-9, 1e-6, half]
    decisions = []
    for dp in (*phase_offsets, *(-x for x in phase_offsets)):
        for dm in (0.0, 0.9e-9, 1.1e-9, -0.9e-9, -1.1e-9):
            for v in (1.0 + dm) * np.exp(1j * (2.0 * np.pi * k / nlev + dp)):
                got = c.contains(np.array([v]))
                assert got == rounded_contains(c, np.array([v])), (v, dp, dm)
                decisions.append(got)
    assert any(decisions) and not all(decisions)


class TestReflectionState:
    def test_rejects_infeasible_coefficients(self):
        with pytest.raises(ValueError):
            ReflectionState(np.array([1.5 + 0j]), ConstraintSet.ideal_continuous())
        with pytest.raises(ValueError):
            ReflectionState(np.array([0.5 + 0j]), ConstraintSet.unit_modulus())

    def test_passivity_enforced_for_all_kinds(self):
        g = np.random.default_rng(0)
        for c in (
            ConstraintSet.ideal_continuous(),
            ConstraintSet.unit_modulus(),
            ConstraintSet.discrete_phase(2),
            ConstraintSet.absorb(),
        ):
            v = g.standard_normal(6) + 1j * g.standard_normal(6)
            state = project(v, c)
            assert np.all(np.abs(state.coefficients) <= 1.0 + 1e-9)

    def test_absorb_state_helper(self):
        st_ = absorb_state(4)
        assert st_.n_elements == 4
        assert np.all(st_.coefficients == 0)


class TestProject:
    def test_one_bit_rounds_to_nearer_level(self):
        v = np.array([0.37 * np.exp(1j * 0.6 * np.pi)])
        out = project(v, ConstraintSet.discrete_phase(1))
        assert out.coefficients[0] == pytest.approx(np.exp(1j * np.pi))

    def test_one_bit_tie_breaks_to_lower_level(self):
        v = np.array([np.exp(1j * np.pi / 2)])
        out = project(v, ConstraintSet.discrete_phase(1))
        assert out.coefficients[0] == pytest.approx(1.0 + 0j)

    def test_wrapped_tie_also_prefers_lower_phase_value(self):
        # equidistant between the top lattice level and level zero
        v = np.array([np.exp(1j * (2 * np.pi - np.pi / 4))])
        out = project(v, ConstraintSet.discrete_phase(2))
        assert out.coefficients[0] == pytest.approx(1.0 + 0j)

    def test_ideal_clips_modulus_keeps_phase(self):
        v = np.array([2.0 * np.exp(0.7j), 0.3 * np.exp(-1.1j)])
        out = project(v, ConstraintSet.ideal_continuous())
        assert abs(out.coefficients[0]) == pytest.approx(1.0)
        assert np.angle(out.coefficients[0]) == pytest.approx(0.7)
        assert out.coefficients[1] == pytest.approx(v[1])

    def test_zero_maps_to_unity_under_phase_constraints(self):
        z = np.array([0.0 + 0j, complex(-0.0, 0.0), complex(-0.0, -0.0)])
        assert np.all(project(z, ConstraintSet.unit_modulus()).coefficients == 1.0 + 0j)
        assert np.all(project(z, ConstraintSet.discrete_phase(3)).coefficients == 1.0 + 0j)

    @pytest.mark.parametrize("bits", [None, 1, 2, 3])
    def test_block_rounding_equals_project_row_by_row(self, bits):
        g = np.random.default_rng(7)
        v = g.standard_normal((64, 300)) + 1j * g.standard_normal((64, 300))
        v[0, :4] = [0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
        # half-step ties, one wrapping past the top level, and lattice points
        v[1, :4] = np.exp(1j * np.array([np.pi / 2, 2 * np.pi - np.pi / 4, np.pi, -np.pi / 8]))
        c = ConstraintSet.unit_modulus() if bits is None else ConstraintSet.discrete_phase(bits)
        got = unit_phases(v, bits)
        want = np.array([project(row, c).coefficients for row in v])
        assert got.shape == v.shape and got.tobytes() == want.tobytes()

    @staticmethod
    def float_rounding(phases, bits):
        """The lattice index as an earlier version rounded it, all in floats."""
        nlev = 1 << bits
        delta = 2.0 * np.pi / nlev
        q = np.mod(phases, 2.0 * np.pi) / delta
        k0 = np.floor(q)
        frac = q - k0
        k = np.where(frac > 0.5, k0 + 1.0, k0)
        tie = frac == 0.5
        k = np.where(tie & (k0 + 1.0 == nlev), 0.0, np.where(tie, k0, k))
        return np.mod(k, nlev).astype(np.intp)

    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 8])
    def test_integer_rounding_matches_the_float_rounding(self, bits):
        # every level and midpoint, 2*pi, and 4 neighbours on each side of
        # them, with +-0, +-pi, +-(2*pi - ulp), +-the least subnormal, and
        # their negatives
        nlev = 1 << bits
        delta = 2.0 * np.pi / nlev
        marks = np.concatenate([np.arange(nlev) * delta, (np.arange(nlev) + 0.5) * delta,
                                [2.0 * np.pi, 0.0, np.pi, np.nextafter(2.0 * np.pi, 0.0), 5e-324]])
        near, up, down = [marks], marks, marks
        for _ in range(4):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            near += [up, down]
        edges = np.concatenate(near)
        edges = np.concatenate([edges, -edges])
        q = np.mod(edges, 2.0 * np.pi) / delta
        frac = q - np.floor(q)
        # the set reaches exact ties, q rounded up to nlev, and the tie that
        # wraps; at 3 and 8 bits no double in [0, 2*pi) divides to that tie
        assert np.any((frac == 0.5) & (q < nlev - 1)) and np.any(q == nlev)
        assert np.any((frac == 0.5) & (q > nlev - 1)) == (bits not in (3, 8))
        phases = np.concatenate([edges, np.random.default_rng(bits).uniform(-7.0, 7.0, 20000)])
        got = _round_to_lattice(phases, bits)
        assert got.dtype == np.intp
        assert np.array_equal(got, self.float_rounding(phases, bits))

    def test_already_feasible_unchanged(self):
        c = ConstraintSet.discrete_phase(2)
        v = np.exp(1j * np.array([0.0, np.pi / 2, np.pi]))
        out = project(v, c)
        np.testing.assert_allclose(out.coefficients, v, atol=1e-15)

    @given(coeff_lists, constraints)
    @settings(max_examples=150, deadline=None)
    def test_idempotent(self, coeffs, c):
        first = project(np.array(coeffs), c)
        second = project(first.coefficients, c)
        np.testing.assert_allclose(second.coefficients, first.coefficients, atol=1e-12)

    @given(coeff_lists, st.integers(min_value=1, max_value=4))
    @example([complex(-0.0, 0.0)], 1)  # np.angle gives pi for a negative zero
    @settings(max_examples=150, deadline=None)
    def test_no_lattice_level_is_strictly_closer(self, coeffs, bits):
        v = np.array(coeffs)
        c = ConstraintSet.discrete_phase(bits)
        out = project(v, c).coefficients
        levels = np.exp(1j * c.phase_levels())
        for vn, on in zip(v, out):
            dists = np.abs(levels - (vn if vn != 0 else 1.0 + 0j))
            assert abs((vn if vn != 0 else 1.0 + 0j) - on) <= dists.min() + 1e-12


class TestEffectiveChannel:
    def _channel(self, m=4, n=8, seed=0):
        return realize(ScenarioConfig(m_antennas=m, n_elements=n), SeededRng(1000 + seed, 0))

    def test_absorb_returns_direct_channel_exactly(self):
        ch = self._channel()
        h = effective_channel(ch, absorb_state(ch.n_elements))
        assert np.array_equal(h, ch.h_bs_user)

    def test_no_elements_returns_direct_channel(self):
        ch = realize(ScenarioConfig(n_elements=0), SeededRng(2, 0))
        state = ReflectionState(np.zeros(0, complex), ConstraintSet.unit_modulus())
        assert np.array_equal(effective_channel(ch, state), ch.h_bs_user)

    def test_scalar_cascade_amplitude(self):
        # M=N=1, no direct path, unit surface links: the received amplitude
        # for w = (1,) must equal the reflection coefficient e^{j phi}.
        from irslink.channel import ChannelRealization

        phi = 0.8
        ch = ChannelRealization(
            g_bs_irs=np.array([[1.0 + 0j]]),
            h_irs_user=np.array([1.0 + 0j]),
            h_bs_user=np.array([0.0 + 0j]),
        )
        state = ReflectionState(np.array([np.exp(1j * phi)]), ConstraintSet.unit_modulus())
        h_eff = effective_channel(ch, state)
        amplitude = np.vdot(h_eff, np.array([1.0 + 0j]))
        assert amplitude == pytest.approx(np.exp(1j * phi))
        assert abs(h_eff[0]) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_explicit_loop(self, seed):
        ch = self._channel(seed=seed)
        g = np.random.default_rng(seed)
        v = g.uniform(0, 1, ch.n_elements) * np.exp(1j * g.uniform(0, 2 * np.pi, ch.n_elements))
        state = ReflectionState(v, ConstraintSet.ideal_continuous())
        fast = effective_channel(ch, state)
        # independent elementwise formulation of the same composite channel
        slow = np.zeros(ch.m_antennas, complex)
        for m in range(ch.m_antennas):
            acc = 0.0 + 0j
            for n in range(ch.n_elements):
                acc += np.conj(ch.g_bs_irs[n, m]) * np.conj(v[n]) * ch.h_irs_user[n]
            slow[m] = ch.h_bs_user[m] + acc
        np.testing.assert_allclose(fast, slow, rtol=1e-12)

    def test_reflected_contributions_add(self):
        ch = self._channel(seed=9)
        g = np.random.default_rng(9)
        v1 = 0.4 * np.exp(1j * g.uniform(0, 2 * np.pi, ch.n_elements))
        v2 = 0.5 * np.exp(1j * g.uniform(0, 2 * np.pi, ch.n_elements))
        c = ConstraintSet.ideal_continuous()
        h1 = effective_channel(ch, ReflectionState(v1, c)) - ch.h_bs_user
        h2 = effective_channel(ch, ReflectionState(v2, c)) - ch.h_bs_user
        h12 = effective_channel(ch, ReflectionState(v1 + v2, c)) - ch.h_bs_user
        np.testing.assert_allclose(h12, h1 + h2, rtol=1e-10, atol=1e-18)

    def test_dimension_mismatch_rejected(self):
        ch = self._channel(n=8)
        with pytest.raises(ValueError):
            effective_channel(ch, absorb_state(5))
