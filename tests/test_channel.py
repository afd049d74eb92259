import dataclasses

import numpy as np
import pytest

from irslink.channel import (
    MAX_ANTENNAS,
    MAX_ELEMENTS,
    ChannelRealization,
    ScenarioConfig,
    ScenarioLinks,
    draw_fading_rows,
    gen_bs_irs_los,
    gen_rayleigh,
    path_loss,
    realize,
    scenario_links,
)
from irslink.numerics import SeededRng, sample_cscg

# analytic gain drop for doubling the distance at exponent 3.2
DOUBLING_DROP_DB = 3.2 * 10.0 * np.log10(2.0)  # = 9.632959861247397


class TestPathLoss:
    def test_reference_distance_identity(self):
        assert path_loss(1.0, 2.2, -30.0) == pytest.approx(1e-3, rel=1e-12)
        assert path_loss(1.0, 3.7, -30.0) == pytest.approx(1e-3, rel=1e-12)

    def test_direct_formula(self):
        assert path_loss(100.0, 2.0, -30.0) == pytest.approx(1e-7, rel=1e-12)

    def test_doubling_distance_ratio(self):
        ratio_db = 10.0 * np.log10(path_loss(13.0, 3.2, -30.0) / path_loss(26.0, 3.2, -30.0))
        assert ratio_db == pytest.approx(DOUBLING_DROP_DB, abs=1e-9)
        assert ratio_db == pytest.approx(9.632959861247397, abs=1e-9)

    @pytest.mark.parametrize("bad", [0.0, -5.0])
    def test_non_positive_distance_rejected(self, bad):
        with pytest.raises(ValueError):
            path_loss(bad, 2.2, -30.0)


class TestScenarioConfig:
    def test_defaults_are_valid(self):
        cfg = ScenarioConfig()
        assert cfg.m_antennas == 5
        assert cfg.n_elements == 40
        assert cfg.noise_power_dbm == -80.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            ScenarioConfig(m_antennas=0)
        with pytest.raises(ValueError):
            ScenarioConfig(n_elements=-1)

    @pytest.mark.parametrize("field, value", [("n_elements", 2.5), ("n_elements", 40.0),
                                              ("m_antennas", 2.5), ("m_antennas", True),
                                              ("n_elements", False)])
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ScenarioConfig(**{field: value})

    def test_accepts_numpy_integer_counts(self):
        cfg = ScenarioConfig(m_antennas=np.int64(4), n_elements=np.int32(10))
        assert (cfg.m_antennas, cfg.n_elements) == (4, 10)

    def test_array_sizes_are_bounded(self):
        ScenarioConfig(m_antennas=MAX_ANTENNAS, n_elements=MAX_ELEMENTS)
        with pytest.raises(ValueError, match="m_antennas"):
            ScenarioConfig(m_antennas=MAX_ANTENNAS + 1)
        with pytest.raises(ValueError, match="n_elements"):
            ScenarioConfig(n_elements=MAX_ELEMENTS + 1)

    def test_rejects_coincident_points(self):
        with pytest.raises(ValueError):
            ScenarioConfig(bs_position=(1.0, 2.0), irs_position=(1.0, 2.0))

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            ScenarioConfig(pl_exponent_bs_user=0.0)

    @pytest.mark.parametrize("field", ["c0_db", "noise_power_dbm", "pl_exponent_bs_irs",
                                       "pl_exponent_bs_user", "pl_exponent_irs_user",
                                       "antenna_spacing_wavelengths"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_numbers(self, field, value):
        with pytest.raises(ValueError, match=field):
            ScenarioConfig(**{field: value})

    @pytest.mark.parametrize("position", [(float("nan"), 0.0), (0.0, float("inf"))])
    def test_rejects_non_finite_positions(self, position):
        with pytest.raises(ValueError, match="user_position"):
            ScenarioConfig(user_position=position)

    @pytest.mark.parametrize("kwargs", [
        dict(c0_db=301.0), dict(noise_power_dbm=-301.0), dict(antenna_spacing_wavelengths=1e4),
        dict(pl_exponent_bs_user=200.0),  # 50 m at exponent 200 is -3428 dB
        dict(user_position=(1e200, 0.0)),
    ])
    def test_rejects_levels_beyond_float_range(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioConfig(**kwargs)

    def test_distances(self):
        cfg = ScenarioConfig(bs_position=(0.0, 0.0), irs_position=(3.0, 4.0))
        assert cfg.bs_irs_distance() == pytest.approx(5.0)


class TestLosMatrix:
    def test_scalar_case_magnitude(self):
        cfg = ScenarioConfig(m_antennas=1, n_elements=1)
        g = gen_bs_irs_los(cfg)
        pl = path_loss(cfg.bs_irs_distance(), cfg.pl_exponent_bs_irs, cfg.c0_db)
        assert g.shape == (1, 1)
        assert abs(g[0, 0]) == pytest.approx(np.sqrt(pl), rel=1e-12)

    @pytest.mark.parametrize("m,n", [(2, 3), (5, 40), (4, 17)])
    def test_rank_one(self, m, n):
        g = gen_bs_irs_los(ScenarioConfig(m_antennas=m, n_elements=n))
        s = np.linalg.svd(g, compute_uv=False)
        assert s[1] < 1e-10 * s[0]

    @pytest.mark.parametrize("m,n", [(1, 1), (3, 8), (5, 40)])
    def test_frobenius_norm(self, m, n):
        cfg = ScenarioConfig(m_antennas=m, n_elements=n)
        g = gen_bs_irs_los(cfg)
        pl = path_loss(cfg.bs_irs_distance(), cfg.pl_exponent_bs_irs, cfg.c0_db)
        assert np.linalg.norm(g, "fro") ** 2 == pytest.approx(n * m * pl, rel=1e-9)

    def test_requires_elements(self):
        with pytest.raises(ValueError):
            gen_bs_irs_los(ScenarioConfig(n_elements=0))


class TestRayleigh:
    def test_unit_gain_statistics(self):
        h = gen_rayleigh(1.0, 10**5, SeededRng(11, 0))
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.01)

    def test_gain_scaling_is_exact(self):
        rng = SeededRng(12, 5)
        base = gen_rayleigh(1.0, 100, rng)
        scaled = gen_rayleigh(0.25, 100, rng)
        np.testing.assert_allclose(scaled, 0.5 * base, rtol=1e-15)

    def test_determinism(self):
        a = gen_rayleigh(0.3, 64, SeededRng(1, 2))
        b = gen_rayleigh(0.3, 64, SeededRng(1, 2))
        assert np.array_equal(a, b)

    def test_rejects_non_positive_gain(self):
        with pytest.raises(ValueError):
            gen_rayleigh(0.0, 4, SeededRng(0, 0))


class TestRealize:
    def test_shapes_match_config(self):
        cfg = ScenarioConfig(m_antennas=3, n_elements=7)
        ch = realize(cfg, SeededRng(5, 0))
        assert ch.g_bs_irs.shape == (7, 3)
        assert ch.h_irs_user.shape == (7,)
        assert ch.h_bs_user.shape == (3,)
        assert ch.n_elements == 7 and ch.m_antennas == 3

    def test_no_irs_degenerate_case(self):
        cfg = ScenarioConfig(n_elements=0)
        ch = realize(cfg, SeededRng(5, 0))
        assert ch.g_bs_irs.shape == (0, 5)
        assert ch.h_irs_user.shape == (0,)
        assert np.linalg.norm(ch.h_bs_user) > 0

    def test_direct_and_surface_links_independent(self):
        ch = realize(ScenarioConfig(m_antennas=4, n_elements=4), SeededRng(5, 1))
        assert not np.allclose(np.abs(ch.h_bs_user), np.abs(ch.h_irs_user))

    def test_direct_link_mean_energy(self):
        # E||h_d||^2 = M * PL(bs-user); 1e4 realizations put the sample mean
        # within 0.5% (1 sigma), so the 2% window is a 4 sigma check.  The
        # rows are realize's draws of the streams (77, i), made as one block.
        cfg = ScenarioConfig(m_antennas=4, n_elements=2)
        k = 10**4
        _, _, h_d = scenario_links(cfg).block(*draw_fading_rows(77, range(k), 4, 2))
        expected = 4 * path_loss(cfg.bs_user_distance(), cfg.pl_exponent_bs_user, cfg.c0_db)
        assert np.mean(np.sum(np.abs(h_d) ** 2, axis=1)) == pytest.approx(expected, rel=0.02)

    def test_surface_link_mean_energy(self):
        cfg = ScenarioConfig(m_antennas=2, n_elements=8)
        k = 5000
        _, h_r, _ = scenario_links(cfg).block(*draw_fading_rows(78, range(k), 2, 8))
        expected = 8 * path_loss(cfg.irs_user_distance(), cfg.pl_exponent_irs_user, cfg.c0_db)
        assert np.mean(np.sum(np.abs(h_r) ** 2, axis=1)) == pytest.approx(expected, rel=0.03)

    def test_user_position_does_not_touch_los_matrix(self):
        cfg_a = ScenarioConfig(user_position=(30.0, 0.0))
        cfg_b = ScenarioConfig(user_position=(55.0, 0.0))
        ch_a = realize(cfg_a, SeededRng(9, 3))
        ch_b = realize(cfg_b, SeededRng(9, 3))
        assert np.array_equal(ch_a.g_bs_irs, ch_b.g_bs_irs)
        # same fading draws, different large-scale gain only
        ratio = ch_b.h_bs_user / ch_a.h_bs_user
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 40])
    def test_scales_the_draws_of_two_substreams(self, n):
        cfg = ScenarioConfig(m_antennas=3, n_elements=n)
        rng = SeededRng(6, 2)
        ch = realize(cfg, rng)
        pl_ru = path_loss(cfg.irs_user_distance(), cfg.pl_exponent_irs_user, cfg.c0_db)
        pl_du = path_loss(cfg.bs_user_distance(), cfg.pl_exponent_bs_user, cfg.c0_db)
        assert ch.h_irs_user.tobytes() == gen_rayleigh(pl_ru, n, rng.split(1)).tobytes()
        assert ch.h_bs_user.tobytes() == gen_rayleigh(pl_du, 3, rng.split(2)).tobytes()

    def test_realization_validates_dimensions(self):
        with pytest.raises(ValueError):
            ChannelRealization(
                g_bs_irs=np.zeros((3, 2), complex),
                h_irs_user=np.zeros(4, complex),
                h_bs_user=np.zeros(2, complex),
            )

    def test_fields_are_replaceable(self):
        ch = realize(ScenarioConfig(), SeededRng(0, 0))
        muted = dataclasses.replace(ch, h_bs_user=np.zeros_like(ch.h_bs_user))
        assert np.linalg.norm(muted.h_bs_user) == 0.0


def stacked_fading(m, n, rows=4):
    """Unit-variance fading of ``rows`` realizations, stacked per link."""
    return draw_fading_rows(8, range(rows), m, n)


class TestDrawFadingRows:
    @pytest.mark.parametrize("master", [0, 8, 2**64 - 1])
    @pytest.mark.parametrize("m, n", [(1, 0), (1, 1), (4, 40)])
    def test_rows_are_the_stacked_draws(self, master, m, n):
        fading_r, fading_d = draw_fading_rows(master, range(3, 23), m, n)
        assert fading_r.shape == (20, n) and fading_d.shape == (20, m)
        # each row as its stream draws it alone
        want_r, want_d = (np.concatenate(c) for c in
                          zip(*[draw_fading_rows(master, [i], m, n) for i in range(3, 23)]))
        assert fading_r.tobytes() == want_r.tobytes()
        assert fading_d.tobytes() == want_d.tobytes()

    def test_substreams_are_the_splits(self):
        rng = SeededRng(8, 2**64 - 1)
        fading_r, fading_d = (x[0] for x in draw_fading_rows(rng.master_seed, [rng.stream_id], 3, 5))
        assert fading_r.tobytes() == sample_cscg(rng.split(1), 5).tobytes()
        assert fading_d.tobytes() == sample_cscg(rng.split(2), 3).tobytes()


class TestScenarioBlock:
    @pytest.mark.parametrize("n", [0, 1, 40])
    def test_rows_are_the_realizations(self, n):
        cfg = ScenarioConfig(m_antennas=3, n_elements=n)
        g, h_r, h_d = scenario_links(cfg).block(*stacked_fading(3, n))
        assert g.shape == (n, 3) and h_r.shape == (4, n) and h_d.shape == (4, 3)
        for i in range(4):
            ch = realize(cfg, SeededRng(8, i))
            assert g.tobytes() == ch.g_bs_irs.tobytes()
            assert h_r[i].tobytes() == ch.h_irs_user.tobytes()
            assert h_d[i].tobytes() == ch.h_bs_user.tobytes()

    def test_no_elements_give_empty_surface_links(self):
        g, h_r, h_d = scenario_links(ScenarioConfig(n_elements=0)).block(*stacked_fading(5, 0))
        assert g.shape == (0, 5) and h_r.shape == (4, 0) and h_d.shape == (4, 5)
        assert np.all(np.abs(h_d) > 0)

    @pytest.mark.parametrize("link, at", [(0, (2, 6)), (1, (3, 1))])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_fading(self, link, at, bad):
        fading = list(stacked_fading(5, 40))
        fading[link][at] = bad
        with pytest.raises(ValueError, match="non-finite"):
            scenario_links(ScenarioConfig()).block(*fading)

    def test_rejects_non_finite_los_matrix(self):
        g = scenario_links(ScenarioConfig()).g_bs_irs.copy()
        g[3, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ScenarioLinks(g, 1.0, 1.0).block(*stacked_fading(5, 40))

    def test_rejects_links_that_overflow(self):
        cfg = ScenarioConfig(c0_db=100.0)  # direct-link amplitude above one
        fading_r, fading_d = stacked_fading(5, 40)
        fading_d[0, 0] = 1e308
        with pytest.raises(ValueError, match="non-finite"):
            scenario_links(cfg).block(fading_r, fading_d)

    def test_unused_fading_tail_is_not_read(self):
        fading_r, fading_d = stacked_fading(5, 40)
        fading_r[:, 7:] = np.nan
        _, h_r, _ = scenario_links(ScenarioConfig(n_elements=7)).block(fading_r, fading_d)
        assert np.isfinite(h_r).all()

    @pytest.mark.parametrize("fading_r, fading_d", [
        (np.ones((4, 39), complex), np.ones((4, 5), complex)),  # fewer than N elements
        (np.ones((4, 40), complex), np.ones((4, 4), complex)),  # not M antennas
        (np.ones((4, 40), complex), np.ones((3, 5), complex)),  # row counts differ
        (np.ones(40, complex), np.ones(5, complex)),  # one realization, unstacked
        (np.ones((4, 40), complex), np.ones((4, 5, 1), complex)),
    ])
    def test_rejects_mismatched_fading_shapes(self, fading_r, fading_d):
        with pytest.raises(ValueError, match="does not fit"):
            scenario_links(ScenarioConfig()).block(fading_r, fading_d)

    @pytest.mark.parametrize("m", [1, 5])
    def test_element_sweep_blocks_are_prefixes_of_the_largest(self, m):
        # an element-count sweep draws its fading once, at the largest N, and
        # the interference study forms only the largest value's arrays: every
        # smaller surface must be its first N elements, bit for bit
        fading_r, fading_d = draw_fading_rows(31, range(6), m, 100)
        blocks = {n: scenario_links(ScenarioConfig(m_antennas=m, n_elements=n)).block(
            fading_r, fading_d) for n in (0, 1, 20, 100)}
        g_max, h_r_max, h_d_max = blocks[100]
        for n, (g, h_r, h_d) in blocks.items():
            assert g.shape == (n, m) and h_r.shape == (6, n)
            assert g.tobytes() == g_max[:n].tobytes(), n
            assert h_r.tobytes() == h_r_max[:, :n].tobytes(), n
            assert h_d.tobytes() == h_d_max.tobytes(), n
