import contextlib
import hashlib
import math
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irslink import beamforming, experiments
from irslink.cli import parse_config, serialize_config
from irslink.channel import (
    ChannelRealization,
    ScenarioConfig,
    draw_fading_rows,
    realize,
    scenario_links,
)
from irslink.experiments import (
    POWER_DISTANCE_SCHEMES,
    ConfigError,
    ConfigErrorCode,
    ExperimentConfig,
    ExperimentResult,
    ResultRow,
    run_interference_vs_n,
    run_power_vs_distance,
    run_power_vs_n,
)
from irslink.beamforming import (
    align_phases,
    alternating_optimize,
    bs_irs_mrt,
    direct_and_cascade,
    min_power_for_snr,
    mrt,
    null_interference,
    quantization_loss_bound,
    quantize_then_refine,
    received_gain,
)
from irslink.numerics import SeededRng, db_to_linear
from irslink.reflection import ConstraintSet, effective_channel, project

DIST_CFG = ExperimentConfig(
    scenario=ScenarioConfig(),
    sweep=("d", (25.0, 40.0, 50.0)),
    schemes=("joint", "bs_user_mrt", "bs_irs_mrt", "no_irs"),
    n_realizations=30,
    master_seed=11,
)

N_CFG = ExperimentConfig(
    scenario=ScenarioConfig(user_position=(50.0, 0.0)),
    sweep=("n", (20.0, 40.0)),
    schemes=("continuous", "b1", "b2"),
    n_realizations=25,
    master_seed=12,
)

INT_CFG = ExperimentConfig(
    scenario=ScenarioConfig(m_antennas=1, user_position=(50.0, 0.0)),
    sweep=("n", (10.0, 30.0)),
    schemes=("joint_amp_phase", "phase_only", "no_irs"),
    n_realizations=25,
    master_seed=13,
)


def stacked(channels):
    """The block ``(g, h_r, h_d)`` of realizations that share one ``g``."""
    return (channels[0].g_bs_irs, np.array([ch.h_irs_user for ch in channels]),
            np.array([ch.h_bs_user for ch in channels]))


def one_row(ch):
    """The one-row block of one realization."""
    return ch.g_bs_irs, ch.h_irs_user[None, :], ch.h_bs_user[None, :]


def interference_gains(g, h_r, h_d, schemes):
    """``experiments._interference_gains`` at the block's own element count."""
    return experiments._interference_gains(g, h_r, h_d, schemes, [len(g)])[0]


def alone(metric, ch, schemes):
    """``metric`` of a one-row block, as floats per key."""
    return {key: float(values[0]) for key, values in metric(*one_row(ch), schemes).items()}


def assert_same_samples(a, b):
    assert a.samples.keys() == b.samples.keys()
    for key, arr in a.samples.items():
        other = b.samples[key]
        assert arr.dtype == other.dtype and arr.tobytes() == other.tobytes(), key


class TestExperimentConfig:
    def test_rejects_zero_realizations(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(n_realizations=0)

    def test_rejects_non_increasing_sweep(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(sweep=("d", (30.0, 30.0)))
        with pytest.raises(ConfigError):
            ExperimentConfig(sweep=("d", (30.0, 20.0)))

    def test_rejects_unknown_sweep_name(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(sweep=("q", (1.0, 2.0)))

    def test_rejects_oversized_seed(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(master_seed=1 << 64)

    @pytest.mark.parametrize("field, value", [("n_realizations", 2.5), ("n_realizations", 3.0),
                                              ("master_seed", 1.5), ("master_seed", "7"),
                                              ("n_realizations", True), ("master_seed", False)])
    def test_rejects_non_integer_counts_and_seeds(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer") as info:
            ExperimentConfig(**{field: value})
        assert info.value.code is ConfigErrorCode.INVALID_VALUE

    def test_numpy_integer_counts_and_seeds_give_the_same_csv(self):
        cfg = replace(DIST_CFG, n_realizations=3)
        same = replace(cfg, n_realizations=np.int64(3), master_seed=np.uint64(cfg.master_seed))
        assert run_power_vs_distance(same).to_csv_text() == run_power_vs_distance(cfg).to_csv_text()

    @pytest.mark.parametrize("cfg", [
        pytest.param(ExperimentConfig(n_realizations=np.int64(7), master_seed=np.uint64(5)),
                     id="int64-uint64"),
        pytest.param(ExperimentConfig(
            scenario=ScenarioConfig(m_antennas=np.int64(4), n_elements=np.int32(9),
                                    user_position=(np.float64(50.0), 0.0)),
            snr_target_db=np.float64(20.5), sweep=("d", (np.float64(20.0), 30.0))), id="float64"),
        pytest.param(ExperimentConfig(
            scenario=ScenarioConfig(c0_db=np.float32(-30.1), irs_position=(np.float32(45.3), 3.0)),
            interferer_power_dbm=np.float32(27.1), sweep=("d", (np.float32(20.1), 30.0))),
            id="float32"),
    ])
    def test_numpy_scalars_round_trip(self, tmp_path, cfg):
        # stored as plain numbers, so serialize_config writes what parse_config reads
        path = tmp_path / "cfg.txt"
        path.write_text(serialize_config(cfg))
        assert parse_config(str(path)) == cfg

    def test_rejects_sweep_values_printing_the_same_key(self):
        with pytest.raises(ConfigError, match="colliding"):
            ExperimentConfig(sweep=("d", (50.0, 50.000000001)))
        # six significant digits still tell these apart
        ExperimentConfig(sweep=("d", (50.0, 50.0001)))

    @pytest.mark.parametrize("field", ["snr_target_db", "interferer_power_dbm"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 301.0])
    def test_rejects_non_finite_or_out_of_range_levels(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("sweep", [("d", (float("nan"),)), ("d", (10.0, float("inf"))),
                                       ("d", (0.0, 10.0)), ("n", (-1.0,)), ("n", (10.5,))])
    def test_every_sweep_scenario_is_validated(self, sweep):
        # d = 0 puts the user on the transmitter; n = -1 and n = 10.5 are no
        # surface size
        with pytest.raises(ConfigError, match="sweep"):
            ExperimentConfig(sweep=sweep)

    def test_keeps_the_scenarios_it_validated(self):
        # one scenario per sweep value, kept outside the config's fields: a
        # replaced sweep gets its own, and equality, hash and repr ignore them
        cfg = ExperimentConfig(sweep=("d", (30.0, 40.0)))
        assert [scen.user_position for scen in cfg._scenarios] == [(30.0, 0.0), (40.0, 0.0)]
        moved = replace(cfg, sweep=("d", (45.0,)))
        assert [scen.user_position for scen in moved._scenarios] == [(45.0, 0.0)]
        assert "_scenarios" not in {f.name for f in fields(cfg)} and "_scenarios" not in repr(cfg)
        same = replace(moved, sweep=cfg.sweep)
        assert same == cfg and hash(same) == hash(cfg) and same._scenarios == cfg._scenarios
        assert pickle.loads(pickle.dumps(cfg))._scenarios == cfg._scenarios

    def test_rejects_empty_scheme_list(self):
        with pytest.raises(ConfigError, match="scheme"):
            ExperimentConfig(schemes=())

    def test_rejects_repeated_schemes(self):
        with pytest.raises(ConfigError, match="joint more than once"):
            ExperimentConfig(schemes=("joint", "no_irs", "joint"))

    @pytest.mark.parametrize("line", [None, 3])
    def test_config_error_survives_pickling(self, line):
        # a shard's exception reaches the caller as a pickle
        err = ConfigError(ConfigErrorCode.INVALID_VALUE, "x", line)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is ConfigError
        assert (back.code, back.line, str(back)) == (err.code, err.line, str(err))


class TestResultFormatting:
    def test_csv_shape_and_order(self):
        res = ExperimentResult(
            rows=[
                ResultRow(30.0, "b_scheme", 1.5, "dBm", 10, 3),
                ResultRow(20.0, "z_scheme", -2.25, "dBm", 10, 3),
                ResultRow(20.0, "a_scheme", 0.125, "dBm", 10, 3),
            ]
        )
        text = res.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "sweep_value,scheme,metric_value,metric_unit,n_realizations,master_seed"
        assert lines[1] == "20,a_scheme,0.125000,dBm,10,3"
        assert lines[2] == "20,z_scheme,-2.250000,dBm,10,3"
        assert lines[3] == "30,b_scheme,1.500000,dBm,10,3"

    def test_value_lookup(self):
        res = ExperimentResult(rows=[ResultRow(20.0, "x", 1.0, "dB", 1, 0)])
        assert res.value(20.0, "x") == 1.0
        with pytest.raises(KeyError):
            res.value(21.0, "x")


@pytest.fixture(scope="module")
def dist_result():
    return run_power_vs_distance(DIST_CFG)


@pytest.fixture(scope="module")
def n_result():
    return run_power_vs_n(N_CFG)


@pytest.fixture(scope="module")
def int_result():
    return run_interference_vs_n(INT_CFG)


class TestPowerVsDistance:
    def test_reproducible_and_worker_invariant(self, dist_result, shard_any_work):
        again = run_power_vs_distance(DIST_CFG)
        parallel = run_power_vs_distance(DIST_CFG, workers=3)
        assert dist_result.to_csv_text() == again.to_csv_text() == parallel.to_csv_text()
        assert_same_samples(dist_result, parallel)

    def test_one_row_per_sweep_and_scheme(self, dist_result):
        assert len(dist_result.rows) == 3 * 4
        assert all(np.isfinite(r.metric_value) for r in dist_result.rows)

    def test_no_irs_power_increases_with_distance(self, dist_result):
        powers = [dist_result.value(d, "no_irs") for d in (25.0, 40.0, 50.0)]
        assert powers[0] < powers[1] < powers[2]

    def test_surface_proximity_dip(self, dist_result):
        assert dist_result.value(50.0, "joint") < dist_result.value(40.0, "joint")
        assert dist_result.value(25.0, "joint") < dist_result.value(40.0, "joint")

    def test_per_sample_dominance(self, dist_result):
        for d in (25.0, 40.0, 50.0):
            joint = dist_result.samples[(d, "joint")]
            bs_user = dist_result.samples[(d, "bs_user_mrt")]
            no_irs = dist_result.samples[(d, "no_irs")]
            assert np.all(joint <= bs_user + 1e-6)
            assert np.all(bs_user <= no_irs + 1e-6)

    @pytest.mark.parametrize("runner, cfg, other", [
        pytest.param(run_power_vs_distance, DIST_CFG, "phase_only", id="power-vs-distance"),
        pytest.param(run_power_vs_n, N_CFG, "joint", id="power-vs-n"),
        pytest.param(run_interference_vs_n, INT_CFG, "b1", id="interference-vs-n"),
    ])
    def test_unknown_scheme_rejected(self, monkeypatch, runner, cfg, other):
        # a name no study knows, and one that another study allows, are both
        # rejected before any block is evaluated: the metrics check no names
        monkeypatch.setattr(experiments, "_sweep_samples", None)
        for bad in ("zf", other):
            with pytest.raises(ConfigError, match=bad) as err:
                runner(replace(cfg, schemes=(cfg.schemes[0], bad), n_realizations=2))
            assert err.value.code is ConfigErrorCode.INVALID_VALUE

    def test_surface_beam_needs_elements(self):
        cfg = ExperimentConfig(scenario=ScenarioConfig(n_elements=0), sweep=("d", (30.0,)),
                               n_realizations=2)
        with pytest.raises(ConfigError, match="bs_irs_mrt"):
            run_power_vs_distance(cfg)
        rest = run_power_vs_distance(replace(cfg, schemes=("joint", "bs_user_mrt", "no_irs")))
        assert rest.value(30.0, "joint") == pytest.approx(rest.value(30.0, "no_irs"), abs=1e-9)

    @pytest.mark.parametrize("n, schemes, refused", [
        (40, POWER_DISTANCE_SCHEMES, ["no_irs"]),
        (40, ("no_irs",), ["no_irs"]),
        (0, ("joint",), ["joint"]),
        (0, ("bs_user_mrt",), ["bs_user_mrt"]),
        (0, ("joint", "bs_user_mrt", "no_irs"), ["joint", "bs_user_mrt", "no_irs"]),
    ], ids=["defaults", "no_irs", "no_elements-joint", "no_elements-bs_user_mrt", "no_elements"])
    def test_direct_gain_at_one_antenna_rejected(self, monkeypatch, n, schemes, refused):
        # the rows average 1/gain, and 1/|h_d|^2 has no finite mean at M = 1;
        # refused before any block is evaluated
        monkeypatch.setattr(experiments, "_sweep_samples", None)
        cfg = ExperimentConfig(scenario=ScenarioConfig(m_antennas=1, n_elements=n),
                               schemes=schemes, n_realizations=2)
        with pytest.raises(ConfigError, match=rf"scheme\(s\) \{refused}.* no finite mean") as err:
            run_power_vs_distance(cfg)
        assert err.value.code is ConfigErrorCode.INVALID_VALUE

    def test_surface_schemes_at_one_antenna_run(self):
        # (|h_d| + r)^2 with r > 0: the inverse has a finite mean, so M = 1
        # stays allowed for every scheme that uses the surface
        scen = ScenarioConfig(m_antennas=1)
        dist = run_power_vs_distance(ExperimentConfig(
            scenario=scen, schemes=("joint", "bs_user_mrt", "bs_irs_mrt"), n_realizations=8))
        swept = run_power_vs_n(replace(N_CFG, scenario=scen, n_realizations=8))
        for result in (dist, swept):
            assert result.rows and all(math.isfinite(row.metric_value) for row in result.rows)

    def test_wrong_sweep_variable_rejected(self):
        bad = ExperimentConfig(sweep=("n", (10.0,)), schemes=("joint",), n_realizations=2)
        with pytest.raises(ConfigError):
            run_power_vs_distance(bad)

    def test_csv_bytes_pinned(self):
        # sha256 of the CSV written by the per-realization solvers that the
        # closed-form block gains replaced
        result = run_power_vs_distance(replace(DIST_CFG, n_realizations=6))
        digest = hashlib.sha256(result.to_csv_text().encode("ascii")).hexdigest()
        assert digest == "266d2c08e6652d25b514db5e3cb85131783b032fc0cd8213d82ebd8fda9e1ffd"


class TestSignalSchemeGains:
    """The closed-form gains of a block against the per-realization solvers."""

    @pytest.mark.parametrize("d", [20.0, 50.0, 55.0])
    @pytest.mark.parametrize("n", [0, 1, 40, 300])
    @pytest.mark.parametrize("m", [1, 5, 8])
    def test_block_gains_equal_the_solvers(self, m, n, d):
        ideal = ConstraintSet.ideal_continuous()
        scen = ScenarioConfig(m_antennas=m, n_elements=n, user_position=(d, 0.0))
        channels = [realize(scen, SeededRng(77, i)) for i in range(6)]
        schemes = POWER_DISTANCE_SCHEMES if n else ("joint", "bs_user_mrt", "no_irs")
        g, h_r, h_d = stacked(channels)
        block = experiments._power_gains(g, h_r, h_d, schemes)
        for k, ch in enumerate(channels):
            w = mrt(ch.h_bs_user)
            solved = {
                "joint": alternating_optimize(ch, ideal).gain_linear,
                "bs_user_mrt": received_gain(ch, align_phases(ch, w, ideal), w),
                "no_irs": np.linalg.norm(ch.h_bs_user) ** 2,
            }
            if n:
                solved["bs_irs_mrt"] = bs_irs_mrt(ch, ideal).gain_linear
            for scheme, gain in solved.items():
                assert abs(block[scheme][k] - gain) <= 1e-12 * gain, (scheme, k)
            # one realization alone gets the bits it gets in the block
            row = alone(experiments._power_gains, ch, schemes)
            assert all(row[s] == block[s][k] for s in schemes), k


class TestRequiredPowers:
    def test_powers_are_min_power_for_snr_per_row(self):
        gains = np.exp(np.random.default_rng(4).uniform(-60.0, 10.0, 2000))
        cfg = ExperimentConfig(snr_target_db=17.3, schemes=("joint", "no_irs"))
        powers = experiments._required_powers({s: gains for s in cfg.schemes}, cfg)
        want = np.array([min_power_for_snr(x, 17.3, cfg.scenario.noise_power_dbm) for x in gains])
        assert powers.keys() == {"joint", "no_irs"}
        assert all(p.tobytes() == want.tobytes() for p in powers.values())

    @pytest.mark.parametrize("bad", [0.0, -1e-3])
    def test_non_positive_gain_raises(self, bad):
        # checked for every key, not only the first
        gains = {"joint": np.array([1.0, 2.0, 3.0]), "b1": np.array([1.0, bad, 2.0])}
        with pytest.raises(ValueError, match="gain must be > 0"):
            experiments._required_powers(gains, ExperimentConfig())


def assert_same_channel(block, k, want):
    """Row ``k`` of the block ``(g, h_r, h_d)`` is the realization ``want``."""
    g, h_r, h_d = block
    for name, x in (("g_bs_irs", g), ("h_irs_user", h_r[k]), ("h_bs_user", h_d[k])):
        y = getattr(want, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


def metric_calls(monkeypatch, study):
    """The (rows, swept N) of each call that the driver makes to
    ``study``'s metric, as the runs go."""
    spec = experiments.STUDIES[study]
    calls = []

    def spy(links, fading_r, fading_d, cfg):
        calls.append((len(fading_r), [len(link.g_bs_irs) for link in links]))
        return spec.metric(links, fading_r, fading_d, cfg)

    monkeypatch.setitem(experiments.STUDIES, study, spec._replace(metric=spy))
    return calls


def shrink_blocks(monkeypatch, study, n_max, m, rows=67):
    """Lower the element budget so that blocks hold ``rows`` realizations
    (above the floor) when the largest swept element count is ``n_max``
    and the antenna count ``m``: ``_sweep_samples`` sizes a block by both,
    ``_block_rows(n_max + m)``.  Returns ``rows`` and the metric calls of
    ``study``, from which a test reads the blocks that ``_sweep_samples``
    really cuts."""
    monkeypatch.setattr(experiments, "_ELEMENT_BUDGET", rows * (n_max + m))
    assert experiments._block_rows(n_max + m) == rows
    return rows, metric_calls(monkeypatch, study)


class TestSharedDraw:
    @staticmethod
    def built_blocks(study, cfg):
        """The block ``(g, h_r, h_d)`` that each sweep value's links form
        from each metric call's fading, call by call."""
        built = []

        def record(links, fading_r, fading_d, cfg):
            built.extend(link.block(fading_r, fading_d) for link in links)
            return [{"count": np.zeros(len(fading_r))} for _ in links]

        links = [scenario_links(scen) for scen in cfg._scenarios]
        spec = experiments.STUDIES[study]._replace(metric=record)
        experiments._sweep_samples(spec, links, cfg, 0, cfg.n_realizations)
        return built

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("study, sweep", [
        ("power-vs-distance", ("d", (20.0, 50.0, 55.0))),
        ("power-vs-n", ("n", (0.0, 1.0, 40.0))),
    ])
    def test_sweep_builds_the_channels_realize_draws(self, monkeypatch, study, sweep, offset):
        # blocks are sized by the largest swept N, 40 in both sweeps, plus
        # M; the built blocks' lengths below are the blocks really cut
        cfg = ExperimentConfig(sweep=sweep)
        assert max(scen.n_elements for scen in cfg._scenarios) == 40
        m = cfg.scenario.m_antennas
        monkeypatch.setattr(experiments, "_ELEMENT_BUDGET", 67 * (40 + m))
        block = experiments._block_rows(40 + m)
        assert block == 67
        count = block + offset
        cfg = ExperimentConfig(sweep=sweep, n_realizations=count, master_seed=21)
        built = self.built_blocks(study, cfg)
        # blocks in turn, each evaluated at every sweep value in turn
        expected = [[realize(scen, SeededRng(21, i)) for i in range(lo, min(lo + block, count))]
                    for lo in range(0, count, block) for scen in cfg._scenarios]
        assert [len(h_r) for _, h_r, _ in built] == [len(b) for b in expected]
        for got, want in zip(built, expected):
            assert len(got[2]) == len(want)
            for k, ch in enumerate(want):
                assert_same_channel(got, k, ch)

    def test_blocks_split_at_the_real_budget(self, monkeypatch):
        cfg = ExperimentConfig(sweep=("n", (1.0, 40.0)), master_seed=21)
        # sized by the largest swept N plus M
        block = experiments._block_rows(40 + cfg.scenario.m_antennas)
        cfg = replace(cfg, n_realizations=block + 1)
        built = self.built_blocks("power-vs-n", cfg)
        assert [len(h_r) for _, h_r, _ in built] == [block, block, 1, 1]
        for k, scen in enumerate(cfg._scenarios):
            for i in (0, block - 1, block):
                assert_same_channel(built[k + 2 * (i // block)], i % block,
                                    realize(scen, SeededRng(21, i)))

    def test_block_rows_follow_the_element_budget(self):
        assert experiments._ELEMENT_BUDGET == 1 << 17 and experiments._MIN_ROWS == 64
        assert experiments._block_rows(40) == 3276
        assert experiments._block_rows(300) == 436
        assert experiments._block_rows(2048) == 64
        assert experiments._block_rows(10000) == 64  # the floor
        assert experiments._block_rows(0) == 1 << 17


class TestBlockPlan:
    """``_sweep_samples`` is the one place that cuts a study to fit memory:
    blocks of rows, and within a block runs of sweep values."""

    @given(st.lists(st.integers(0, 300), min_size=1, max_size=30), st.integers(0, 1000))
    @settings(max_examples=300, deadline=None)
    def test_runs_are_the_longest_that_fit_the_cap(self, sizes, cap):
        runs = experiments._runs(sizes, cap)
        # consecutive, non-empty slices that cover the sweep in order
        assert [run.start for run in runs] == [0] + [run.stop for run in runs[:-1]]
        assert runs[-1].stop == len(sizes)
        assert all(run.step is None and run.start < run.stop for run in runs)
        for k, run in enumerate(runs):
            assert sum(sizes[run]) <= cap or run.stop - run.start == 1
            if k + 1 < len(runs):
                assert sum(sizes[run]) + sizes[run.stop] > cap

    @pytest.mark.parametrize("study, cfg, budget, calls", [
        # (rows, sizes) of each metric call: 64-row blocks at the floor
        # take their sweep in runs, and the last block's 6 rows take it whole
        pytest.param("power-vs-distance", replace(DIST_CFG, sweep=("d", (20.0, 30.0, 40.0))),
                     64 * 39, [(64, [40]), (64, [40]), (64, [40]), (6, [40, 40, 40])],
                     id="power-vs-distance"),
        pytest.param("power-vs-n", replace(N_CFG, sweep=("n", (10.0, 20.0, 30.0, 40.0))),
                     64 * 39, [(64, [10, 20]), (64, [30]), (64, [40]), (6, [10, 20, 30, 40])],
                     id="power-vs-n"),
        pytest.param("interference-vs-n", replace(INT_CFG, sweep=("n", (0.0, 1.0, 20.0, 30.0))),
                     64 * 21, [(64, [0, 1, 20]), (64, [30]), (6, [0, 1, 20, 30])],
                     id="interference-vs-n"),
    ])
    def test_blocks_at_the_row_floor_take_the_sweep_in_runs(self, monkeypatch, study, cfg,
                                                             budget, calls):
        cfg = replace(cfg, n_realizations=70)
        whole = experiments._run_study(cfg, study, 1)
        monkeypatch.setattr(experiments, "_ELEMENT_BUDGET", budget)
        seen = metric_calls(monkeypatch, study)
        split = experiments._run_study(cfg, study, 1)
        assert seen == calls
        assert split.to_csv_text() == whole.to_csv_text()
        assert_same_samples(whole, split)

    @pytest.mark.parametrize("count", [200, 400])
    def test_memory_does_not_grow_with_realizations_at_many_antennas(self, count):
        # a block holds rows x (N + M) elements within the budget, so at
        # M = 1000 and N = 1 it takes 130 realizations, not 2^17, and the
        # study's peak, about 8 MB, stays the same as its realizations grow
        cfg = ExperimentConfig(scenario=ScenarioConfig(m_antennas=1000, n_elements=1),
                               sweep=("d", (40.0,)), schemes=("joint",),
                               n_realizations=count, master_seed=3)
        tracemalloc.start()
        try:
            run_power_vs_distance(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 << 20


class TestPowerVsN:
    def test_reproducible_and_worker_invariant(self, n_result, shard_any_work):
        parallel = run_power_vs_n(N_CFG, workers=4)
        assert (
            n_result.to_csv_text()
            == run_power_vs_n(N_CFG).to_csv_text()
            == parallel.to_csv_text()
        )
        assert_same_samples(n_result, parallel)

    def test_emits_power_quant_and_loss_rows(self, n_result):
        schemes = {r.scheme for r in n_result.rows}
        assert schemes == {
            "continuous", "b1", "b2", "b1_quant", "b2_quant",
            "loss_b1", "loss_b2", "loss_b1_quant", "loss_b2_quant",
        }
        units = {r.scheme: r.metric_unit for r in n_result.rows}
        assert units["b1"] == "dBm" and units["loss_b1"] == "dB"

    def test_more_elements_need_less_power(self, n_result):
        for scheme in ("continuous", "b1", "b2"):
            assert n_result.value(40.0, scheme) < n_result.value(20.0, scheme)

    def test_quantization_costs_power(self, n_result):
        for n in (20.0, 40.0):
            assert n_result.value(n, "loss_b1") > n_result.value(n, "loss_b2") > 0.0

    def test_refinement_never_hurts(self, n_result):
        for n in (20.0, 40.0):
            for b in (1, 2):
                assert n_result.value(n, f"b{b}") <= n_result.value(n, f"b{b}_quant") + 1e-9

    def test_loss_stays_below_asymptotic_bound(self, n_result):
        for n in (20.0, 40.0):
            for b in (1, 2):
                bound = quantization_loss_bound(b)
                assert n_result.value(n, f"loss_b{b}") <= bound + 0.3
                assert n_result.value(n, f"loss_b{b}_quant") <= bound + 0.3

    def test_rejects_fractional_element_count(self):
        # rejected where the sweep is built, before any study can run
        with pytest.raises(ConfigError, match="integers"):
            ExperimentConfig(sweep=("n", (10.5,)), schemes=("continuous",), n_realizations=2)

    def test_rejects_element_count_below_the_study_minimum(self):
        with pytest.raises(ConfigError, match=">= 1"):
            run_power_vs_n(ExperimentConfig(sweep=("n", (0.0, 4.0)), schemes=("continuous",),
                                            n_realizations=2))

    def test_csv_bytes_pinned(self):
        # sha256 of the CSV written by the per-realization implementation
        # that block refinement replaced
        text = run_power_vs_n(replace(N_CFG, n_realizations=6)).to_csv_text()
        digest = hashlib.sha256(text.encode("ascii")).hexdigest()
        assert digest == "f0c881c90ea569c9e6e6e7b82b8b9b4f54dbd7a6f5b5e3fed86f4ff652757ed9"

    def test_bench_study_csv_bytes_pinned(self):
        # sha256 of the CSV of the benchmark's power_n study, as the
        # refinement kernel that scanned fixed chunks in lockstep wrote it
        cfg = ExperimentConfig(
            scenario=ScenarioConfig(m_antennas=5, user_position=(50.0, 0.0)),
            sweep=("n", (150.0, 300.0)),
            schemes=("continuous", "b1", "b2"),
            n_realizations=40,
            master_seed=20240811,
        )
        text = run_power_vs_n(cfg).to_csv_text()
        digest = hashlib.sha256(text.encode("ascii")).hexdigest()
        assert digest == "3d3bf52a43b6387f0679867023b7845fadcfcee8d247c0ad60b577acb7b283a4"

    def test_samples_across_block_boundary_extend_a_shorter_run(self, monkeypatch):
        block, calls = shrink_blocks(monkeypatch, "power-vs-n", 8, N_CFG.scenario.m_antennas)
        cfg = replace(N_CFG, sweep=("n", (4.0, 8.0)))
        short = run_power_vs_n(replace(cfg, n_realizations=block - 1))
        long = run_power_vs_n(replace(cfg, n_realizations=2 * block + 3))
        # one block for the short study, three for the long; a full block's
        # budget holds N + M = 13 elements per row, so each block takes
        # N = 4 and 8 in one run
        assert calls == [(66, [4, 8]), (67, [4, 8]), (67, [4, 8]), (3, [4, 8])]
        assert short.samples.keys() == long.samples.keys()
        for key, arr in short.samples.items():
            assert long.samples[key].shape == (2 * block + 3,)
            assert long.samples[key][: arr.size].tobytes() == arr.tobytes(), key
        # each block draws the streams of its own realization indices
        for i in (block - 1, block, 2 * block + 2):
            scen = replace(cfg.scenario, n_elements=8)
            ch = realize(scen, SeededRng(cfg.master_seed, i))
            gains = alone(experiments._power_gains, ch, cfg.schemes)
            for scheme, gain in gains.items():
                power = min_power_for_snr(gain, cfg.snr_target_db, scen.noise_power_dbm)
                assert long.samples[(8.0, scheme)][i] == power, (i, scheme)


class TestQuantizedGains:
    """The closed-form power-vs-N gains of a block against the
    per-realization solvers."""

    @pytest.mark.parametrize("n", [1, 2, 40, 300])
    @pytest.mark.parametrize("m", [1, 5, 8])
    def test_block_gains_equal_the_solvers(self, m, n):
        unit = ConstraintSet.unit_modulus()
        scen = ScenarioConfig(m_antennas=m, n_elements=n, user_position=(50.0, 0.0))
        g, h_r, h_d = stacked([realize(scen, SeededRng(78, i)) for i in range(6)])
        h_d[1] = 0.0  # a blocked direct link
        h_r[2] = 0.0  # a surface that reaches the user with nothing
        schemes = ("continuous", "b1", "b2")
        block = experiments._power_gains(g, h_r, h_d, schemes)
        for k in range(len(h_r)):
            ch = ChannelRealization(g, h_r[k], h_d[k])
            sol = alternating_optimize(ch, unit)
            solved = {"continuous": sol.gain_linear}
            for b in (1, 2):
                for key, state in ((f"b{b}_quant", project(sol.refl.coefficients,
                                                           ConstraintSet.discrete_phase(b))),
                                   (f"b{b}", quantize_then_refine(ch, sol.w, sol.refl, b))):
                    solved[key] = np.linalg.norm(effective_channel(ch, state)) ** 2
            assert solved.keys() == block.keys()
            for key, gain in solved.items():
                assert abs(block[key][k] - gain) <= 1e-12 * gain, (key, k)
            # one realization alone gets the bits it gets in the block
            row = alone(experiments._power_gains, ch, schemes)
            assert all(row[key] == block[key][k] for key in block), k

    @pytest.mark.parametrize("seed", [1, 7, 20240811])
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_lattice_gains_bound_the_direct_gain_per_row(self, m, seed):
        # rounding turns each aligned term by at most a quarter turn, so
        # |p + s| >= |p| and b{b}_quant >= ||h_d||^2; refinement only
        # raises the gain.  So E[1/gain] <= E[1/||h_d||^2] wherever M >= 2.
        for n in (1, 2, 3, 8, 40, 300):
            scen = ScenarioConfig(m_antennas=m, n_elements=n)
            g, h_r, h_d = scenario_links(scen).block(*draw_fading_rows(seed, range(200), m, n))
            gains = experiments._power_gains(g, h_r, h_d, ("no_irs", "b1", "b2"))
            for b in (1, 2):
                quant, refined = gains[f"b{b}_quant"], gains[f"b{b}"]
                assert np.all(quant >= gains["no_irs"] * (1 - 1e-12)), (n, b)
                assert np.all(refined >= quant * (1 - 1e-12)), (n, b)

    @pytest.mark.parametrize("m", [1, 5])
    def test_both_studies_schemes_in_one_call_match_each_set(self, m):
        scen = ScenarioConfig(m_antennas=m, n_elements=40, user_position=(50.0, 0.0))
        block = stacked([realize(scen, SeededRng(79, i)) for i in range(6)])
        n_schemes = experiments.STUDIES["power-vs-n"].defaults.schemes
        both = experiments._power_gains(*block, POWER_DISTANCE_SCHEMES + n_schemes)
        apart = {**experiments._power_gains(*block, POWER_DISTANCE_SCHEMES),
                 **experiments._power_gains(*block, n_schemes)}
        assert list(both) == list(apart)
        assert list(apart)[-5:] == ["continuous", "b1_quant", "b1", "b2_quant", "b2"]
        for key, gains in apart.items():
            assert both[key].tobytes() == gains.tobytes(), key
        assert both["continuous"].tobytes() == both["joint"].tobytes()

    @pytest.mark.parametrize("m", [1, 5])
    def test_keys_follow_the_listed_scheme_order(self, m):
        # each lattice scheme's '_quant' key comes right before its own, and
        # a study's rows and samples follow the keys
        scen = ScenarioConfig(m_antennas=m, n_elements=40, user_position=(50.0, 0.0))
        block = stacked([realize(scen, SeededRng(83, i)) for i in range(6)])
        listed = ("b2", "continuous", "b1")
        reordered = experiments._power_gains(*block, listed)
        default = experiments._power_gains(*block, ("continuous", "b1", "b2"))
        assert list(reordered) == ["b2_quant", "b2", "continuous", "b1_quant", "b1"]
        for key, gains in default.items():
            assert reordered[key].tobytes() == gains.tobytes(), key
        cfg = replace(experiments.STUDIES["power-vs-n"].defaults, scenario=scen,
                      sweep=("n", (10.0, 40.0)), n_realizations=30, master_seed=83)
        base, result = run_power_vs_n(cfg), run_power_vs_n(replace(cfg, schemes=listed))
        assert result.to_csv_text() == base.to_csv_text()
        assert result.samples.keys() == base.samples.keys()
        for key, samples in base.samples.items():
            assert result.samples[key].tobytes() == samples.tobytes(), key
        for n in (10.0, 40.0):
            assert [row.scheme for row in result.rows if row.sweep_value == n] == [
                "b2_quant", "b2", "continuous", "b1_quant", "b1",
                "loss_b2_quant", "loss_b2", "loss_b1_quant", "loss_b1"]
        assert list(result.samples) == [(n, key) for n in (10.0, 40.0) for key in reordered]


class TestRaggedSweep:
    """Power-vs-n refines every swept N of a block in one loop per bit
    width: its rows end before, at and past the edge of a 32-element
    window."""

    SWEEP = (1.0, 31.0, 32.0, 33.0, 70.0)

    @pytest.mark.parametrize("layout", ["one-block", "blocks", "runs", "forked"])
    @pytest.mark.parametrize("m", [1, 5])
    def test_each_n_matches_a_study_of_that_n_alone(self, monkeypatch, request, m, layout):
        cfg = ExperimentConfig(
            scenario=ScenarioConfig(m_antennas=m, user_position=(50.0, 0.0)),
            sweep=("n", self.SWEEP), schemes=("continuous", "b1", "b2"),
            n_realizations=37, master_seed=9)
        alone = [run_power_vs_n(replace(cfg, sweep=("n", (n,)))) for n in self.SWEEP]
        workers = 1
        if layout == "blocks":  # blocks of 10, 10, 10 and 7 realizations
            monkeypatch.setattr(experiments, "_MIN_ROWS", 1)
            _, seen = shrink_blocks(monkeypatch, "power-vs-n", 70, m, rows=10)
        elif layout == "runs":
            # a block at the row floor, refined in runs of N = 1, 31 and 32,
            # of N = 33 and of N = 70, each run's arrays within the budget
            monkeypatch.setattr(experiments, "_ELEMENT_BUDGET", 37 * 70)
            assert experiments._block_rows(70 + m) == experiments._MIN_ROWS
            calls = []

            def spy(t, a, v, rows, sizes, bits):
                calls.append(len(a) // 37)
                beamforming._refine_rows(t, a, v, rows, sizes, bits)

            monkeypatch.setattr(experiments, "_refine_rows", spy)
        elif layout == "forked":
            usable_cpus(monkeypatch, 2)
            request.getfixturevalue("shard_any_work")
            workers = 2
        swept = run_power_vs_n(cfg, workers=workers)
        assert len(swept.samples) == sum(len(result.samples) for result in alone)
        for result in alone:
            for key, arr in result.samples.items():
                assert swept.samples[key].tobytes() == arr.tobytes(), key
        if layout == "blocks":  # a full block holds 70 elements per row at once
            assert seen == [(10, [1, 31, 32]), (10, [33]), (10, [70])] * 3 + [
                (7, [1, 31, 32, 33]), (7, [70])]
        if layout == "runs":
            assert calls == [64, 64, 33, 33, 70, 70]  # elements per row, per call


class TestInterferenceVsN:
    def test_reproducible_and_worker_invariant(self, int_result, shard_any_work):
        parallel = run_interference_vs_n(INT_CFG, workers=3)
        assert (
            int_result.to_csv_text()
            == run_interference_vs_n(INT_CFG).to_csv_text()
            == parallel.to_csv_text()
        )
        assert_same_samples(int_result, parallel)

    def test_requires_single_antenna(self):
        bad = ExperimentConfig(
            scenario=ScenarioConfig(m_antennas=5),
            sweep=("n", (10.0,)),
            schemes=("no_irs",),
            n_realizations=2,
        )
        with pytest.raises(ConfigError, match="m_antennas = 1"):
            run_interference_vs_n(bad)

    def test_no_irs_level_is_flat_across_n(self, int_result):
        # the direct channel draw is shared across sweep values
        assert int_result.value(10.0, "no_irs") == int_result.value(30.0, "no_irs")

    def test_scheme_ordering(self, int_result):
        for n in (10.0, 30.0):
            joint = int_result.value(n, "joint_amp_phase")
            phase = int_result.value(n, "phase_only")
            none = int_result.value(n, "no_irs")
            assert joint <= phase <= none

    def test_margin_samples_recorded(self, int_result):
        margins = int_result.samples[(30.0, "margin")]
        assert margins.shape == (25,)

    def test_full_cancellation_when_feasible(self, int_result):
        for n in (10.0, 30.0):
            margins = int_result.samples[(n, "margin")]
            joint = int_result.samples[(n, "joint_amp_phase")]
            none = int_result.samples[(n, "no_irs")]
            feasible = margins >= 0
            assert np.all(joint[feasible] <= 1e-6 * none[feasible])

    def test_median_residual_vanishes_with_enough_elements(self):
        # at sixty elements the cascade is strong enough on nearly every
        # draw, so the median residual is essentially zero
        cfg = ExperimentConfig(
            scenario=ScenarioConfig(m_antennas=1),
            sweep=("n", (60.0,)),
            schemes=("joint_amp_phase", "no_irs"),
            n_realizations=50,
            master_seed=14,
        )
        res = run_interference_vs_n(cfg)
        joint = res.samples[(60.0, "joint_amp_phase")]
        direct = res.samples[(60.0, "no_irs")]
        assert np.median(joint) < 1e-6 * np.median(direct)


    def test_csv_bytes_pinned(self):
        # sha256 of the CSV written by the per-realization nulling loop that
        # the block kernel replaced
        cfg = replace(INT_CFG, n_realizations=6)
        text = run_interference_vs_n(cfg).to_csv_text()
        digest = hashlib.sha256(text.encode("ascii")).hexdigest()
        assert digest == "c7529432c80cc01195fcd34a2d785fc4cc099e0e0d91011871973b7e3b2faa60"

    def test_only_an_exact_zero_mean_prints_as_the_floor(self):
        # means of about 1e-69 to 1e-74 print their own levels, far below
        # -300 dB; only N = 100's joint_amp_phase, a perfect null in every
        # realization, has a mean of exactly zero and prints as -300 dB
        cfg = ExperimentConfig(scenario=ScenarioConfig(m_antennas=1, noise_power_dbm=300.0),
                               interferer_power_dbm=-300.0, sweep=("n", (20.0, 100.0)),
                               schemes=("joint_amp_phase", "phase_only", "no_irs"),
                               n_realizations=50, master_seed=1)
        result = run_interference_vs_n(cfg)
        assert len(result.rows) == 6
        for row in result.rows:
            mean = float(np.mean(result.samples[(row.sweep_value, row.scheme)]))
            if (row.sweep_value, row.scheme) == (100.0, "joint_amp_phase"):
                assert mean == 0.0 and row.metric_value == -300.0
            else:
                assert 0.0 < mean < 1e-30
                assert row.metric_value == float(10.0 * np.log10(mean)) < -600.0, row
        assert "100,joint_amp_phase,-300.000000,dB" in result.to_csv_text()

    def test_samples_across_block_boundary_extend_a_shorter_run(self, monkeypatch):
        block, calls = shrink_blocks(monkeypatch, "interference-vs-n", 30, 1)
        short = run_interference_vs_n(replace(INT_CFG, n_realizations=block - 1))
        long = run_interference_vs_n(replace(INT_CFG, n_realizations=2 * block + 3))
        # one block for the short study, three for the long; a full block
        # takes N = 10 and 30 in two runs, the last block's 3 rows in one
        assert calls == [(66, [10]), (66, [30]), (67, [10]), (67, [30]), (67, [10]), (67, [30]),
                         (3, [10, 30])]
        assert short.samples.keys() == long.samples.keys()
        for key, arr in short.samples.items():
            assert long.samples[key].shape == (2 * block + 3,)
            assert long.samples[key][: arr.size].tobytes() == arr.tobytes(), key
        # each block draws the streams of its own realization indices
        p_tx_mw = db_to_linear(INT_CFG.interferer_power_dbm)
        noise_mw = db_to_linear(INT_CFG.scenario.noise_power_dbm)
        scen = replace(INT_CFG.scenario, n_elements=30)
        for i in (block - 1, block, 2 * block + 2):
            ch = realize(scen, SeededRng(INT_CFG.master_seed, i))
            for key, value in alone(interference_gains, ch, INT_CFG.schemes).items():
                want = value if key == "margin" else p_tx_mw * value / noise_mw
                assert long.samples[(30.0, key)][i] == want, (i, key)


class TestInterferenceGains:
    """The block metric against the per-realization solvers, bit for bit."""

    def test_nested_sizes_give_each_realization_its_own_values(self):
        # one block solved at N = 0, 1 and 20 in one nulling loop: every
        # sample is what the solvers give its realization alone
        cfg = replace(INT_CFG, sweep=("n", (0.0, 1.0, 20.0)), n_realizations=30)
        result = run_interference_vs_n(cfg)
        p_tx_mw = db_to_linear(cfg.interferer_power_dbm)
        noise_mw = db_to_linear(cfg.scenario.noise_power_dbm)
        for n in (0, 1, 20):
            scen = replace(cfg.scenario, n_elements=n)
            for i in range(cfg.n_realizations):
                ch = realize(scen, SeededRng(cfg.master_seed, i))
                t, f = direct_and_cascade(ch, np.ones(1))
                solved = {
                    "margin": float(np.sum(np.abs(f)) - abs(t)),
                    "joint_amp_phase": null_interference(ch, ConstraintSet.ideal_continuous())[1],
                    "phase_only": null_interference(ch, ConstraintSet.unit_modulus())[1],
                    "no_irs": float(abs(t) ** 2),
                }
                for key, value in solved.items():
                    want = value if key == "margin" else p_tx_mw * value / noise_mw
                    assert result.samples[(float(n), key)][i] == want, (n, i, key)

    @pytest.mark.parametrize("sweep", [INT_CFG.sweep[1], (0.0, 1.0, 20.0)],
                             ids=["int_cfg", "nested"])
    def test_free_amplitude_samples_are_the_disk_value(self, sweep):
        # exactly 0.0 wherever a perfect null is reachable, the direct power
        # at N = 0, and (|t| - sum|f_n|)^2 elsewhere: the closed form, not
        # the round-off of a constructed state's residual
        cfg = replace(INT_CFG, sweep=("n", sweep))
        result = run_interference_vs_n(cfg)
        p_tx_mw = db_to_linear(cfg.interferer_power_dbm)
        noise_mw = db_to_linear(cfg.scenario.noise_power_dbm)
        feasible = infeasible = 0
        for n in sweep:
            joint = result.samples[(n, "joint_amp_phase")]
            reachable = result.samples[(n, "margin")] >= 0
            assert np.all(joint[reachable] == 0.0)
            if n == 0:
                assert joint.tobytes() == result.samples[(n, "no_irs")].tobytes()
            scen = replace(cfg.scenario, n_elements=int(n))
            for i in np.flatnonzero(~reachable):
                ch = realize(scen, SeededRng(cfg.master_seed, int(i)))
                t, f = direct_and_cascade(ch, np.ones(1))
                gap = abs(t) - float(np.sum(np.abs(f)))
                assert joint[i] == p_tx_mw * gap ** 2 / noise_mw, (n, i)
            feasible += np.count_nonzero(reachable)
            infeasible += np.count_nonzero(~reachable)
        assert feasible and infeasible

    def test_blocks_by_the_largest_n_runs_by_the_summed_n(self, monkeypatch):
        # blocks are sized by the largest swept N plus M, as in every study,
        # and runs by the summed N: a full block's budget holds 20 + 1
        # elements per row, so it nulls N = 0 and 2 apart from 20
        block, _ = shrink_blocks(monkeypatch, "interference-vs-n", 20, 1)
        cfg = replace(INT_CFG, sweep=("n", (0.0, 2.0, 20.0)), n_realizations=block + 5)
        calls = []
        real = experiments._interference_gains

        def spy(g, h_r, h_d, schemes, sizes):
            calls.append((g.shape, h_r.shape, list(sizes)))
            return real(g, h_r, h_d, schemes, sizes)

        monkeypatch.setattr(experiments, "_interference_gains", spy)
        run_interference_vs_n(cfg)
        assert calls == [((2, 1), (block, 2), [0, 2]), ((20, 1), (block, 20), [20]),
                         ((20, 1), (5, 20), [0, 2, 20])]

    def test_blocks_at_the_row_floor_null_in_runs_that_fit_the_budget(self, monkeypatch):
        # 64-row blocks at the floor, whose states at N = 0, 1, 20 and 30
        # would hold 51 elements per row, against a budget of 21 per row: the
        # sizes are nulled in the runs [0, 1, 20] and [30], with the same samples
        cfg = replace(INT_CFG, sweep=("n", (0.0, 1.0, 20.0, 30.0)), n_realizations=70)
        whole = run_interference_vs_n(cfg)
        monkeypatch.setattr(experiments, "_ELEMENT_BUDGET", 64 * 21)
        assert experiments._block_rows(30 + 1) == 64
        runs = []
        real = beamforming._null_prefixes

        def spy(t, f, sizes):
            runs.append((len(t), list(sizes)))
            return real(t, f, sizes)

        monkeypatch.setattr(experiments, "_null_prefixes", spy)
        split = run_interference_vs_n(cfg)
        # the last block's 6 rows fit every size in one run
        assert runs == [(64, [0, 1, 20]), (64, [30]), (6, [0, 1, 20, 30])]
        assert split.to_csv_text() == whole.to_csv_text()
        assert_same_samples(whole, split)

    @pytest.mark.parametrize("n", [0, 1, 20, 100])
    def test_block_equals_the_solvers(self, n):
        scen = ScenarioConfig(m_antennas=1, n_elements=n, user_position=(50.0, 0.0))
        channels = [realize(scen, SeededRng(78, i)) for i in range(20)]
        schemes = ("joint_amp_phase", "phase_only", "no_irs")
        block = interference_gains(*stacked(channels), schemes)
        assert list(block) == ["margin", *schemes]
        for k, ch in enumerate(channels):
            t, f = direct_and_cascade(ch, np.ones(1))
            solved = {
                "margin": float(np.sum(np.abs(f)) - abs(t)),
                "joint_amp_phase": null_interference(ch, ConstraintSet.ideal_continuous())[1],
                "phase_only": null_interference(ch, ConstraintSet.unit_modulus())[1],
                "no_irs": float(abs(t) ** 2),
            }
            for key, value in solved.items():
                assert block[key][k] == value, (key, k)
            # one realization alone gets the bits it gets in the block
            assert alone(interference_gains, ch, schemes) == solved

    def test_magnitudes_and_squares_as_python_computes_them(self):
        # hypot for |t| and pow for the square: array abs and x * x differ
        # from Python's abs(t) ** 2 in the last bit on some of these rows
        g = np.random.default_rng(3)
        t = g.standard_normal(10000) + 1j * g.standard_normal(10000)
        f = g.standard_normal((10000, 2)) + 1j * g.standard_normal((10000, 2))
        los = np.ones((2, 1), complex)
        h_r, h_d = np.conj(f), np.conj(t)[:, None]
        block = interference_gains(los, h_r, h_d, ("no_irs",))
        pairs = [direct_and_cascade(ChannelRealization(los, hr, hd), np.ones(1))
                 for hr, hd in zip(h_r, h_d)]
        mag = np.array([abs(tr) for tr, _ in pairs])
        assert np.any(np.abs([tr for tr, _ in pairs]) != mag)
        assert np.any(mag * mag != np.array([m ** 2 for m in mag]))
        assert block["no_irs"].tobytes() == np.array([abs(tr) ** 2 for tr, _ in pairs]).tobytes()
        assert block["margin"].tobytes() == np.array(
            [np.sum(np.abs(fr)) - abs(tr) for tr, fr in pairs]).tobytes()

    def test_library_call_gives_the_study_row(self, monkeypatch):
        # the default interference scenario at N = 60: a stopping rule of
        # 1e-12 and 200 passes would change some of these rows, so the
        # library call and the study share one rule
        scen = replace(experiments.STUDIES["interference-vs-n"].defaults.scenario, n_elements=60)
        channels = [realize(scen, SeededRng(20240811, i)) for i in range(200)]
        block = interference_gains(*stacked(channels), ("phase_only",))
        alone = [null_interference(ch, ConstraintSet.unit_modulus())[1] for ch in channels]
        assert block["phase_only"].tobytes() == np.array(alone).tobytes()
        monkeypatch.setattr(beamforming, "_NULL_TOL", 1e-12)
        monkeypatch.setattr(beamforming, "_NULL_PASSES", 200)
        other = interference_gains(*stacked(channels), ("phase_only",))["phase_only"]
        assert 0 < np.count_nonzero(other != block["phase_only"]) < len(channels)


class TestLoneSlowProblem:
    """The default interference scenario at seed 20240820, at N = 40: of the
    first 141 realizations, the last takes over 250 nulling passes (286 on
    AVX-512 kernels, 274 with AVX2 off too), and finishes them alone once
    the others have stopped."""

    CFG = replace(experiments.STUDIES["interference-vs-n"].defaults, sweep=("n", (40.0,)),
                  n_realizations=141, master_seed=20240820)
    SLOW = 140

    @pytest.fixture(scope="class")
    def result(self):
        return run_interference_vs_n(self.CFG)

    def slow_channel(self):
        return realize(replace(self.CFG.scenario, n_elements=40),
                       SeededRng(self.CFG.master_seed, self.SLOW))

    def test_one_problem_needs_over_100_passes(self, monkeypatch):
        unit = ConstraintSet.unit_modulus()
        full = null_interference(self.slow_channel(), unit)[0].coefficients
        monkeypatch.setattr(beamforming, "_NULL_PASSES", 100)
        assert null_interference(self.slow_channel(), unit)[0].coefficients.tobytes() \
            != full.tobytes()

    def test_same_bits_handed_over_or_not_and_in_shards(self, monkeypatch, forked, result,
                                                        shard_any_work):
        # the alone loop must give the bits of the vector loop, wherever a
        # row is handed over: in the 141-row block or in a shard's 70 or 71
        with monkeypatch.context() as mp:
            mp.setattr(beamforming, "_NULL_ALONE", 0)
            vector = run_interference_vs_n(self.CFG)
        usable_cpus(monkeypatch, 2)
        sharded = run_interference_vs_n(self.CFG, workers=2)
        assert len(forked) == (2 if sys.platform == "linux" else 0)
        for other in (vector, sharded):
            assert other.to_csv_text() == result.to_csv_text()
            assert_same_samples(result, other)
        # and the library call of that realization alone, the study's row
        _, residual = null_interference(self.slow_channel(), ConstraintSet.unit_modulus())
        p_tx_mw = db_to_linear(self.CFG.interferer_power_dbm)
        noise_mw = db_to_linear(self.CFG.scenario.noise_power_dbm)
        assert result.samples[(40.0, "phase_only")][self.SLOW] == p_tx_mw * residual / noise_mw

    def test_lone_problem_takes_no_vector_steps(self, monkeypatch):
        # one array exp per vector step and one for the block's start state:
        # 161 here, against over 4000 were the slow problem's steps taken as
        # vector steps
        calls = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, x, *args, **kwargs):
                calls.append(isinstance(x, np.ndarray))
                return np.exp(x, *args, **kwargs)

        monkeypatch.setattr(beamforming, "np", CountingNumpy())
        run_interference_vs_n(self.CFG)
        assert sum(calls) <= 400
        assert len(calls) - sum(calls) > 100 * 40


@pytest.fixture
def forked(monkeypatch):
    """The pid of every child that ``experiments`` forks, in order: the only
    way a study starts a process."""
    pids = []
    real_fork = experiments.os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(experiments.os, "fork", fork)
    return pids


def assert_reaped(pids):
    # every forked shard has been waited for: no zombie is left.  Each pid
    # is asked for, as waitpid(-1) would also count children of this
    # process that no study started
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def open_fds():
    return len(os.listdir("/proc/self/fd"))


def usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.mark.usefixtures("shard_any_work")
class TestShardProcesses:
    def test_one_usable_cpu_runs_in_process(self, monkeypatch, forked, dist_result):
        usable_cpus(monkeypatch, 1)
        result = run_power_vs_distance(DIST_CFG, workers=4)
        assert forked == []
        assert result.to_csv_text() == dist_result.to_csv_text()
        assert_same_samples(dist_result, result)

    @pytest.mark.skipif(sys.platform != "linux", reason="shards are forked on Linux")
    def test_shards_fork_on_linux(self, monkeypatch, forked, dist_result):
        usable_cpus(monkeypatch, 2)
        result = run_power_vs_distance(DIST_CFG, workers=2)
        assert len(forked) == 2
        assert result.to_csv_text() == dist_result.to_csv_text()
        assert_same_samples(dist_result, result)

    @pytest.mark.parametrize("runner, cfg, serial", [
        (run_power_vs_distance, DIST_CFG, "dist_result"),
        (run_power_vs_n, N_CFG, "n_result"),
        (run_interference_vs_n, INT_CFG, "int_result"),
    ], ids=["distance", "n", "interference"])
    def test_off_linux_runs_in_process(self, monkeypatch, forked, request, runner, cfg, serial):
        # fork is missing on Windows and unsafe on macOS, and shards are only
        # forked: there a study runs in process, whatever its workers and CPUs
        one = request.getfixturevalue(serial)
        usable_cpus(monkeypatch, 4)
        monkeypatch.setattr(sys, "platform", "darwin")
        result = runner(cfg, workers=4)
        assert forked == []
        assert result.to_csv_text() == one.to_csv_text()
        assert_same_samples(one, result)

    def test_off_linux_fresh_run_forks_nothing(self):
        # set after the imports, as the shard count reads it when a study runs
        assert fresh_study_forks("sys.platform = 'darwin'\n") == ["0"]


class TestShardPlan:
    def test_work_is_realizations_times_the_sweeps_elements_and_antennas(self):
        # three distances at N = 40 and M = 5; N = 10 and 30 at M = 1
        assert experiments._study_work(DIST_CFG) == 30 * 3 * (40 + 5)
        assert experiments._study_work(INT_CFG) == 25 * (10 + 1 + 30 + 1)

    @pytest.mark.parametrize("runner, study, cfg, serial", [
        (run_power_vs_distance, "power-vs-distance", DIST_CFG, "dist_result"),
        (run_power_vs_n, "power-vs-n", N_CFG, "n_result"),
        (run_interference_vs_n, "interference-vs-n", INT_CFG, "int_result"),
    ], ids=["distance", "n", "interference"])
    def test_study_below_its_shard_work_runs_in_process(self, monkeypatch, forked, request,
                                                        runner, study, cfg, serial):
        # a shard process costs more than it saves on less than shard_work
        usable_cpus(monkeypatch, 2)
        assert experiments._study_work(cfg) < 2 * experiments.STUDIES[study].shard_work
        result = runner(cfg, workers=2)
        assert forked == []
        one = request.getfixturevalue(serial)
        assert result.to_csv_text() == one.to_csv_text()
        assert_same_samples(one, result)

    @pytest.mark.parametrize("workers, cpus, shares, shards", [
        (4, 4, 3, 3), (2, 4, 3, 2), (4, 2, 3, 2), (3, 4, 5, 3), (4, 4, 1, 1), (2, 2, 0, 1),
    ])
    def test_shards_are_the_fewest_of_workers_cpus_and_work_shares(
            self, monkeypatch, forked, dist_result, workers, cpus, shares, shards):
        usable_cpus(monkeypatch, cpus)
        work = experiments._study_work(DIST_CFG)
        shard_work = work // shares if shares else work + 1
        assert work // shard_work == shares
        spec = experiments.STUDIES["power-vs-distance"]
        monkeypatch.setitem(experiments.STUDIES, "power-vs-distance",
                            spec._replace(shard_work=shard_work))
        result = run_power_vs_distance(DIST_CFG, workers=workers)
        assert len(forked) == (shards if shards > 1 and sys.platform == "linux" else 0)
        assert result.to_csv_text() == dist_result.to_csv_text()
        assert_same_samples(dist_result, result)


def before_each_shard(monkeypatch, act):
    """Run ``act(start)`` in every shard before its sweep.  Forked children
    inherit the patch."""
    real = experiments._sweep_samples

    def patched(*args):  # (spec, links, cfg, start, stop)
        act(args[-2])
        return real(*args)

    monkeypatch.setattr(experiments, "_sweep_samples", patched)


@pytest.mark.skipif(sys.platform != "linux", reason="shards are forked on Linux")
class TestForkedShards:
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch, shard_any_work):
        usable_cpus(monkeypatch, 2)

    @pytest.mark.parametrize("error", [
        ValueError("shard says no"),
        ConfigError(ConfigErrorCode.INVALID_VALUE, "shard says no", 7),
    ], ids=["ValueError", "ConfigError"])
    def test_shard_exception_reaches_the_caller(self, monkeypatch, forked, error):
        def act(start):
            if start:
                raise error

        before_each_shard(monkeypatch, act)
        fds = open_fds()
        with pytest.raises(type(error), match="shard says no") as caught:
            run_power_vs_distance(DIST_CFG, workers=2)
        assert str(caught.value) == str(error)
        assert getattr(caught.value, "line", None) == getattr(error, "line", None)
        assert_reaped(forked)
        assert open_fds() == fds

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("runner, cfg, serial", [
        (run_power_vs_distance, DIST_CFG, "dist_result"),
        (run_power_vs_n, N_CFG, "n_result"),
        (run_interference_vs_n, INT_CFG, "int_result"),
    ], ids=["distance", "n", "interference"])
    def test_shards_get_the_runs_links(self, monkeypatch, forked, request, workers, runner, cfg,
                                       serial):
        # the run builds every sweep value's links before its shards start,
        # in process or forked: a shard that built its sweep's scenarios or
        # links again would raise
        one = request.getfixturevalue(serial)  # built before the spies raise

        def refuse(*args):
            raise AssertionError("a shard rebuilt its sweep")

        def act(start):
            monkeypatch.setattr(experiments, "_sweep_scenarios", refuse)
            monkeypatch.setattr(experiments, "scenario_links", refuse)

        before_each_shard(monkeypatch, act)
        result = runner(cfg, workers=workers)
        assert len(forked) == (workers - 1) * 2
        assert result.to_csv_text() == one.to_csv_text()

    def test_child_exit_without_result_names_its_status(self, monkeypatch, forked):
        before_each_shard(monkeypatch, lambda start: start and os._exit(3))
        fds = open_fds()
        with pytest.raises(RuntimeError, match=r"shard 1 .*exited with status 3"):
            run_power_vs_distance(DIST_CFG, workers=2)
        assert_reaped(forked)
        assert open_fds() == fds

    def test_failure_kills_the_shards_still_running(self, monkeypatch, forked):
        def act(start):
            if start == 0:
                raise ValueError("first shard fails")
            time.sleep(600)

        before_each_shard(monkeypatch, act)
        fds = open_fds()
        began = time.monotonic()
        with pytest.raises(ValueError, match="first shard fails"):
            run_power_vs_distance(DIST_CFG, workers=2)
        assert time.monotonic() - began < 60
        assert len(forked) == 2
        assert_reaped(forked)
        assert open_fds() == fds

    def test_success_leaves_no_child_and_no_pipe(self, forked, dist_result):
        fds = open_fds()
        result = run_power_vs_distance(DIST_CFG, workers=2)
        assert result.to_csv_text() == dist_result.to_csv_text()
        assert_reaped(forked)
        assert open_fds() == fds

    def test_buffered_output_is_written_once(self, monkeypatch, capfd, forked):
        # every shard flushes the stdout it inherited: only what the parent
        # had not flushed before forking could be written twice
        before_each_shard(monkeypatch, lambda start: sys.stdout.flush())
        with open(os.dup(1), "w") as stdout, contextlib.redirect_stdout(stdout):
            print("written before the study", end="|")
            run_power_vs_distance(DIST_CFG, workers=2)
        assert len(forked) == 2
        assert capfd.readouterr().out == "written before the study|"

    def test_imports_no_process_pool(self):
        assert fresh_study_forks("") == ["2"]


def fresh_study_forks(setup: str) -> list[str]:
    """The forks of a power-vs-distance study at two workers and two CPUs,
    and every multiprocessing or concurrent module loaded, in a fresh
    interpreter that runs ``setup`` after its imports."""
    code = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "forks = []\n"
        "real_fork = os.fork\n"
        "os.fork = lambda: forks.append(1) or real_fork()\n"
        "from irslink.experiments import STUDIES, ExperimentConfig, run_power_vs_distance\n"
        "STUDIES.update({k: s._replace(shard_work=1) for k, s in STUDIES.items()})\n"
        f"{setup}"
        "run_power_vs_distance(ExperimentConfig(n_realizations=20), workers=2)\n"
        "print(len(forks), *sorted(m for m in sys.modules\n"
        "      if m.startswith(('multiprocessing', 'concurrent'))))\n"
    )
    src = str(Path(experiments.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120, check=True).stdout
    return out.split()
