import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irslink.cli import (
    CliInvocation,
    main,
    parse_config,
    run,
    serialize_config,
)
from irslink.experiments import (
    ConfigError,
    ConfigErrorCode,
    ExperimentConfig,
    ExperimentResult,
    run_interference_vs_n,
    run_power_vs_distance,
    run_power_vs_n,
)


def write(tmp_path, text, name="cfg.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestParseConfig:
    def test_no_file_gives_full_defaults(self):
        cfg = parse_config(None, experiment="power-vs-distance")
        s = cfg.scenario
        assert s.m_antennas == 5
        assert s.n_elements == 40
        assert s.pl_exponent_bs_irs == 2.2
        assert s.pl_exponent_bs_user == 3.2
        assert s.noise_power_dbm == -80.0
        assert cfg.snr_target_db == 20.0
        assert cfg.sweep[0] == "d"
        assert cfg.n_realizations == 500

    def test_empty_file_gives_full_defaults(self, tmp_path):
        path = write(tmp_path, "# nothing but a comment\n\n")
        assert parse_config(path, experiment="power-vs-n") == parse_config(
            None, experiment="power-vs-n"
        )

    def test_experiment_specific_defaults(self):
        assert parse_config(None, experiment="interference-vs-n").n_realizations == 200
        assert parse_config(None, experiment="power-vs-n").sweep[0] == "n"

    def test_values_and_comments(self, tmp_path):
        path = write(
            tmp_path,
            """
            m_antennas = 3          # transmit antennas
            n_elements = 16
            noise_power_dbm = -75
            snr_target_db = 15
            master_seed = 99
            schemes = joint,no_irs
            sweep = d:20,30,40
            user_position = 42, 0
            """,
        )
        cfg = parse_config(path)
        assert cfg.scenario.m_antennas == 3
        assert cfg.scenario.n_elements == 16
        assert cfg.scenario.noise_power_dbm == -75.0
        assert cfg.snr_target_db == 15.0
        assert cfg.master_seed == 99
        assert cfg.schemes == ("joint", "no_irs")
        assert cfg.sweep == ("d", (20.0, 30.0, 40.0))
        assert cfg.scenario.user_position == (42.0, 0.0)

    def test_sweep_ellipsis_expansion(self, tmp_path):
        cfg = parse_config(write(tmp_path, "sweep = d:20,25,...,55\n"))
        assert cfg.sweep == ("d", tuple(float(v) for v in range(20, 60, 5)))

    def test_sweep_ellipsis_bad_end_rejected(self, tmp_path):
        path = write(tmp_path, "sweep = d:20,25,...,53\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert exc.value.code is ConfigErrorCode.INVALID_VALUE

    def test_missing_file_error(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("/nonexistent/cfg.txt")
        assert exc.value.code is ConfigErrorCode.MISSING_FILE

    def test_unknown_key_error_carries_line(self, tmp_path):
        path = write(tmp_path, "m_antennas = 4\nbogus_key = 3\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert exc.value.code is ConfigErrorCode.UNKNOWN_KEY
        assert exc.value.line == 2
        assert "bogus_key" in str(exc.value)

    def test_type_mismatch_error(self, tmp_path):
        path = write(tmp_path, "m_antennas = five\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert exc.value.code is ConfigErrorCode.TYPE_MISMATCH
        assert exc.value.line == 1

    def test_invariant_violation_names_key(self, tmp_path):
        path = write(tmp_path, "n_elements = -1\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert exc.value.code is ConfigErrorCode.INVALID_VALUE
        assert "n_elements" in str(exc.value)

    def test_bad_syntax_error(self, tmp_path):
        path = write(tmp_path, "just some words\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert exc.value.code is ConfigErrorCode.BAD_SYNTAX

    def test_round_trip(self, tmp_path):
        path = write(
            tmp_path,
            "m_antennas = 2\nn_elements = 9\nsweep = n:5,10\nschemes = continuous\n"
            "master_seed = 7\nnoise_power_dbm = -77.5\n",
        )
        cfg = parse_config(path, experiment="power-vs-n")
        reparsed = parse_config(write(tmp_path, serialize_config(cfg), "round.txt"))
        assert reparsed == cfg


class TestRun:
    def _invocation(self, tmp_path, sub="power-vs-n", name="out.csv", **kw):
        cfg = write(
            tmp_path,
            "sweep = n:5,10\nn_realizations = 8\nmaster_seed = 7\n",
            name=f"cfg_{name}.txt",
        )
        return CliInvocation(
            subcommand=sub, config_path=cfg, out_path=str(tmp_path / name), **kw
        )

    def test_csv_byte_identical_across_runs(self, tmp_path):
        inv1 = self._invocation(tmp_path, name="a.csv", quiet=True)
        inv2 = self._invocation(tmp_path, name="b.csv", quiet=True)
        assert run(inv1) == 0
        assert run(inv2) == 0
        a = (tmp_path / "a.csv").read_bytes()
        b = (tmp_path / "b.csv").read_bytes()
        assert a == b
        assert a.startswith(b"sweep_value,scheme,metric_value,metric_unit,")

    def test_csv_identical_under_parallel_execution(self, tmp_path):
        inv1 = self._invocation(tmp_path, name="serial.csv", quiet=True, workers=1)
        inv4 = self._invocation(tmp_path, name="parallel.csv", quiet=True, workers=4)
        assert run(inv1) == 0
        assert run(inv4) == 0
        assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "parallel.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        base = self._invocation(tmp_path, name="c.csv", quiet=True)
        seeded = self._invocation(tmp_path, name="d.csv", quiet=True, seed_override=8)
        assert run(base) == 0
        assert run(seeded) == 0
        assert (tmp_path / "c.csv").read_bytes() != (tmp_path / "d.csv").read_bytes()

    def test_missing_config_file_is_exit_1(self, tmp_path):
        inv = CliInvocation(
            subcommand="power-vs-n",
            config_path=str(tmp_path / "absent.txt"),
            out_path=str(tmp_path / "x.csv"),
        )
        assert run(inv) == 1

    def test_interference_with_multiple_antennas_is_exit_1(self, tmp_path, capsys):
        cfg = write(tmp_path, "m_antennas = 5\nsweep = n:5,10\nn_realizations = 4\n")
        inv = CliInvocation(
            subcommand="interference-vs-n",
            config_path=cfg,
            out_path=str(tmp_path / "i.csv"),
            quiet=True,
        )
        assert run(inv) == 1
        assert "m_antennas = 1" in capsys.readouterr().err

    def test_readme_interference_command_runs_with_defaults(self, tmp_path):
        # irslink interference-vs-n --out interference.csv, at two realizations
        out = tmp_path / "interference.csv"
        inv = CliInvocation(
            subcommand="interference-vs-n", out_path=str(out), realizations_override=2,
            quiet=True,
        )
        assert run(inv) == 0
        assert out.read_text().count("phase_only") == 5

    def test_missing_out_path_is_exit_1(self, tmp_path):
        inv = CliInvocation(subcommand="power-vs-n", config_path=None)
        assert run(inv) == 1

    def test_unwritable_out_path_is_exit_2(self, tmp_path):
        cfg = write(tmp_path, "sweep = n:5,10\nn_realizations = 4\n")
        inv = CliInvocation(
            subcommand="power-vs-n",
            config_path=cfg,
            out_path=str(tmp_path / "missing_dir" / "out.csv"),
            quiet=True,
        )
        assert run(inv) == 2

    def test_summary_printed_unless_quiet(self, tmp_path, capsys):
        inv = self._invocation(tmp_path, name="e.csv")
        assert run(inv) == 0
        out = capsys.readouterr().out
        assert "continuous=" in out
        assert "wrote" in out
        inv_q = self._invocation(tmp_path, name="f.csv", quiet=True)
        assert run(inv_q) == 0
        assert capsys.readouterr().out == ""

    def test_solve_once_prints_solution(self, tmp_path, capsys):
        cfg = write(tmp_path, "master_seed = 5\nn_elements = 8\n")
        inv = CliInvocation(subcommand="solve-once", config_path=cfg)
        assert run(inv) == 0
        out = capsys.readouterr().out
        assert "w =" in out
        assert "reflection_phases_rad =" in out
        assert "gain_db =" in out
        assert "required_power_dbm =" in out

    def test_solve_once_deterministic(self, tmp_path, capsys):
        cfg = write(tmp_path, "master_seed = 5\n")
        inv = CliInvocation(subcommand="solve-once", config_path=cfg)
        run(inv)
        first = capsys.readouterr().out
        run(inv)
        assert capsys.readouterr().out == first


class TestMain:
    def test_main_runs_experiment(self, tmp_path, capsys):
        cfg = write(tmp_path, "sweep = n:4,8\nn_realizations = 5\n")
        out = tmp_path / "main.csv"
        code = main(
            [
                "power-vs-n",
                "--config", cfg,
                "--out", str(out),
                "--seed", "3",
                "--realizations", "6",
                "--quiet",
            ]
        )
        assert code == 0
        text = out.read_text()
        assert text.count("continuous") == 2
        assert ",6,3" in text  # realization and seed overrides recorded

    def test_main_rejects_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["not-a-command"])

    @pytest.mark.parametrize("sub, workers", [
        pytest.param("power-vs-n", "0", id="0"),
        pytest.param("power-vs-n", "-3", id="-3"),
        pytest.param("solve-once", "0", id="solve-once-0"),
        pytest.param("solve-once", "-3", id="solve-once--3"),
    ])
    def test_workers_below_one_is_exit_1(self, tmp_path, capsys, sub, workers):
        cfg = write(tmp_path, "sweep = n:4,8\nn_realizations = 2\n")
        out = tmp_path / "w.csv"
        argv = [sub, "--config", cfg, "--out", str(out), "--workers", workers]
        assert main(argv) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "runner", [run_power_vs_distance, run_power_vs_n, run_interference_vs_n]
    )
    def test_runners_reject_workers_below_one(self, runner):
        with pytest.raises(ConfigError, match="workers"):
            runner(ExperimentConfig(n_realizations=1), workers=0)

    def test_workers_flag_gives_identical_csv(self, tmp_path):
        cfg = write(tmp_path, "sweep = n:4,8\nn_realizations = 6\n")
        a, b = tmp_path / "w1.csv", tmp_path / "w4.csv"
        assert main(["power-vs-n", "--config", cfg, "--out", str(a), "--quiet"]) == 0
        assert main(
            ["power-vs-n", "--config", cfg, "--out", str(b), "--quiet", "--workers", "4"]
        ) == 0
        assert a.read_bytes() == b.read_bytes()


# Configuration mistakes: each must exit 1 before a study runs, not 0 with
# inf/nan rows, 2 with a runtime error, or an uncaught exception.
CONFIG_MISTAKES = [
    ("power-vs-distance", "noise_power_dbm = inf"),
    ("power-vs-distance", "snr_target_db = nan"),
    ("interference-vs-n", "interferer_power_dbm = inf"),
    ("power-vs-distance", "c0_db = nan"),
    ("power-vs-distance", "pl_exponent_bs_user = inf"),
    ("power-vs-distance", "sweep = d:0,10"),
    ("power-vs-distance", "n_elements = 0"),
    ("power-vs-distance", "sweep = d:50,50.000000001"),
    ("power-vs-distance", "sweep = d:20,25,...,inf"),
    ("power-vs-distance", "n_elements = 1000000000000"),
    ("power-vs-distance", "m_antennas = 1001"),
    ("power-vs-n", "sweep = n:100,10001"),
]


@pytest.mark.parametrize("sub, text", CONFIG_MISTAKES, ids=[t for _, t in CONFIG_MISTAKES])
def test_config_mistake_is_exit_1(tmp_path, capsys, sub, text):
    out = tmp_path / "x.csv"
    inv = CliInvocation(subcommand=sub, config_path=write(tmp_path, text + "\n"),
                        out_path=str(out), realizations_override=2, quiet=True)
    tracemalloc.start()
    try:
        assert run(inv) == 1
        # rejected before any channel array is allocated
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


SCHEME_NAMES = ("joint", "bs_user_mrt", "bs_irs_mrt", "no_irs", "continuous", "b1", "b2",
                "joint_amp_phase", "phase_only", "zf")
awkward = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e-300, 1e300, -1e300, 301.0, -301.0]),
)


def mostly(lo, hi):
    """Floats in [lo, hi] three times as often as awkward ones."""
    typical = st.floats(min_value=lo, max_value=hi)
    return st.one_of(typical, typical, typical, awkward)


# element counts stay small so that every example runs in milliseconds
counts = st.one_of(st.integers(min_value=1, max_value=12).map(float),
                   st.sampled_from([-1.0, 0.0, 2.5, math.inf, math.nan]))
d_values = st.lists(mostly(1.0, 100.0), min_size=1, max_size=4).map(sorted)
sweeps = st.one_of(
    d_values.map(lambda vs: "d:" + ",".join(repr(v) for v in vs)),
    st.lists(counts, min_size=1, max_size=3).map(lambda vs: "n:" + ",".join(map(repr, vs))),
    st.tuples(st.sampled_from("dn"), counts, counts, mostly(1.0, 100.0))
    .map(lambda s: f"{s[0]}:{s[1]!r},{s[2]!r},...,{s[3]!r}"),
    st.sampled_from(["d:", "q:1,2", "d:50,50.000000001", "d:20,10"]),
)
points = st.tuples(mostly(-60.0, 60.0), mostly(-60.0, 60.0)).map(lambda p: f"{p[0]!r},{p[1]!r}")
config_lines = st.fixed_dictionaries(
    {},
    optional={
        **{k: mostly(1.5, 4.0).map(repr)
           for k in ("pl_exponent_bs_irs", "pl_exponent_bs_user", "pl_exponent_irs_user")},
        "c0_db": mostly(-40.0, -20.0).map(repr),
        "noise_power_dbm": mostly(-110.0, -60.0).map(repr),
        "antenna_spacing_wavelengths": mostly(0.1, 2.0).map(repr),
        "snr_target_db": mostly(0.0, 30.0).map(repr),
        "interferer_power_dbm": mostly(0.0, 40.0).map(repr),
        **{k: points for k in ("bs_position", "irs_position", "user_position")},
        "m_antennas": st.sampled_from(["1", "1", "3", "0"]),
        "n_elements": st.sampled_from(["0", "1", "6", "12", "-1"]),
        "master_seed": st.sampled_from(["0", "7", str((1 << 64) - 1), "-1", str(1 << 64)]),
        "schemes": st.lists(st.sampled_from(SCHEME_NAMES), max_size=3).map(",".join),
        "sweep": sweeps,
    },
)


@given(
    sub=st.sampled_from(["power-vs-distance", "power-vs-n", "interference-vs-n"]),
    lines=config_lines,
    realizations=st.sampled_from([1, 2, 2, 0]),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_fuzz_exit_0_means_finite_sorted_csv_else_exit_1(sub, lines, realizations):
    text = "".join(f"{k} = {v}\n" for k, v in lines.items())
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "fuzz.cfg", Path(tmp) / "fuzz.csv"
        cfg.write_text(text)
        code = run(CliInvocation(subcommand=sub, config_path=str(cfg), out_path=str(out),
                                 realizations_override=realizations, quiet=True, workers=1))
        assert code in (0, 1), text
        if code == 1:
            assert not out.exists()
            return
        header, *rows = out.read_text().splitlines()
    assert header == ExperimentResult.CSV_HEADER
    keys = []
    for row in rows:
        sweep_value, scheme, metric, *_ = row.split(",")
        assert math.isfinite(float(sweep_value)) and math.isfinite(float(metric)), row
        keys.append((float(sweep_value), scheme))
    assert keys == sorted(set(keys)), text
