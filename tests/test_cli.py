import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irslink import cli, experiments
from irslink.channel import ScenarioConfig
from irslink.cli import (
    _MAX_CONFIG_BYTES,
    CliInvocation,
    main,
    parse_config,
    run,
    serialize_config,
)
from irslink.experiments import (
    STUDIES,
    ConfigError,
    ConfigErrorCode,
    ExperimentConfig,
    ExperimentResult,
    run_interference_vs_n,
    run_power_vs_distance,
    run_power_vs_n,
)


def keyed(cfg):
    """Every config key of ``cfg`` and its value: the fields of
    ScenarioConfig and those of ExperimentConfig but ``scenario``."""
    out = {f.name: getattr(cfg.scenario, f.name) for f in fields(ScenarioConfig)}
    out.update((f.name, getattr(cfg, f.name)) for f in fields(ExperimentConfig)
               if f.name != "scenario")
    return out


def run_python(*args):
    """``python *args`` in a fresh process that imports irslink from this
    checkout's ``src``; fails unless it exits 0."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)


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

    def test_sweep_two_continuations(self, tmp_path):
        # the second '...' steps from the value written after the first's end
        cfg = parse_config(write(tmp_path, "sweep = d:1,2,...,4,6,...,10\n"))
        assert cfg.sweep == ("d", (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0))

    @pytest.mark.parametrize("text, count, end", [
        ("d:20.1,20.2,...,21", 10, 21.0),
        ("d:0.1,0.2,...,0.9", 9, 0.9),
    ])
    def test_sweep_ellipsis_ends_on_the_written_value(self, tmp_path, text, count, end):
        name, values = parse_config(write(tmp_path, f"sweep = {text}\n")).sweep
        assert name == "d" and len(values) == count
        assert values[-1] == end
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_key_set_twice_rejected_naming_the_first_line(self, tmp_path):
        path = write(tmp_path, "n_elements = 40\nm_antennas = 2\nN_Elements = 80\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert exc.value.code is ConfigErrorCode.BAD_SYNTAX
        assert exc.value.line == 3
        assert "n_elements" in str(exc.value) and "line 1" in exc.value.message

    def test_sweep_ellipsis_bad_end_rejected(self, tmp_path):
        path = write(tmp_path, "sweep = d:20,25,...,53\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert exc.value.code is ConfigErrorCode.INVALID_VALUE

    def test_missing_file_error(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("/nonexistent/cfg.txt")
        assert exc.value.code is ConfigErrorCode.MISSING_FILE

    def test_directory_error_names_path_and_reason(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            parse_config(str(tmp_path))
        assert exc.value.code is ConfigErrorCode.MISSING_FILE
        assert str(tmp_path) in exc.value.message and "directory" in exc.value.message

    def test_non_utf8_file_error(self, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes("n_elements = 40  # caf\u00e9\n".encode("latin-1"))
        with pytest.raises(ConfigError) as exc:
            parse_config(str(path))
        assert exc.value.code is ConfigErrorCode.BAD_SYNTAX
        assert "UTF-8" in exc.value.message

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        text = "m_antennas = 4\nsweep = d:30,40\n"
        plain = parse_config(write(tmp_path, text, "plain.cfg"))
        path = tmp_path / "bom.cfg"
        path.write_bytes(("\ufeff" + text).encode("utf-8"))
        assert parse_config(str(path)) == plain
        # only a leading mark: one later in the file is part of a key
        path.write_bytes("m_antennas = 4\n\ufeffsweep = d:30,40\n".encode("utf-8"))
        with pytest.raises(ConfigError) as exc:
            parse_config(str(path))
        assert exc.value.code is ConfigErrorCode.UNKNOWN_KEY and exc.value.line == 2

    def test_bad_byte_after_a_byte_order_mark_counts_from_the_file_start(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbfn_elements = 40\n\xff\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(str(path))
        assert exc.value.code is ConfigErrorCode.BAD_SYNTAX
        assert exc.value.message.endswith("is not UTF-8: byte 19")

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

    @pytest.mark.parametrize("text", [
        "bs_position = 1.5,east",
        "bs_position = 1,2,3",
        "sweep = d:10,far",
        "sweep = d:10,20,...,far",
        "m_antennas = 2.5",
        "master_seed = 0x10",
        "snr_target_db = high",
    ])
    def test_every_number_mismatch_carries_its_line(self, tmp_path, text):
        path = write(tmp_path, f"# comment\n{text}\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert exc.value.code is ConfigErrorCode.TYPE_MISMATCH
        assert exc.value.line == 2
        assert text.partition(" = ")[0] in exc.value.message

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
            "bs_position = 1.5,-0.5\nirs_position = 45.25,3.5\nuser_position = 48.5,0.75\n"
            "m_antennas = 2\nn_elements = 9\npl_exponent_bs_irs = 2.1\n"
            "pl_exponent_bs_user = 3.3\npl_exponent_irs_user = 2.9\nc0_db = -31.5\n"
            "noise_power_dbm = -77.5\nantenna_spacing_wavelengths = 0.25\n"
            "snr_target_db = 12.5\ninterferer_power_dbm = 27.5\nn_realizations = 17\n"
            "master_seed = 7\nschemes = continuous,b2\nsweep = n:5,10\n",
        )
        cfg = parse_config(path, experiment="power-vs-n")
        values, defaults = keyed(cfg), keyed(parse_config(None, experiment="power-vs-n"))
        # every key is set, and to a value that is not its default
        assert [k for k in values if values[k] == defaults[k]] == []
        text = serialize_config(cfg)
        assert {line.partition(" = ")[0] for line in text.splitlines()} == set(values)
        reparsed = parse_config(write(tmp_path, text, "round.txt"))
        assert reparsed == cfg

    def test_parsing_leaves_numpy_random_unloaded(self, tmp_path):
        # numpy's random module is never imported on a study's path: parsing,
        # every study with one worker and with two forked shards, realize and
        # solve-once.  Importing it (and secrets, which it imports) would add
        # its time and memory to every process, also to each forked shard.
        # np.unique and np.isin import numpy.ma, as costly, so that is
        # refused too.  -X importtime reports each import to stderr, which
        # forked shards share, so a shard's import fails this as well.  Each
        # study starts a shard for any work, so that the 2-worker runs fork
        code = (
            "import contextlib, io, sys\n"
            "import irslink, irslink.cli\n"
            "from irslink.experiments import STUDIES\n"
            "STUDIES.update({k: s._replace(shard_work=1) for k, s in STUDIES.items()})\n"
            "from irslink.channel import ScenarioConfig, realize\n"
            "for study in irslink.experiments.STUDIES:\n"
            "    irslink.cli.parse_config(None, experiment=study)\n"
            "print('numpy.random' in sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for study in irslink.experiments.STUDIES:\n"
            "        for workers in ('1', '2'):\n"
            "            assert irslink.cli.main([study, '--realizations', '8', '--workers', workers,\n"
            "                                     '--quiet', '--out', sys.argv[1]]) == 0\n"
            "    assert irslink.cli.main(['solve-once']) == 0\n"
            "    realize(ScenarioConfig(), irslink.SeededRng(7, 3))\n"
            "print(sorted(m for m in ('numpy.random', 'secrets', 'numpy.ma') if m in sys.modules))\n"
        )
        done = run_python("-X", "importtime", "-c", code, str(tmp_path / "out.csv"))
        assert done.stdout.split("\n") == ["False", "[]", ""]
        imported = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "irslink.experiments" in imported
        refused = [["secrets"], ["numpy", "random"], ["numpy", "ma"]]
        assert sorted(m for m in imported if m.split(".")[:2] in refused) == []

    def test_a_study_loads_no_module(self, tmp_path):
        # once irslink.cli is imported and a config parsed, as a study's
        # process has them before its clock starts, running a study with one
        # worker imports nothing more: an import inside the study (such as
        # the codec of a text file opened as 'ascii') costs its time in
        # every process.  run, not main: argparse loads gettext and locale
        code = (
            "import sys\n"
            "import irslink.cli\n"
            "from irslink.experiments import STUDIES\n"
            "irslink.cli.parse_config(None, experiment='power-vs-n')\n"
            "loaded = set(sys.modules)\n"
            "for study in STUDIES:\n"
            "    inv = irslink.cli.CliInvocation(study, out_path=sys.argv[1], quiet=True,\n"
            "                                    realizations_override=8)\n"
            "    assert irslink.cli.run(inv) == 0\n"
            "print(sorted(set(sys.modules) - loaded))\n"
        )
        assert run_python("-c", code, str(tmp_path / "out.csv")).stdout == "[]\n"


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

    def test_unknown_subcommand_is_exit_1(self, tmp_path, capsys):
        # main refuses it in argparse; run is also called directly
        inv = self._invocation(tmp_path, sub="power-vs-m", name="m.csv")
        assert run(inv) == 1
        assert "config error: [invalid_value] unknown subcommand 'power-vs-m'" in (
            capsys.readouterr().err)
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("workers", ["2", True, 2.0])
    def test_non_integer_workers_is_exit_1(self, tmp_path, capsys, workers):
        # run is called directly, where no argparse has read the count
        inv = self._invocation(tmp_path, sub="solve-once", workers=workers)
        assert run(inv) == 1
        assert "config error: [invalid_value] workers must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("user_position = 0,0", "coincident bs/user positions: (0.0, 0.0) / (0.0, 0.0)"),
        ("sweep = d:0,10", "sweep value d = 0: coincident bs/user positions: (0.0, 0.0) / (0.0, 0.0)"),
    ])
    def test_scenario_refusal_prints_one_code(self, tmp_path, capsys, text, message):
        # the scenario raises ConfigError itself; the sweep adds only its value
        out = tmp_path / "x.csv"
        inv = CliInvocation("power-vs-distance", write(tmp_path, text + "\n"), str(out))
        assert run(inv) == 1
        assert capsys.readouterr().err == f"config error: [invalid_value] {message}\n"
        assert not out.exists()

    def test_csv_identical_under_parallel_execution(self, tmp_path, shard_any_work):
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

    def test_study_failure_is_exit_2(self, tmp_path, monkeypatch, capsys):
        # a failure inside a study that is not a config mistake
        def metric(*args):
            raise FloatingPointError("metric failed")

        monkeypatch.setitem(STUDIES, "power-vs-n", STUDIES["power-vs-n"]._replace(metric=metric))
        inv = self._invocation(tmp_path, name="failed.csv", quiet=True)
        assert run(inv) == 2
        assert "runtime error: metric failed" in capsys.readouterr().err
        assert not (tmp_path / "failed.csv").exists()

    def test_summary_printed_unless_quiet(self, tmp_path, capsys):
        inv = self._invocation(tmp_path, name="e.csv")
        assert run(inv) == 0
        out = capsys.readouterr().out
        assert "continuous=" in out
        assert "wrote" in out
        inv_q = self._invocation(tmp_path, name="f.csv", quiet=True)
        assert run(inv_q) == 0
        assert capsys.readouterr().out == ""

    def test_negative_zero_sweep_value_prints_as_zero(self, tmp_path, capsys):
        outputs = []
        for sweep in ("-0", "0"):
            cfg = write(tmp_path, f"sweep = n:{sweep},20\nn_realizations = 4\n")
            out = tmp_path / f"{sweep}.csv"
            assert run(CliInvocation("interference-vs-n", cfg, str(out))) == 0
            outputs.append((out.read_text(), capsys.readouterr().out.replace(str(out), "")))
        assert outputs[0] == outputs[1]
        csv, summary = outputs[0]
        assert [row.split(",")[0] for row in csv.splitlines()[1:]] == ["0"] * 3 + ["20"] * 3
        assert summary.startswith(" 0: ")

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

    def test_help_names_the_override_values(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["power-vs-n", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--seed SEED" in out and "--realizations REALIZATIONS" in out

    def test_main_rejects_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["not-a-command"])
        assert exc.value.code == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--seed", "abc"], ["--workers", "1.5"], ["--realizations", "ten"], ["--bogus"],
    ], ids=" ".join)
    def test_command_line_mistake_is_exit_1(self, tmp_path, capsys, flags):
        out = tmp_path / "m.csv"
        with pytest.raises(SystemExit) as exc:
            main(["power-vs-distance", "--out", str(out), *flags])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: irslink") and "config error: " in err
        assert not out.exists()

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
    def test_runners_reject_workers_below_one(self, monkeypatch, shard_any_work, runner):
        # a study that two CPUs would shard, so that each value is refused
        # before the shard count, where 2.0 and 1.5 would meet range(), "2"
        # would meet < and True would run as one worker
        study = {run_power_vs_distance: "power-vs-distance", run_power_vs_n: "power-vs-n",
                 run_interference_vs_n: "interference-vs-n"}[runner]
        cfg = replace(STUDIES[study].defaults, n_realizations=2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for workers in (0, 2.0, 1.5, "2", True):
            with pytest.raises(ConfigError, match="workers") as caught:
                runner(cfg, workers=workers)
            assert caught.value.code is ConfigErrorCode.INVALID_VALUE

    @pytest.mark.parametrize("sub", ["power-vs-distance", "power-vs-n", "interference-vs-n"])
    @pytest.mark.parametrize("flags, validations", [
        pytest.param(["--seed", "7", "--realizations", "3"], 2, id="both"),
        pytest.param(["--seed", "7"], 2, id="seed"),
        pytest.param(["--realizations", "3"], 2, id="realizations"),
        pytest.param([], 1, id="neither"),
    ])
    def test_overrides_add_one_validation(self, tmp_path, monkeypatch, sub, flags, validations):
        # parse_config validates the config once, and the overrides, if any,
        # are applied together: one more validation, not one per override
        validated = []
        post_init = ExperimentConfig.__post_init__

        def counted(cfg):
            validated.append(cfg)
            post_init(cfg)

        monkeypatch.setattr(ExperimentConfig, "__post_init__", counted)
        out = tmp_path / "v.csv"
        argv = [sub, "--config", write(tmp_path, "n_realizations = 2\n"), "--out", str(out)]
        assert main(argv + ["--quiet"] + flags) == 0
        assert len(validated) == validations
        row = out.read_text().splitlines()[1].split(",")
        assert row[-2:] == ["3" if "--realizations" in flags else "2",
                            "7" if "--seed" in flags else "1"]

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("sub", ["power-vs-distance", "power-vs-n", "interference-vs-n"])
    @pytest.mark.parametrize("flags, validations", [
        pytest.param(["--seed", "7", "--realizations", "24"], 2, id="overrides"),
        pytest.param([], 1, id="neither"),
    ])
    def test_each_config_expands_its_sweep_once(self, tmp_path, monkeypatch, shard_any_work,
                                                 workers, sub, flags, validations):
        # each validated config builds its sweep's scenarios once and keeps
        # them; the run builds each sweep value's links once, before its
        # shards start, and no shard builds either again.  The spies append
        # to a file, so that forked shards are counted too
        calls = tmp_path / "calls"
        spied = {"ExperimentConfig": (ExperimentConfig, "__post_init__"),
                 "ScenarioConfig": (ScenarioConfig, "__post_init__"),
                 "sweep": (experiments, "_sweep_scenarios"),
                 "links": (experiments, "scenario_links")}
        for key, (owner, name) in spied.items():
            def spy(*args, key=key, real=getattr(owner, name)):
                with open(calls, "a") as fh:
                    fh.write(key + "\n")
                return real(*args)

            monkeypatch.setattr(owner, name, spy)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        argv = [sub, "--config", write(tmp_path, "n_realizations = 12\n"), "--quiet",
                "--out", str(tmp_path / "s.csv"), "--workers", workers]
        assert main(argv + flags) == 0
        made = calls.read_text().split()
        # one ScenarioConfig for the config file's scenario, one per sweep
        # value and validation
        sweep = len(STUDIES[sub].defaults.sweep[1])
        assert {key: made.count(key) for key in spied} == {
            "ExperimentConfig": validations, "ScenarioConfig": 1 + validations * sweep,
            "sweep": validations, "links": sweep}

    @pytest.mark.parametrize("sub", ["power-vs-distance", "power-vs-n", "interference-vs-n"])
    def test_run_calls_the_public_runner_bound_in_cli(self, tmp_path, monkeypatch, sub):
        # perfbench's tracer times a study by wrapping the public runner
        # under every module name bound to it, the CLI's included
        name = "run_" + sub.replace("-", "_")
        real, calls = getattr(cli, name), []

        def spy(cfg, workers):
            calls.append(workers)
            return real(cfg, workers=workers)

        monkeypatch.setattr(cli, name, spy)
        argv = [sub, "--config", write(tmp_path, "n_realizations = 2\n"), "--quiet",
                "--out", str(tmp_path / "r.csv"), "--workers", "2"]
        assert main(argv) == 0
        assert calls == [2]

    def test_workers_flag_gives_identical_csv(self, tmp_path, shard_any_work):
        cfg = write(tmp_path, "sweep = n:4,8\nn_realizations = 6\n")
        a, b = tmp_path / "w1.csv", tmp_path / "w4.csv"
        assert main(["power-vs-n", "--config", cfg, "--out", str(a), "--quiet"]) == 0
        assert main(
            ["power-vs-n", "--config", cfg, "--out", str(b), "--quiet", "--workers", "4"]
        ) == 0
        assert a.read_bytes() == b.read_bytes()


# Configuration mistakes: each must exit 1 before a study runs, not 0 with
# inf/nan rows, 2 with a runtime error, or an uncaught exception; and with
# its own code, not a later check's.
INVALID, TYPE = ConfigErrorCode.INVALID_VALUE, ConfigErrorCode.TYPE_MISMATCH
CONFIG_MISTAKES = [
    ("power-vs-distance", "noise_power_dbm = inf", INVALID),
    ("power-vs-distance", "snr_target_db = nan", INVALID),
    ("interference-vs-n", "interferer_power_dbm = inf", INVALID),
    ("power-vs-distance", "c0_db = nan", INVALID),
    ("power-vs-distance", "pl_exponent_bs_user = inf", INVALID),
    ("power-vs-distance", "sweep = d:0,10", INVALID),
    ("power-vs-distance", "n_elements = 0", INVALID),
    ("power-vs-distance", "sweep = d:50,50.000000001", INVALID),
    ("power-vs-distance", "sweep = d:20,25,...,inf", INVALID),
    ("power-vs-distance", "n_elements = 1000000000000", INVALID),
    ("power-vs-distance", "m_antennas = 1001", INVALID),
    ("power-vs-n", "sweep = n:100,10001", INVALID),
    ("power-vs-distance", "n_elements = 40\nn_elements = 80", ConfigErrorCode.BAD_SYNTAX),
    ("power-vs-distance", "schemes = joint,joint", INVALID),
    ("power-vs-distance", "user_position = nan,0", INVALID),
    ("power-vs-distance", "antenna_spacing_wavelengths = inf", INVALID),
    # one antenna: the direct-link gain |h_d|^2 has an inverse without a mean
    ("power-vs-distance", "m_antennas = 1", INVALID),
    ("power-vs-distance", "m_antennas = 1\nschemes = no_irs", INVALID),
    ("power-vs-distance", "m_antennas = 1\nn_elements = 0\nschemes = joint", INVALID),
    ("power-vs-distance", "m_antennas = 1\nn_elements = 0\nschemes = bs_user_mrt", INVALID),
    # a sweep without ':', '...' without two values before it or one after, no values
    ("power-vs-distance", "sweep = d20,30", TYPE),
    ("power-vs-distance", "sweep = d:20,...,40", TYPE),
    ("power-vs-distance", "sweep = d:20,25,...", TYPE),
    ("power-vs-n", "sweep = n:", INVALID),
]


def assert_rejected_early(tmp_path, capsys, sub, config_path):
    """run() exits 1 with a config error and no CSV, under 1 MiB allocated;
    the error as printed."""
    out = tmp_path / "x.csv"
    inv = CliInvocation(subcommand=sub, config_path=config_path,
                        out_path=str(out), realizations_override=2, quiet=True)
    tracemalloc.start()
    try:
        assert run(inv) == 1
        # rejected before any channel array is allocated
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert "config error" in err
    assert not out.exists()
    return err


@pytest.mark.parametrize("sub, text, code", CONFIG_MISTAKES,
                         ids=[text for _, text, _ in CONFIG_MISTAKES])
def test_config_mistake_is_exit_1(tmp_path, capsys, sub, text, code):
    err = assert_rejected_early(tmp_path, capsys, sub, write(tmp_path, text + "\n"))
    assert f"[{code.value}]" in err


def padded_config(size):
    """A valid config of ``size`` bytes: one key, then a comment."""
    head = b"n_elements = 40\n#"
    return head + b"x" * (size - len(head))


UNREADABLE = ["non-utf8", "directory", "over-cap"] + (
    ["dev-zero"] if sys.platform.startswith("linux") else [])


@pytest.mark.parametrize("kind", UNREADABLE)
def test_unreadable_config_is_exit_1(tmp_path, capsys, kind):
    path = tmp_path / "cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "over-cap":
        path.write_bytes(padded_config(_MAX_CONFIG_BYTES + 1))
    elif kind == "dev-zero":
        path = "/dev/zero"  # endless
    else:
        path.write_bytes(b"n_elements = 40\n\xff\xfe\n")
    assert_rejected_early(tmp_path, capsys, "power-vs-distance", str(path))


def test_config_at_the_size_cap_is_read(tmp_path):
    path = tmp_path / "cfg"
    path.write_bytes(padded_config(_MAX_CONFIG_BYTES))
    assert parse_config(str(path)).scenario.n_elements == 40


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
