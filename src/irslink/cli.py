"""Command-line front end: flat key=value configs, CSV output.

Subcommands: power-vs-distance, power-vs-n, interference-vs-n (Monte
Carlo studies writing CSV) and solve-once (single realization, printed
for inspection).  The config file is read as UTF-8, up to 256 KiB, and a
leading byte-order mark is skipped.  Exit codes: 0 success, 1
configuration error (a command-line mistake, or a config file that
cannot be read or breaks a rule), 2 runtime error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .beamforming import alternating_optimize, min_power_for_snr
from .channel import ScenarioConfig, realize
from .experiments import (
    STUDIES,
    ConfigError,
    ConfigErrorCode,
    ExperimentConfig,
    ExperimentResult,
    run_interference_vs_n,
    run_power_vs_distance,
    run_power_vs_n,
)
from .numerics import SeededRng
from .reflection import ConstraintSet

_MAX_SWEEP_STEPS = 10_000
# the largest config file read; a longer one, such as /dev/zero, is refused
# rather than read until memory runs out
_MAX_CONFIG_BYTES = 1 << 18


@dataclass(frozen=True)
class CliInvocation:
    subcommand: str
    config_path: str | None = None
    out_path: str | None = None
    seed_override: int | None = None
    realizations_override: int | None = None
    quiet: bool = False
    workers: int = 1


def _number(text: str, key: str, line: int, kind: type = float):
    """``text`` as a ``kind``: an int, a float, or for ``tuple`` an 'x,y'
    point of floats.  Anything else is a TYPE_MISMATCH on ``line``."""
    try:
        if kind is tuple:
            x, y = text.split(",")
            return (float(x), float(y))
        return kind(text)
    except ValueError:
        noun = {int: "an integer", float: "a number", tuple: "'x,y'"}[kind]
        raise ConfigError(
            ConfigErrorCode.TYPE_MISMATCH, f"{key} expects {noun}, got {text!r}", line
        ) from None


def _parse_sweep(text: str, line: int) -> tuple[str, tuple[float, ...]]:
    if ":" not in text:
        raise ConfigError(
            ConfigErrorCode.TYPE_MISMATCH, f"sweep needs 'name:v1,v2,...', got {text!r}", line
        )
    name, _, rest = text.partition(":")
    name = name.strip().lower()
    tokens = (tok.strip() for tok in rest.split(",") if tok.strip())
    values: list[float] = []
    for tok in tokens:
        if tok != "...":
            values.append(_number(tok, "sweep", line))
            continue
        # arithmetic continuation: needs two prior values and one after
        end_text = next(tokens, None)
        if len(values) < 2 or end_text is None:
            raise ConfigError(
                ConfigErrorCode.TYPE_MISMATCH,
                "'...' needs two values before it and an end value after it",
                line,
            )
        step = values[-1] - values[-2]
        end = _number(end_text, "sweep", line)
        if step <= 0 or end <= values[-1]:
            raise ConfigError(
                ConfigErrorCode.INVALID_VALUE, "'...' continuation must ascend", line
            )
        n_steps = (end - values[-1]) / step
        if not n_steps <= _MAX_SWEEP_STEPS:
            raise ConfigError(
                ConfigErrorCode.INVALID_VALUE,
                f"'...' would add {n_steps:g} values; at most {_MAX_SWEEP_STEPS} allowed",
                line,
            )
        if abs(n_steps - round(n_steps)) > 1e-9:
            raise ConfigError(
                ConfigErrorCode.INVALID_VALUE,
                f"end value {end:g} is not reachable with step {step:g}",
                line,
            )
        # the k-th new value is last + k * step, so that rounding does
        # not build up, and the final one is the end as written
        last = values[-1]
        values.extend(last + k * step for k in range(1, int(round(n_steps))))
        values.append(end)
    return name, tuple(values)


def parse_config(path: str | None, experiment: str | None = None) -> ExperimentConfig:
    """Parse a flat key=value config file into an ExperimentConfig.

    The file is read as UTF-8, and at most 256 KiB of it; a leading byte-order mark is
    skipped.  Lines are 'key = value'; '#' starts a comment; a key may be set only once.
    The keys are the fields of ``ScenarioConfig`` and those of ``ExperimentConfig`` but
    ``scenario``; each value parses as the type of its field's default (a tuple as an 'x,y'
    point), except ``sweep`` and ``schemes``.  Unset keys keep the experiment's defaults in
    ``STUDIES``.
    """
    defaults = STUDIES.get(experiment, STUDIES["power-vs-distance"]).defaults
    scen_defaults = {f.name: f.default for f in fields(ScenarioConfig)}
    top_defaults = {f.name: f.default for f in fields(ExperimentConfig) if f.name != "scenario"}
    scen_kwargs: dict = {}
    top_kwargs: dict = {}

    if path is not None:
        try:
            with open(path, "rb") as fh:
                data = fh.read(_MAX_CONFIG_BYTES + 1)
            if len(data) > _MAX_CONFIG_BYTES:
                raise ConfigError(
                    ConfigErrorCode.BAD_SYNTAX, f"config file {path} is larger than 256 KiB"
                )
            # not "utf-8-sig": it would count a bad byte's offset from after the mark
            text = data.decode("utf-8").removeprefix("\ufeff")
        except OSError as exc:
            raise ConfigError(
                ConfigErrorCode.MISSING_FILE, f"cannot read config file {path}: {exc.strerror}"
            ) from None
        except UnicodeDecodeError as exc:
            raise ConfigError(
                ConfigErrorCode.BAD_SYNTAX, f"config file {path} is not UTF-8: byte {exc.start}"
            ) from None
        first_line: dict[str, int] = {}  # the line that set each key
        for lineno, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(
                    ConfigErrorCode.BAD_SYNTAX, f"expected 'key = value', got {raw!r}", lineno
                )
            key, _, value = stripped.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key in first_line:
                raise ConfigError(
                    ConfigErrorCode.BAD_SYNTAX,
                    f"{key!r} is set twice; first on line {first_line[key]}",
                    lineno,
                )
            first_line[key] = lineno
            if key == "schemes":
                top_kwargs[key] = tuple(s.strip() for s in value.split(",") if s.strip())
            elif key == "sweep":
                top_kwargs[key] = _parse_sweep(value, lineno)
            elif key in scen_defaults:
                scen_kwargs[key] = _number(value, key, lineno, type(scen_defaults[key]))
            elif key in top_defaults:
                top_kwargs[key] = _number(value, key, lineno, type(top_defaults[key]))
            else:
                raise ConfigError(ConfigErrorCode.UNKNOWN_KEY, f"unknown key {key!r}", lineno)

    try:
        scenario = replace(defaults.scenario, **scen_kwargs)
    except ValueError as exc:
        raise ConfigError(ConfigErrorCode.INVALID_VALUE, str(exc)) from None
    return replace(defaults, scenario=scenario, **top_kwargs)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render a config as key=value text that reparses to an equal config."""
    settings = [(f.name, getattr(cfg.scenario, f.name)) for f in fields(ScenarioConfig)]
    settings += [(f.name, getattr(cfg, f.name)) for f in fields(ExperimentConfig)
                 if f.name != "scenario"]
    lines = []
    for key, value in settings:
        if key == "schemes":
            text = ",".join(value)
        elif key == "sweep":
            text = f"{value[0]}:{','.join(repr(v) for v in value[1])}"
        elif isinstance(value, tuple):
            text = ",".join(repr(v) for v in value)
        else:
            text = repr(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def _summarize(result: ExperimentResult) -> list[str]:
    by_sweep: dict[float, list[str]] = {}
    for row in sorted(result.rows, key=lambda r: (r.sweep_value, r.scheme)):
        by_sweep.setdefault(row.sweep_value, []).append(
            f"{row.scheme}={row.metric_value:.6f} {row.metric_unit}"
        )
    name_width = max((len(f"{v:g}") for v in by_sweep), default=1)
    return [f"{v:>{name_width}g}: " + "  ".join(parts) for v, parts in sorted(by_sweep.items())]


def _solve_once(cfg: ExperimentConfig) -> int:
    ch = realize(cfg.scenario, SeededRng(cfg.master_seed, 0))
    sol = alternating_optimize(ch, ConstraintSet.ideal_continuous())
    power = min_power_for_snr(sol.gain_linear, cfg.snr_target_db, cfg.scenario.noise_power_dbm)
    print(f"seed = {cfg.master_seed}")
    print("w =", " ".join(f"{x.real:+.6f}{x.imag:+.6f}j" for x in sol.w))
    phases = np.angle(sol.refl.coefficients)
    print("reflection_phases_rad =", " ".join(f"{p:.6f}" for p in phases))
    print(f"gain_linear = {sol.gain_linear:.6e}")
    print(f"gain_db = {10 * math.log10(sol.gain_linear):.6f}")
    print(f"required_power_dbm = {power:.6f}")
    print(f"iterations = {len(sol.trace)}")
    return 0


def run(inv: CliInvocation) -> int:
    """Execute one invocation; returns the process exit code."""
    try:
        if inv.subcommand not in (*STUDIES, "solve-once"):
            raise ConfigError(ConfigErrorCode.INVALID_VALUE, f"unknown subcommand {inv.subcommand!r}")
        cfg = parse_config(inv.config_path, experiment=inv.subcommand)
        # both overrides in one replace: one more validation, not one per override
        overrides = {"master_seed": inv.seed_override, "n_realizations": inv.realizations_override}
        overrides = {key: value for key, value in overrides.items() if value is not None}
        if overrides:
            cfg = replace(cfg, **overrides)
        if inv.subcommand != "solve-once" and inv.out_path is None:
            raise ConfigError(ConfigErrorCode.INVALID_VALUE, "--out is required for experiment subcommands")
        if inv.workers < 1:
            raise ConfigError(ConfigErrorCode.INVALID_VALUE, f"workers must be >= 1, got {inv.workers}")
        if inv.subcommand == "solve-once":
            return _solve_once(cfg)
        # built at call time from this module's names, so that a wrapper bound
        # in a runner's place (the benchmark's tracer) is what runs
        runner = {"power-vs-distance": run_power_vs_distance, "power-vs-n": run_power_vs_n,
                  "interference-vs-n": run_interference_vs_n}[inv.subcommand]
        result = runner(cfg, workers=inv.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure: report and signal exit 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2

    try:
        result.write_csv(inv.out_path)
    except OSError as exc:
        print(f"runtime error: cannot write {inv.out_path}: {exc}", file=sys.stderr)
        return 2
    if not inv.quiet:
        for line in _summarize(result):
            print(line)
        print(f"wrote {inv.out_path}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # a command-line mistake is a configuration error: exit 1, not 2
        self.print_usage(sys.stderr)
        self.exit(1, f"config error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="irslink",
        description="Link-level studies of a passive reflecting surface",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in tuple(STUDIES) + ("solve-once",):
        sp = sub.add_parser(name)
        sp.add_argument("--config", dest="config_path", default=None, help="key=value config file")
        sp.add_argument("--out", dest="out_path", default=None, help="output CSV path")
        sp.add_argument("--seed", dest="seed_override", metavar="SEED", type=int, default=None,
                        help="master seed override")
        sp.add_argument(
            "--realizations", dest="realizations_override", metavar="REALIZATIONS", type=int,
            default=None, help="realization count override",
        )
        sp.add_argument("--quiet", action="store_true", help="suppress the summary printout")
        sp.add_argument("--workers", type=int, default=1,
                        help="shards realizations over forked processes on Linux (elsewhere "
                             "the study runs in process); output byte-identical")
    return parser


def main(argv: list[str] | None = None) -> int:
    return run(CliInvocation(**vars(_build_parser().parse_args(argv))))


if __name__ == "__main__":
    sys.exit(main())
