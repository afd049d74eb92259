"""Command-line front end: flat key=value configs, CSV output.

Subcommands: power-vs-distance, power-vs-n, interference-vs-n (Monte
Carlo studies writing CSV) and solve-once (single realization, printed
for inspection).  Exit codes: 0 success, 1 configuration error, 2 runtime
error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .beamforming import alternating_optimize, min_power_for_snr
from . import experiments
from .channel import realize
from .experiments import (
    STUDIES,
    ConfigError,
    ConfigErrorCode,
    ExperimentConfig,
    ExperimentResult,
)
from .numerics import SeededRng
from .reflection import ConstraintSet

_SCENARIO_FLOAT_KEYS = (
    "pl_exponent_bs_irs",
    "pl_exponent_bs_user",
    "pl_exponent_irs_user",
    "c0_db",
    "noise_power_dbm",
    "antenna_spacing_wavelengths",
)
_TOP_FLOAT_KEYS = ("snr_target_db", "interferer_power_dbm")
_MAX_SWEEP_STEPS = 10_000


@dataclass(frozen=True)
class CliInvocation:
    subcommand: str
    config_path: str | None = None
    out_path: str | None = None
    seed_override: int | None = None
    realizations_override: int | None = None
    quiet: bool = False
    workers: int = 1


def _parse_point(text: str, key: str, line: int) -> tuple[float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(ConfigErrorCode.TYPE_MISMATCH, f"{key} needs 'x,y', got {text!r}", line)
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ConfigError(ConfigErrorCode.TYPE_MISMATCH, f"{key}: {exc}", line) from None


def _parse_sweep(text: str, line: int) -> tuple[str, tuple[float, ...]]:
    if ":" not in text:
        raise ConfigError(
            ConfigErrorCode.TYPE_MISMATCH, f"sweep needs 'name:v1,v2,...', got {text!r}", line
        )
    name, _, rest = text.partition(":")
    name = name.strip().lower()
    tokens = [tok.strip() for tok in rest.split(",") if tok.strip()]
    values: list[float] = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == "...":
            # arithmetic continuation: needs two prior values and one after
            if len(values) < 2 or i + 1 >= len(tokens):
                raise ConfigError(
                    ConfigErrorCode.TYPE_MISMATCH,
                    "'...' needs two values before it and an end value after it",
                    line,
                )
            step = values[-1] - values[-2]
            try:
                end = float(tokens[i + 1])
            except ValueError:
                raise ConfigError(
                    ConfigErrorCode.TYPE_MISMATCH, f"bad sweep value {tokens[i + 1]!r}", line
                ) from None
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
            for _ in range(int(round(n_steps))):
                values.append(values[-1] + step)
            i += 2
            continue
        try:
            values.append(float(tok))
        except ValueError:
            raise ConfigError(ConfigErrorCode.TYPE_MISMATCH, f"bad sweep value {tok!r}", line) from None
        i += 1
    return name, tuple(values)


def parse_config(path: str | None, experiment: str | None = None) -> ExperimentConfig:
    """Parse a flat key=value config file into an ExperimentConfig.

    Lines are 'key = value'; '#' starts a comment.  Unset keys take the
    defaults (five transmit antennas, forty elements, exponents 2.2/3.2,
    -80 dBm noise, 20 dB target SNR); the experiment's entry in ``STUDIES``
    sets the sweep, schemes, realization count and scenario defaults.
    """
    study = STUDIES.get(experiment, STUDIES["power-vs-distance"])
    scen_kwargs: dict = {}
    top_kwargs: dict = dict(
        sweep=study.sweep, schemes=study.schemes, n_realizations=study.n_realizations
    )

    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(ConfigErrorCode.MISSING_FILE, f"config file not found: {path}")
        text = p.read_text(encoding="utf-8")
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
            try:
                if key in ("m_antennas", "n_elements"):
                    scen_kwargs[key] = _parse_int(key, value, lineno)
                elif key in _SCENARIO_FLOAT_KEYS:
                    scen_kwargs[key] = _parse_float(key, value, lineno)
                elif key in ("bs_position", "irs_position", "user_position"):
                    scen_kwargs[key] = _parse_point(value, key, lineno)
                elif key in _TOP_FLOAT_KEYS:
                    top_kwargs[key] = _parse_float(key, value, lineno)
                elif key in ("n_realizations", "master_seed"):
                    top_kwargs[key] = _parse_int(key, value, lineno)
                elif key == "schemes":
                    top_kwargs[key] = tuple(s.strip() for s in value.split(",") if s.strip())
                elif key == "sweep":
                    top_kwargs[key] = _parse_sweep(value, lineno)
                else:
                    raise ConfigError(ConfigErrorCode.UNKNOWN_KEY, f"unknown key {key!r}", lineno)
            except ValueError as exc:
                if isinstance(exc, ConfigError):
                    raise
                raise ConfigError(ConfigErrorCode.INVALID_VALUE, f"{key}: {exc}", lineno) from None

    try:
        scenario = replace(study.scenario, **scen_kwargs)
    except ValueError as exc:
        raise ConfigError(ConfigErrorCode.INVALID_VALUE, str(exc)) from None
    return ExperimentConfig(scenario=scenario, **top_kwargs)


def _parse_int(key: str, value: str, line: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(ConfigErrorCode.TYPE_MISMATCH, f"{key} expects an integer, got {value!r}", line) from None


def _parse_float(key: str, value: str, line: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(ConfigErrorCode.TYPE_MISMATCH, f"{key} expects a number, got {value!r}", line) from None


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render a config as key=value text that reparses to an equal config."""
    s = cfg.scenario
    lines = [
        f"bs_position = {s.bs_position[0]!r},{s.bs_position[1]!r}",
        f"irs_position = {s.irs_position[0]!r},{s.irs_position[1]!r}",
        f"user_position = {s.user_position[0]!r},{s.user_position[1]!r}",
        f"m_antennas = {s.m_antennas}",
        f"n_elements = {s.n_elements}",
        f"pl_exponent_bs_irs = {s.pl_exponent_bs_irs!r}",
        f"pl_exponent_bs_user = {s.pl_exponent_bs_user!r}",
        f"pl_exponent_irs_user = {s.pl_exponent_irs_user!r}",
        f"c0_db = {s.c0_db!r}",
        f"noise_power_dbm = {s.noise_power_dbm!r}",
        f"antenna_spacing_wavelengths = {s.antenna_spacing_wavelengths!r}",
        f"snr_target_db = {cfg.snr_target_db!r}",
        f"interferer_power_dbm = {cfg.interferer_power_dbm!r}",
        f"n_realizations = {cfg.n_realizations}",
        f"master_seed = {cfg.master_seed}",
        f"schemes = {','.join(cfg.schemes)}",
        f"sweep = {cfg.sweep[0]}:{','.join(repr(v) for v in cfg.sweep[1])}",
    ]
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
        cfg = parse_config(inv.config_path, experiment=inv.subcommand)
        if inv.seed_override is not None:
            cfg = replace(cfg, master_seed=inv.seed_override)
        if inv.realizations_override is not None:
            cfg = replace(cfg, n_realizations=inv.realizations_override)
        if inv.subcommand != "solve-once" and inv.out_path is None:
            raise ConfigError(ConfigErrorCode.INVALID_VALUE, "--out is required for experiment subcommands")
        if inv.workers < 1:
            raise ConfigError(ConfigErrorCode.INVALID_VALUE, f"workers must be >= 1, got {inv.workers}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if inv.subcommand == "solve-once":
            return _solve_once(cfg)
        runner = getattr(experiments, STUDIES[inv.subcommand].runner)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irslink",
        description="Link-level studies of a passive reflecting surface",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in tuple(STUDIES) + ("solve-once",):
        sp = sub.add_parser(name)
        sp.add_argument("--config", dest="config_path", default=None, help="key=value config file")
        sp.add_argument("--out", dest="out_path", default=None, help="output CSV path")
        sp.add_argument("--seed", dest="seed", type=int, default=None, help="master seed override")
        sp.add_argument(
            "--realizations", dest="realizations", type=int, default=None,
            help="realization count override",
        )
        sp.add_argument("--quiet", action="store_true", help="suppress the summary printout")
        sp.add_argument("--workers", type=int, default=1,
                        help="shards realizations over processes; output byte-identical")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    inv = CliInvocation(
        subcommand=args.subcommand,
        config_path=args.config_path,
        out_path=args.out_path,
        seed_override=args.seed,
        realizations_override=args.realizations,
        quiet=args.quiet,
        workers=args.workers,
    )
    return run(inv)


if __name__ == "__main__":
    sys.exit(main())
