"""Command-line front end.

Exit-code contract: 0 on success, 1 on a numerical-domain error during
evaluation, 2 on configuration errors (including unknown commands, which
argparse reports with usage text).  All outputs land under ``--output-dir``;
no input file is ever modified.  ``--seed`` fully determines every stochastic
output, independent of ``--threads`` (``LLO_SIM_THREADS`` is the fallback for
the flag).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import RunConfig, parse_config
from .errors import ConfigError, NumericalDomainError
from .experiments import (
    ExperimentResult,
    Metric,
    run_bpsk_phase_experiment,
    run_finite_size_sweep,
    run_keyrate_distance_sweep,
    run_laser_noise_sweep,
    run_quantum_remap_experiment,
    run_weak_reference_sweep,
    write_result,
)
from .security import finite_size_key_rate, key_rate_components

COMMANDS = (
    "phase-exp",
    "weak-ref",
    "remap-exp",
    "laser-noise",
    "keyrate-asymptotic",
    "keyrate-finite",
    "sweep-distance",
    "sweep-n",
    "all",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llo-sim",
        description="Simulator and key-rate calculator for CV-QKD with a local LO.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} command")
        p.add_argument("--config", type=str, default=None,
                       help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (fully determines stochastic output)")
        p.add_argument("--output-dir", type=str, default=None,
                       help="directory for result files")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (default: 1; fallback env LLO_SIM_THREADS)")
        p.add_argument("--fiber-length", type=float, default=None,
                       help="channel fiber length in km")
        p.add_argument("--n-pulses", type=int, default=None,
                       help="pulse count for the finite-size rate")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       dest="set_overrides",
                       help="override any config key by dotted path, e.g. "
                            "--set channel.detector_efficiency=0.6")
    return parser


def _parse_set_overrides(pairs: list[str]) -> dict:
    overrides: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        key, _, raw = pair.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"--set expects a non-empty key, got {pair!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings allowed
        overrides[key] = value
    return overrides


def _config_from_args(args) -> RunConfig:
    overrides = _parse_set_overrides(args.set_overrides)
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.output_dir is not None:
        overrides["output_dir"] = args.output_dir
    if args.fiber_length is not None:
        overrides["channel.fiber_length_km"] = args.fiber_length
    if args.n_pulses is not None:
        overrides["security.n_pulses"] = args.n_pulses
    threads = args.threads
    if threads is None:
        env = os.environ.get("LLO_SIM_THREADS")
        if env is not None:
            try:
                threads = int(env)
            except ValueError as exc:
                raise ConfigError(f"LLO_SIM_THREADS must be an integer, got {env!r}") from exc
    if threads is not None:
        overrides["threads"] = threads
    return parse_config(args.config, overrides)


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _print_summary(result: ExperimentResult) -> None:
    for name, metric in result.scalar_metrics.items():
        line = f"{result.name}.{name} = {_fmt(metric.value)}"
        if metric.stderr is not None:
            line += f" +- {_fmt(metric.stderr)}"
        print(line)


def _keyrate_asymptotic_result(config: RunConfig) -> ExperimentResult:
    comp = key_rate_components(config.security)
    metrics = {name: Metric(value, exact=True) for name, value in comp.items()}
    return ExperimentResult(
        name="keyrate-asymptotic",
        scalar_metrics=metrics,
        series_columns=("fiber_length_km", "rate_bits_per_pulse"),
        series_rows=[(config.channel.fiber_length_km, comp["asymptotic_rate"])],
        metadata={"experiment": "keyrate-asymptotic", "seed": config.seed,
                  "fiber_length_km": config.channel.fiber_length_km},
    )


def _keyrate_finite_result(config: RunConfig) -> ExperimentResult:
    rate = finite_size_key_rate(config.security)
    return ExperimentResult(
        name="keyrate-finite",
        scalar_metrics={"finite_size_rate": Metric(rate, exact=True)},
        series_columns=("n_pulses", "rate_bits_per_pulse"),
        series_rows=[(config.security.n_pulses, rate)],
        metadata={"experiment": "keyrate-finite", "seed": config.seed,
                  "n_pulses": config.security.n_pulses},
    )


def dispatch(command: str, config: RunConfig) -> int:
    """Run ``command`` under ``config``; returns the process exit code."""
    runners = {
        "phase-exp": lambda: run_bpsk_phase_experiment(
            config.phase_exp, config.seed, config.threads
        ),
        "weak-ref": lambda: run_weak_reference_sweep(
            config.weak_ref, config.seed, config.threads
        ),
        "remap-exp": lambda: run_quantum_remap_experiment(
            config.remap, config.seed, config.threads
        ),
        "laser-noise": lambda: run_laser_noise_sweep(
            config.laser_noise, config.seed, config.threads
        ),
        "keyrate-asymptotic": lambda: _keyrate_asymptotic_result(config),
        "keyrate-finite": lambda: _keyrate_finite_result(config),
        "sweep-distance": lambda: run_keyrate_distance_sweep(
            config.security, config.distance_grid_km, seed=config.seed
        ),
        "sweep-n": lambda: run_finite_size_sweep(
            config.security, config.n_pulse_grid, seed=config.seed
        ),
    }
    names = list(runners) if command == "all" else [command]
    if any(name not in runners for name in names):
        raise ConfigError(f"unknown command {command!r}")
    for name in names:
        result = runners[name]()
        write_result(result, config.output_dir)
        _print_summary(result)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        code = dispatch(args.command, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalDomainError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
