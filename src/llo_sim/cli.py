"""Command-line front end.

Exit-code contract: 0 on success, 1 on a numerical-domain error during
evaluation, 2 on configuration errors (including unknown commands, which
argparse reports with usage text).  All outputs land under ``--output-dir``;
no input file is ever modified.  ``--seed`` fully determines every stochastic
output, independent of ``--threads``.
"""

from __future__ import annotations

import argparse
import json
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llo-sim",
        description="Simulator and key-rate calculator for CV-QKD with a local LO.",
    )
    parser.add_argument("command", choices=COMMANDS, metavar="command",
                        help=f"one of {', '.join(COMMANDS)}")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON configuration file")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (fully determines stochastic output)")
    parser.add_argument("--output-dir", type=str, default=None,
                        help="directory for result files")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads (default: 1)")
    parser.add_argument("--fiber-length", type=float, default=None,
                        help="channel fiber length in km")
    parser.add_argument("--n-pulses", type=int, default=None,
                        help="pulse count for the finite-size rate")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
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
    if args.threads is not None:
        overrides["threads"] = args.threads
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
    metrics = {name: Metric(value) for name, value in comp.items()}
    length = config.security.channel.fiber_length_km
    return ExperimentResult(
        scalar_metrics=metrics,
        series={"fiber_length_km": [length], "rate_bits_per_pulse": [comp["asymptotic_rate"]]},
        metadata={"experiment": "keyrate-asymptotic", "seed": config.seed,
                  "fiber_length_km": length},
    )


def _keyrate_finite_result(config: RunConfig) -> ExperimentResult:
    rate = finite_size_key_rate(config.security)
    return ExperimentResult(
        scalar_metrics={"finite_size_rate": Metric(rate)},
        series={"n_pulses": [config.security.n_pulses], "rate_bits_per_pulse": [rate]},
        metadata={"experiment": "keyrate-finite", "seed": config.seed,
                  "n_pulses": config.security.n_pulses},
    )


# Each command's runner, in the order ``all`` runs them.  The runners are
# looked up as module globals at call time, so a wrapper set on this module
# sees every call.
_RUNNERS = {
    "phase-exp": lambda config: run_bpsk_phase_experiment(
        config.phase_exp, config.seed, config.threads
    ),
    "weak-ref": lambda config: run_weak_reference_sweep(
        config.weak_ref, config.seed, config.threads
    ),
    "remap-exp": lambda config: run_quantum_remap_experiment(
        config.remap, config.seed, config.threads
    ),
    "laser-noise": lambda config: run_laser_noise_sweep(
        config.laser_noise, config.seed, config.threads
    ),
    "keyrate-asymptotic": _keyrate_asymptotic_result,
    "keyrate-finite": _keyrate_finite_result,
    "sweep-distance": lambda config: run_keyrate_distance_sweep(
        config.security, config.distance_sweep.grid(), seed=config.seed
    ),
    "sweep-n": lambda config: run_finite_size_sweep(
        config.security, config.n_sweep.grid(), seed=config.seed
    ),
}
COMMANDS = (*_RUNNERS, "all")


def dispatch(command: str, config: RunConfig) -> int:
    """Run ``command`` under ``config``; returns the process exit code."""
    names = list(_RUNNERS) if command == "all" else [command]
    if any(name not in _RUNNERS for name in names):
        raise ConfigError(f"unknown command {command!r}")
    for name in names:
        try:
            result = _RUNNERS[name](config)
        except MemoryError as exc:
            raise ConfigError(f"{name}: the run does not fit in memory: {exc}") from exc
        try:
            write_result(result, config.output_dir)
        except OSError as exc:
            raise ConfigError(f"config.output_dir: cannot write {name} results: {exc}") from exc
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
