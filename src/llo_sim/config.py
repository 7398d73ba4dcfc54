"""Run configuration: JSON sections parsed onto the package's dataclasses.

Defaults live only on the dataclasses: ``channel`` is ``SecurityParams().channel``,
the rest of ``security`` (with ``epsilons``) comes from :class:`SecurityParams`
and :class:`EpsilonBudget`, the lasers from ``default_signal_laser`` /
``default_lo_laser``, ``experiments.detector`` from ``default_rig_detector``,
``train`` from :class:`PhaseExperimentConfig` and each experiment section from
its config class.  Only ``security.n_pulses`` (1e11) differs from its dataclass.
A section's keys are its dataclass's field names; values are checked against
the annotations (numbers must be finite, booleans JSON booleans) and applied
with ``dataclasses.replace``, so physical validation stays in ``__post_init__``.
Inherited fields are not keys: the experiment sections take the lasers from
``laser_s`` / ``laser_l``; all but ``laser_noise`` take ``detector`` from
``experiments.detector`` and the pulse period from ``train``; ``phase_exp`` and
``weak_ref`` take ``n_pairs`` and the photon numbers from ``train`` and ``weak_ref``
takes ``bpsk_phases`` from ``phase_exp``.  A bad value raises :class:`ConfigError`
naming its JSON path (``config.channel.fiber_length_km: ...``); the CLI exits 2.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .experiments import (
    DistanceSweepConfig,
    LaserNoiseSweepConfig,
    NSweepConfig,
    PhaseExperimentConfig,
    RemapExperimentConfig,
    WeakReferenceSweepConfig,
    default_lo_laser,
    default_rig_detector,
    default_signal_laser,
)
from .link_sim import ChannelDetector, PulseTrainConfig
from .noise_models import LaserModel
from .security import MIN_FINITE_SIZE_PULSES, SecurityParams

_MAX_SEED = 2**64 - 1
_MAX_GRID_POINTS = 10_000  # the grids are built at parse time; this bounds their memory
_EXPERIMENTS = (
    "detector", "phase_exp", "weak_ref", "remap", "laser_noise", "distance_sweep", "n_sweep",
)
_NOISE_SPECS = ("linewidth_hz", "coherence_time_s", "delay_variance")
_EXPECTED = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """Fully resolved configuration for one CLI invocation."""

    seed: int = 1
    output_dir: str = "results"
    threads: int = 1
    laser_s: LaserModel
    laser_l: LaserModel
    train: PulseTrainConfig
    channel: ChannelDetector
    security: SecurityParams
    phase_exp: PhaseExperimentConfig
    weak_ref: WeakReferenceSweepConfig
    remap: RemapExperimentConfig
    laser_noise: LaserNoiseSweepConfig
    distance_grid_km: tuple[float, ...]
    n_pulse_grid: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.seed <= _MAX_SEED:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")


# typing.get_type_hints for one field, once a config sets it: resolving every annotation
# (source strings, as the config modules postpone evaluation) would dominate a cold parse.
@functools.cache
def _hint(cls, name: str):
    return eval(cls.__dataclass_fields__[name].type, vars(sys.modules[cls.__module__]))


def _object(data, path: str, keys) -> dict:
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    unknown = sorted(set(data).difference(keys))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s): {', '.join(unknown)}")
    return data


def _coerce(hint, value, path: str):
    """``value`` checked against the field annotation ``hint``."""
    if dataclasses.is_dataclass(hint):
        return _walk(hint, value, path)
    args = typing.get_args(hint)
    if type(None) in args:  # X | None
        return None if value is None else _coerce(args[0], value, path)
    if typing.get_origin(hint) is tuple:  # tuple[X, ...] or tuple[X, X]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        if args[-1] is not Ellipsis and len(value) != len(args):
            raise ConfigError(f"{path}: expected {len(args)} items, got {len(value)}")
        return tuple(_coerce(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if hint is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        if ok and abs(value) <= sys.float_info.max:
            return float(value)
    elif isinstance(value, hint) and (hint is bool or not isinstance(value, bool)):
        return value
    raise ConfigError(f"{path}: expected {_EXPECTED[hint]}, got {value!r}")


def _walk(cls, data, path: str, base=None, **fixed):
    """``base`` (default: ``cls()``) with the JSON object ``data`` applied.

    ``fixed`` fields are inherited from another section, so they are not
    keys of this one.
    """
    _object(data, path, cls.__dataclass_fields__.keys() - fixed.keys())
    values = {k: _coerce(_hint(cls, k), v, f"{path}.{k}") for k, v in data.items()}
    try:
        if base is None:
            return cls(**fixed, **values)
        return dataclasses.replace(base, **fixed, **values)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _laser(data, path: str, default: LaserModel) -> LaserModel:
    """A laser section: ``default`` with its noise set by at most one of
    ``linewidth_hz``, ``coherence_time_s`` or ``delay_variance``."""
    _object(data, path, [*LaserModel.__dataclass_fields__, "delay_variance"])
    given = [k for k in _NOISE_SPECS if k in data]
    if len(given) > 1:
        raise ConfigError(f"{path}: give exactly one of {', '.join(_NOISE_SPECS)}")
    noise = {}
    if given == ["delay_variance"]:
        dv_path = f"{path}.delay_variance"
        dv = _object(data["delay_variance"], dv_path, ("variance_rad2", "delay_s"))
        variance, delay = (
            _coerce(float, dv.get(k), f"{dv_path}.{k}") for k in ("variance_rad2", "delay_s")
        )
        try:
            tc = LaserModel.from_delay_variance(variance, delay).coherence_time_s
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        noise = {"linewidth_hz": None, "coherence_time_s": tc}
    elif given:
        noise = {"linewidth_hz": None, "coherence_time_s": None}
        noise[given[0]] = _coerce(float, data[given[0]], f"{path}.{given[0]}")
    rest = {k: v for k, v in data.items() if k not in _NOISE_SPECS}
    return _walk(LaserModel, rest, path, default, **noise)


def _grid(cls, data, path: str) -> tuple[float, ...]:
    """A sweep section resolved to its grid."""
    sweep = _walk(cls, data, path)
    lo, hi, n = vars(sweep).values()
    if not hi > lo or not 2 <= n <= _MAX_GRID_POINTS:
        lo_key, hi_key, n_key = cls.__dataclass_fields__
        raise ConfigError(
            f"{path}: need {hi_key} > {lo_key} and 2 <= {n_key} <= {_MAX_GRID_POINTS}"
        )
    try:
        grid = tuple(sweep.grid())
    except OverflowError as exc:  # a log-grid point beyond the float range
        raise ConfigError(f"{path}: grid must be finite") from exc
    if not all(map(math.isfinite, grid)):
        raise ConfigError(f"{path}: grid must be finite")
    return grid


def _section(parent: dict, path: str, name: str) -> tuple[object, str]:
    return parent.pop(name, {}), f"{path}.{name}"


def _apply_overrides(data: dict, overrides: dict) -> None:
    for dotted, value in overrides.items():
        *parents, leaf = dotted.split(".")
        node = data
        for depth, part in enumerate(parents, 1):
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                section = ".".join(parents[:depth])
                raise ConfigError(f"config.{section}: not an object, cannot set {dotted}")
        node[leaf] = value


def parse_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Load and resolve a run configuration.

    ``path`` is an optional JSON file; ``overrides`` maps dotted key paths
    (``"channel.fiber_length_km"``) onto values applied after the file.
    """
    data: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}"
            ) from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be an object")
    if overrides:
        _apply_overrides(data, overrides)

    root = functools.partial(_section, data, "config")  # leaves the top-level keys in data
    laser_s = _laser(*root("laser_s"), default_signal_laser())
    laser_l = _laser(*root("laser_l"), default_lo_laser())
    bench = PhaseExperimentConfig()
    train_base = PulseTrainConfig(
        bench.repetition_period_s, bench.n_pairs, bench.signal_photons, bench.reference_photons
    )
    train = _walk(PulseTrainConfig, *root("train"), train_base,
                  modulation=train_base.modulation)
    # The run default for the finite-size pulse count; the dataclass has none.
    keyrate = SecurityParams(n_pulses=10**11)
    channel = _walk(ChannelDetector, *root("channel"), keyrate.channel)
    security = _walk(SecurityParams, *root("security"), keyrate, channel=channel)

    experiments = dict(_object(*root("experiments"), _EXPERIMENTS))
    experiment = functools.partial(_section, experiments, "config.experiments")
    rig = _walk(ChannelDetector, *experiment("detector"), default_rig_detector())
    lasers = {"laser_s": laser_s, "laser_l": laser_l}
    rig_run = {**lasers, "detector": rig, "repetition_period_s": train.repetition_period_s}
    phase_exp = _walk(
        PhaseExperimentConfig, *experiment("phase_exp"), n_pairs=train.n_pairs,
        signal_photons=train.signal_photons, reference_photons=train.reference_photons,
        **rig_run,
    )
    weak_ref = _walk(
        WeakReferenceSweepConfig, *experiment("weak_ref"), n_pairs=train.n_pairs,
        signal_photons=train.signal_photons, bpsk_phases=phase_exp.bpsk_phases, **rig_run,
    )
    remap = _walk(RemapExperimentConfig, *experiment("remap"), **rig_run)
    laser_noise = _walk(LaserNoiseSweepConfig, *experiment("laser_noise"), **lasers)
    distance_grid = _grid(DistanceSweepConfig, *experiment("distance_sweep"))
    try:  # the sweep clears any transmittance override, as run_keyrate_distance_sweep does
        dataclasses.replace(
            channel, fiber_length_km=distance_grid[-1], transmittance_override=None
        )
    except ConfigError as exc:
        raise ConfigError(f"config.experiments.distance_sweep: max_km: {exc}") from exc
    n_grid = _grid(NSweepConfig, *experiment("n_sweep"))
    if n_grid[0] < MIN_FINITE_SIZE_PULSES:
        raise ConfigError(
            f"config.experiments.n_sweep: log10_min must give n >= {MIN_FINITE_SIZE_PULSES}, "
            f"got n = {n_grid[0]:g}"
        )

    return _walk(
        RunConfig, data, "config", train=train, channel=channel, security=security,
        phase_exp=phase_exp, weak_ref=weak_ref, remap=remap, laser_noise=laser_noise,
        distance_grid_km=distance_grid, n_pulse_grid=n_grid, **lasers,
    )
