"""Run configuration: the run's sections, their defaults and the JSON parser.

The bench rig is stated once, in the constants below; the key-rate defaults
live on :class:`SecurityParams` and :class:`EpsilonBudget`.  A section is a
:class:`~llo_sim._record.Record` dataclass and its keys are the field names;
values are checked against the annotations (numbers must be finite) and
applied with ``dataclasses.replace``, so physical validation stays in
``__post_init__`` (a sweep's grid ends and a pulse train's photon numbers
too).  Inherited fields are not keys:

- ``phase_exp``, ``weak_ref`` and ``remap`` are pilot-aided trains, and
  subclass :class:`_PilotRun`.  They take ``laser_s`` / ``laser_l`` from the
  top-level lasers, ``detector`` from ``experiments.detector`` and
  ``repetition_period_s`` from ``train``.
- ``phase_exp`` and ``weak_ref`` also take ``n_pairs`` and ``signal_photons``
  from ``train``; ``phase_exp`` takes ``reference_photons`` from it too, and
  ``weak_ref`` takes ``bpsk_phases`` from ``phase_exp``.
- ``laser_noise`` takes only the lasers.

A bad value raises :class:`ConfigError` naming its JSON path
(``config.channel.fiber_length_km: ...``); the CLI exits 2.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
import typing
from pathlib import Path
from typing import Callable

from ._record import Record
from .errors import ConfigError
from .link_sim import MIN_REMAP_SIGNALS, MIN_SYMBOL_SIGNALS, ChannelDetector, PulseTrainConfig
from .noise_models import LaserModel, beat
from .security import SecurityParams

# ---------------------------------------------------------------------------
# The bench rig (Qi et al., arXiv:1503.00662)

#: Free-running signal laser: beat variance 0.035 rad^2 per 20 ns.
SIGNAL_LASER = LaserModel.from_delay_variance(0.035, 20e-9)
#: Free-running LO laser: beat variance 0.044 rad^2 per 20 ns, 2.3 MHz detuning.
LO_LASER = LaserModel.from_delay_variance(0.044, 20e-9, center_detuning_hz=2.3e6)
#: Receiver-referenced detection: photon numbers are quoted at the receiver,
#: so the channel collapses to unit transmittance.
RIG_DETECTOR = ChannelDetector(
    transmittance_override=1.0, detector_efficiency=0.5, electronic_noise_snu=0.83
)
#: The R S train: 20 ns between pulses, 25,000 pairs, 1e5 photons per pulse.
BENCH_TRAIN = PulseTrainConfig(20e-9, 25000, 1e5, 1e5)
#: The two phases of the binary encoding (rad).
BPSK_PHASES = (0.0, 1.65)


# ---------------------------------------------------------------------------
# Section checks


# Each batch drops its last signal (no closing reference), so a batch of n
# pairs has n - 1 signals, and the bits alternate, so the rarer bit has
# (n - 1) // 2 of them.
_BPSK_MIN_PAIRS = 2 * MIN_SYMBOL_SIGNALS + 1
_REMAP_MIN_PAIRS = MIN_REMAP_SIGNALS + 1


def batch_size(total: int, n_batches: int, i: int) -> int:
    """The items of batch ``i`` when ``total`` split into ``n_batches``: the
    first ``total % n_batches`` batches take one more.  Every Monte Carlo
    runner splits its run this way."""
    base, extra = divmod(total, n_batches)
    return base + (1 if i < extra else 0)


def _check_batches(n_items: int, n_batches: int, minimum: int) -> None:
    """Every Monte Carlo metric needs >= 2 batches, and its estimator needs
    ``minimum`` items in the smallest.  A batch builds float64 arrays of up
    to two entries per item (a pulse pair; a sample and its end point), whose
    bytes numpy indexes only up to ``sys.maxsize``."""
    if n_batches < 2:
        raise ConfigError(f"n_batches must be >= 2 for a standard error, got {n_batches}")
    largest = batch_size(n_items, n_batches, 0)
    if 2 * largest * 8 > sys.maxsize:
        raise ConfigError(
            f"{n_items} items in {n_batches} batches put {largest} in the largest, "
            f"whose float64 arrays exceed numpy's limit of {sys.maxsize} bytes"
        )
    smallest = batch_size(n_items, n_batches, n_batches - 1)
    if smallest < minimum:
        raise ConfigError(
            f"n_batches: {n_items} items in {n_batches} batches leave {smallest} in the "
            f"smallest, need >= {minimum}"
        )


def _check_at_least(minimum: int, **values: int) -> None:
    for name, value in values.items():
        if value < minimum:
            raise ConfigError(f"{name} must be >= {minimum}, got {value}")


def _check_sweep_points(name: str, points, label: Callable[[float], str]) -> None:
    """Sweep points are >= 0 and their metric labels finite and distinct, so
    no point overwrites another in the result."""
    if not all(point >= 0 for point in points):
        raise ConfigError(f"{name} must all be >= 0, got {list(points)}")
    labels = [label(point) for point in points]
    for point, text in zip(points, labels):
        if not math.isfinite(float(text)):
            raise ConfigError(f"{name}: {point:g} has no finite metric label, got {text!r}")
    if len(set(labels)) < len(labels):
        raise ConfigError(f"{name} must label distinct result metrics, got {labels}")


_MAX_GRID_POINTS = 10_000  # a sweep builds its grid in memory; this bounds it


def _check_grid(sweep, lo: str, hi: str, top: float) -> None:
    """A sweep's grid rises from field ``lo`` to field ``hi``, its exact ends
    (:func:`_linspace`), over 2 to :data:`_MAX_GRID_POINTS` points; ``lo`` and
    ``top``, its top point, must be finite, so no grid is built to check it."""
    if not getattr(sweep, hi) > getattr(sweep, lo) or not 2 <= sweep.points <= _MAX_GRID_POINTS:
        raise ConfigError(f"need {hi} > {lo} and 2 <= points <= {_MAX_GRID_POINTS}")
    if not (math.isfinite(getattr(sweep, lo)) and math.isfinite(top)):
        raise ConfigError("grid must be finite")


def _check_train(cfg, reference_photons: float, use: str) -> None:
    """:class:`PulseTrainConfig`'s checks on ``cfg``'s train at ``reference_photons``,
    run once rather than per batch, then both photon numbers ``n`` and their squared
    mean amplitudes at Bob, ``2*T*eta*n`` at ``cfg.detector``, > 0, which ``use`` needs."""
    PulseTrainConfig(
        cfg.repetition_period_s, cfg.n_pairs, cfg.signal_photons, reference_photons
    )
    if not min(cfg.signal_photons, reference_photons) > 0:
        raise ConfigError(f"photon numbers must be > 0 for {use}")
    two_gain = 2.0 * cfg.detector.power_gain  # 2*T*eta*n as _shot_noise_prediction forms it
    if not min(two_gain * cfg.signal_photons, two_gain * reference_photons) > 0:
        raise ConfigError(f"squared detected amplitudes 2*T*eta*n must be > 0 for {use}")


def _check_uniformity_test(cfg) -> None:
    """:func:`~llo_sim.experiments.uniformity_pvalue` needs >= 2 bins and >= 5
    thinned raw phases per bin.  Each batch drops its last signal (no closing
    reference), so a run pools ``n_pairs - n_batches`` raw phases."""
    _check_at_least(2, uniformity_bins=cfg.uniformity_bins)
    _check_at_least(1, uniformity_stride=cfg.uniformity_stride)
    thinned = -(-(cfg.n_pairs - cfg.n_batches) // cfg.uniformity_stride)
    if thinned < 5 * cfg.uniformity_bins:
        raise ConfigError(
            f"uniformity_stride: {cfg.n_pairs - cfg.n_batches} raw phases at stride "
            f"{cfg.uniformity_stride} leave {thinned} samples, fewer than 5 per bin "
            f"for uniformity_bins = {cfg.uniformity_bins}"
        )


def _check_pilot_aliasing(cfg) -> None:
    """Midpoint interpolation aliases once the beat advances by pi between two
    references (two pulse periods), so the deterministic beat frequency
    ``f + 2*r*t`` of the lasers' :func:`~llo_sim.noise_models.beat` must stay
    below ``1/(4*T)``.  It is linear in ``t``, so its ends, ``t = 0`` and the
    last pulse of the longest batch, bound it."""
    period = cfg.repetition_period_s
    limit = 1.0 / (4.0 * period)
    longest = batch_size(cfg.n_pairs, cfg.n_batches, 0)
    relative = beat(cfg.laser_s, cfg.laser_l)
    for t in (0.0, (2 * longest - 1) * period):
        frequency = relative.center_detuning_hz + 2.0 * relative.drift_rate_hz_per_s * t
        if abs(frequency) >= limit:
            raise ConfigError(
                f"beat frequency {frequency:g} Hz at t = {t:g} s reaches the pilot "
                f"aliasing limit 1/(4*repetition_period_s) = {limit:g} Hz"
            )


# ---------------------------------------------------------------------------
# Experiment sections


class _PilotRun(Record):
    """A pilot-aided train, the base of the ``phase_exp``, ``weak_ref`` and
    ``remap`` sections: reference pulses interleaved with signals, from the
    two free-running lasers, through one detector, run in ``n_batches``
    sub-batches.  The defaults are the bench rig's."""

    n_pairs: int = BENCH_TRAIN.n_pairs
    repetition_period_s: float = BENCH_TRAIN.repetition_period_s
    signal_photons: float = BENCH_TRAIN.signal_photons
    laser_s: LaserModel = SIGNAL_LASER
    laser_l: LaserModel = LO_LASER
    detector: ChannelDetector = RIG_DETECTOR
    n_batches: int = 10

    def _check_run(self, minimum: int, reference_photons, use: str) -> None:
        """The train's checks in dependency order: the train at each of
        ``reference_photons`` (the period the others divide by), then its
        batches (``minimum`` pairs in the smallest), then the pilot aliasing
        limit over the longest batch."""
        for photons in reference_photons:
            _check_train(self, photons, use)
        _check_batches(self.n_pairs, self.n_batches, minimum)
        _check_pilot_aliasing(self)

    def block_train(
        self, modulation, batches: range, reference_photons: float
    ) -> tuple[PulseTrainConfig, list[int]]:
        """The sub-batches ``batches`` of the train with ``modulation`` (a
        :attr:`~llo_sim.link_sim.PulseTrainConfig.modulation`) laid end to
        end: their train, and the pairs of each, for ``batch_pairs``."""
        pairs = [batch_size(self.n_pairs, self.n_batches, i) for i in batches]
        train = PulseTrainConfig(
            self.repetition_period_s, sum(pairs), self.signal_photons, reference_photons,
            modulation,
        )
        return train, pairs


class PhaseExperimentConfig(_PilotRun):
    """``config.experiments.phase_exp``: the binary phase-encoding run.
    ``reference_photons`` is inherited from ``train`` too, so not a key."""

    bpsk_phases: tuple[float, float] = BPSK_PHASES
    reference_photons: float = BENCH_TRAIN.reference_photons
    histogram_bins: int = 100
    uniformity_bins: int = 10
    uniformity_stride: int = 100

    def __post_init__(self) -> None:
        self._check_run(_BPSK_MIN_PAIRS, [self.reference_photons], "the shot-noise prediction")
        _check_at_least(1, histogram_bins=self.histogram_bins)
        _check_uniformity_test(self)


class WeakReferenceSweepConfig(_PilotRun):
    """``config.experiments.weak_ref``: the weak-reference photon-number sweep.
    ``bpsk_phases`` is inherited from ``phase_exp``, so not a key."""

    photon_numbers: tuple[float, ...] = (10000.0, 1000.0, 100.0)
    bpsk_phases: tuple[float, float] = BPSK_PHASES

    @staticmethod
    def label(photons: float) -> str:
        """A photon number as the result's metric names write it."""
        return f"{photons:g}"

    def __post_init__(self) -> None:
        if not self.photon_numbers:
            raise ConfigError("photon_numbers must not be empty")
        _check_sweep_points("photon_numbers", self.photon_numbers, self.label)
        self._check_run(_BPSK_MIN_PAIRS, self.photon_numbers, "the weak-reference sweep")


class RemapExperimentConfig(_PilotRun):
    """``config.experiments.remap``: the quantum-signal remapping run.  Its
    ``n_pairs`` and ``signal_photons`` are keys of its own, not ``train``'s."""

    n_pairs: int = 24000
    signal_photons: float = 66.0
    reference_photons: float = 1000.0
    scatter_rows: int = 24000
    uniformity_bins: int = 10
    uniformity_stride: int = 100

    def __post_init__(self) -> None:
        self._check_run(
            _REMAP_MIN_PAIRS, [self.reference_photons], "the remap estimate of sigma_phi"
        )
        _check_at_least(0, scatter_rows=self.scatter_rows)
        _check_uniformity_test(self)


class LaserNoiseSweepConfig(Record):
    """``config.experiments.laser_noise``: the delayed self-interference sweep.
    It is not a pilot-aided train and inherits only the lasers."""

    delays_s: tuple[float, ...] = (5e-9, 20e-9, 25e-9)
    n_samples: int = 100000
    laser_s: LaserModel = SIGNAL_LASER
    laser_l: LaserModel = LO_LASER
    n_batches: int = 10

    @staticmethod
    def label(delay_s: float) -> str:
        """A delay as the result's metric names write it: in nanoseconds."""
        return f"{delay_s * 1e9:g}"

    def __post_init__(self) -> None:
        if len(self.delays_s) < 2:
            raise ConfigError(f"delays_s needs >= 2 delays, got {len(self.delays_s)}")
        _check_sweep_points("delays_s", self.delays_s, self.label)
        _check_batches(self.n_samples, self.n_batches, 2)  # for a sample variance


class DistanceSweepConfig(Record):
    """``config.experiments.distance_sweep``: the key-rate distance grid,
    built by :meth:`grid` when the sweep runs.  It inherits no field."""

    min_km: float = 0.0
    max_km: float = 150.0
    points: int = 31

    def __post_init__(self) -> None:
        if self.min_km < 0:
            raise ConfigError(f"min_km must be >= 0, got {self.min_km}")
        _check_grid(self, "min_km", "max_km", self.max_km)

    def grid(self) -> list[float]:
        """``points`` evenly spaced lengths, bit for bit ``np.linspace``'s."""
        return _linspace(self.min_km, self.max_km, self.points)


class NSweepConfig(Record):
    """``config.experiments.n_sweep``: the finite-size pulse-count grid,
    built by :meth:`grid` when the sweep runs.  It inherits no field."""

    log10_min: float = 6.0
    log10_max: float = 13.0
    points: int = 29

    def __post_init__(self) -> None:
        try:
            top = 10.0 ** self.log10_max
        except OverflowError:  # beyond the float range
            top = math.inf
        _check_grid(self, "log10_min", "log10_max", top)

    def grid(self) -> list[float]:
        """``points`` log-spaced pulse counts ``10.0 ** y``, ``y`` on the linear
        grid from ``log10_min`` to ``log10_max``: ``np.logspace``'s formula,
        evaluated by libm's ``pow`` rather than numpy's vectorised ``power``.
        The latter picks a SIMD kernel by CPU, so its last bit depends on the
        host, and it is the less accurate: on a 4,000-point grid numpy 2.4's
        AVX-512 kernel matched a 60-digit reference at 3,798 points, ``pow``
        at 3,995."""
        return [10.0 ** y for y in _linspace(self.log10_min, self.log10_max, self.points)]


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """``np.linspace(lo, hi, n)`` for ``n >= 2``, in its arithmetic: point
    ``i`` is ``i*step + lo``, or ``i/div*delta + lo`` when the step underflows
    to 0, and the last point is ``hi`` itself."""
    div = n - 1
    delta = hi - lo
    step = delta / div
    if step == 0:
        points = [i / div * delta + lo for i in range(n)]
    else:
        points = [i * step + lo for i in range(n)]
    points[-1] = hi
    return points


# ---------------------------------------------------------------------------
# Parsing

_MAX_SEED = 2**64 - 1
_EXPERIMENTS = (
    "detector", "phase_exp", "weak_ref", "remap", "laser_noise", "distance_sweep", "n_sweep",
)
_NOISE_SPECS = ("linewidth_hz", "coherence_time_s", "delay_variance")
_EXPECTED = {int: "an integer", float: "a finite number", str: "a string"}


class RunConfig(Record):
    """Fully resolved configuration for one CLI invocation."""

    security: SecurityParams
    phase_exp: PhaseExperimentConfig
    weak_ref: WeakReferenceSweepConfig
    remap: RemapExperimentConfig
    laser_noise: LaserNoiseSweepConfig
    distance_sweep: DistanceSweepConfig
    n_sweep: NSweepConfig
    seed: int = 1
    output_dir: str = "results"
    threads: int = 1

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
    elif isinstance(value, hint) and not isinstance(value, bool):
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
    """A laser section: ``default`` with its coherence time set by at most one
    of ``linewidth_hz``, ``coherence_time_s`` or ``delay_variance``."""
    _object(data, path, [*LaserModel.__dataclass_fields__, *_NOISE_SPECS])
    given = [k for k in _NOISE_SPECS if k in data]
    if len(given) > 1:
        raise ConfigError(f"{path}: give exactly one of {', '.join(_NOISE_SPECS)}")
    rest = {k: v for k, v in data.items() if k not in ("linewidth_hz", "delay_variance")}
    if given == ["linewidth_hz"]:
        linewidth = _coerce(float, data["linewidth_hz"], f"{path}.linewidth_hz")
        convert = functools.partial(LaserModel.from_linewidth, linewidth)
    elif given == ["delay_variance"]:
        dv_path = f"{path}.delay_variance"
        dv = _object(data["delay_variance"], dv_path, ("variance_rad2", "delay_s"))
        variance, delay = (
            _coerce(float, dv.get(k), f"{dv_path}.{k}") for k in ("variance_rad2", "delay_s")
        )
        convert = functools.partial(LaserModel.from_delay_variance, variance, delay)
    else:  # coherence_time_s, when given, is a field of the section
        return _walk(LaserModel, rest, path, default)
    try:
        tc = convert().coherence_time_s
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return _walk(LaserModel, rest, path, default, coherence_time_s=tc)


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
    laser_s = _laser(*root("laser_s"), SIGNAL_LASER)
    laser_l = _laser(*root("laser_l"), LO_LASER)
    train = _walk(PulseTrainConfig, *root("train"), BENCH_TRAIN,
                  modulation=BENCH_TRAIN.modulation)
    channel = _walk(ChannelDetector, *root("channel"), SecurityParams().channel)
    security = _walk(SecurityParams, *root("security"), channel=channel)

    experiments = dict(_object(*root("experiments"), _EXPERIMENTS))
    experiment = functools.partial(_section, experiments, "config.experiments")
    rig = _walk(ChannelDetector, *experiment("detector"), RIG_DETECTOR)
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
    distance_sweep = _walk(DistanceSweepConfig, *experiment("distance_sweep"))
    try:  # the sweep clears any transmittance override, as run_keyrate_distance_sweep does
        dataclasses.replace(
            channel, fiber_length_km=distance_sweep.max_km, transmittance_override=None
        )
    except ConfigError as exc:
        raise ConfigError(f"config.experiments.distance_sweep: max_km: {exc}") from exc
    n_sweep = _walk(NSweepConfig, *experiment("n_sweep"))
    # Both ends of the sweep must pass the checks of security.n_pulses: the
    # smallest leaves the fewest estimation samples, the largest the largest
    # finite-size terms.
    for key in ("log10_min", "log10_max"):
        n = int(10.0 ** getattr(n_sweep, key))  # the grid's exact end
        try:
            dataclasses.replace(security, n_pulses=n)
        except ConfigError as exc:
            raise ConfigError(f"config.experiments.n_sweep: {key}: at n = {n:.15g}, {exc}") from exc

    return _walk(
        RunConfig, data, "config", security=security, phase_exp=phase_exp,
        weak_ref=weak_ref, remap=remap, laser_noise=laser_noise,
        distance_sweep=distance_sweep, n_sweep=n_sweep,
    )
