"""Optical-chain simulation: pulse train, channel, conjugate detection.

Shot-noise-unit convention used throughout the package: the vacuum quadrature
variance is 1, and a coherent state of mean photon number ``n`` has a mean
quadrature vector of length ``2*sqrt(n)``.  A heterodyne (conjugate homodyne)
measurement of a coherent state with amplitude ``(x_in, p_in)`` at LO phase
offset ``phi`` then returns, per quadrature,

    sqrt(T*eta/2) * R(-phi) @ (x_in, p_in) + N(0, 1 + nu_el)

where the unit noise term collects transmitted shot noise, the channel and
detector vacuum admixtures and the heterodyne 3 dB vacuum penalty (their
contributions always sum to exactly 1 for a coherent-state input), and
``nu_el`` is electronic noise.  On a Gaussian-modulated ensemble Bob's
per-quadrature variance is then ``(eta*T/2) * (V + chi_tot)`` with the
channel/detection noise decomposition used by the security module.

Pulse schedule (one run): R_0 S_0 R_1 S_1 ... with one repetition period
between consecutive pulses, so signal ``i`` sits midway between references
``i`` and ``i+1``.  Pulse duration is collapsed to an instant; photon numbers
are specified at the receiver input.  A run is one :class:`PulseBlock` of
arrays in that order, the one place the schedule is stated: a pulse's kind
follows from its position.  The phase sign convention of pilot recovery lives
in one kernel in :mod:`llo_sim.phase_recovery`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Literal, Union

import numpy as np

from ._seeding import as_generator, seed_sequence, substream
from .errors import ConfigError, DomainError, ScheduleError
from .noise_models import LaserModel, sample_phase_trajectory

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RunSeeds:
    """Per-purpose random streams of one simulated run.

    Most callers pass a plain integer seed to :func:`simulate_run`; this type
    exists for variance-reduction schemes that deliberately share some streams
    between runs (e.g. re-detecting the same laser trajectories at a different
    reference power) while keeping the rest independent.
    """

    laser_s: object
    laser_l: object
    phase0: object
    modulation: object
    detector: object

    @classmethod
    def from_seed(cls, seed: int, *path) -> "RunSeeds":
        return cls(
            laser_s=seed_sequence(seed, *path, "laser-s"),
            laser_l=seed_sequence(seed, *path, "laser-l"),
            phase0=seed_sequence(seed, *path, "phase0"),
            modulation=seed_sequence(seed, *path, "modulation"),
            detector=seed_sequence(seed, *path, "detector"),
        )


@dataclass(frozen=True)
class GaussianModulation:
    """Bivariate Gaussian modulation of variance ``variance_snu`` (V_A)."""

    variance_snu: float

    def __post_init__(self) -> None:
        if not self.variance_snu > 0:
            raise ConfigError(f"V_A must be > 0, got {self.variance_snu}")


@dataclass(frozen=True)
class BPSKModulation:
    """Binary phase encoding with the deterministic 0101... pattern."""

    phase0: float = 0.0
    phase1: float = 1.65


@dataclass(frozen=True)
class NoModulation:
    """Deterministic amplitude at phase 0 (used for calibration trains)."""


Modulation = Union[GaussianModulation, BPSKModulation, NoModulation]


@dataclass(frozen=True)
class PulseTrainConfig:
    """Interleaved signal/reference schedule.

    ``repetition_period_s`` is the spacing between *consecutive* pulses (the
    signal-to-reference delay T_d); photon numbers are mean values per pulse
    at the receiver.  For Gaussian modulation the signal photon number is
    ignored (the modulation variance fixes it, mean V_A/2 photons).
    """

    repetition_period_s: float
    n_pairs: int
    signal_photons: float
    reference_photons: float
    modulation: Modulation = NoModulation()

    def __post_init__(self) -> None:
        if not self.repetition_period_s > 0:
            raise ConfigError(
                f"repetition period must be > 0 s, got {self.repetition_period_s}"
            )
        if self.n_pairs < 1:
            raise ConfigError(f"n_pairs must be >= 1, got {self.n_pairs}")
        if self.signal_photons < 0 or self.reference_photons < 0:
            raise ConfigError("photon numbers must be >= 0")
        if not isinstance(
            self.modulation, (GaussianModulation, BPSKModulation, NoModulation)
        ):
            raise ConfigError(f"unknown modulation {self.modulation!r}")


@dataclass(frozen=True)
class ChannelDetector:
    """Fibre channel plus heterodyne detector parameters.

    Transmittance follows ``10**(-alpha*L/10)`` unless overridden.  Detector
    efficiency ``eta`` and electronic noise ``nu_el`` (shot-noise units) are
    trusted (not attributed to the eavesdropper).
    """

    attenuation_db_per_km: float = 0.2
    fiber_length_km: float = 0.0
    transmittance_override: float | None = None
    detector_efficiency: float = 1.0
    electronic_noise_snu: float = 0.0

    def __post_init__(self) -> None:
        if self.attenuation_db_per_km < 0:
            raise ConfigError(
                f"attenuation must be >= 0 dB/km, got {self.attenuation_db_per_km}"
            )
        if self.fiber_length_km < 0:
            raise ConfigError(
                f"fiber length must be >= 0 km, got {self.fiber_length_km}"
            )
        if not 0 < self.detector_efficiency <= 1:
            raise ConfigError(
                f"detector efficiency must be in (0, 1], got {self.detector_efficiency}"
            )
        if self.electronic_noise_snu < 0:
            raise ConfigError(
                f"electronic noise must be >= 0 SNU, got {self.electronic_noise_snu}"
            )
        if self.transmittance_override is not None and not (
            0 < self.transmittance_override <= 1
        ):
            raise ConfigError(
                f"transmittance must be in (0, 1], got {self.transmittance_override}"
            )

    @property
    def transmittance(self) -> float:
        if self.transmittance_override is not None:
            return self.transmittance_override
        return 10.0 ** (-self.attenuation_db_per_km * self.fiber_length_km / 10.0)


PulseKind = Literal["signal", "reference"]


@dataclass(frozen=True)
class QuadratureSample:
    """One heterodyne outcome in shot-noise units.

    ``true_phase`` is the unwrapped ground-truth LO-vs-signal phase offset at
    the pulse's timestamp, retained for validation only.
    """

    x: float
    p: float
    kind: PulseKind
    index: int
    true_phase: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.p)):
            raise DomainError(f"non-finite quadratures ({self.x}, {self.p})")


@dataclass(frozen=True, eq=False)
class PulseBlock:
    """One run's pulses as arrays in schedule order R S R S ...: position ``k``
    is a reference when ``k`` is even, a signal when it is odd.

    ``true_phase`` is as in :class:`QuadratureSample`; iterating yields one
    :class:`QuadratureSample` per pulse.
    """

    x: np.ndarray
    p: np.ndarray
    true_phase: np.ndarray

    def __post_init__(self) -> None:
        for name in ("x", "p", "true_phase"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.x.ndim != 1 or not (self.x.shape == self.p.shape == self.true_phase.shape):
            raise ScheduleError("x, p and true_phase must be 1-d arrays of equal length")
        if not (np.isfinite(self.x).all() and np.isfinite(self.p).all()):
            raise DomainError("non-finite quadratures in pulse block")

    def __len__(self) -> int:
        return self.x.size

    # Kept for the acceptance gate, which iterates a block and reads .kind/.x/.p/.true_phase.
    def __iter__(self) -> Iterator[QuadratureSample]:
        columns = zip(self.x.tolist(), self.p.tolist(), self.true_phase.tolist())
        for k, (x, p, true_phase) in enumerate(columns):
            yield QuadratureSample(x, p, "signal" if k % 2 else "reference", k, true_phase)


@dataclass(frozen=True)
class ModulatedSymbols:
    """Alice's side of one run: target quadratures and encoded phases."""

    x_a: np.ndarray
    p_a: np.ndarray
    encoded_phase: np.ndarray


def coherent_amplitude(photons: float, phase: float = 0.0) -> tuple[float, float]:
    """Mean quadrature vector of a coherent state of ``photons`` at ``phase``."""
    if photons < 0:
        raise DomainError(f"photon number must be >= 0, got {photons}")
    r = 2.0 * math.sqrt(photons)
    return r * math.cos(phase), r * math.sin(phase)


def _draw_symbols(
    modulation: Modulation, photons: float, indices: np.ndarray, rng
) -> ModulatedSymbols:
    n = indices.size
    if isinstance(modulation, GaussianModulation):
        sigma = math.sqrt(modulation.variance_snu)
        x_a = rng.normal(0.0, sigma, size=n)
        p_a = rng.normal(0.0, sigma, size=n)
        return ModulatedSymbols(x_a, p_a, np.arctan2(p_a, x_a))
    if isinstance(modulation, BPSKModulation):
        phases = np.where(indices % 2 == 0, modulation.phase0, modulation.phase1)
    elif isinstance(modulation, NoModulation):
        phases = np.zeros(n)
    else:
        raise ConfigError(f"unknown modulation {modulation!r}")
    r = 2.0 * math.sqrt(photons)
    return ModulatedSymbols(r * np.cos(phases), r * np.sin(phases), phases)


def alice_symbols(train: PulseTrainConfig, seed) -> ModulatedSymbols:
    """Regenerate Alice's modulation draws for a run without simulating it.

    Uses the same sub-stream as :func:`simulate_run`, so the returned symbols
    are exactly the ones encoded in that run.
    """
    indices = np.arange(train.n_pairs)
    rng = _modulation_rng(seed)
    return _draw_symbols(train.modulation, train.signal_photons, indices, rng)


def _modulation_rng(seed):
    if isinstance(seed, RunSeeds):
        return as_generator(seed.modulation)
    if isinstance(seed, (int, np.integer)):
        return substream(int(seed), "modulation")
    return as_generator(seed)


def _measure_arrays(x_in, p_in, phi, det: ChannelDetector, rng):
    """Vectorised heterodyne measurement; rng=None gives the noise-free mean."""
    scale = math.sqrt(det.transmittance * det.detector_efficiency / 2.0)
    c, s = np.cos(phi), np.sin(phi)
    x = scale * (x_in * c + p_in * s)
    p = scale * (-x_in * s + p_in * c)
    if rng is not None:
        sigma = math.sqrt(1.0 + det.electronic_noise_snu)
        x = x + rng.normal(0.0, sigma, size=np.shape(x))
        p = p + rng.normal(0.0, sigma, size=np.shape(p))
    return x, p


def simulate_run(
    train: PulseTrainConfig,
    lasers: tuple[LaserModel, LaserModel],
    det: ChannelDetector,
    seed,
) -> PulseBlock:
    """Simulate one interleaved run; returns its pulses in schedule order.

    ``lasers`` is (signal laser, LO laser).  The per-pulse phase offset is the
    difference of the two lasers' phase trajectories plus a uniform random
    initial offset.  Sub-streams for the trajectories, the initial offset,
    the modulation and the detector noise are derived independently from
    ``seed``, so the run is reproducible and batch-order independent.
    """
    if train.n_pairs < 2:
        raise ScheduleError(f"need n_pairs >= 2, got {train.n_pairs}")
    laser_s, laser_l = lasers
    seeds = seed if isinstance(seed, RunSeeds) else RunSeeds.from_seed(int(seed))

    n = train.n_pairs
    times = np.arange(2 * n, dtype=float) * train.repetition_period_s
    traj_s = sample_phase_trajectory(laser_s, times, seeds.laser_s)
    traj_l = sample_phase_trajectory(laser_l, times, seeds.laser_l)
    phi0 = float(as_generator(seeds.phase0).uniform(0.0, TWO_PI))
    phi = phi0 + traj_l.phases - traj_s.phases

    symbols = _draw_symbols(
        train.modulation, train.signal_photons, np.arange(n), as_generator(seeds.modulation)
    )
    ref_x, ref_p = coherent_amplitude(train.reference_photons)

    x_in = np.empty(2 * n)
    p_in = np.empty(2 * n)
    x_in[0::2], p_in[0::2] = ref_x, ref_p
    x_in[1::2], p_in[1::2] = symbols.x_a, symbols.p_a

    x_out, p_out = _measure_arrays(x_in, p_in, phi, det, as_generator(seeds.detector))
    return PulseBlock(x_out, p_out, phi)

