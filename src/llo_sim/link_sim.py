"""Optical-chain simulation: pulse train, channel, conjugate detection.

Shot-noise-unit convention used throughout the package: the vacuum quadrature
variance is 1, and a coherent state of mean photon number ``n`` has a mean
quadrature vector of length ``2*sqrt(n)``.  The receiver model is stated once,
on :class:`ChannelDetector`, and the simulator, parameter estimation and the
key rate read it there.  A heterodyne (conjugate homodyne) measurement of a
coherent state with amplitude ``(x_in, p_in)`` at LO phase offset ``phi``
returns, per quadrature, ``g * R(-phi) @ (x_in, p_in) + N(0, N_0)`` with gain
``g = sqrt(T*eta/2)`` and noise floor ``N_0 = 1 + nu_el``: its unit part
collects transmitted shot noise, the channel and detector vacuum admixtures
and the heterodyne 3 dB vacuum penalty (they always sum to exactly 1 for a
coherent-state input), and ``nu_el`` is electronic noise.  The trusted
detector's noise at its input is ``chi_het = (1 + (1 - eta) + 2*nu_el)/eta``
(Fossier et al., J. Phys. B 42, 114014 (2009)), so on a Gaussian-modulated
ensemble Bob's per-quadrature variance is ``g**2 * (V + chi_tot)`` with
``chi_tot = chi_line + chi_het/T`` (:func:`llo_sim.security._noise_terms`).

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
from typing import Iterator, NamedTuple

from ._lazy_numpy import np
from ._record import Record
from ._seeding import as_generator, seed_sequence
from .errors import ConfigError, DomainError, ScheduleError
from .noise_models import LaserModel, beat, sample_phase_trajectory


class RunSeeds(Record):
    """Per-purpose random streams of one simulated run; ``laser`` drives its
    one relative-phase walk (:func:`llo_sim.noise_models.beat`).

    Most callers pass a plain integer seed to :func:`simulate_run`; this type
    exists for variance-reduction schemes that deliberately share some streams
    between runs (e.g. re-detecting the same laser trajectory at a different
    reference power) while keeping the rest independent.
    """

    laser: object
    phase0: object
    modulation: object
    detector: object

    @classmethod
    def from_seed(cls, seed: int, *path) -> "RunSeeds":
        return cls(
            laser=seed_sequence(seed, *path, "laser"),
            phase0=seed_sequence(seed, *path, "phase0"),
            modulation=seed_sequence(seed, *path, "modulation"),
            detector=seed_sequence(seed, *path, "detector"),
        )


class GaussianModulation(Record):
    """Bivariate Gaussian modulation of variance ``variance_snu`` (V_A)."""

    variance_snu: float

    def __post_init__(self) -> None:
        if not self.variance_snu > 0:
            raise ConfigError(f"V_A must be > 0, got {self.variance_snu}")


class PulseTrainConfig(Record):
    """Interleaved signal/reference schedule.

    ``repetition_period_s`` is the spacing between *consecutive* pulses (the
    signal-to-reference delay T_d); photon numbers are mean values per pulse
    at the receiver.  ``modulation`` is either a phase pair ``(phase0,
    phase1)`` (rad), the binary encoding whose signals alternate 0101...
    between the two phases at ``signal_photons``, or a
    :class:`GaussianModulation`, which ignores the signal photon number (the
    modulation variance fixes it, mean V_A/2 photons).  The default ``(0.0,
    0.0)`` is an unmodulated train at phase 0.
    """

    repetition_period_s: float
    n_pairs: int
    signal_photons: float
    reference_photons: float
    modulation: tuple[float, float] | GaussianModulation = (0.0, 0.0)

    def __post_init__(self) -> None:
        if not self.repetition_period_s > 0:
            raise ConfigError(
                f"repetition period must be > 0 s, got {self.repetition_period_s}"
            )
        if self.n_pairs < 1:
            raise ConfigError(f"n_pairs must be >= 1, got {self.n_pairs}")
        if self.signal_photons < 0 or self.reference_photons < 0:
            raise ConfigError("photon numbers must be >= 0")
        pair = isinstance(self.modulation, tuple) and len(self.modulation) == 2
        if not (pair or isinstance(self.modulation, GaussianModulation)):
            raise ConfigError(f"unknown modulation {self.modulation!r}")


class ChannelDetector(Record):
    """Fibre channel plus heterodyne detector, and the one statement of the
    receiver model (module docstring): its properties give ``g``, ``N_0`` and
    ``chi_het``, and a detector change (homodyne, say) edits only them.

    Transmittance follows :func:`fiber_transmittance` unless overridden.  Detector
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
        if self.transmittance == 0.0:
            raise ConfigError(
                f"fiber length {self.fiber_length_km:g} km at "
                f"{self.attenuation_db_per_km:g} dB/km underflows the transmittance to 0"
            )

    @property
    def transmittance(self) -> float:
        if self.transmittance_override is not None:
            return self.transmittance_override
        return fiber_transmittance(self.attenuation_db_per_km, self.fiber_length_km)

    @property
    def power_gain(self) -> float:
        """``T*eta``: the fraction of the input power that is detected."""
        return self.transmittance * self.detector_efficiency

    @property
    def amplitude_gain(self) -> float:
        """``g = sqrt(T*eta/2)``: the heterodyne quadrature gain Alice -> Bob."""
        return math.sqrt(self.power_gain / 2.0)

    @property
    def noise_snu(self) -> float:
        """``N_0 = 1 + nu_el``: the per-quadrature noise floor (SNU)."""
        return 1.0 + self.electronic_noise_snu

    @property
    def chi_het(self) -> float:
        """``chi_het``: the trusted detector's noise referred to its input."""
        eta = self.detector_efficiency
        return (1.0 + (1.0 - eta) + 2.0 * self.electronic_noise_snu) / eta


def fiber_transmittance(attenuation_db_per_km: float, length_km: float) -> float:
    """``10**(-alpha*L/10)``: the transmittance of ``length_km`` of fibre."""
    return 10.0 ** (-attenuation_db_per_km * length_km / 10.0)


class QuadratureSample(NamedTuple):
    """One heterodyne outcome in shot-noise units.

    ``true_phase`` is the unwrapped ground-truth LO-vs-signal phase offset at
    the pulse's timestamp, retained for validation only.
    """

    x: float
    p: float
    kind: str  # "signal" or "reference"
    index: int
    true_phase: float | None = None


class PulseBlock(Record):
    """One run's pulses as arrays in schedule order R S R S ...: position ``k``
    is a reference when ``k`` is even, a signal when it is odd, so a block
    holds an even number of pulses.

    ``x``, ``p`` and ``true_phase`` have one entry per pulse; ``true_phase``
    is as in :class:`QuadratureSample`.  ``encoded_phase`` has one entry per
    R S pair: Alice's encoded phase of signal ``i`` (pulse ``2*i + 1``).
    Iterating yields one :class:`QuadratureSample` per pulse.
    """

    x: np.ndarray
    p: np.ndarray
    true_phase: np.ndarray
    encoded_phase: np.ndarray

    # Arrays have no single truth value, so blocks compare by identity.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __post_init__(self) -> None:
        for name in ("x", "p", "true_phase", "encoded_phase"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.x.ndim != 1 or not (self.x.shape == self.p.shape == self.true_phase.shape):
            raise ScheduleError("x, p and true_phase must be 1-d arrays of equal length")
        if self.x.size % 2 or self.encoded_phase.shape != (self.x.size // 2,):
            raise ScheduleError(
                f"an R S schedule of {self.x.size} pulses needs an even pulse count and "
                f"one encoded phase per pair, got {self.encoded_phase.shape}"
            )
        if not (np.isfinite(self.x).all() and np.isfinite(self.p).all()):
            raise DomainError("non-finite quadratures in pulse block")

    def __len__(self) -> int:
        return self.x.size

    # Kept for the acceptance gate, which iterates a block and reads .kind/.x/.p/.true_phase.
    def __iter__(self) -> Iterator[QuadratureSample]:
        columns = zip(self.x.tolist(), self.p.tolist(), self.true_phase.tolist())
        for k, (x, p, true_phase) in enumerate(columns):
            yield QuadratureSample(x, p, "signal" if k % 2 else "reference", k, true_phase)


def coherent_amplitude(photons: float) -> tuple[float, float]:
    """Mean quadrature vector of a coherent state of ``photons`` at phase 0."""
    if photons < 0:
        raise DomainError(f"photon number must be >= 0, got {photons}")
    return 2.0 * math.sqrt(photons), 0.0


def _draw_symbols(modulation, photons: float, indices: np.ndarray, rng):
    """Alice's target quadratures and encoded phases: ``(x_a, p_a, phase)``
    for a :attr:`PulseTrainConfig.modulation`."""
    n = indices.size
    if isinstance(modulation, GaussianModulation):
        sigma = math.sqrt(modulation.variance_snu)
        x_a = rng.normal(0.0, sigma, size=n)
        p_a = rng.normal(0.0, sigma, size=n)
        return x_a, p_a, np.arctan2(p_a, x_a)
    phases = np.where(indices % 2 == 0, *modulation)
    r = 2.0 * math.sqrt(photons)
    return r * np.cos(phases), r * np.sin(phases), phases


def _measure_arrays(x_in, p_in, phi, det: ChannelDetector, rng):
    """Vectorised heterodyne measurement; rng=None gives the noise-free mean."""
    scale = det.amplitude_gain
    c, s = np.cos(phi), np.sin(phi)
    x = scale * (x_in * c + p_in * s)
    p = scale * (-x_in * s + p_in * c)
    if rng is not None:
        sigma = math.sqrt(det.noise_snu)
        x = x + rng.normal(0.0, sigma, size=np.shape(x))
        p = p + rng.normal(0.0, sigma, size=np.shape(p))
    return x, p


def simulate_run(
    train: PulseTrainConfig,
    lasers: tuple[LaserModel, LaserModel],
    det: ChannelDetector,
    seed,
) -> PulseBlock:
    """Simulate one interleaved run; returns its pulses in schedule order,
    with Alice's encoded phase of each signal.

    ``lasers`` is (signal laser, LO laser).  The per-pulse phase offset is one
    trajectory of their :func:`~llo_sim.noise_models.beat` plus a uniform
    random initial offset.  Sub-streams for the trajectory, the initial
    offset, the modulation and the detector noise are derived independently
    from ``seed``, so the run is reproducible and batch-order independent.
    """
    if train.n_pairs < 2:
        raise ScheduleError(f"need n_pairs >= 2, got {train.n_pairs}")
    seeds = seed if isinstance(seed, RunSeeds) else RunSeeds.from_seed(int(seed))

    n = train.n_pairs
    times = np.arange(2 * n, dtype=float) * train.repetition_period_s
    phi0 = float(as_generator(seeds.phase0).uniform(0.0, math.tau))
    phi = phi0 + sample_phase_trajectory(beat(*lasers), times, seeds.laser)

    x_a, p_a, encoded = _draw_symbols(
        train.modulation, train.signal_photons, np.arange(n), as_generator(seeds.modulation)
    )
    ref_x, ref_p = coherent_amplitude(train.reference_photons)

    x_in = np.empty(2 * n)
    p_in = np.empty(2 * n)
    x_in[0::2], p_in[0::2] = ref_x, ref_p
    x_in[1::2], p_in[1::2] = x_a, p_a

    x_out, p_out = _measure_arrays(x_in, p_in, phi, det, as_generator(seeds.detector))
    return PulseBlock(x_out, p_out, phi, encoded)

