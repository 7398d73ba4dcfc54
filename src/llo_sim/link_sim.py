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
``chi_tot = 1/T - 1 + eps + chi_het/T`` for an excess noise ``eps``.

Pulse schedule (one run): R_0 S_0 R_1 S_1 ... with one repetition period
between consecutive pulses, so signal ``i`` sits midway between references
``i`` and ``i+1``.  Pulse duration is collapsed to an instant; photon numbers
are specified at the receiver input.  A run is one :class:`PulseBlock` of
arrays in that order, the one place the schedule is stated: a pulse's kind
follows from its position.  Detection and remapping turn quadratures by the one
:func:`rotate`, so their sign convention is the sign of the sine passed to it;
that of pilot recovery lives in one kernel in :mod:`llo_sim.phase_recovery`.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from ._lazy_numpy import np
from ._record import Record
from ._seeding import as_generator, seed_sequence
from .errors import ConfigError, DomainError, ScheduleError
from .noise_models import LaserModel, batch_bounds, beat, sample_phase_trajectory

# The smallest inputs of two phase-recovery estimators, stated below both
# phase_recovery and config so that a config can size its batches without
# loading the estimators.
#: Signals per encoded symbol that ``phase_recovery.residual_variance`` needs.
MIN_SYMBOL_SIGNALS = 2
#: Signals that ``phase_recovery.sigma_phi_from_quadratures`` needs.
MIN_REMAP_SIGNALS = 100


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
        if not (self.signal_photons >= 0 and self.reference_photons >= 0):
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
        if not self.attenuation_db_per_km >= 0:
            raise ConfigError(
                f"attenuation must be >= 0 dB/km, got {self.attenuation_db_per_km}"
            )
        if not self.fiber_length_km >= 0:
            raise ConfigError(
                f"fiber length must be >= 0 km, got {self.fiber_length_km}"
            )
        if not 0 < self.detector_efficiency <= 1:
            raise ConfigError(
                f"detector efficiency must be in (0, 1], got {self.detector_efficiency}"
            )
        if not self.electronic_noise_snu >= 0:
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

    A block may hold several independent batches of a run laid end to end:
    ``batch_pairs`` gives the R S pairs of each, in order, and defaults to one
    batch of every pair.  Each batch is a schedule of its own, so no pilot
    interpolation spans two of them.
    """

    x: np.ndarray
    p: np.ndarray
    true_phase: np.ndarray
    encoded_phase: np.ndarray
    batch_pairs: tuple[int, ...] | None = None

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
        pairs = (self.x.size // 2,) if self.batch_pairs is None else tuple(self.batch_pairs)
        if self.batch_pairs is not None and (
            sum(pairs) != self.x.size // 2 or min(pairs, default=0) < 1
        ):
            raise ScheduleError(
                f"batch_pairs {list(pairs)} must be >= 1 each and sum to the "
                f"block's {self.x.size // 2} pairs"
            )
        object.__setattr__(self, "batch_pairs", pairs)
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
    r = coherent_amplitude(photons)[0]
    x_a = np.cos(phases)
    x_a *= r
    p_a = np.sin(phases)
    p_a *= r
    return x_a, p_a, phases


def rotate(x, p, c, s):
    """``(x, p)`` rotated by the angle whose cosine and sine are ``c`` and ``s``:
    ``(x*c - p*s, x*s + p*c)``, built in place to hold fewer temporaries."""
    x_out = x * c
    x_out -= p * s
    p_out = x * s
    p_out += p * c
    return x_out, p_out


def lo_frame(phi):
    """``(cos phi, -sin phi)``: the rotation into the frame of an LO offset
    by ``phi`` from the signal laser, for :func:`rotate`."""
    sin = np.sin(phi)
    sin *= -1.0  # negates in place, bit for bit
    return np.cos(phi), sin


def _measure_arrays(x_in, p_in, frame, det: ChannelDetector, rngs, batch_sizes):
    """Vectorised heterodyne measurement in the :func:`lo_frame` ``frame`` of
    pulses that are ``batch_sizes`` batches end to end, with detector noise
    from ``rngs``, one generator per batch."""
    x, p = rotate(x_in, p_in, *frame)
    del x_in, p_in  # detect_run's interleaved inputs go before the noise is drawn
    x *= det.amplitude_gain
    p *= det.amplitude_gain
    # Each batch draws its x noise, then its p noise, as rng.normal(0, sigma)
    # would: that is 0.0 + sigma*z, hence the + 0.0.
    sigma = math.sqrt(det.noise_snu)
    noise = np.empty(x.shape)
    for quadrature in (x, p):
        for part, rng in zip(batch_bounds(batch_sizes), rngs):
            rng.standard_normal(out=noise[part])
        noise *= sigma
        noise += 0.0
        quadrature += noise
    return x, p


def _batch_paths(path, batch_pairs, n_pairs: int) -> tuple[tuple[int, ...], list[tuple]]:
    """``(pairs, paths)``: each batch's R S pairs and stream path for
    :func:`launch_run`'s ``batch_pairs``."""
    if batch_pairs is None:
        return (n_pairs,), [path]
    pairs = tuple(batch_pairs)
    if sum(pairs) != n_pairs:
        raise ScheduleError(f"batch_pairs {list(pairs)} do not sum to n_pairs = {n_pairs}")
    if not (path and isinstance(path[-1], int)):
        raise ScheduleError(f"a block's stream path must end in its first batch index, got {path}")
    *prefix, first = path
    return pairs, [(*prefix, first + b) for b in range(len(pairs))]


class Launch(NamedTuple):
    """A run up to detection (:func:`launch_run`).  ``phi`` is the
    LO-vs-signal phase offset of each pulse and ``frame`` its
    :func:`lo_frame`, computed once for every detection; ``x_a``, ``p_a`` and
    ``encoded`` are Alice's target quadratures and encoded phase of each
    signal.  ``batch_pairs`` and ``paths``, each batch's R S pairs and stream
    path, are the one statement of the run's batch layout."""

    phi: np.ndarray
    frame: tuple[np.ndarray, np.ndarray]
    x_a: np.ndarray
    p_a: np.ndarray
    encoded: np.ndarray
    batch_pairs: tuple[int, ...]
    paths: list[tuple]


def launch_run(
    train: PulseTrainConfig, lasers: tuple[LaserModel, LaserModel], seed, *path, batch_pairs=None
) -> Launch:
    """A run up to detection.  ``phi`` is one trajectory of the
    :func:`~llo_sim.noise_models.beat` of ``lasers`` (signal laser, LO laser)
    plus a uniform initial offset, from the ``"laser"`` and ``"phase0"``
    streams at ``(seed, *path)``; a Gaussian modulation draws Alice's symbols
    from its ``"modulation"`` stream.  The reference photon number is
    :func:`detect_run`'s, so one launch can be detected at several.

    With ``batch_pairs``, the ``train.n_pairs`` pairs are that many batches
    of the run laid end to end, one block: the last part of ``path`` is the
    first batch's index, and batch ``b`` draws from the streams at
    ``path`` with ``b`` added to it, as its own call would.  Only the draws,
    running sums and initial offsets go batch by batch; every other stage
    runs once over the block."""
    pairs, paths = _batch_paths(path, batch_pairs, train.n_pairs)
    if min(pairs) < 2:
        raise ScheduleError(f"need n_pairs >= 2, got {min(pairs)}")
    pulses = [2 * n for n in pairs]
    # Every batch's timestamps 0, T, 2T, ... begin one grid.
    times = np.concatenate([np.arange(n, dtype=float) for n in pulses])
    times *= train.repetition_period_s
    phi = sample_phase_trajectory(
        beat(*lasers), times, [seed_sequence(seed, *p, "laser") for p in paths], pulses
    )
    phi += np.repeat([
        as_generator(seed_sequence(seed, *p, "phase0")).uniform(0.0, math.tau) for p in paths
    ], pulses)
    if isinstance(train.modulation, GaussianModulation):
        rngs = [as_generator(seed_sequence(seed, *p, "modulation")) for p in paths]
        x_a, p_a, encoded = (np.concatenate(column) for column in zip(*(
            _draw_symbols(train.modulation, train.signal_photons, np.arange(n), rng)
            for n, rng in zip(pairs, rngs)
        )))
    else:  # a phase pair draws nothing; a signal's phase follows its index in its batch
        indices = np.concatenate([np.arange(n) for n in pairs])
        x_a, p_a, encoded = _draw_symbols(train.modulation, train.signal_photons, indices, None)
    return Launch(phi, lo_frame(phi), x_a, p_a, encoded, pairs, paths)


def detect_run(
    launched: Launch, reference_photons: float, det: ChannelDetector, seeds
) -> PulseBlock:
    """Interleave references of ``reference_photons`` with the signals of a
    :func:`launch_run` result and measure every pulse through ``det``: a
    block of the launch's batches.  ``seeds`` holds one detector seed
    (anything :func:`as_generator` takes) per batch."""
    pairs = launched.batch_pairs
    if len(seeds) != len(pairs):
        raise ScheduleError(
            f"need one detector seed per batch: {len(pairs)} batches, got {len(seeds)} seeds"
        )
    ref_x, ref_p = coherent_amplitude(reference_photons)
    x_out, p_out = _measure_arrays(
        _interleave(ref_x, launched.x_a), _interleave(ref_p, launched.p_a), launched.frame, det,
        [as_generator(s) for s in seeds], [2 * n for n in pairs],
    )
    return PulseBlock(x_out, p_out, launched.phi, launched.encoded, pairs)


def _interleave(reference, signals):
    """One quadrature of an R S schedule: ``reference`` at every even
    position, ``signals`` at the odd ones."""
    pulses = np.empty(2 * signals.size)
    pulses[0::2] = reference
    pulses[1::2] = signals
    return pulses


def simulate_run(
    train: PulseTrainConfig, lasers: tuple[LaserModel, LaserModel], det: ChannelDetector,
    seed: int, *path: int | str, batch_pairs=None,
) -> PulseBlock:
    """Simulate one interleaved run: its pulses in schedule order, with
    Alice's encoded phase of each signal.  One :func:`launch_run`, detected
    by :func:`detect_run` with the ``"detector"`` stream; every stream is
    derived from ``seed`` and the label ``path``, so the run is reproducible
    and batch-order independent.  ``batch_pairs`` makes the run a block of
    batches, as in :func:`launch_run`; each batch's pulses are those its own
    call gives."""
    launched = launch_run(train, lasers, seed, *path, batch_pairs=batch_pairs)
    detectors = [seed_sequence(seed, *p, "detector") for p in launched.paths]
    return detect_run(launched, train.reference_photons, det, detectors)
