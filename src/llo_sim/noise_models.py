"""Laser phase noise as a Wiener process.

A free-running laser with Lorentzian lineshape accumulates phase deviations
whose variance grows linearly with elapsed time, ``Var[dtheta(t)] = 2 t /
tau_c``, where the coherence time relates to the linewidth by ``tau_c =
1 / (pi * linewidth)``; a :class:`LaserModel` keeps ``tau_c`` only, and the
noiseless laser is ``tau_c = inf`` in the same formulas (``2 t / inf = 0``).
The receiver sees one relative phase, the :func:`beat` of the LO and signal
lasers.  This module generates such trajectories on arbitrary (sparse) time
grids and simulates the delayed self-interference measurement used to
characterise a laser from its own beat note.

All stochastic functions take an explicit seed and are pure given that seed;
parallel callers must derive per-trial sub-streams via
:func:`llo_sim._seeding.substream`.
"""

from __future__ import annotations

import itertools
import math

from ._lazy_numpy import np
from ._record import Record
from ._seeding import as_generator
from .errors import DomainError, NumericalDomainError


class LaserModel(Record):
    """One free-running laser: coherence time plus detuning.

    ``coherence_time_s = inf`` is the noiseless limit, which only :func:`beat`
    and the ``from_*`` constructors state apart, as there the general formula
    would divide by zero; :meth:`from_linewidth` converts a Lorentzian FWHM.
    ``center_detuning_hz`` is this laser's contribution to the beat frequency
    against the other laser; ``drift_rate_hz_per_s`` adds a slow linear chirp
    so the accumulated deterministic phase is ``2*pi*(f0 + r*t)*t``.
    """

    coherence_time_s: float
    center_detuning_hz: float = 0.0
    drift_rate_hz_per_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.coherence_time_s > 0:
            raise DomainError(f"coherence time must be > 0 s, got {self.coherence_time_s}")

    @classmethod
    def from_linewidth(cls, linewidth_hz: float, **kwargs) -> "LaserModel":
        """Laser of Lorentzian FWHM ``linewidth_hz``: ``tau_c = 1/(pi*linewidth)``,
        and ``linewidth_hz = 0`` is the noiseless laser."""
        if not 0 <= math.pi * linewidth_hz < math.inf:
            raise DomainError(f"linewidth must be >= 0 Hz with pi*lw finite, got {linewidth_hz}")
        tc = math.inf if linewidth_hz == 0.0 else 1.0 / (math.pi * linewidth_hz)
        return cls(tc, **kwargs)

    @classmethod
    def from_delay_variance(
        cls, variance_rad2: float, delay_s: float, **kwargs
    ) -> "LaserModel":
        """Laser whose phase noise at time lag ``delay_s`` is ``variance_rad2``.

        Inverts ``Var = 2 * delay / tau_c``; handy for building a model that
        matches a measured beat-note variance.
        """
        if not variance_rad2 >= 0:
            raise DomainError(f"variance must be >= 0, got {variance_rad2}")
        if not delay_s > 0:
            raise DomainError(f"delay must be > 0 s, got {delay_s}")
        if variance_rad2 == 0.0:
            return cls(math.inf, **kwargs)
        return cls(2.0 * delay_s / variance_rad2, **kwargs)

    @classmethod
    def noiseless(cls, **kwargs) -> "LaserModel":
        return cls(math.inf, **kwargs)

    @property
    def linewidth_hz(self) -> float:
        """Lorentzian FWHM (Hz), 0 for the noiseless laser."""
        return 1.0 / (math.pi * self.coherence_time_s)


def beat(laser_s: LaserModel, laser_l: LaserModel) -> LaserModel:
    """The LO-minus-signal phase of two independent lasers, as one laser.

    The difference of two independent Wiener walks is a Wiener walk whose
    rate ``1/tau_c`` is the sum of theirs; the detunings and drift rates
    subtract.  Two noiseless lasers beat noiselessly.
    """
    rate = 1.0 / laser_s.coherence_time_s + 1.0 / laser_l.coherence_time_s
    if math.isinf(rate):
        raise DomainError("the beat's phase-noise rate 1/tau_s + 1/tau_l overflows")
    return LaserModel(
        math.inf if rate == 0.0 else 1.0 / rate,
        laser_l.center_detuning_hz - laser_s.center_detuning_hz,
        laser_l.drift_rate_hz_per_s - laser_s.drift_rate_hz_per_s,
    )


def phase_noise_variance(t, laser: LaserModel):
    """Variance (rad^2) of the phase deviation accumulated over time ``t``, a float or an array."""
    if np.any(t < 0):
        raise DomainError(f"elapsed time must be >= 0, got {t}")
    return 2.0 * t / laser.coherence_time_s


def sample_phase_trajectory(laser: LaserModel, times, seed, *, batch_sizes=None) -> np.ndarray:
    """Accumulated phase deviation (rad) of ``laser`` at the given timestamps,
    one entry per timestamp.

    Increments between consecutive timestamps are independent zero-mean
    Gaussians of variance :func:`phase_noise_variance` over each gap (drawn,
    and scaled to 0, at ``tau_c = inf``); on top of that walk the phase
    advances deterministically by ``2*pi*(f0 + r*t)*t`` from the detuning
    and drift.  Timestamps must start at 0 and be strictly increasing.

    With ``batch_sizes``, ``times`` holds that many independent batches end
    to end and ``seed`` is a sequence of one seed per batch.  The batches
    share one time grid: each batch's timestamps begin the longest batch's,
    whose step scales and deterministic phase are computed once.  Each
    batch's entries are those its own call returns, bit for bit.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise DomainError("times must be a non-empty 1-d sequence")
    sizes = (times.size,) if batch_sizes is None else tuple(batch_sizes)
    seeds = (seed,) if batch_sizes is None else tuple(seed)
    if len(seeds) != len(sizes) or min(sizes) < 1 or sum(sizes) != times.size:
        raise DomainError(
            f"need one seed per batch and batch sizes >= 1 summing to {times.size}, "
            f"got {len(seeds)} seeds for sizes {list(sizes)}"
        )
    starts = list(itertools.accumulate(sizes[:-1], initial=0))
    longest = max(range(len(sizes)), key=sizes.__getitem__)
    grid = times[starts[longest] : starts[longest] + sizes[longest]]
    if grid[0] != 0.0:
        raise DomainError(f"times must start at 0, got {grid[0]}")
    dts = np.diff(grid)
    if np.any(dts <= 0):
        raise DomainError("times must be strictly increasing")
    if len(sizes) > 1 and not all(
        np.array_equal(times[start : start + size], grid[:size])
        for start, size in zip(starts, sizes)
    ):
        raise DomainError("every batch's timestamps must begin the longest batch's")

    steps = phase_noise_variance(dts, laser)
    np.sqrt(steps, out=steps)
    drift = laser.drift_rate_hz_per_s * grid
    drift += laser.center_detuning_hz
    drift *= math.tau
    drift *= grid
    trajectories = np.empty(times.size)
    for start, size, batch_seed in zip(starts, sizes, seeds):
        walk = trajectories[start : start + size]
        increments = walk[1:]
        as_generator(batch_seed).standard_normal(out=increments)
        increments *= steps[: size - 1]
        np.cumsum(increments, out=increments)
        walk[0] = 0.0
        walk += drift[:size]
    return trajectories


def simulate_self_interference(
    laser: LaserModel, delay_s: float, n_samples: int, seed, *, batch_samples=None
) -> float | list[float]:
    """Sample variance (rad^2) of a delayed self-interference measurement.

    The laser beats against itself delayed by ``delay_s``; each sample is the
    phase difference over one delay window, taken on disjoint windows so the
    samples are independent.  The expectation equals ``2*delay/tau_c``.  The
    measurement is treated as fringe-tracked (no 2*pi wrapping), which is
    accurate for variances well below pi^2.  A phase or variance beyond the
    float range raises :class:`NumericalDomainError`.

    With ``batch_samples`` (summing to ``n_samples``), ``seed`` is a sequence
    of one seed per batch, the batches share one time grid and one
    :func:`sample_phase_trajectory` call, and the result is the list of the
    batches' variances, each that of its own call.
    """
    sizes, seeds = ((n_samples,), [seed]) if batch_samples is None else (tuple(batch_samples), seed)
    if delay_s < 0:
        raise DomainError(f"delay must be >= 0 s, got {delay_s}")
    if min(sizes) < 2:
        raise DomainError(f"need at least 2 samples, got {min(sizes)}")
    if sum(sizes) != n_samples:
        raise DomainError(f"batch samples {list(sizes)} do not sum to {n_samples}")
    if delay_s == 0.0:
        variances = [0.0] * len(sizes)
    else:
        # Each batch's window ends 0, delay, 2*delay, ... start one grid.
        grid = np.arange(max(sizes) + 1, dtype=float) * delay_s
        times = np.concatenate([grid[: size + 1] for size in sizes])
        # Batch b's differences begin where its trajectory does, so the one
        # difference that spans two batches is never read.
        starts = itertools.accumulate((size + 1 for size in sizes), initial=0)
        try:
            with np.errstate(over="raise", invalid="raise"):
                diffs = np.diff(sample_phase_trajectory(
                    laser, times, seeds, batch_sizes=[size + 1 for size in sizes]
                ))
                variances = [
                    float(np.var(diffs[start : start + size], ddof=1))
                    for start, size in zip(starts, sizes)
                ]
        except FloatingPointError as exc:
            raise NumericalDomainError(
                f"self-interference variance at delay {delay_s:g} s leaves the float range"
            ) from exc
    return variances if batch_samples is not None else variances[0]
