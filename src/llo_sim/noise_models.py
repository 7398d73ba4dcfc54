"""Laser phase noise as a Wiener process.

A free-running laser with Lorentzian lineshape accumulates phase deviations
whose variance grows linearly with elapsed time, ``Var[dtheta(t)] = 2 t /
tau_c``, where the coherence time relates to the linewidth by ``tau_c =
1 / (pi * linewidth)``.  This module generates such trajectories on arbitrary
(sparse) time grids and simulates the delayed self-interference measurement
used to characterise a laser from its own beat note.

All stochastic functions take an explicit seed and are pure given that seed;
parallel callers must derive per-trial sub-streams via
:func:`llo_sim._seeding.substream`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._seeding import as_generator
from .errors import DomainError

TWO_PI = 2.0 * math.pi

#: Relative tolerance for the linewidth * coherence-time ~= 1/pi consistency check.
_LINEWIDTH_PRODUCT_RTOL = 1e-12


def coherence_time_from_linewidth(linewidth_hz: float) -> float:
    """Coherence time (s) of a Lorentzian laser of FWHM ``linewidth_hz``."""
    if not linewidth_hz > 0:
        raise DomainError(f"linewidth must be > 0 Hz, got {linewidth_hz}")
    return 1.0 / (math.pi * linewidth_hz)


def linewidth_from_coherence_time(coherence_time_s: float) -> float:
    """Inverse of :func:`coherence_time_from_linewidth`."""
    if not coherence_time_s > 0:
        raise DomainError(f"coherence time must be > 0 s, got {coherence_time_s}")
    return 1.0 / (math.pi * coherence_time_s)


@dataclass(frozen=True)
class LaserModel:
    """One free-running laser: linewidth/coherence time plus detuning.

    Exactly one of ``linewidth_hz`` and ``coherence_time_s`` must be supplied;
    the other is derived.  ``linewidth_hz = 0`` (equivalently
    ``coherence_time_s = inf``) is the noiseless limit.  ``center_detuning_hz``
    is this laser's contribution to the beat frequency against the other
    laser; ``drift_rate_hz_per_s`` adds a slow linear chirp so the accumulated
    deterministic phase is ``2*pi*(f0 + r*t)*t``.
    """

    linewidth_hz: float | None = None
    coherence_time_s: float | None = None
    center_detuning_hz: float = 0.0
    drift_rate_hz_per_s: float = 0.0

    def __post_init__(self) -> None:
        lw, tc = self.linewidth_hz, self.coherence_time_s
        if lw is None and tc is None:
            raise DomainError("one of linewidth_hz / coherence_time_s is required")
        if lw is not None and tc is not None:
            # Both given: accept only if they already satisfy the Lorentzian relation.
            if math.isinf(tc) and lw == 0.0:
                pass
            elif lw > 0 and tc > 0:
                product = lw * tc
                if abs(product - 1.0 / math.pi) > _LINEWIDTH_PRODUCT_RTOL / math.pi:
                    raise DomainError(
                        "linewidth_hz and coherence_time_s are inconsistent: "
                        f"product {product!r} != 1/pi"
                    )
            else:
                raise DomainError("linewidth/coherence time must be positive")
        elif lw is not None:
            if lw < 0:
                raise DomainError(f"linewidth must be >= 0 Hz, got {lw}")
            tc = math.inf if lw == 0.0 else coherence_time_from_linewidth(lw)
            object.__setattr__(self, "coherence_time_s", tc)
        else:
            if not (tc > 0):
                raise DomainError(f"coherence time must be > 0 s, got {tc}")
            lw = 0.0 if math.isinf(tc) else linewidth_from_coherence_time(tc)
            object.__setattr__(self, "linewidth_hz", lw)

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
            return cls(coherence_time_s=math.inf, **kwargs)
        return cls(coherence_time_s=2.0 * delay_s / variance_rad2, **kwargs)

    @classmethod
    def noiseless(cls, **kwargs) -> "LaserModel":
        return cls(linewidth_hz=0.0, **kwargs)

    @property
    def is_noiseless(self) -> bool:
        return math.isinf(self.coherence_time_s)


@dataclass(frozen=True)
class PhaseTrajectory:
    """Accumulated phase deviation of one laser sampled at given timestamps."""

    times: np.ndarray
    phases: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        phases = np.asarray(self.phases, dtype=float)
        if times.ndim != 1 or phases.ndim != 1 or times.shape != phases.shape:
            raise DomainError("times and phases must be 1-d arrays of equal length")
        if times.size == 0:
            raise DomainError("trajectory must contain at least one timestamp")
        if np.any(np.diff(times) <= 0):
            raise DomainError("times must be strictly increasing")
        if times[0] == 0.0 and phases[0] != 0.0:
            raise DomainError("phase at t=0 must be 0")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "phases", phases)


def phase_noise_variance(t: float, laser: LaserModel) -> float:
    """Variance (rad^2) of the accumulated phase deviation after time ``t``."""
    if t < 0:
        raise DomainError(f"elapsed time must be >= 0, got {t}")
    if laser.is_noiseless:
        return 0.0
    return 2.0 * t / laser.coherence_time_s


def sample_phase_trajectory(laser: LaserModel, times, seed) -> PhaseTrajectory:
    """Sample one phase trajectory of ``laser`` at the given timestamps.

    Increments between consecutive timestamps are independent zero-mean
    Gaussians of variance ``2*dt/tau_c``; on top of the random walk the phase
    advances deterministically by ``2*pi*(f0 + r*t)*t`` from the detuning and
    drift.  Timestamps must start at 0 and be strictly increasing.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise DomainError("times must be a non-empty 1-d sequence")
    if times[0] != 0.0:
        raise DomainError(f"times must start at 0, got {times[0]}")
    if np.any(np.diff(times) <= 0):
        raise DomainError("times must be strictly increasing")

    if laser.is_noiseless:
        wiener = np.zeros_like(times)
    else:
        rng = as_generator(seed)
        dts = np.diff(times)
        increments = rng.standard_normal(dts.size) * np.sqrt(
            2.0 * dts / laser.coherence_time_s
        )
        wiener = np.concatenate(([0.0], np.cumsum(increments)))

    deterministic = TWO_PI * (
        laser.center_detuning_hz + laser.drift_rate_hz_per_s * times
    ) * times
    return PhaseTrajectory(times=times, phases=wiener + deterministic)


def simulate_self_interference(
    laser: LaserModel, delay_s: float, n_samples: int, seed
) -> float:
    """Sample variance (rad^2) of a delayed self-interference measurement.

    The laser beats against itself delayed by ``delay_s``; each sample is the
    phase difference over one delay window, taken on disjoint windows so the
    samples are independent.  The expectation equals ``2*delay/tau_c``.  The
    measurement is treated as fringe-tracked (no 2*pi wrapping), which is
    accurate for variances well below pi^2.
    """
    if delay_s < 0:
        raise DomainError(f"delay must be >= 0 s, got {delay_s}")
    if n_samples < 2:
        raise DomainError(f"need at least 2 samples, got {n_samples}")
    if delay_s == 0.0:
        return 0.0
    times = np.arange(n_samples + 1, dtype=float) * delay_s
    trajectory = sample_phase_trajectory(laser, times, seed)
    diffs = np.diff(trajectory.phases)
    return float(np.var(diffs, ddof=1))
