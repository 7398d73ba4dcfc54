"""Pilot-aided feedforward phase recovery and quadrature remapping.

Sign conventions, fixed once here and used everywhere:

* A pulse measured at LO-vs-signal phase offset ``phi`` lands at angle
  ``theta_enc - phi`` in Bob's phase space (``theta_enc`` is the encoded
  phase, 0 for reference pulses).
* A reference pulse therefore gives ``phi = -atan2(p, x)``, and signal ``i``
  takes the shorter-arc midpoint of references ``i`` and ``i+1``.  Each rule
  is written once, in the array kernel ``_reference_phases`` / ``_midpoints``
  that :func:`recover_run` calls.
* Raw signal phases are the plain ``atan2(p, x)`` (i.e. ``theta_enc - phi``),
  so the correction is an addition: ``corrected = raw + interpolated_phi``.
* :func:`remap_quadratures` rotates by ``+phi`` and undoes the measurement
  rotation.

The R S R S schedule of a run is stated in :class:`llo_sim.link_sim.PulseBlock`.
All angles live in the principal range (-pi, pi].
"""

from __future__ import annotations

import math
import warnings

from ._lazy_numpy import np
from ._record import Record
from .errors import DomainError, EstimationError, ScheduleError
from .link_sim import PulseBlock


#: Above this residual variance (rad^2) the linearised circular statistics
#: used by :func:`residual_variance` stop being trustworthy.
CIRCULAR_LINEAR_LIMIT = 0.5


def wrap_phase(phi):
    """Reduce angle(s) to the principal range (-pi, pi]."""
    phi = np.asarray(phi, dtype=float)
    if phi.size and -math.tau < phi.min() and phi.max() < math.tau:
        # fmod is the identity for |phi| < tau, so np.mod's result is phi + tau
        # below 0 and phi + 0.0 (+0 for -0) otherwise: the same bits at about
        # half the cost.  NaN fails the test and takes np.mod.
        wrapped = np.where(phi < 0.0, phi + math.tau, phi + 0.0)
    else:
        wrapped = np.mod(phi, math.tau)
    wrapped = np.where(wrapped > math.pi, wrapped - math.tau, wrapped)
    if wrapped.ndim == 0:
        return float(wrapped)
    return wrapped


def _reference_phases(x_r, p_r):
    """LO phase offsets ``-atan2(p, x)`` of reference-pulse measurements."""
    if np.any((x_r == 0.0) & (p_r == 0.0)):
        raise EstimationError("phase of the zero vector is undefined")
    return wrap_phase(-np.arctan2(p_r, x_r))


def _midpoints(ref_phases: np.ndarray) -> tuple[np.ndarray, int]:
    """Shorter-arc midpoint of each pair of consecutive reference phases.

    This adds half the unwrapped reference-to-reference advance, valid while
    the true advance per reference gap stays below pi (beat frequency below
    ``1/(4*T_d)``).  Also returns how many pairs were exactly antipodal; such
    a pair is broken towards the positive direction.
    """
    deltas = wrap_phase(np.diff(ref_phases))
    n_ties = int(np.count_nonzero(deltas == math.pi))
    return wrap_phase(ref_phases[:-1] + 0.5 * deltas), n_ties


def remap_quadratures(x_b, p_b, phi):
    """Rotate measured quadratures by ``+phi`` (scalars or arrays)."""
    c, s = np.cos(phi), np.sin(phi)
    x = x_b * c - p_b * s
    p = x_b * s + p_b * c
    if np.ndim(x) == 0:
        return float(x), float(p)
    return x, p


def predicted_sigma_phi(var_s: float, var_l: float) -> float:
    """Phase-recovery noise variance from the two lasers' per-delay variances."""
    if var_s < 0 or var_l < 0:
        raise DomainError(f"variances must be >= 0, got ({var_s}, {var_l})")
    return 0.5 * (var_s + var_l)


def residual_variance(corrected, encoded) -> dict[float, float]:
    """Circular-aware variance of (corrected - encoded), per encoded symbol.

    Deviations are wrapped, centred on their circular mean per symbol group,
    and the linear sample variance of the wrapped residuals is returned.  The
    linearisation is only valid for variances well below 1 rad^2; a warning
    is emitted above :data:`CIRCULAR_LINEAR_LIMIT`.
    """
    corrected = np.asarray(corrected, dtype=float)
    encoded = np.asarray(encoded, dtype=float)
    if corrected.shape != encoded.shape or corrected.ndim != 1:
        raise ScheduleError("corrected and encoded must be 1-d arrays of equal length")
    if corrected.size == 0:
        raise EstimationError("cannot estimate variance of an empty sequence")

    variances: dict[float, float] = {}
    # sorted(set(...)) rather than np.unique, whose numpy 2.x path imports numpy.ma
    for symbol in sorted(set(encoded.tolist())):
        deviations = wrap_phase(corrected[encoded == symbol] - symbol)
        if deviations.size < 2:
            raise EstimationError(
                f"symbol group {symbol} has {deviations.size} samples, need >= 2"
            )
        mean = math.atan2(np.mean(np.sin(deviations)), np.mean(np.cos(deviations)))
        centred = wrap_phase(deviations - mean)
        var = float(np.var(centred, ddof=1))
        if var > CIRCULAR_LINEAR_LIMIT:
            warnings.warn(
                f"residual variance {var:.3f} rad^2 exceeds the circular-to-linear "
                "approximation range",
                stacklevel=2,
            )
        variances[symbol] = var
    return variances


def sigma_phi_from_quadratures(samples) -> float:
    """Phase-noise variance from remapped quadratures of an unmodulated train.

    Implements ``(Var[p'] - Var[x']) / mean[x']^2``.  ``samples`` is an
    ``(x, p)`` pair of arrays.  Requires at least 100 samples and a mean X
    quadrature that is resolvable above its own standard error.
    """
    x, p = (np.asarray(q, dtype=float) for q in samples)
    n = x.size
    if n < 100:
        raise EstimationError(f"need >= 100 samples, got {n}")
    mean_x = float(np.mean(x))
    var_x = float(np.var(x, ddof=1))
    var_p = float(np.var(p, ddof=1))
    if mean_x**2 <= 25.0 * var_x / n:
        raise EstimationError(
            "mean X quadrature indistinguishable from 0; estimator ill-conditioned"
        )
    return (var_p - var_x) / mean_x**2


class RecoveredRun(Record):
    """Vectorised result of recovering one simulated run.

    Arrays cover the usable signals only: the final signal of a run has no
    following reference and is dropped.  The signal quadratures, true phases
    and ``encoded_phases`` (Alice's encoded phase of each usable signal) are
    views into the recovered block.  ``n_antipodal_ties`` counts the
    reference pairs that :func:`_midpoints` found exactly antipodal.
    """

    signal_x: np.ndarray
    signal_p: np.ndarray
    raw_phases: np.ndarray
    interpolated_phases: np.ndarray
    corrected_phases: np.ndarray
    true_phases: np.ndarray
    encoded_phases: np.ndarray
    n_antipodal_ties: int


def recover_run(block: PulseBlock) -> RecoveredRun:
    """Run the full feedforward pipeline over one simulated pulse train.

    Takes a :class:`PulseBlock` from :func:`llo_sim.link_sim.simulate_run`,
    whose constructor has checked the R S R S ... schedule.  Signal ``i`` is
    interpolated from references ``i`` and ``i+1``; the last signal is
    dropped for lack of a following reference.
    """
    if len(block) < 4:
        raise ScheduleError(f"need >= 2 R S pairs, got {len(block)} pulses")

    ref_phases = _reference_phases(block.x[0::2], block.p[0::2])
    interpolated, n_ties = _midpoints(ref_phases)

    sig_x = block.x[1:-1:2]
    sig_p = block.p[1:-1:2]
    raw = np.arctan2(sig_p, sig_x)
    corrected = wrap_phase(raw + interpolated)

    return RecoveredRun(
        signal_x=sig_x,
        signal_p=sig_p,
        raw_phases=raw,
        interpolated_phases=interpolated,
        corrected_phases=corrected,
        true_phases=block.true_phase[1:-1:2],
        encoded_phases=block.encoded_phase[:-1],
        n_antipodal_ties=n_ties,
    )
