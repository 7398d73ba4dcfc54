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
  rotation: both call :func:`llo_sim.link_sim.rotate`, the remapping with
  ``+sin(phi)`` and the measurement with ``-sin(phi)``.

The R S R S schedule of a run is stated in :class:`llo_sim.link_sim.PulseBlock`.
All angles live in the principal range (-pi, pi].
"""

from __future__ import annotations

import math
import warnings

from ._lazy_numpy import np
from ._record import Record
from .errors import DomainError, EstimationError, ScheduleError
from .link_sim import MIN_REMAP_SIGNALS, MIN_SYMBOL_SIGNALS, PulseBlock, rotate
from .noise_models import batch_bounds


#: Above this residual variance (rad^2) the linearised circular statistics
#: used by :func:`residual_variance` stop being trustworthy.
CIRCULAR_LINEAR_LIMIT = 0.5


def wrap_phase(phi):
    """Reduce angle(s) to the principal range (-pi, pi]."""
    phi = np.asarray(phi, dtype=float)
    if phi.size and -math.tau < phi.min() and phi.max() < math.tau:
        # fmod is the identity for |phi| < tau, so np.mod's result is phi + tau
        # below 0 and phi + 0.0 (+0 for -0) otherwise: adding tau or 0.0 as
        # the sign picks gives the same bits, with no np.mod and no branch per
        # element.  NaN fails the test and takes np.mod.
        wrapped = (phi < 0.0) * math.tau
        wrapped += phi
    else:
        wrapped = np.mod(phi, math.tau)
    # x - 0.0 is x for every x, so this subtracts tau exactly where x > pi.
    wrapped -= (wrapped > math.pi) * math.tau
    if wrapped.ndim == 0:
        return float(wrapped)
    return wrapped


def _reference_phases(x_r, p_r):
    """LO phase offsets ``-atan2(p, x)`` of reference-pulse measurements."""
    if np.any((x_r == 0.0) & (p_r == 0.0)):
        raise EstimationError("phase of the zero vector is undefined")
    return wrap_phase(-np.arctan2(p_r, x_r))


def _midpoints(ref_phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shorter-arc midpoint of each pair of consecutive reference phases,
    and the wrapped advance from the first to the second.

    The midpoint adds half the unwrapped reference-to-reference advance,
    valid while the true advance per reference gap stays below pi (beat
    frequency below ``1/(4*T_d)``).  An advance of exactly pi is an
    antipodal pair, broken towards the positive direction.
    """
    deltas = wrap_phase(np.diff(ref_phases))
    return wrap_phase(ref_phases[:-1] + 0.5 * deltas), deltas


def remap_quadratures(x_b, p_b, phi):
    """Rotate measured quadratures by ``+phi`` (scalars or arrays)."""
    x, p = rotate(x_b, p_b, np.cos(phi), np.sin(phi))
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
    # The first of each run of equal values in a sort, rather than np.unique,
    # whose numpy 2.x path imports numpy.ma.
    ordered = np.sort(encoded)
    symbols = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    for symbol in symbols.tolist():
        deviations = wrap_phase(corrected[encoded == symbol] - symbol)
        if deviations.size < MIN_SYMBOL_SIGNALS:
            raise EstimationError(
                f"symbol group {symbol} has {deviations.size} samples, "
                f"need >= {MIN_SYMBOL_SIGNALS}"
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
    ``(x, p)`` pair of arrays.  Requires at least
    :data:`~llo_sim.link_sim.MIN_REMAP_SIGNALS` samples and a mean X
    quadrature that is resolvable above its own standard error.
    """
    x, p = (np.asarray(q, dtype=float) for q in samples)
    n = x.size
    if n < MIN_REMAP_SIGNALS:
        raise EstimationError(f"need >= {MIN_REMAP_SIGNALS} samples, got {n}")
    mean_x = float(np.mean(x))
    var_x = float(np.var(x, ddof=1))
    var_p = float(np.var(p, ddof=1))
    if mean_x**2 <= 25.0 * var_x / n:
        raise EstimationError(
            "mean X quadrature indistinguishable from 0; estimator ill-conditioned"
        )
    return (var_p - var_x) / mean_x**2


class RecoveredRun(Record):
    """Vectorised result of recovering one :class:`~llo_sim.link_sim.PulseBlock`.

    Arrays cover the usable signals only: the final signal of each batch has
    no following reference of its batch and is dropped.  The arrays hold the
    block's batches in order, ``batch_signals`` usable signals each, and
    :attr:`batch_slices` cuts them into batches.  ``encoded_phases`` is
    Alice's encoded phase of each usable signal, and ``n_antipodal_ties``
    counts the reference pairs that :func:`_midpoints` found exactly
    antipodal.
    """

    signal_x: np.ndarray
    signal_p: np.ndarray
    raw_phases: np.ndarray
    interpolated_phases: np.ndarray
    corrected_phases: np.ndarray
    encoded_phases: np.ndarray
    n_antipodal_ties: int
    batch_signals: tuple[int, ...]

    @property
    def batch_slices(self) -> list[slice]:
        """One slice of the arrays per batch, in order."""
        return batch_bounds(self.batch_signals)


def recover_run(block: PulseBlock) -> RecoveredRun:
    """Run the full feedforward pipeline over one simulated pulse train.

    Takes a :class:`PulseBlock` from :func:`llo_sim.link_sim.simulate_run`,
    whose constructor has checked the R S R S ... schedule.  Signal ``i`` is
    interpolated from references ``i`` and ``i+1``; the last signal is
    dropped for lack of a following reference.  A block of several batches
    is recovered in one pass, each batch as its own block would be: the last
    signal of every batch is dropped and no midpoint spans two batches.
    """
    pairs = block.batch_pairs
    if min(pairs) < 2:
        raise ScheduleError(f"need >= 2 R S pairs, got {2 * min(pairs)} pulses")

    def cut(values):
        # A batch's usable pairs are all but its last, whose signal has no
        # following reference of its batch.
        return np.concatenate([values[part.start : part.stop - 1] for part in batch_bounds(pairs)])

    interpolated, deltas = _midpoints(_reference_phases(block.x[0::2], block.p[0::2]))
    n_ties = int(np.count_nonzero(cut(deltas) == math.pi))
    del deltas  # each full-length array goes as soon as it is cut
    interpolated = cut(interpolated)
    sig_x = block.x[1:-1:2]
    sig_p = block.p[1:-1:2]
    raw = cut(np.arctan2(sig_p, sig_x))
    corrected = wrap_phase(raw + interpolated)

    return RecoveredRun(
        signal_x=cut(sig_x),
        signal_p=cut(sig_p),
        raw_phases=raw,
        interpolated_phases=interpolated,
        corrected_phases=corrected,
        encoded_phases=cut(block.encoded_phase),
        n_antipodal_ties=n_ties,
        batch_signals=tuple(n - 1 for n in pairs),
    )
