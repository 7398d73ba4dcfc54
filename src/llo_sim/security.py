"""Secret key rates: asymptotic collective-attack bound and composable
finite-size rate.

The asymptotic rate is ``R = f * I_AB - chi_BE`` for reverse reconciliation,
with the mutual information and the Holevo bound evaluated from the standard
Gaussian entangling-cloner covariance model for heterodyne detection with a
trusted detector, whose gain, noise floor and chi_het are those of
:class:`~llo_sim.link_sim.ChannelDetector`.  Negative rates are returned
as-is so sweep runners can locate zero crossings.

The excess noise is ``V_A * sigma_phi`` for a phase-recovery noise variance
``sigma_phi`` (:func:`excess_noise_from_phase`).  A Gaussian phase error of
that variance adds ``V_A * (1 - exp(-sigma_phi))`` at the channel input, which
a simulated Gaussian-modulated run reproduces, so the linear form is
conservative, by about 2% at ``sigma_phi = 0.04``.

Finite-size rate
----------------
The composable rate is

    R = (1 - eps_rob) * (beta * I_AB - chi_worst
                         - (1/2n) * [D_aep - D_ent - 2*log2(1/(2*eps_bar))])

with

    D_aep = sqrt(2n) * [(d+1)^2 + 4(d+1)*log2(2/eps_sm^2)
                        + 2*log2(2/(eps^2*eps_sm))] - 4*eps_sm*d/eps
    D_ent = log2(1/eps) - sqrt(8n * log2(4n)^2 * log2(1/eps))

The assignment of the two Delta terms follows their roles in the rate
equation: the O(sqrt(n)) smoothing/discretisation term enters as D_aep and
the entropy term as D_ent.  The opposite assignment would make the
finite-size correction negative (a rate above the asymptotic one).  Each
epsilon enters through its log2, so a tiny budget cannot underflow; where
the correction still turns negative (``eps`` far below ``eps_sm``, as
``4*eps_sm*d/eps`` grows) or non-finite, the bound says nothing and the rate
raises :class:`NumericalDomainError`.

Worst-case Holevo bound
-----------------------
The composable proof evaluates Eve's information at worst-case covariance
bounds, whose exact construction is not reproduced here.  chi_worst is
:func:`worst_case_holevo`: the largest Holevo bound over the corners of a
(transmittance, excess-noise) rectangle of Gaussian confidence intervals at
level ``eps_pe`` over ``pe_fraction * n`` estimation samples, radii scaled by
``pe_radius_scale``, its one dial.  A scale of 1.0 gives textbook intervals,
under which the AEP terms alone set the positivity threshold (around 1e9
pulses at the reference configuration: 10 km fibre, perfect detectors,
V_A = 1, sigma_phi = 0.04, beta = 0.95); the default
:data:`PE_RADIUS_SCALE_DEFAULT` is calibrated to put it near 1e11 pulses.
The nominal terms and each corner are one evaluation at a (T, excess noise)
point, the tuple ``(I_AB, (lam1, ..., lam5), chi_BE)`` of :func:`_evaluate`.

Symplectic eigenvalues
----------------------
With ``te = T*eps`` and ``loss = V_A*(1 - T)``, each pair of symplectic
eigenvalues follows from its product and its difference, and both
discriminants of the textbook quadratics are exact squares:

    lam1*lam2 = 1 + loss + V*te              lam1 - lam2 = |te - loss|
    D = T*(V + chi_tot) = 1 + chi_het + te + T*V_A
    lam3*lam4 = (V + chi_het*lam1*lam2) / D
    lam3 - lam4 = |chi_het*(te - loss) - te - loss - V_A*te| / D
    I_AB = log2(1 + T*V_A / (1 + chi_het + te))
    chi_BE = G((lam1-1)/2) + G((lam2-1)/2) - G((lam3-1)/2) - G((lam4-1)/2)

with ``chi_tot = 1/T - 1 + eps + chi_het/T``.  No term divides by T, and
each sums non-negative terms, apart from the difference inside each
``|...|``, so :func:`_eigenpair` recovers each pair to a few ulp at any
point, a double root included.

Terms computed once per parameter set
-------------------------------------
A finite-size sweep evaluates the rate at thousands of pulse counts ``n`` for
one :class:`SecurityParams`, and a distance sweep at thousands of
transmittances.  Every derived term that depends on neither ``n`` nor the
(T, excess noise) point, the PE quantile ``Phi^-1(1 - eps_pe/2)`` (a few
Newton steps) among them, is computed once, into a private record that the
instance keeps (``SecurityParams._kernel``); a parameter, or one operation on
one, is read from the parameter set where it is used.  Each hoisted term is
the leftmost operation of its expression, so every rate keeps its float
operations and its bits.  The record lives in the instance ``__dict__`` (a
``functools.cached_property``), which ``fields``, ``asdict``, ``__eq__`` and
``__hash__`` ignore, so a parameter set compares, hashes and prints as
before.  The nominal I_AB (one full evaluation) is kept the same way, but
only once a finite-size rate asks for it: the four corners are evaluated
first, so every error is raised as before, and a failing evaluation keeps
nothing.  Building a parameter set evaluates the finite-size correction at
``n_pulses``, so a pulse count that overflows it is a configuration error.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from ._record import Record
from .errors import ConfigError, DomainError, NumericalDomainError
from .link_sim import ChannelDetector

#: Tolerance below 1 accepted for symplectic eigenvalues before erroring.
SYMPLECTIC_TOL = 1e-9

# The floor of a squared symplectic eigenvalue, 1 - SYMPLECTIC_TOL, once.
_LAM2_FLOOR = 1.0 - SYMPLECTIC_TOL

#: Floor for the pessimistic transmittance bound.
_T_FLOOR = 1e-12

_LN2 = math.log(2.0)

#: Smallest pulse count the finite-size rate accepts.
MIN_FINITE_SIZE_PULSES = 1000

#: Calibrated default for the confidence-radius scale of
#: :func:`worst_case_holevo` (see module docstring); 1.0 recovers plain
#: Gaussian intervals.
PE_RADIUS_SCALE_DEFAULT = 190.0


class EpsilonBudget(Record):
    """Failure-probability budget of the composable proof."""

    eps: float = 1e-20
    eps_bar: float = 1e-21
    eps_sm: float = 1e-21
    eps_pe: float = 1e-41

    def __post_init__(self) -> None:
        for name, value in (
            ("eps", self.eps),
            ("eps_bar", self.eps_bar),
            ("eps_sm", self.eps_sm),
            ("eps_pe", self.eps_pe),
        ):
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{name} must be in (0, 1), got {value}")


class SecurityParams(Record):
    """Everything needed to evaluate a key rate.

    ``sigma_phi`` is the phase-recovery noise variance; the channel-input
    excess noise it induces is ``V_A * sigma_phi`` (see
    :func:`excess_noise_from_phase`).  ``reconciliation_efficiency`` is the
    ``f`` of the asymptotic rate and the ``beta`` of the finite-size rate.
    """

    modulation_variance: float = 1.0
    reconciliation_efficiency: float = 0.95
    sigma_phi: float = 0.04
    channel: ChannelDetector = ChannelDetector(detector_efficiency=0.5, electronic_noise_snu=0.1)
    epsilons: EpsilonBudget = EpsilonBudget()
    discretization: int = 5
    robustness: float = 0.0
    n_pulses: int = 10**11
    pe_fraction: float = 0.5
    pe_radius_scale: float = PE_RADIUS_SCALE_DEFAULT

    def __post_init__(self) -> None:
        if not self.modulation_variance >= 0:
            raise ConfigError(f"V_A must be >= 0, got {self.modulation_variance}")
        if not 0 < self.reconciliation_efficiency <= 1:
            raise ConfigError(
                "reconciliation efficiency must be in (0, 1], "
                f"got {self.reconciliation_efficiency}"
            )
        if not self.sigma_phi >= 0:
            raise ConfigError(f"sigma_phi must be >= 0, got {self.sigma_phi}")
        if self.discretization < 1:
            raise ConfigError(f"discretization must be >= 1, got {self.discretization}")
        if not 0 <= self.robustness < 1:
            raise ConfigError(f"robustness must be in [0, 1), got {self.robustness}")
        if not 0 < self.pe_fraction < 1:
            raise ConfigError(f"pe_fraction must be in (0, 1), got {self.pe_fraction}")
        if not self.pe_radius_scale > 0:
            raise ConfigError(
                f"pe_radius_scale must be > 0, got {self.pe_radius_scale}"
            )
        if self.n_pulses < MIN_FINITE_SIZE_PULSES:
            raise ConfigError(
                f"n_pulses must be >= {MIN_FINITE_SIZE_PULSES}, got {self.n_pulses}"
            )
        try:
            m = int(self.pe_fraction * float(self.n_pulses))
        except OverflowError:
            raise ConfigError("n_pulses must convert to a finite float") from None
        if m < 2:
            raise ConfigError(
                f"pe_fraction {self.pe_fraction:g} of n_pulses {self.n_pulses} leaves "
                f"{m} estimation samples, need >= 2"
            )
        # +inf or NaN; a negative correction is the budget's, raised by the rate.
        correction = _finite_size_correction(self._kernel, self.n_pulses)
        if not correction < math.inf:
            raise ConfigError(
                f"n_pulses {self.n_pulses:.6g} overflows the finite-size correction "
                f"to {correction:g}"
            )
        if self.modulation_variance == 0:  # pessimistic_parameter_bounds divides by V_A
            raise ConfigError("modulation_variance must be > 0 for parameter estimation, got 0.0")

    @property
    def excess_noise(self) -> float:
        return excess_noise_from_phase(self.modulation_variance, self.sigma_phi)

    @functools.cached_property
    def _kernel(self) -> _Kernel:
        """The terms of every rate that depend on neither ``n`` nor the (T,
        excess noise) point (module docstring)."""
        channel = self.channel
        gain = channel.amplitude_gain
        excess_noise = self.excess_noise
        eb = self.epsilons
        d = self.discretization
        # Each epsilon enters through its log2, so no budget can underflow:
        # log2(2/eps_sm^2) = 1 - 2*log2(eps_sm), log2(1/(2*eps_bar)) = -1 - log2(eps_bar).
        log2_eps, log2_sm, log2_bar = math.log2(eb.eps), math.log2(eb.eps_sm), math.log2(eb.eps_bar)
        try:
            aep_bracket = (
                (d + 1.0) ** 2
                + 4.0 * (d + 1.0) * (1.0 - 2.0 * log2_sm)
                + 2.0 * (1.0 - 2.0 * log2_eps - log2_sm)
            )
            aep_tail = 4.0 * eb.eps_sm * d / eb.eps
        except OverflowError:
            raise ConfigError("discretization overflows the finite-size correction") from None
        return _Kernel(
            chi_het=channel.chi_het,
            transmittance=channel.transmittance,
            excess_noise=excess_noise,
            gain=gain,
            sigma2=channel.noise_snu + gain * gain * excess_noise,
            z=_two_sided_normal_quantile(eb.eps_pe) * self.pe_radius_scale,
            aep_bracket=aep_bracket,
            aep_tail=aep_tail,
            neg_log2_eps=-log2_eps,
            bar_term=2.0 * (-1.0 - log2_bar),
        )

    @functools.cached_property
    def _nominal_mutual_information(self) -> float:
        """:func:`mutual_information`, kept: the finite-size rate's one
        n-independent evaluation."""
        return mutual_information(self)


class _Kernel(NamedTuple):
    """What :attr:`SecurityParams._kernel` holds: derived terms only, each the
    leftmost operation of the rate expression that reads it."""

    chi_het: float
    transmittance: float  # the channel's
    excess_noise: float  # V_A * sigma_phi
    gain: float  # PE: g = sqrt(T*eta/2)
    sigma2: float  # PE: measured conditional noise N_0 + g**2 * excess noise
    z: float  # PE radius in standard errors, times pe_radius_scale
    aep_bracket: float  # the factor of sqrt(2n) in D_aep
    aep_tail: float  # 4*eps_sm*d/eps
    neg_log2_eps: float  # log2(1/eps)
    bar_term: float  # 2*log2(1/(2*eps_bar))


def excess_noise_from_phase(v_a: float, sigma_phi: float) -> float:
    """Channel-input excess noise induced by phase-recovery noise."""
    if v_a < 0 or sigma_phi < 0:
        raise DomainError(f"inputs must be >= 0, got ({v_a}, {sigma_phi})")
    return v_a * sigma_phi


def g_function(x: float) -> float:
    """Bosonic entropy function G(x) = (x+1)log2(x+1) - x log2 x, G(0) = 0.

    The two terms nearly cancel for large ``x``, so ``x >= 1`` takes the
    rearranged ``log2(x+1) + x*log1p(1/x)/ln 2``; below 1 ``1/x`` loses
    accuracy (and overflows near 0), so there ``log1p(x)`` carries the sum.
    """
    if x < 0:
        raise DomainError(f"G is undefined for negative argument, got {x}")
    if x == 0.0:
        return 0.0
    if x >= 1.0:
        return math.log2(x + 1.0) + x * math.log1p(1.0 / x) / _LN2
    return ((x + 1.0) * math.log1p(x) - x * math.log(x)) / _LN2


def _evaluate(
    params: SecurityParams, t: float, excess_noise: float
) -> tuple[float, tuple[float, float, float, float, float], float]:
    """``(i_ab, (lam1, ..., lam5), chi)``: I_AB (bits/pulse, both quadratures),
    the five symplectic eigenvalues of the collective-attack analysis and the
    Holevo bound chi_BE at ``(t, excess_noise)``, with V_A and the detector's
    chi_het of ``params``, from the factored forms of the module docstring.

    Terms that end non-finite raise :class:`NumericalDomainError` naming the
    point, so every rate fails alike.
    """
    if not 0 < t <= 1:
        raise DomainError(f"transmittance must be in (0, 1], got {t}")
    if excess_noise < 0:
        raise DomainError(f"excess noise must be >= 0, got {excess_noise}")
    v_a = params.modulation_variance
    v = v_a + 1.0
    chi_het = params._kernel.chi_het
    te = t * excess_noise
    loss = v_a * (1.0 - t)
    prod = 1.0 + loss + v * te
    lam1, lam2 = _eigenpair(prod, te - loss, "lambda_1/2")
    denom = 1.0 + chi_het + te  # T * (1 + chi_tot)
    d = denom + t * v_a  # T * (V + chi_tot)
    lam3, lam4 = _eigenpair(
        (v + chi_het * prod) / d,
        (chi_het * (te - loss) - te - loss - v_a * te) / d,
        "lambda_3/4",
    )
    chi = (  # lambda_5 = 1 adds -G(0) = 0
        g_function((lam1 - 1.0) / 2.0) + g_function((lam2 - 1.0) / 2.0)
        - g_function((lam3 - 1.0) / 2.0) - g_function((lam4 - 1.0) / 2.0)
    )
    i_ab = math.log1p(t * v_a / denom) / _LN2
    if not (math.isfinite(i_ab) and math.isfinite(chi)):
        raise NumericalDomainError(
            f"non-finite key-rate terms at T = {t:g}, excess noise = {excess_noise:g} SNU: "
            f"I_AB = {i_ab:g}, chi_BE = {chi:g}"
        )
    return i_ab, (lam1, lam2, lam3, lam4, 1.0), chi


def _nominal(params: SecurityParams, transmittance: float | None = None):
    """The :func:`_evaluate` tuple at ``transmittance`` (default: the channel's)."""
    k = params._kernel
    if transmittance is None:
        transmittance = k.transmittance
    return _evaluate(params, transmittance, k.excess_noise)


def mutual_information(params: SecurityParams) -> float:
    """Alice-Bob mutual information (bits/pulse) over both quadratures."""
    return _nominal(params)[0]


def symplectic_eigenvalues(params: SecurityParams) -> tuple[float, float, float, float, float]:
    """The five symplectic eigenvalues of the collective-attack analysis."""
    return _nominal(params)[1]


def _eigenpair(prod, diff, label):
    """The symplectic eigenvalues ``(lam+, lam-)`` whose product is ``prod``
    and whose difference is ``|diff|``, each clamped to >= 1.

    ``lam+ = |diff|/2 + hypot(diff/2, sqrt(prod))`` carries no cancellation
    (halving first keeps a finite ``lam+`` from overflowing), and ``lam-``
    comes from the product.  A ``lam-`` whose square falls below the floor
    is an unphysical state, not rounding; NaN passes through.
    """
    half = 0.5 * abs(diff)
    lam_plus = half + math.hypot(half, math.sqrt(prod))
    lam_minus = prod / lam_plus
    if lam_minus * lam_minus < _LAM2_FLOOR:
        raise NumericalDomainError(
            f"unphysical symplectic eigenvalue for {label}: lam^2 = {lam_minus * lam_minus}"
        )
    # ``c if c > x else x`` is ``max(x, c)`` unrolled: x wins ties and NaN,
    # so NaN still propagates.
    return (1.0 if 1.0 > lam_plus else lam_plus), (1.0 if 1.0 > lam_minus else lam_minus)


def holevo_bound(params: SecurityParams) -> float:
    """Holevo bound chi_BE (bits/pulse) on Eve's information about Bob."""
    return _nominal(params)[2]


def asymptotic_key_rate(params: SecurityParams, transmittance: float | None = None) -> float:
    """Reverse-reconciliation collective-attack rate f*I_AB - chi_BE at
    ``transmittance`` (default: the channel's).

    May be negative; callers decide whether to clamp.
    """
    i_ab, _, chi = _nominal(params, transmittance)
    return params.reconciliation_efficiency * i_ab - chi


def key_rate_components(params: SecurityParams) -> dict[str, float]:
    """I_AB, chi_BE and the asymptotic rate in one call (for reporting)."""
    i_ab, _, chi = _nominal(params)
    return {
        "mutual_information": i_ab,
        "holevo_bound": chi,
        "asymptotic_rate": params.reconciliation_efficiency * i_ab - chi,
    }


class PessimisticBounds(NamedTuple):
    """Confidence rectangle for (transmittance, excess noise) after PE."""

    transmittance_low: float
    transmittance_high: float
    excess_noise_low: float
    excess_noise_high: float
    n_estimation_samples: int


def _log_erfc(x: float) -> tuple[float, float]:
    """``(log erfc(x), exp(-x**2) / erfc(x))`` for ``x >= 0``.  Past ``x = 26``
    ``erfc`` nears the subnormal range, so both come from the asymptotic series
    ``erfc(x) = exp(-x**2) / (x*sqrt(pi)) * sum_k (-1)**k (2k-1)!! / (2x**2)**k``."""
    if x < 26.0:
        q = math.erfc(x)
        log_q = math.log1p(-math.erf(x)) if x < 0.5 else math.log(q)
        return log_q, math.exp(-x * x) / q
    term = series = 1.0
    for k in range(1, 12):
        term *= -(2 * k - 1) / (2.0 * x * x)
        series += term
    ratio = x * math.sqrt(math.pi) / series
    return -x * x - math.log(ratio), ratio


def _two_sided_normal_quantile(eps: float) -> float:
    """``z = Phi^-1(1 - eps/2)``: Newton's method on ``log erfc(z/sqrt(2)) =
    log(eps)``, which stays finite down to ``eps = 5e-324``.  ``log erfc`` is
    concave and the start lies past the root, so the iterates fall onto it."""
    target = math.log(eps)
    x = math.sqrt(-target)  # erfc(x) <= exp(-x**2), so log erfc(x) <= target
    for _ in range(50):
        log_q, ratio = _log_erfc(x)
        step = (log_q - target) * math.sqrt(math.pi) / (2.0 * ratio)
        x += step
        if abs(step) <= 1e-15 * x:
            break
    return math.sqrt(2.0) * x


def pessimistic_parameter_bounds(params: SecurityParams, n: int) -> PessimisticBounds:
    """Gaussian confidence bounds on (T, excess noise) from ``m = pe_fraction *
    n`` estimation samples at level ``eps_pe``, radii scaled by
    ``pe_radius_scale``.

    Each radius is ``z = Phi^-1(1 - eps_pe/2)`` standard errors, found by
    :func:`_two_sided_normal_quantile` from ``math.erfc`` in log space.
    """
    m = int(params.pe_fraction * n)
    if m < 2:
        raise DomainError(f"too few estimation samples: {m}")
    v_a = params.modulation_variance
    eta, nu = params.channel.detector_efficiency, params.channel.electronic_noise_snu
    k = params._kernel
    gain, sigma2 = k.gain, k.sigma2
    try:
        d_gain = k.z * math.sqrt(sigma2 / (m * v_a))
        d_sigma2 = k.z * sigma2 * math.sqrt(2.0 / m)

        # ``c if c > x else x`` is ``max(x, c)`` unrolled (and ``<`` is ``min``),
        # as in _eigenpair: x wins ties and NaN.
        gain_low = gain - d_gain
        gain_low = 0.0 if 0.0 > gain_low else gain_low
        gain_high = gain + d_gain
        # The receiver model of ChannelDetector inverted: T = 2*g**2/eta and
        # eps = (sigma2 - N_0)/g**2, with N_0 = 1 + nu and g**2 = T*eta/2 written
        # out, as the properties' own rounding would move the bounds' last bits.
        t_low = 2.0 * gain_low**2 / eta
        t_low = _T_FLOOR if _T_FLOOR > t_low else t_low
        t_high = 2.0 * gain_high**2 / eta
        t_high = 1.0 if 1.0 < t_high else t_high
        eps_high = (sigma2 + d_sigma2 - 1.0 - nu) / (t_low * eta / 2.0)
        eps_low = (sigma2 - d_sigma2 - 1.0 - nu) / (t_high * eta / 2.0)
        eps_low = 0.0 if 0.0 > eps_low else eps_low
        finite = (
            math.isfinite(t_low) and math.isfinite(t_high)
            and math.isfinite(eps_low) and math.isfinite(eps_high)
        )
    except (OverflowError, ZeroDivisionError):  # t_low * eta / 2.0 may underflow to 0
        finite = False
    if not finite:
        raise NumericalDomainError(
            f"parameter-estimation bounds leave the float range at T = {k.transmittance:g}, "
            f"excess noise = {k.excess_noise:g} SNU, over {m} estimation samples"
        )
    if t_low > t_high:  # the floor lifted T_low past a T_high below it
        raise NumericalDomainError(
            f"parameter-estimation bounds invert at T = {k.transmittance:g}, "
            f"excess noise = {k.excess_noise:g} SNU, over {m} estimation samples: "
            f"T_low floored to {t_low:g} exceeds T_high = {t_high:g}"
        )
    return PessimisticBounds(t_low, t_high, eps_low, eps_high, m)


def worst_case_holevo(params: SecurityParams, n: int) -> float:
    """chi_worst: the largest Holevo bound over the confidence rectangle's
    corners (see module docstring for calibration caveats)."""
    t_low, t_high, eps_low, eps_high, _ = pessimistic_parameter_bounds(params, n)
    return max(
        _evaluate(params, t_low, eps_low)[2],
        _evaluate(params, t_low, eps_high)[2],
        _evaluate(params, t_high, eps_low)[2],
        _evaluate(params, t_high, eps_high)[2],
    )


def _finite_size_correction(k: _Kernel, n: int) -> float:
    """``(1/2n) * [D_aep - D_ent - 2*log2(1/(2*eps_bar))]`` (module docstring)."""
    delta_aep = math.sqrt(2.0 * n) * k.aep_bracket - k.aep_tail
    delta_ent = k.neg_log2_eps - math.sqrt(8.0 * n * math.log2(4.0 * n) ** 2 * k.neg_log2_eps)
    return (delta_aep - delta_ent - k.bar_term) / (2.0 * n)


def finite_size_key_rate(params: SecurityParams, n: int | None = None) -> float:
    """Composable finite-size key rate for ``n`` transmitted pulses, with
    chi_worst from :func:`worst_case_holevo` (default ``n``: ``params.n_pulses``).
    May return negative rates."""
    n = int(params.n_pulses if n is None else n)
    if n < MIN_FINITE_SIZE_PULSES:
        raise DomainError(f"finite-size rate needs n >= {MIN_FINITE_SIZE_PULSES}, got {n}")

    k = params._kernel
    correction = _finite_size_correction(k, n)
    if not 0.0 <= correction < math.inf:
        eb = params.epsilons
        raise NumericalDomainError(
            f"finite-size correction {correction:g} is negative or non-finite at "
            f"n = {n:g}, eps = {eb.eps:g}, eps_sm = {eb.eps_sm:g}, eps_bar = {eb.eps_bar:g}"
        )

    chi = worst_case_holevo(params, n)  # before I_AB, so its errors come first
    return (1.0 - params.robustness) * (
        params.reconciliation_efficiency * params._nominal_mutual_information - chi - correction
    )
