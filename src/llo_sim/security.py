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
point.

Terms computed once per parameter set
-------------------------------------
A finite-size sweep evaluates the rate at thousands of pulse counts ``n`` for
one :class:`SecurityParams`, and a distance sweep at thousands of
transmittances.  Every term that depends on neither ``n`` nor the (T, excess
noise) point is computed once, into a private record that the instance keeps
(``SecurityParams._kernel``): V and its square, chi_het, the PE gain, noise
and radius, the epsilon terms of the correction, ``1 - robustness`` and
``beta``.  Each hoisted product is the leftmost operation of the expression it
came from, so every rate keeps its float operations and its bits.  A term
whose ``**`` can overflow at a valid point (``chi_het**2``) stays in the
evaluation, where the overflow is reported with the point.  The record lives
in the instance ``__dict__`` (a ``functools.cached_property``), which
``fields``, ``asdict``, ``__eq__`` and ``__hash__`` ignore, so a parameter set
compares, hashes and prints as before.  The nominal I_AB (one full
evaluation) is kept the same way, but only once a finite-size rate asks for
it: the four corners are evaluated first, so every error is raised as before,
and a failing evaluation keeps nothing.  The PE quantile ``Phi^-1(1 -
eps_pe/2)`` (a few Newton steps) has its own small cache, shared by the
parameter sets of one budget.  Building a parameter set evaluates the
finite-size correction at ``n_pulses``, so a pulse count that overflows it is
a configuration error.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

from ._record import Record
from .errors import ConfigError, DomainError, NumericalDomainError
from .link_sim import ChannelDetector

#: Tolerance below 1 accepted for symplectic eigenvalues before erroring.
SYMPLECTIC_TOL = 1e-9

# The floor of a squared symplectic eigenvalue, 1 - SYMPLECTIC_TOL, once.
_LAM2_FLOOR = 1.0 - SYMPLECTIC_TOL

# A bound on the rounding of a discriminant ``s^2 - 4*prod``, in units of
# ``s * scale`` (:func:`_eigenpair`).  ``s`` is off by a few ulp of ``scale``,
# which squaring doubles, and ``4*prod``, about ``s^2`` where the bound
# matters, by a few ulp of itself: about 20 ulp in all; 32 leave a margin.
_DISC_ROUNDING = 32.0 * sys.float_info.epsilon

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
    channel: ChannelDetector = ChannelDetector(
        attenuation_db_per_km=0.2,
        detector_efficiency=0.5,
        electronic_noise_snu=0.1,
    )
    epsilons: EpsilonBudget = EpsilonBudget()
    discretization: int = 5
    robustness: float = 0.0
    n_pulses: int = 10**11
    pe_fraction: float = 0.5
    pe_radius_scale: float = PE_RADIUS_SCALE_DEFAULT

    def __post_init__(self) -> None:
        # V_A = 0 is allowed here (degenerate no-modulation rate checks);
        # GaussianModulation keeps the strict > 0 requirement for simulation.
        if self.modulation_variance < 0:
            raise ConfigError(f"V_A must be >= 0, got {self.modulation_variance}")
        if not 0 < self.reconciliation_efficiency <= 1:
            raise ConfigError(
                "reconciliation efficiency must be in (0, 1], "
                f"got {self.reconciliation_efficiency}"
            )
        if self.sigma_phi < 0:
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

    @property
    def V(self) -> float:
        """Total signal variance V = V_A + 1 (SNU)."""
        return self.modulation_variance + 1.0

    @property
    def excess_noise(self) -> float:
        return excess_noise_from_phase(self.modulation_variance, self.sigma_phi)

    @functools.cached_property
    def _kernel(self) -> _Kernel:
        """The terms of every rate that depend on neither ``n`` nor the (T,
        excess noise) point (module docstring)."""
        channel = self.channel
        v = self.V
        chi_het = channel.chi_het
        gain = channel.amplitude_gain
        excess_noise = self.excess_noise
        sigma2 = channel.noise_snu + gain * gain * excess_noise  # measured conditional noise
        z = _two_sided_normal_quantile(self.epsilons.eps_pe) * self.pe_radius_scale
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
            v=v,
            vv=v * v,
            vv_minus_1=v * v - 1.0,
            chi_het=chi_het,
            two_chi_het=2.0 * chi_het,
            transmittance=channel.transmittance,
            excess_noise=excess_noise,
            v_a=self.modulation_variance,
            eta=channel.detector_efficiency,
            nu=channel.electronic_noise_snu,
            gain=gain,
            sigma2=sigma2,
            z=z,
            z_sigma2=z * sigma2,
            aep_bracket=aep_bracket,
            aep_tail=aep_tail,
            neg_log2_eps=-log2_eps,
            bar_term=2.0 * (-1.0 - log2_bar),
            robust=1.0 - self.robustness,
            beta=self.reconciliation_efficiency,
        )

    @functools.cached_property
    def _nominal_mutual_information(self) -> float:
        """:func:`mutual_information`, kept: the finite-size rate's one
        n-independent evaluation."""
        return mutual_information(self)


class _Kernel(NamedTuple):
    """What :attr:`SecurityParams._kernel` holds; each entry is computed as
    the leftmost operation of the rate expression that reads it.
    :func:`_evaluate` unpacks the first five fields in this order."""

    v: float  # V = V_A + 1
    vv: float  # v * v
    vv_minus_1: float  # v * v - 1
    chi_het: float
    two_chi_het: float  # 2 * chi_het
    transmittance: float  # the channel's
    excess_noise: float  # V_A * sigma_phi
    v_a: float
    eta: float
    nu: float
    gain: float  # PE: g = sqrt(T*eta/2)
    sigma2: float  # PE: N_0 + g**2 * excess noise
    z: float  # PE radius in standard errors, times pe_radius_scale
    z_sigma2: float  # z * sigma2
    aep_bracket: float  # the factor of sqrt(2n) in D_aep
    aep_tail: float  # 4*eps_sm*d/eps
    neg_log2_eps: float  # log2(1/eps)
    bar_term: float  # 2*log2(1/(2*eps_bar))
    robust: float  # 1 - robustness
    beta: float


def _noise_terms(t: float, chi_het: float, excess_noise: float) -> tuple[float, float]:
    """``(chi_line, chi_tot)``: the channel noise ``1/T - 1 + excess_noise`` and
    the total ``chi_line + chi_het/T`` referred to the channel input, with the
    detector noise ``chi_het`` of :class:`~llo_sim.link_sim.ChannelDetector`."""
    if not 0 < t <= 1:
        raise DomainError(f"transmittance must be in (0, 1], got {t}")
    if excess_noise < 0:
        raise DomainError(f"excess noise must be >= 0, got {excess_noise}")
    chi_line = 1.0 / t - 1.0 + excess_noise
    chi_tot = chi_line + chi_het / t
    if not math.isfinite(chi_tot):
        raise NumericalDomainError(
            f"non-finite noise terms at T = {t:g}, excess noise = {excess_noise:g} SNU: "
            f"chi_line = {chi_line:g}, chi_het = {chi_het:g}"
        )
    return chi_line, chi_tot


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


def _holevo_sum(lam1: float, lam2: float, lam3: float, lam4: float) -> float:
    """``G(x1) + G(x2) - G(x3) - G(x4)`` for ``xi = (lami - 1)/2``, with the
    branches of :func:`g_function` written out: four calls would cost a
    tenth of a finite-size rate.  Every ``lam`` comes from :func:`_eigenpair`,
    which clamps it to >= 1 (or passes NaN), so no ``x`` is negative."""
    x = (lam1 - 1.0) / 2.0
    g1 = (
        0.0 if x == 0.0
        else math.log2(x + 1.0) + x * math.log1p(1.0 / x) / _LN2 if x >= 1.0
        else ((x + 1.0) * math.log1p(x) - x * math.log(x)) / _LN2
    )
    x = (lam2 - 1.0) / 2.0
    g2 = (
        0.0 if x == 0.0
        else math.log2(x + 1.0) + x * math.log1p(1.0 / x) / _LN2 if x >= 1.0
        else ((x + 1.0) * math.log1p(x) - x * math.log(x)) / _LN2
    )
    x = (lam3 - 1.0) / 2.0
    g3 = (
        0.0 if x == 0.0
        else math.log2(x + 1.0) + x * math.log1p(1.0 / x) / _LN2 if x >= 1.0
        else ((x + 1.0) * math.log1p(x) - x * math.log(x)) / _LN2
    )
    x = (lam4 - 1.0) / 2.0
    g4 = (
        0.0 if x == 0.0
        else math.log2(x + 1.0) + x * math.log1p(1.0 / x) / _LN2 if x >= 1.0
        else ((x + 1.0) * math.log1p(x) - x * math.log(x)) / _LN2
    )
    return g1 + g2 - g3 - g4


class _Terms(NamedTuple):
    """One key-rate evaluation at a (transmittance, excess noise) point."""

    mutual_information: float
    symplectic_eigenvalues: tuple[float, float, float, float, float]
    holevo_bound: float


# ``_tuple_new(_Terms, (...))`` builds a _Terms (or a PessimisticBounds)
# without the Python-level __new__ of a NamedTuple, which took about 6% of an
# evaluation.
_tuple_new = tuple.__new__


def _evaluate(params: SecurityParams, t: float, excess_noise: float) -> _Terms:
    """I_AB (bits/pulse, both quadratures), the five symplectic eigenvalues of
    the collective-attack analysis and the Holevo bound chi_BE at ``(t,
    excess_noise)``, with the detector of ``params.channel``.

    A term that overflows or ends non-finite raises
    :class:`NumericalDomainError` naming the point, so every rate fails alike.
    """
    v, vv, vv_minus_1, chi_het, two_chi_het = params._kernel[:5]
    chi_line, chi_tot = _noise_terms(t, chi_het, excess_noise)
    try:
        t2 = 2.0 * t
        v_line = v + chi_line
        tv2 = (t * v_line) ** 2
        a = vv * (1.0 - t2) + t2 + tv2
        b = (t * (v * chi_line + 1.0)) ** 2
        a_scale = vv + tv2  # the size of the terms that cancel in a
        lam1, lam2 = _eigenpair(a, b, a_scale, "lambda_1/2")

        v_tot = v + chi_tot
        denom = (t * v_tot) ** 2
        sqrt_b = math.sqrt(b)
        chi_het2 = chi_het**2  # not kept: an overflow here names the point
        c = (
            a * chi_het2
            + b
            + 1.0
            + two_chi_het * (v * sqrt_b + t * v_line)
            + t2 * vv_minus_1
        ) / denom
        d = ((v + sqrt_b * chi_het) ** 2) / denom
        # c's other terms are positive; a's rounding enters it scaled.
        lam3, lam4 = _eigenpair(c, d, c + a_scale * chi_het2 / denom, "lambda_3/4")
        chi = _holevo_sum(lam1, lam2, lam3, lam4)  # lambda_5 = 1 adds -G(0) = 0
        i_ab = math.log2(v_tot / (1.0 + chi_tot))
    except OverflowError as exc:
        raise NumericalDomainError(
            f"key-rate terms overflow at T = {t:g}, excess noise = {excess_noise:g} SNU"
        ) from exc
    if not (math.isfinite(i_ab) and math.isfinite(chi)):
        raise NumericalDomainError(
            f"non-finite key-rate terms at T = {t:g}, excess noise = {excess_noise:g} SNU: "
            f"I_AB = {i_ab:g}, chi_BE = {chi:g}"
        )
    return _tuple_new(_Terms, (i_ab, (lam1, lam2, lam3, lam4, 1.0), chi))


def _nominal(params: SecurityParams, transmittance: float | None = None) -> _Terms:
    """The evaluation at ``transmittance`` (default: the channel's)."""
    k = params._kernel
    if transmittance is None:
        transmittance = k.transmittance
    return _evaluate(params, transmittance, k.excess_noise)


def mutual_information(params: SecurityParams) -> float:
    """Alice-Bob mutual information (bits/pulse) over both quadratures."""
    return _nominal(params).mutual_information


def symplectic_eigenvalues(params: SecurityParams) -> tuple[float, float, float, float, float]:
    """The five symplectic eigenvalues of the collective-attack analysis."""
    return _nominal(params).symplectic_eigenvalues


def _eigenpair(s, prod, scale, label):
    """Solve lam^2 = (s +- sqrt(s^2 - 4*prod)) / 2 with domain checks.

    The small root is recovered from the root product to avoid the
    cancellation that hits the subtractive formula when ``s^2 >> 4*prod``.

    ``scale >= s`` is the size of the terms summed into ``s``, whose rounding
    is a few ulp of ``scale``, so the discriminant's is at most ``e =
    _DISC_ROUNDING * s * scale``.  That moves ``root`` by up to ``e /
    max(root, sqrt(e))`` and each ``lam^2`` by half of it.  Near a double root
    (T = 1 with no excess noise makes both pairs one) that is far more than
    ``e``, enough to drop a small root of exactly 1 below the floor.  A small
    root below the floor by no more than that move is taken as 1, and the
    large one then as ``prod``, which carries no cancellation.  A pair that
    passes the floor as computed keeps its bits.
    """
    # ``c if c > x else x`` is ``max(x, c)`` unrolled: x wins ties and NaN,
    # so NaN still propagates.
    s2 = s * s
    disc = s2 - 4.0 * prod
    if disc < -SYMPLECTIC_TOL * (1.0 if 1.0 > s2 else s2):
        raise NumericalDomainError(f"negative discriminant for {label}: {disc}")
    root = math.sqrt(0.0 if 0.0 > disc else disc)
    sq_plus = 0.5 * (s + root)
    sq_minus = prod / sq_plus if sq_plus > 0.0 else 0.5 * (s - root)
    if sq_minus < _LAM2_FLOOR:
        e = _DISC_ROUNDING * abs(s * scale)
        if e > 0.0 and sq_minus + 0.5 * e / max(root, math.sqrt(e)) >= _LAM2_FLOOR:
            sq_plus, sq_minus = prod, 1.0
    if sq_plus < _LAM2_FLOOR:
        raise NumericalDomainError(
            f"unphysical symplectic eigenvalue for {label}: lam^2 = {sq_plus}"
        )
    lam_plus = math.sqrt(0.0 if 0.0 > sq_plus else sq_plus)
    if sq_minus < _LAM2_FLOOR:
        raise NumericalDomainError(
            f"unphysical symplectic eigenvalue for {label}: lam^2 = {sq_minus}"
        )
    lam_minus = math.sqrt(0.0 if 0.0 > sq_minus else sq_minus)
    return (1.0 if 1.0 > lam_plus else lam_plus), (1.0 if 1.0 > lam_minus else lam_minus)


def holevo_bound(params: SecurityParams) -> float:
    """Holevo bound chi_BE (bits/pulse) on Eve's information about Bob."""
    return _nominal(params).holevo_bound


def asymptotic_key_rate(params: SecurityParams, transmittance: float | None = None) -> float:
    """Reverse-reconciliation collective-attack rate f*I_AB - chi_BE at
    ``transmittance`` (default: the channel's).

    May be negative; callers decide whether to clamp.
    """
    terms = _nominal(params, transmittance)
    return params._kernel.beta * terms.mutual_information - terms.holevo_bound


def key_rate_components(
    params: SecurityParams, transmittance: float | None = None
) -> dict[str, float]:
    """I_AB, chi_BE and the asymptotic rate in one call (for reporting), at
    ``transmittance`` (default: the channel's)."""
    terms = _nominal(params, transmittance)
    return {
        "mutual_information": terms.mutual_information,
        "holevo_bound": terms.holevo_bound,
        "asymptotic_rate": params.reconciliation_efficiency * terms.mutual_information
        - terms.holevo_bound,
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


@functools.lru_cache(maxsize=8)
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
    k = params._kernel
    if k.v_a == 0:
        raise DomainError("parameter estimation requires V_A > 0")
    eta, nu, gain, sigma2 = k.eta, k.nu, k.gain, k.sigma2
    try:
        d_gain = k.z * math.sqrt(sigma2 / (m * k.v_a))
        d_sigma2 = k.z_sigma2 * math.sqrt(2.0 / m)

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
    except OverflowError:
        finite = False
    if not finite:
        raise NumericalDomainError(
            f"parameter-estimation bounds overflow at T = {k.transmittance:g}, "
            f"excess noise = {k.excess_noise:g} SNU, over {m} estimation samples"
        )
    return _tuple_new(PessimisticBounds, (t_low, t_high, eps_low, eps_high, m))


def worst_case_holevo(params: SecurityParams, n: int) -> float:
    """chi_worst: the largest Holevo bound over the confidence rectangle's
    corners (see module docstring for calibration caveats)."""
    t_low, t_high, eps_low, eps_high, _ = pessimistic_parameter_bounds(params, n)
    return max(
        _evaluate(params, t_low, eps_low).holevo_bound,
        _evaluate(params, t_low, eps_high).holevo_bound,
        _evaluate(params, t_high, eps_low).holevo_bound,
        _evaluate(params, t_high, eps_high).holevo_bound,
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
    return k.robust * (k.beta * params._nominal_mutual_information - chi - correction)
