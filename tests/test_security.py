import dataclasses
import decimal
import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from llo_sim._seeding import seed_sequence
from llo_sim.config import BENCH_TRAIN, LO_LASER, SIGNAL_LASER, DistanceSweepConfig, NSweepConfig
from llo_sim.errors import ConfigError, DomainError, LLOSimError, NumericalDomainError
from llo_sim.experiments import run_finite_size_sweep, run_keyrate_distance_sweep
from llo_sim.link_sim import (
    ChannelDetector,
    GaussianModulation,
    PulseTrainConfig,
    detect_run,
    launch_run,
)
from llo_sim.noise_models import phase_noise_variance
from llo_sim.phase_recovery import predicted_sigma_phi, recover_run, remap_quadratures
from llo_sim.security import (
    _T_FLOOR,
    EpsilonBudget,
    _two_sided_normal_quantile,
    SecurityParams,
    _eigenpair,
    _evaluate,
    asymptotic_key_rate,
    excess_noise_from_phase,
    finite_size_key_rate,
    g_function,
    holevo_bound,
    key_rate_components,
    mutual_information,
    pessimistic_parameter_bounds,
    symplectic_eigenvalues,
    worst_case_holevo,
)


def reference_channel(length_km: float) -> ChannelDetector:
    return ChannelDetector(
        attenuation_db_per_km=0.2,
        fiber_length_km=length_km,
        detector_efficiency=0.5,
        electronic_noise_snu=0.1,
    )


def reference_params(length_km: float) -> SecurityParams:
    return SecurityParams(
        modulation_variance=1.0,
        reconciliation_efficiency=0.95,
        sigma_phi=0.04,
        channel=reference_channel(length_km),
    )


def perfect_detector_params(length_km: float = 10.0) -> SecurityParams:
    return SecurityParams(
        modulation_variance=1.0,
        reconciliation_efficiency=0.95,
        sigma_phi=0.04,
        channel=ChannelDetector(
            attenuation_db_per_km=0.2,
            fiber_length_km=length_km,
            detector_efficiency=1.0,
            electronic_noise_snu=0.0,
        ),
    )


class TestGFunction:
    def test_zero_by_continuity(self):
        assert g_function(0.0) == 0.0

    def test_one(self):
        assert g_function(1.0) == pytest.approx(2.0, rel=1e-15)

    def test_three(self):
        # 8 - 3*log2(3), evaluated independently
        assert g_function(3.0) == pytest.approx(3.2451124978365313, rel=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            g_function(-1e-6)

    @pytest.mark.parametrize("x", [1e-300, 1e-17, 0.5, 1.0, 1e3, 1.1e13, 1e300])
    def test_matches_decimal_reference(self, x):
        # 700 digits hold x + 1 exactly at 1e300 and survive the cancellation
        # of the two ~7e302 terms there.
        with decimal.localcontext() as ctx:
            ctx.prec = 700
            d = decimal.Decimal(x)
            reference = ((d + 1) * (d + 1).ln() - d * d.ln()) / decimal.Decimal(2).ln()
        assert g_function(x) == pytest.approx(float(reference), rel=1e-14, abs=0.0)


class TestExcessNoise:
    def test_reference_point(self):
        assert excess_noise_from_phase(1.0, 0.04) == 0.04

    def test_zero_modulation(self):
        assert excess_noise_from_phase(0.0, 123.0) == 0.0

    def test_linear(self):
        assert excess_noise_from_phase(2.0, 0.04) == pytest.approx(0.08, rel=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            excess_noise_from_phase(-1.0, 0.04)


def _chi_het(eta: float) -> float:
    return ChannelDetector(detector_efficiency=eta, electronic_noise_snu=0.1).chi_het


def _noise_budget_terms(t, eta, nu, v_a, excess_noise):
    """``(lam1*lam2, lam3*lam4, I_AB)`` from the noise budget referred to the
    channel input, in 60-digit decimal: ``chi_line = 1/T - 1 + eps`` and
    ``chi_tot = chi_line + chi_het/T``."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        t, eta, nu, v_a, eps = map(decimal.Decimal, (t, eta, nu, v_a, excess_noise))
        v = v_a + 1
        chi_line = 1 / t - 1 + eps
        chi_het = (2 - eta + 2 * nu) / eta
        chi_tot = chi_line + chi_het / t
        prod12 = t * (v * chi_line + 1)
        prod34 = (v + chi_het * prod12) / (t * (v + chi_tot))
        i_ab = ((v + chi_tot) / (1 + chi_tot)).ln() / decimal.Decimal(2).ln()
        return float(prod12), float(prod34), float(i_ab)


class TestNoiseBudget:
    """The factored forms of :func:`_evaluate` against the noise budget
    referred to the channel input, with the detector noise of
    :class:`ChannelDetector`, and the domain :func:`_evaluate` accepts."""

    @staticmethod
    def params(eta: float) -> SecurityParams:
        return SecurityParams(
            channel=ChannelDetector(detector_efficiency=eta, electronic_noise_snu=0.1)
        )

    @staticmethod
    def check(params, t, excess_noise):
        channel = params.channel
        i_ab_got, (lam1, lam2, lam3, lam4, _), _ = _evaluate(params, t, excess_noise)
        prod12, prod34, i_ab = _noise_budget_terms(
            t, channel.detector_efficiency, channel.electronic_noise_snu,
            params.modulation_variance, excess_noise,
        )
        assert lam1 * lam2 == pytest.approx(prod12, rel=1e-14, abs=0.0)
        assert lam3 * lam4 == pytest.approx(prod34, rel=1e-14, abs=0.0)
        assert i_ab_got == pytest.approx(i_ab, rel=1e-14, abs=0.0)

    def test_formulas(self):
        self.check(self.params(0.5), 10 ** (-0.2 * 50.0 / 10.0), 0.04)

    def test_chi_het_value(self):
        assert _chi_het(0.5) == pytest.approx(3.4, rel=1e-12)

    @pytest.mark.parametrize("t", [0.0, -0.5, 1.0 + 1e-12, math.nan])
    def test_transmittance_outside_unit_interval_rejected(self, t):
        with pytest.raises(DomainError, match=re.escape("transmittance must be in (0, 1]")):
            _evaluate(self.params(0.5), t, 0.04)

    def test_negative_excess_noise_rejected(self):
        with pytest.raises(DomainError, match="excess noise must be >= 0"):
            _evaluate(self.params(0.5), 0.5, -1e-9)

    @pytest.mark.parametrize(
        "t, eta, excess_noise", [(1e-3, 1e-14, 1e20), (1e-12, 1e-14, 1e26), (1e-3, 1e-10, 1e19)]
    )
    def test_excess_noise_far_above_inverse_transmittance(self, t, eta, excess_noise):
        # 1/T - 1 + excess_noise would cancel every digit of 1/T here, and
        # (V + chi_tot)/(1 + chi_tot) rounds to 1.
        self.check(self.params(eta), t, excess_noise)

    @pytest.mark.parametrize("eta, excess_noise", [(1e-310, 0.04), (0.5, math.inf)])
    def test_non_finite_terms_rejected_naming_the_point(self, eta, excess_noise):
        with pytest.raises(NumericalDomainError, match="T = 0.5, excess noise = "):
            _evaluate(self.params(eta), 0.5, excess_noise)


class TestExcessNoiseFromSimulation:
    """The paper's chain closed: bench lasers, pilot recovery and a Gaussian-
    modulated run give the excess noise that the rate's ``V_A * sigma_phi``
    bounds, estimated through the detector's gain and noise floor."""

    DETECTOR = ChannelDetector(
        transmittance_override=1.0, detector_efficiency=0.5, electronic_noise_snu=0.1
    )
    SEEDS = range(6)

    @classmethod
    def estimate(cls, v_a: float, seed: int) -> float:
        """Excess noise of one run of 250k pairs at modulation variance ``v_a``."""
        train = PulseTrainConfig(
            BENCH_TRAIN.repetition_period_s, 250_000, 0.0, 1e5,
            modulation=GaussianModulation(v_a),
        )
        launched = launch_run(train, (SIGNAL_LASER, LO_LASER), seed)
        detector = seed_sequence(seed, "detector")
        rec = recover_run(detect_run(launched, train.reference_photons, cls.DETECTOR, detector))
        # Alice's symbols from the launch; recovery drops the last signal.
        _, _, x_a, p_a, _ = launched
        a = np.concatenate([x_a[:-1], p_a[:-1]])
        b = np.concatenate(
            remap_quadratures(rec.signal_x, rec.signal_p, rec.interpolated_phases)
        )
        g_hat = np.dot(a, b) / np.dot(a, a)
        residual = np.var(b - g_hat * a)
        return (residual - cls.DETECTOR.noise_snu) / cls.DETECTOR.amplitude_gain**2

    @pytest.mark.parametrize("v_a", [4.0, 20.0])
    def test_matches_gaussian_phase_error(self, v_a):
        # A phase error of variance s2 leaves V_A*(1 - exp(-s2)) of excess
        # noise.  The references' shot noise adds about 5e-6 rad^2 to s2,
        # far below the standard error.
        period = BENCH_TRAIN.repetition_period_s
        s2 = predicted_sigma_phi(
            phase_noise_variance(period, SIGNAL_LASER), phase_noise_variance(period, LO_LASER)
        )
        estimates = [self.estimate(v_a, seed) for seed in self.SEEDS]
        mean = float(np.mean(estimates))
        # From 6 seeds the deviation in SE follows t with 5 degrees of
        # freedom: 3 SE is a 3% test, and the seeds are fixed.
        se = float(np.std(estimates, ddof=1)) / math.sqrt(len(estimates))
        assert abs(mean - v_a * (1.0 - math.exp(-s2))) < 3.0 * se
        if v_a == 20.0:  # the linear form is conservative, beyond the noise here
            assert mean < excess_noise_from_phase(v_a, s2)


class TestMutualInformation:
    def test_no_modulation_rejected(self):
        # Parameter estimation divides by V_A, so no key-rate input has V_A = 0.
        with pytest.raises(ConfigError, match="modulation_variance must be > 0"):
            SecurityParams(modulation_variance=0.0)

    def test_unit_formula_point(self):
        # V = 3 with chi_tot = 1 (T = 1, eps = 0, eta = 1, nu_el = 0) gives
        # log2(4 / 2) = exactly 1 bit.
        params = SecurityParams(
            modulation_variance=2.0,
            sigma_phi=0.0,
            channel=ChannelDetector(
                transmittance_override=1.0, detector_efficiency=1.0, electronic_noise_snu=0.0
            ),
        )
        assert params.channel.chi_het == 1.0  # chi_tot at T = 1, eps = 0
        assert mutual_information(params) == 1.0

    def test_desk_check_at_50km(self):
        # Independent re-evaluation of the closed form at L = 50 km.
        t = 10 ** (-0.2 * 50.0 / 10.0)
        chi_line = 1.0 / t - 1.0 + 0.04
        chi_het = (1.0 + (1.0 - 0.5) + 2.0 * 0.1) / 0.5
        chi_tot = chi_line + chi_het / t
        expected = math.log2((2.0 + chi_tot) / (1.0 + chi_tot))
        assert mutual_information(reference_params(50.0)) == pytest.approx(
            expected, rel=1e-12
        )


class TestSymplecticSpectrum:
    def test_lambda5_is_one(self):
        lams = symplectic_eigenvalues(reference_params(30.0))
        assert lams[4] == 1.0

    def test_lossless_point_all_unity(self):
        # T = 1, eps = 0, eta = 1, nu_el = 0: Eve learns nothing.
        params = SecurityParams(
            modulation_variance=1.0,
            reconciliation_efficiency=1.0,
            sigma_phi=0.0,
            channel=ChannelDetector(
                transmittance_override=1.0,
                detector_efficiency=1.0,
                electronic_noise_snu=0.0,
            ),
        )
        lams = symplectic_eigenvalues(params)
        np.testing.assert_allclose(lams, 1.0, atol=1e-9)
        assert holevo_bound(params) == pytest.approx(0.0, abs=1e-9)
        rate = asymptotic_key_rate(params)
        assert rate == pytest.approx(math.log2(1.5), rel=1e-9)
        assert rate >= 0.0

    @pytest.mark.parametrize("length_km", [0.0, 5.0, 25.0, 60.0, 100.0, 150.0])
    @pytest.mark.parametrize("sigma_phi", [0.0, 0.02, 0.04, 0.07, 0.1])
    def test_grid_physicality(self, length_km, sigma_phi):
        params = replace(reference_params(length_km), sigma_phi=sigma_phi)
        lams = symplectic_eigenvalues(params)
        assert all(lam >= 1.0 - 1e-9 for lam in lams)
        chi = holevo_bound(params)
        assert chi >= 0.0
        i_ab = mutual_information(params)
        assert asymptotic_key_rate(params) <= 0.95 * i_ab + 1e-15

    @settings(max_examples=300, deadline=None)
    @given(
        v_a=st.floats(-3.0, 3.0).map(lambda y: 10.0**y),
        eta=st.floats(-3.0, 0.0).map(lambda y: 10.0**y),
        nu=st.just(0.0) | st.floats(-4.0, 1.0).map(lambda y: 10.0**y),
    )
    def test_clamped_pe_corner_is_physical(self, v_a, eta, nu):
        # T = 1 with no excess noise, the corner a clamped PE rectangle
        # reaches: both pairs are double roots at 1.
        params = SecurityParams(
            modulation_variance=v_a,
            channel=ChannelDetector(detector_efficiency=eta, electronic_noise_snu=nu),
        )
        i_ab, lams, chi = _evaluate(params, 1.0, 0.0)
        assert all(lam >= 1.0 for lam in lams)
        assert math.isfinite(i_ab)
        assert abs(chi) < 1e-13  # Eve learns nothing

    @settings(max_examples=500, deadline=None)
    @given(
        t=st.floats(-300.0, 0.0).map(lambda y: 10.0**y)
        | st.floats(-17.0, -1.0).map(lambda y: 1.0 - 10.0**y)
        | st.floats(0.0, 1.0, exclude_min=True),
        excess_noise=st.floats(-300.0, 300.0).map(lambda y: 10.0**y) | st.floats(0.0),
        eta=st.floats(-300.0, 0.0).map(lambda y: 10.0**y) | st.floats(0.0, 1.0, exclude_min=True),
        nu=st.floats(-300.0, 300.0).map(lambda y: 10.0**y) | st.floats(0.0),
        v_a=st.floats(-300.0, 300.0).map(lambda y: 10.0**y)
        | st.floats(0.0, exclude_min=True),
    )
    def test_no_valid_point_is_unphysical(self, t, excess_noise, eta, nu, v_a):
        # Every point SecurityParams accepts: finite terms, or an error for
        # terms that leave the floats, never an unphysical eigenvalue.
        params = SecurityParams(
            modulation_variance=v_a,
            sigma_phi=0.0,
            channel=ChannelDetector(detector_efficiency=eta, electronic_noise_snu=nu),
        )
        try:
            i_ab, lams, chi = _evaluate(params, t, excess_noise)
        except NumericalDomainError as exc:
            assert str(exc).startswith("non-finite key-rate terms"), exc
        else:
            assert all(lam >= 1.0 for lam in lams)
            assert math.isfinite(i_ab) and i_ab >= 0.0
            assert math.isfinite(chi)

    @pytest.mark.parametrize("diff,prod", [(0.0, 0.81), (1.9, 0.9), (1.8, 0.81), (2.0, 0.999)])
    def test_unphysical_pair_still_raises(self, diff, prod):
        # A product below 1 leaves the small root below 1: 0.9 twice at the
        # double root, else 0.41 to 0.42.
        with pytest.raises(NumericalDomainError, match="unphysical symplectic eigenvalue"):
            _eigenpair(prod, diff, "lambda_test")


def _symplectic_spectrum(gamma):
    """Symplectic eigenvalues of a covariance matrix in (x1, p1, x2, p2, ...)
    order, as ``|eig(i*Omega*gamma)|``, each once, in descending order."""
    modes = gamma.shape[0] // 2
    omega = np.kron(np.eye(modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    nus = np.sort(np.abs(np.linalg.eigvals(1j * omega @ gamma)))[::-1]
    return nus[::2]


def _oracle_spectrum(t, excess_noise, eta, nu, v_a):
    """``(lam1, lam2)`` of Alice and Bob after the channel, and ``(lam3,
    lam4, lam5)`` of Alice and the trusted detector's modes once Bob's
    heterodyne is known, from covariance matrices (Lodewyck et al., PRA 76,
    042305 (2007); Fossier et al., J. Phys. B 42, 114014 (2009)).

    The detector mixes half (F) of an EPR pair (F, G) of variance ``1 +
    2*nu/(1 - eta)`` into Bob's mode on a beam splitter of transmittance
    ``eta``; at ``eta = 1`` there is no such pair, and ``nu`` must be 0.
    """
    v = v_a + 1.0
    eye, z = np.eye(2), np.diag([1.0, -1.0])
    c_ab = math.sqrt(t * (v * v - 1.0))
    b = t * (v + 1.0 / t - 1.0 + excess_noise)
    gamma = np.block([[v * eye, c_ab * z], [c_ab * z, b * eye]])  # A, B
    spectrum_ab = _symplectic_spectrum(gamma)
    if eta < 1.0:
        w = 1.0 + 2.0 * nu / (1.0 - eta)
        c_fg = math.sqrt(w * w - 1.0)
        zero = np.zeros((4, 4))
        detector = np.block([[w * eye, c_fg * z], [c_fg * z, w * eye]])  # F, G
        gamma = np.block([[gamma, zero], [zero, detector]])  # A, B, F, G
        r, s = math.sqrt(eta), math.sqrt(1.0 - eta)
        splitter = np.eye(8)
        splitter[2:6, 2:6] = np.block([[r * eye, s * eye], [-s * eye, r * eye]])
        gamma = splitter @ gamma @ splitter.T
    else:
        assert nu == 0.0
    rest = [0, 1, *range(4, gamma.shape[0])]  # A, F, G
    c = gamma[np.ix_(rest, [2, 3])]
    conditional = gamma[np.ix_(rest, rest)] - c @ np.linalg.inv(gamma[2:4, 2:4] + eye) @ c.T
    return spectrum_ab, _symplectic_spectrum(conditional)


class TestCovarianceOracle:
    """The closed forms of :func:`_evaluate` against symplectic eigenvalues
    taken from the covariance matrices they stand for."""

    GRID = [
        (t, excess_noise, eta, nu, v_a)
        for t in (1.0, 1.0 - 1e-7, 0.9, 0.5, 0.1, 1e-3)
        for excess_noise in (0.0, 1e-3, 0.04, 1.0)
        for eta, nu in ((1.0, 0.0), (0.6, 0.0), (0.5, 0.1), (0.1, 0.01), (0.9, 2.0))
        for v_a in (0.5, 1.0, 4.0, 100.0)
    ]

    @staticmethod
    def check(t, excess_noise, eta, nu, v_a):
        params = SecurityParams(
            modulation_variance=v_a,
            sigma_phi=0.0,
            channel=ChannelDetector(detector_efficiency=eta, electronic_noise_snu=nu),
        )
        _, lams, _ = _evaluate(params, t, excess_noise)
        spectrum_ab, spectrum_conditional = _oracle_spectrum(t, excess_noise, eta, nu, v_a)
        # At eta = 1 the conditional state is Alice's mode alone: lam4 = lam5 = 1.
        padded = np.concatenate([spectrum_conditional, np.ones(3 - spectrum_conditional.size)])
        np.testing.assert_allclose(lams[:2], spectrum_ab, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(sorted(lams[2:], reverse=True), padded, rtol=1e-9, atol=0.0)

    def test_grid(self):
        for point in self.GRID:
            try:
                self.check(*point)
            except AssertionError as exc:
                raise AssertionError(f"at (T, eps, eta, nu, V_A) = {point}: {exc}") from None

    def test_near_double_root(self):
        # lambda_1/2 a near-double root that the old discriminant form took
        # 4.2e-7 off.
        self.check(0.9999999548921152, 0.0, 0.11681167888884303, 0.011656845191048421,
                   717.0562356575974)


class TestAsymptoticRate:
    def test_positive_at_120km(self):
        assert asymptotic_key_rate(reference_params(120.0)) > 0.0

    def test_zero_crossing_bracketed(self):
        assert asymptotic_key_rate(reference_params(110.0)) > 0.0
        assert asymptotic_key_rate(reference_params(140.0)) < 0.0

    def test_monotone_in_distance(self):
        rates = [asymptotic_key_rate(reference_params(l)) for l in np.arange(0, 151, 10.0)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_holevo_monotone_in_excess_noise(self):
        chis = [
            holevo_bound(replace(reference_params(25.0), sigma_phi=s))
            for s in np.linspace(0.0, 0.1, 11)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(chis, chis[1:]))

    @pytest.mark.parametrize("length_km", [0.0, 50.0, 150.0])
    def test_components_consistent(self, length_km):
        params = reference_params(length_km)
        i_ab, lams, chi = _evaluate(params, params.channel.transmittance, params.excess_noise)
        comp = key_rate_components(params)
        rate = 0.95 * i_ab - chi
        assert comp == {
            "mutual_information": i_ab,
            "holevo_bound": chi,
            "asymptotic_rate": rate,
        }
        assert mutual_information(params) == i_ab
        assert holevo_bound(params) == chi
        assert symplectic_eigenvalues(params) == lams
        assert asymptotic_key_rate(params) == rate


class TestEpsilonBudget:
    def test_default_budget_values(self):
        eb = EpsilonBudget()
        assert eb.eps == 1e-20
        assert eb.eps_bar == 1e-21
        assert eb.eps_sm == 1e-21
        assert eb.eps_pe == 1e-41

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 2.0])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ConfigError):
            EpsilonBudget(eps=bad)


class TestPessimisticBounds:
    def test_brackets_true_values(self):
        params = perfect_detector_params()
        bounds = pessimistic_parameter_bounds(params, 10**9)
        t = params.channel.transmittance
        assert bounds.transmittance_low < t < bounds.transmittance_high
        assert bounds.excess_noise_low <= params.excess_noise <= bounds.excess_noise_high

    def test_widths_shrink_with_n(self):
        params = perfect_detector_params()
        wide = pessimistic_parameter_bounds(params, 10**6)
        narrow = pessimistic_parameter_bounds(params, 10**12)
        assert (narrow.excess_noise_high - narrow.excess_noise_low) < (
            wide.excess_noise_high - wide.excess_noise_low
        )

    def test_worst_case_dominates_nominal(self):
        params = perfect_detector_params()
        chi_nominal = holevo_bound(params)
        assert worst_case_holevo(params, 10**12) >= chi_nominal - 1e-12
        assert worst_case_holevo(params, 10**6) >= worst_case_holevo(params, 10**12)

    @pytest.mark.parametrize(
        "change", [{"pe_radius_scale": 1e300}, {"pe_radius_scale": 1e308}, {"sigma_phi": 1e308}]
    )
    def test_overflow_raises_naming_the_point(self, change):
        params = replace(perfect_detector_params(), **change)
        t = params.channel.transmittance
        with pytest.raises(
            NumericalDomainError,
            match=re.escape(
                f"bounds leave the float range at T = {t:g}, "
                f"excess noise = {params.excess_noise:g} SNU"
            ),
        ):
            pessimistic_parameter_bounds(params, 10**11)

    @pytest.mark.parametrize("n", [10**6, 10**9, 10**12])
    def test_worst_case_is_largest_corner(self, n):
        # Each corner read through the public nominal path: a channel fixed at
        # the corner's T and, with V_A = 1, sigma_phi equal to its excess noise.
        params = perfect_detector_params()
        bounds = pessimistic_parameter_bounds(params, n)
        corners = [
            holevo_bound(replace(
                params,
                sigma_phi=eps,
                channel=replace(params.channel, transmittance_override=t),
            ))
            for t in (bounds.transmittance_low, bounds.transmittance_high)
            for eps in (bounds.excess_noise_low, bounds.excess_noise_high)
        ]
        assert worst_case_holevo(params, n) == max(corners)


class TestNormalQuantile:
    GRID = [0.9, 0.5, 1e-3, 1e-20, 1e-41, 1e-100, 1e-300, 1e-320,
            *np.logspace(-300, -0.05, 200).tolist()]

    def test_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for eps in self.GRID:
            assert _two_sided_normal_quantile(eps) == pytest.approx(
                float(stats.norm.isf(eps / 2.0)), rel=1e-12
            ), eps

    def test_smallest_double_matches_log_space_reference(self):
        # eps/2 underflows to 0 here, where norm.isf(0) is inf.
        special = pytest.importorskip("scipy.special")
        eps = 5e-324
        reference = -float(special.ndtri_exp(math.log(eps) - math.log(2.0)))
        assert _two_sided_normal_quantile(eps) == pytest.approx(reference, rel=1e-12)


class TestFiniteSizeRate:
    def test_finite_at_smallest_eps_pe(self):
        params = replace(
            reference_params(10.0), epsilons=EpsilonBudget(eps_pe=5e-324)
        )
        assert math.isfinite(finite_size_key_rate(params, 10**12))

    def test_negative_at_small_n(self):
        assert finite_size_key_rate(perfect_detector_params(), 10**6) <= 0.0

    def test_threshold_bracket(self):
        params = perfect_detector_params()
        assert finite_size_key_rate(params, int(10**10.4)) < 0.0
        assert finite_size_key_rate(params, int(10**11.6)) > 0.0

    def test_asymptotic_consistency(self):
        # Correction and PE penalties vanish as n grows.
        params = perfect_detector_params()
        asympt = 0.95 * mutual_information(params) - holevo_bound(params)
        assert finite_size_key_rate(params, 10**17) == pytest.approx(asympt, abs=1e-3)

    def test_correction_nonnegative(self):
        params = perfect_detector_params()
        for n in (10**3, 10**5, 10**8, 10**12):
            cap = 0.95 * mutual_information(params) - worst_case_holevo(params, n)
            assert finite_size_key_rate(params, n) <= cap + 1e-12

    def test_robustness_prefactor(self):
        params = replace(perfect_detector_params(), robustness=0.5)
        full = finite_size_key_rate(perfect_detector_params(), 10**12)
        assert finite_size_key_rate(params, 10**12) == pytest.approx(
            0.5 * full, rel=1e-9
        )

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            finite_size_key_rate(perfect_detector_params(), 999)

    def test_uses_params_n_pulses(self):
        params = replace(perfect_detector_params(), n_pulses=10**12)
        assert finite_size_key_rate(params) == pytest.approx(
            finite_size_key_rate(params, 10**12), rel=1e-15
        )

    @pytest.mark.parametrize("eps", [1e-30, 1e-300])
    def test_negative_correction_raises_naming_the_budget(self, eps):
        # A smaller eps must cost key; once eps << eps_sm, -4*eps_sm*d/eps
        # would turn the cost into a gain.
        params = replace(reference_params(10.0), epsilons=EpsilonBudget(eps=eps))
        expected = re.escape(f"n = 1e+11, eps = {eps:g}, eps_sm = 1e-21")
        with pytest.raises(NumericalDomainError, match=expected):
            finite_size_key_rate(params)

    def test_pe_radius_scale_of_one_is_tight(self):
        # Plain Gaussian intervals turn positive far earlier than the
        # calibrated default (threshold near 1e9 instead of 1e11).
        tight = replace(perfect_detector_params(), pe_radius_scale=1.0)
        assert finite_size_key_rate(tight, 10**9) > 0.0
        assert finite_size_key_rate(perfect_detector_params(), 10**9) < 0.0


# Log-uniform down to the smallest subnormal, 5e-324.
def _down_to_subnormal(top: float):
    return st.floats(-323.3, top).map(lambda y: 10.0**y)


class TestNumericalDomainContract:
    """Every rate of a valid parameter set is a float or an LLOSimError: no
    other exception escapes, at any float scale."""

    @settings(max_examples=300, deadline=None)
    @given(
        t=_down_to_subnormal(0.0),
        eta=_down_to_subnormal(0.0),
        nu=_down_to_subnormal(300.0) | st.just(0.0),
        v_a=_down_to_subnormal(300.0),
        sigma_phi=_down_to_subnormal(300.0) | st.just(0.0),
        pe_radius_scale=_down_to_subnormal(300.0),
        eps=st.tuples(*[_down_to_subnormal(-0.01)] * 4),
        n=st.floats(3.0, 18.0).map(lambda y: int(10.0**y)),
    )
    @example(t=1.0, eta=5e-324, nu=0.1, v_a=1.0, sigma_phi=0.04, pe_radius_scale=190.0,
             eps=(1e-20, 1e-21, 1e-21, 1e-41), n=10**11)
    @example(t=1.0, eta=5e-324, nu=0.1, v_a=1.0, sigma_phi=0.04, pe_radius_scale=8.5e-69,
             eps=(1e-20, 1e-21, 1e-21, 1e-41), n=10**11)
    def test_rates_return_a_float_or_raise_llo_sim_error(
        self, t, eta, nu, v_a, sigma_phi, pe_radius_scale, eps, n
    ):
        try:
            params = SecurityParams(
                modulation_variance=v_a,
                sigma_phi=sigma_phi,
                channel=ChannelDetector(
                    transmittance_override=t, detector_efficiency=eta, electronic_noise_snu=nu
                ),
                epsilons=EpsilonBudget(*eps),
                pe_radius_scale=pe_radius_scale,
            )
        except ConfigError:
            reject()
        for rate in (lambda: finite_size_key_rate(params, n), lambda: asymptotic_key_rate(params)):
            try:
                value = rate()
            except LLOSimError:
                continue
            assert isinstance(value, float)


def _reference_eigenpair(prod, diff, label):
    lam_plus = abs(diff) / 2.0 + math.hypot(diff / 2.0, math.sqrt(prod))
    lam_minus = prod / lam_plus
    if lam_minus**2 < 1.0 - 1e-9:
        raise NumericalDomainError(f"unphysical symplectic eigenvalue for {label}")
    return max(lam_plus, 1.0), max(lam_minus, 1.0)


def _reference_terms(params, t, excess_noise):
    """(I_AB, chi_BE) from the factored forms, written out plainly."""
    eta = params.channel.detector_efficiency
    nu = params.channel.electronic_noise_snu
    v_a = params.modulation_variance
    v = v_a + 1.0
    chi_het = (1.0 + (1.0 - eta) + 2.0 * nu) / eta
    te = t * excess_noise
    loss = v_a * (1.0 - t)
    prod = 1.0 + loss + v * te
    lam1, lam2 = _reference_eigenpair(prod, te - loss, "lambda_1/2")
    d = 1.0 + chi_het + te + t * v_a
    lam3, lam4 = _reference_eigenpair(
        (v + chi_het * prod) / d,
        (chi_het * (te - loss) - te - loss - v_a * te) / d,
        "lambda_3/4",
    )
    chi = (
        g_function((lam1 - 1.0) / 2.0)
        + g_function((lam2 - 1.0) / 2.0)
        - g_function((lam3 - 1.0) / 2.0)
        - g_function((lam4 - 1.0) / 2.0)
    )
    return math.log1p(t * v_a / (1.0 + chi_het + te)) / math.log(2.0), chi


def _reference_finite_size_rate(params, n):
    eb = params.epsilons
    d = params.discretization
    delta_aep = (
        math.sqrt(2.0 * n)
        * (
            (d + 1.0) ** 2
            + 4.0 * (d + 1.0) * math.log2(2.0 / eb.eps_sm**2)
            + 2.0 * math.log2(2.0 / (eb.eps**2 * eb.eps_sm))
        )
        - 4.0 * eb.eps_sm * d / eb.eps
    )
    delta_ent = math.log2(1.0 / eb.eps) - math.sqrt(
        8.0 * n * math.log2(4.0 * n) ** 2 * math.log2(1.0 / eb.eps)
    )
    correction = (
        delta_aep - delta_ent - 2.0 * math.log2(1.0 / (2.0 * eb.eps_bar))
    ) / (2.0 * n)
    bounds = pessimistic_parameter_bounds(params, n)
    chi = max(
        _reference_terms(params, t, eps)[1]
        for t in (bounds.transmittance_low, bounds.transmittance_high)
        for eps in (bounds.excess_noise_low, bounds.excess_noise_high)
    )
    i_ab = _reference_terms(params, params.channel.transmittance, params.excess_noise)[0]
    return (1.0 - params.robustness) * (
        params.reconciliation_efficiency * i_ab - chi - correction
    )


class TestFastPathOracle:
    """The cached, unrolled rate against a plain copy of the per-corner form:
    equal to the last bit."""

    @staticmethod
    def points():
        rng = random.Random(13)
        for _ in range(240):
            params = SecurityParams(
                sigma_phi=rng.choice([0.0, 0.01, 0.04, 0.1, 0.3]),
                channel=ChannelDetector(
                    fiber_length_km=rng.choice([0.0, 5.0, 10.0, 25.0, 60.0, 120.0]),
                    detector_efficiency=rng.choice([1.0, 0.8, 0.5, 0.2]),
                    electronic_noise_snu=rng.choice([0.0, 0.01, 0.1, 0.5]),
                ),
                epsilons=EpsilonBudget(eps_pe=rng.choice([1e-41, 1e-20, 1e-10, 1e-3])),
                pe_radius_scale=rng.choice([1.0, 190.0]),
            )
            yield params, rng.choice([1000, 5000, 10**6, 10**9, 10**11, 10**14])

    def test_rates_bit_exact(self):
        clamped = 0
        for params, n in self.points():
            if pessimistic_parameter_bounds(params, n).transmittance_low == _T_FLOOR:
                clamped += 1
            assert finite_size_key_rate(params, n) == _reference_finite_size_rate(
                params, n
            ), (params, n)
            i_ab, chi = _reference_terms(
                params, params.channel.transmittance, params.excess_noise
            )
            assert asymptotic_key_rate(params) == params.reconciliation_efficiency * i_ab - chi
        assert clamped >= 20

    def test_cache_keeps_parameter_sets_apart(self):
        a = perfect_detector_params()
        for b in (
            replace(a, epsilons=EpsilonBudget(eps_pe=1e-10)),
            replace(a, sigma_phi=0.05),
        ):
            fresh = []
            for params in (a, b):
                # A replaced copy is a new instance that computes its own kept terms.
                fresh.append(finite_size_key_rate(replace(params), 10**11))
            assert fresh[0] != fresh[1]
            interleaved = [finite_size_key_rate(p, 10**11) for p in (a, b, a)]
            assert interleaved == [fresh[0], fresh[1], fresh[0]]

    @pytest.mark.parametrize(
        "params",
        [
            perfect_detector_params(),
            reference_params(25.0),
            # V = 3.5 is no power of 2, so a reassociated product would show.
            replace(reference_params(10.0), modulation_variance=2.5),
        ],
    )
    def test_sweeps_bit_exact(self, params):
        # 401 pulse counts from 1e4, where the lower T bound sits at its floor,
        # to 1e14, and the distance sweep's 3,001 lengths.
        n_grid = NSweepConfig(log10_min=4.0, log10_max=14.0, points=401).grid()
        rates = run_finite_size_sweep(params, n_grid).series["rate_bits_per_pulse"]
        assert rates == [_reference_finite_size_rate(params, int(n)) for n in n_grid]
        clamped = sum(
            pessimistic_parameter_bounds(params, int(n)).transmittance_low == _T_FLOOR
            for n in n_grid
        )
        assert clamped >= 40

        l_grid = DistanceSweepConfig(points=3001).grid()
        series = run_keyrate_distance_sweep(params, l_grid).series
        lengths, rates = series["fiber_length_km"], series["rate_bits_per_pulse"]
        alpha = params.channel.attenuation_db_per_km
        for length, rate in zip(lengths, rates):
            i_ab, chi = _reference_terms(
                params, 10.0 ** (-alpha * length / 10.0), params.excess_noise
            )
            assert rate == params.reconciliation_efficiency * i_ab - chi, length

    def test_kept_terms_leave_the_fields_alone(self):
        # The kept terms live in the instance __dict__, outside the fields:
        # equality, hashing and the metadata dict do not see them.
        params = perfect_detector_params()
        before = dataclasses.asdict(params)
        finite_size_key_rate(params, 10**11)
        assert "_kernel" in vars(params) and "_nominal_mutual_information" in vars(params)
        assert dataclasses.asdict(params) == before
        assert params == perfect_detector_params()
        assert hash(params) == hash(perfect_detector_params())
        assert repr(params) == repr(perfect_detector_params())
