import math

import numpy as np
import pytest

from llo_sim._seeding import substream
from llo_sim.errors import DomainError, EstimationError, ScheduleError
from llo_sim.link_sim import ChannelDetector, PulseBlock, PulseTrainConfig, simulate_run
from llo_sim.noise_models import LaserModel
from llo_sim.phase_recovery import (
    _midpoints,
    _reference_phases,
    predicted_sigma_phi,
    recover_run,
    remap_quadratures,
    residual_variance,
    sigma_phi_from_quadratures,
    wrap_phase,
)

PI = math.pi


def estimate(x, p):
    """The reference kernel on one measurement."""
    return _reference_phases(np.array([x]), np.array([p]))[0]


def midpoint(phi_i, phi_next):
    """The midpoint kernel on one pair of reference phases."""
    midpoints, _ = _midpoints(np.array([phi_i, phi_next]))
    return midpoints[0]


def block_with(ref_phases, raw_phases):
    """A noise-free block whose references estimate to ``ref_phases`` and whose
    signals have the raw phases ``raw_phases``; the last signal, which
    recovery drops, is appended at phase 0."""
    angles = np.zeros(2 * len(ref_phases))
    angles[0::2] = -np.asarray(ref_phases)
    angles[1:-1:2] = raw_phases
    return PulseBlock(
        np.cos(angles), np.sin(angles), np.zeros_like(angles), np.zeros(len(ref_phases))
    )


class TestWrapPhase:
    @pytest.mark.parametrize(
        "value,expected",
        [(0.0, 0.0), (PI, PI), (-PI, PI), (3 * PI, PI), (2 * PI, 0.0), (-0.1, -0.1)],
    )
    def test_principal_range(self, value, expected):
        assert wrap_phase(value) == pytest.approx(expected, abs=1e-12)

    def test_array_input(self):
        out = wrap_phase(np.array([0.0, 2 * PI + 0.5, -PI]))
        np.testing.assert_allclose(out, [0.0, 0.5, PI], atol=1e-12)

    def test_bits_match_the_mod_form(self):
        def mod_form(phi):
            wrapped = np.mod(phi, math.tau)
            return np.where(wrapped > PI, wrapped - math.tau, wrapped)

        tau_below = math.tau * (1.0 - 2.0**-52)
        edges = [0.0, -0.0, PI, -PI, tau_below, -tau_below, math.tau, -math.tau,
                 np.nextafter(PI, 4.0), np.nextafter(-PI, -4.0), np.nextafter(PI, 0.0),
                 5e-324, -5e-324, 1e-17, -1e-17, np.nan, np.inf]
        rng = np.random.default_rng(3)
        inputs = [
            rng.uniform(-math.tau, math.tau, 2500),  # every |phi| < tau
            rng.uniform(-20.0, 20.0, 2500),
            np.array(edges),
            *(np.array([x]) for x in edges),
        ]
        with np.errstate(invalid="ignore"):
            for phi in inputs:
                assert wrap_phase(phi).tobytes() == mod_form(phi).tobytes(), phi
            for x in edges[:-2]:
                assert np.float64(wrap_phase(x)).tobytes() == mod_form(np.float64(x)).tobytes(), x


class TestEstimatePhase:
    def test_reference_axis(self):
        assert estimate(1.0, 0.0) == 0.0

    def test_quadrant_sign(self):
        assert estimate(0.0, 1.0) == pytest.approx(-PI / 2, rel=1e-12)

    def test_principal_range_convention(self):
        assert estimate(-1.0, 0.0) == pytest.approx(PI, rel=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(EstimationError):
            _reference_phases(np.array([1.0, 0.0, 2.0]), np.array([0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("theta", [-3.0, -1.2, 0.0, 0.7, 2.9])
    def test_coherent_point_gives_minus_angle(self, theta):
        # Noiseless coherent point at angle theta estimates to -theta.
        x, p = 5.0 * math.cos(theta), 5.0 * math.sin(theta)
        assert estimate(x, p) == pytest.approx(wrap_phase(-theta), abs=1e-12)

    def test_output_in_principal_range(self):
        # x = -1 lies on the branch cut: p = +0.0 and p = -0.0 both give pi.
        for p in (0.0, -0.0):
            assert estimate(-1.0, p) == PI
        theta = np.concatenate([np.linspace(-4 * PI, 4 * PI, 4001), [PI, -PI, 3 * PI]])
        x = np.concatenate([np.cos(theta), [-1.0, -1.0, -1.0, -1.0]])
        p = np.concatenate([np.sin(theta), [0.0, -0.0, 1e-300, -1e-300]])
        phases = _reference_phases(x, p)
        assert np.all((phases > -PI) & (phases <= PI))


class TestInterpolatePhase:
    def test_small_angle_midpoint(self):
        assert midpoint(0.1, 0.3) == pytest.approx(0.2, rel=1e-12)

    def test_wraparound_midpoint(self):
        # Shorter arc from 3.1 to -3.1 crosses the +-pi cut; midpoint is pi.
        assert midpoint(3.1, -3.1) == pytest.approx(PI, abs=1e-12)

    @pytest.mark.parametrize("phi0", [-2.0, 0.0, 1.5])
    @pytest.mark.parametrize("advance", [0.05, 0.578, -0.9])
    def test_constant_detuning_identity(self, phi0, advance):
        # Two references a constant 2*advance apart interpolate to +advance.
        phi1 = wrap_phase(phi0 + 2.0 * advance)
        expected = wrap_phase(phi0 + advance)
        assert midpoint(phi0, phi1) == pytest.approx(expected, abs=1e-12)

    def test_antipodal_tie_positive_direction(self):
        # One exact tie; the 3.1 rad advance after it is short of pi.
        midpoints, deltas = _midpoints(np.array([0.0, PI, -1.5, 1.6]))
        assert midpoints[0] == pytest.approx(PI / 2, rel=1e-12)
        assert np.count_nonzero(deltas == PI) == 1


class TestRemapQuadratures:
    def test_identity(self):
        assert remap_quadratures(1.2, -0.7, 0.0) == (1.2, -0.7)

    def test_quarter_rotation(self):
        x, p = remap_quadratures(1.0, 2.0, PI / 2)
        assert x == pytest.approx(-2.0, abs=1e-12)
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_round_trip(self):
        rng = substream(51)
        v = rng.standard_normal((2, 1000))
        for phi in rng.uniform(-PI, PI, size=8):
            x, p = remap_quadratures(v[0], v[1], phi)
            x2, p2 = remap_quadratures(x, p, -phi)
            assert np.max(np.abs(x2 - v[0])) < 1e-12
            assert np.max(np.abs(p2 - v[1])) < 1e-12

    def test_isometry_exact(self):
        rng = substream(53)
        x = rng.standard_normal(5000)
        p = rng.standard_normal(5000)
        total = x.var() + p.var()
        for phi in (0.3, 1.1, -2.5):
            xr, pr = remap_quadratures(x, p, phi)
            assert xr.var() + pr.var() == pytest.approx(total, rel=1e-12)

    def test_noise_statistics_preserved(self):
        # Rotating iid Gaussian noise leaves marginals and cross terms alone.
        rng = substream(57)
        n = 200_000
        nx = rng.normal(0.0, 1.0, n)
        np_ = rng.normal(0.0, 1.0, n)
        se = math.sqrt(2.0 / (n - 1))
        for phi in (0.77, rng.uniform(-PI, PI, size=n)):
            xr, pr = remap_quadratures(nx, np_, phi)
            assert abs(xr.var(ddof=1) - 1.0) < 3.0 * se
            assert abs(pr.var(ddof=1) - 1.0) < 3.0 * se
            cross = np.mean(xr * pr)
            assert abs(cross) < 3.0 / math.sqrt(n)

    def test_measurement_rotation_undone(self):
        # The measurement-frame rotation by -phi followed by remap(+phi) is identity.
        x_a, p_a = 2.0, -1.0
        phi = 1.234
        x_b, p_b = remap_quadratures(x_a, p_a, -phi)
        x_rec, p_rec = remap_quadratures(x_b, p_b, phi)
        assert x_rec == pytest.approx(x_a, rel=1e-12)
        assert p_rec == pytest.approx(p_a, rel=1e-12)


class TestCorrectPhases:
    def test_constant_references(self):
        out = recover_run(block_with([0.4] * 4, np.zeros(3))).corrected_phases
        np.testing.assert_allclose(out, 0.4, rtol=1e-12)

    def test_detuning_interpolation(self):
        # References advancing 2*delta per gap correct a raw phase by
        # ref[i] + delta.
        delta = 0.3
        refs = [wrap_phase(i * 2 * delta) for i in range(5)]
        out = recover_run(block_with(refs, np.zeros(4))).corrected_phases
        expected = [wrap_phase(i * 2 * delta + delta) for i in range(4)]
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestPredictedSigmaPhi:
    def test_measured_laser_variances(self):
        assert predicted_sigma_phi(0.035, 0.044) == 0.0395

    def test_symmetric(self):
        assert predicted_sigma_phi(0.07, 0.07) == 0.07

    def test_zero(self):
        assert predicted_sigma_phi(0.0, 0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            predicted_sigma_phi(-0.01, 0.04)


class TestResidualVariance:
    def test_exact_match_is_zero(self):
        corrected = np.array([0.0, 1.65, 0.0, 1.65])
        encoded = np.array([0.0, 1.65, 0.0, 1.65])
        out = residual_variance(corrected, encoded)
        assert out[0.0] == 0.0 and out[1.65] == 0.0

    def test_wrap_safe(self):
        # Residuals straddling the +-pi cut must not explode.
        encoded = np.full(6, PI)
        corrected = wrap_phase(encoded + np.array([0.1, -0.1, 0.05, -0.05, 0.0, 0.02]))
        out = residual_variance(corrected, encoded)
        assert out[float(PI)] < 0.01

    def test_grouping(self):
        rng = substream(61)
        encoded = np.where(np.arange(4000) % 2 == 0, 0.0, 1.65)
        noise = rng.normal(0.0, 0.1, 4000)
        corrected = wrap_phase(encoded + noise)
        out = residual_variance(corrected, encoded)
        assert out[0.0] == pytest.approx(0.01, rel=0.15)
        assert out[1.65] == pytest.approx(0.01, rel=0.15)

    def test_large_variance_warns(self):
        rng = substream(63)
        encoded = np.zeros(2000)
        corrected = wrap_phase(rng.normal(0.0, 1.2, 2000))
        with pytest.warns(UserWarning):
            residual_variance(corrected, encoded)

    def test_empty_rejected(self):
        with pytest.raises(EstimationError):
            residual_variance(np.array([]), np.array([]))

    def test_single_member_group_rejected(self):
        with pytest.raises(EstimationError):
            residual_variance(np.array([0.0, 0.1]), np.array([0.0, 1.0]))


class TestSigmaPhiFromQuadratures:
    @staticmethod
    def _cloud(sigma_phi, n, seed, amplitude=100.0, noise=1.0):
        rng = substream(seed)
        delta = rng.normal(0.0, math.sqrt(sigma_phi), n) if sigma_phi else np.zeros(n)
        x = amplitude * np.cos(delta) + rng.normal(0.0, noise, n)
        p = amplitude * np.sin(delta) + rng.normal(0.0, noise, n)
        return x, p

    def test_zero_jitter_is_small(self):
        x, p = self._cloud(0.0, 100_000, 67)
        assert abs(sigma_phi_from_quadratures((x, p))) < 1e-3

    def test_injected_jitter_recovered(self):
        x, p = self._cloud(0.10, 100_000, 71)
        estimate = sigma_phi_from_quadratures((x, p))
        assert estimate == pytest.approx(0.10, rel=0.2)

    def test_ill_conditioned_rejected(self):
        rng = substream(73)
        x = rng.normal(0.0, 1.0, 1000)
        p = rng.normal(0.0, 1.0, 1000)
        with pytest.raises(EstimationError):
            sigma_phi_from_quadratures((x, p))

    def test_too_few_samples_rejected(self):
        with pytest.raises(EstimationError):
            sigma_phi_from_quadratures((np.ones(50), np.ones(50)))


class TestMidpointEstimatorOracle:
    def test_wiener_noise_reaches_closed_form(self):
        # Core oracle: with pure Wiener phase noise and exact reference
        # phases, the midpoint residual variance is (var_s + var_l)/2.
        var_s, var_l = 0.035, 0.044
        detuning_step = 0.578  # constant beat advance per slot, stresses wrap
        n = 200_000
        rng = substream(83)
        step_sigma = math.sqrt(var_s + var_l)
        phi0 = rng.uniform(-PI, PI, n)
        phi1 = phi0 + detuning_step + rng.normal(0.0, step_sigma, n)
        phi2 = phi1 + detuning_step + rng.normal(0.0, step_sigma, n)
        deltas = wrap_phase(wrap_phase(phi2) - wrap_phase(phi0))
        midpoints = wrap_phase(wrap_phase(phi0) + 0.5 * deltas)
        residuals = wrap_phase(midpoints - phi1)
        expected = predicted_sigma_phi(var_s, var_l)
        se = expected * math.sqrt(2.0 / (n - 1))
        assert abs(residuals.var(ddof=1) - expected) < 3.0 * se


class TestRecoverRun:
    @staticmethod
    def _run(n_pairs=200, seed=87, reference_photons=1e5):
        lasers = (
            LaserModel.from_delay_variance(0.035, 20e-9),
            LaserModel.from_delay_variance(0.044, 20e-9, center_detuning_hz=2.3e6),
        )
        train = PulseTrainConfig(20e-9, n_pairs, 1e5, reference_photons)
        det = ChannelDetector(transmittance_override=1.0, detector_efficiency=0.5)
        return simulate_run(train, lasers, det, seed=seed)

    def test_boundary_drop_recorded(self):
        block = self._run()
        rec = recover_run(block)
        assert rec.corrected_phases.size == rec.encoded_phases.size == 199
        assert np.array_equal(rec.encoded_phases, block.encoded_phase[:-1])

    def test_strong_pulse_recovery_tracks_truth(self):
        # With strong pulses, corrected phase of an unmodulated signal should
        # sit near zero (encoded phase) with variance close to sigma_phi.
        rec = recover_run(self._run(n_pairs=4000, seed=89))
        residuals = wrap_phase(rec.corrected_phases)
        assert abs(np.mean(residuals)) < 0.02
        assert np.var(residuals) == pytest.approx(0.0395, rel=0.25)

    def test_interpolation_matches_truth(self):
        # The interpolated phases should track the true phases to within the
        # recovery noise.
        block = self._run(n_pairs=2000, seed=91)
        rec = recover_run(block)
        err = wrap_phase(rec.interpolated_phases - block.true_phase[1:-1:2])
        assert np.var(err) == pytest.approx(0.0395, rel=0.3)

    def test_unbalanced_schedule_rejected(self):
        block = self._run(n_pairs=10)
        with pytest.raises(ScheduleError):
            PulseBlock(block.x[:-1], block.p[:-1], block.true_phase[:-1], block.encoded_phase)

    def test_shares_the_scalar_kernel(self):
        # The array kernel against a per-reference scalar oracle written
        # from the stated conventions: phi = -atan2(p, x), then the midpoint
        # of the shorter arc from one reference to the next.
        block = self._run(n_pairs=500, seed=95)
        rec = recover_run(block)
        refs = [-math.atan2(p, x) for x, p in zip(block.x[0::2].tolist(), block.p[0::2].tolist())]
        for i, value in enumerate(rec.interpolated_phases.tolist()):
            advance = (refs[i + 1] - refs[i]) % (2 * PI)
            if advance > PI:
                advance -= 2 * PI
            expected = refs[i] + advance / 2
            assert abs(math.remainder(value - expected, 2 * PI)) <= 4e-15

    def test_noiseless_lasers_floor(self):
        # With noiseless lasers and strong pulses the residual variance is
        # limited only by shot noise.
        lasers = (LaserModel.noiseless(), LaserModel.noiseless(center_detuning_hz=1e6))
        train = PulseTrainConfig(20e-9, 4000, 1e6, 1e6)
        det = ChannelDetector(transmittance_override=1.0, detector_efficiency=0.5)
        rec = recover_run(simulate_run(train, lasers, det, seed=93))
        assert np.var(wrap_phase(rec.corrected_phases)) < 1e-3
