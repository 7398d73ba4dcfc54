import math

import numpy as np
import pytest

from llo_sim._seeding import seed_sequence, substream
from llo_sim.errors import ConfigError, DomainError, ScheduleError
from llo_sim.link_sim import (
    ChannelDetector,
    GaussianModulation,
    PulseBlock,
    PulseTrainConfig,
    coherent_amplitude,
    detect_run,
    launch_run,
    lo_frame,
    simulate_run,
    _draw_symbols,
    _measure_arrays,
)
from llo_sim.noise_models import LaserModel, phase_noise_variance

BENCH_LASER_S = LaserModel.from_delay_variance(0.035, 20e-9)
BENCH_LASER_L = LaserModel.from_delay_variance(0.044, 20e-9, center_detuning_hz=2.3e6)


class TestChannelDetector:
    def test_transmittance_from_length(self):
        det = ChannelDetector(attenuation_db_per_km=0.2, fiber_length_km=25.0)
        assert det.transmittance == pytest.approx(10 ** (-0.5), rel=1e-12)

    def test_zero_length_is_unity(self):
        assert ChannelDetector(fiber_length_km=0.0).transmittance == 1.0

    def test_override_wins(self):
        det = ChannelDetector(fiber_length_km=100.0, transmittance_override=0.7)
        assert det.transmittance == 0.7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"fiber_length_km": 25.0, "detector_efficiency": 0.6, "electronic_noise_snu": 0.1},
            {"transmittance_override": 0.3, "detector_efficiency": 0.5,
             "electronic_noise_snu": 0.83},
        ],
    )
    def test_receiver_model(self, kwargs):
        # The properties keep the float operations of the formulas they replace.
        det = ChannelDetector(**kwargs)
        t, eta, nu = det.transmittance, det.detector_efficiency, det.electronic_noise_snu
        assert det.power_gain == t * eta
        assert det.amplitude_gain == math.sqrt(t * eta / 2.0)
        assert det.noise_snu == 1.0 + nu
        assert det.chi_het == (1.0 + (1.0 - eta) + 2.0 * nu) / eta

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"detector_efficiency": 0.0},
            {"detector_efficiency": 1.2},
            {"electronic_noise_snu": -0.1},
            {"attenuation_db_per_km": -0.2},
            {"transmittance_override": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ChannelDetector(**kwargs)


class TestModulation:
    def test_none_gives_coherent_amplitude(self):
        # The default phase pair (0, 0) is an unmodulated train at phase 0.
        modulation = PulseTrainConfig(20e-9, 2, 9.0, 9.0).modulation
        x_a, p_a, encoded = _draw_symbols(modulation, 9.0, np.arange(3), substream(1))
        assert x_a.tolist() == [6.0] * 3 and p_a.tolist() == [0.0] * 3
        assert encoded.tobytes() == np.zeros(3).tobytes()
        assert coherent_amplitude(9.0) == (6.0, 0.0)

    def test_bpsk_pattern_and_angle(self):
        x_a, p_a, (ph0, ph1) = _draw_symbols((0.0, 1.65), 4.0, np.arange(2), substream(1))
        x1, p1 = x_a[1], p_a[1]
        assert ph0 == 0.0 and ph1 == 1.65
        assert math.atan2(p1, x1) == pytest.approx(1.65, rel=1e-12)
        assert math.hypot(x1, p1) == pytest.approx(4.0, rel=1e-12)

    def test_gaussian_variance_monte_carlo(self):
        n = 100_000
        x_a, p_a, _ = _draw_symbols(
            GaussianModulation(variance_snu=1.0), 0.0, np.arange(n), substream(3, "modulation")
        )
        se = math.sqrt(2.0 / (n - 1))
        assert abs(x_a.var(ddof=1) - 1.0) < 3.0 * se
        assert abs(p_a.var(ddof=1) - 1.0) < 3.0 * se

    def test_gaussian_requires_positive_variance(self):
        with pytest.raises(ConfigError):
            GaussianModulation(variance_snu=0.0)

    def test_unknown_modulation_rejected(self):
        with pytest.raises(ConfigError):
            PulseTrainConfig(
                repetition_period_s=20e-9,
                n_pairs=2,
                signal_photons=1.0,
                reference_photons=1.0,
                modulation="qam",
            )

    @pytest.mark.parametrize("modulation", [(0.0, 1.65, 3.1), (0.0,), [0.0, 1.65]])
    def test_phase_pair_must_be_a_pair(self, modulation):
        with pytest.raises(ConfigError, match="unknown modulation"):
            PulseTrainConfig(20e-9, 2, 1.0, 1.0, modulation=modulation)


class TestHeterodyneMeasure:
    def test_vacuum_snu_anchor(self):
        det = ChannelDetector(transmittance_override=1.0, detector_efficiency=1.0)
        rng = substream(5)
        n = 100_000
        x, _ = _measure_arrays(np.zeros(n), np.zeros(n), lo_frame(0.0), det, rng)
        se = math.sqrt(2.0 / (n - 1))
        assert abs(x.var(ddof=1) - 1.0) < 3.0 * se

    def test_vacuum_anchor_any_channel(self):
        # Vacuum in, vacuum out: the anchor holds regardless of T and eta.
        det = ChannelDetector(
            attenuation_db_per_km=0.2, fiber_length_km=80.0, detector_efficiency=0.4
        )
        rng = substream(6)
        n = 100_000
        x, _ = _measure_arrays(np.zeros(n), np.zeros(n), lo_frame(0.3), det, rng)
        se = math.sqrt(2.0 / (n - 1))
        assert abs(x.var(ddof=1) - 1.0) < 3.0 * se

    def test_reference_phase_estimate_variance(self):
        # 1000 photons at a 50% efficient heterodyne: variance about 1e-3.
        det = ChannelDetector(transmittance_override=1.0, detector_efficiency=0.5)
        n = 100_000
        rng = substream(7)
        phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
        x_in, p_in = coherent_amplitude(1000.0)
        x, p = _measure_arrays(np.full(n, x_in), np.full(n, p_in), lo_frame(phi), det, rng)
        estimates = -np.arctan2(p, x)
        err = np.angle(np.exp(1j * (estimates - phi)))
        assert np.var(err) == pytest.approx(1.0 / (2.0 * 0.5 * 1000.0), rel=0.1)

    def test_noiseless_scaling_exact(self):
        det = ChannelDetector(
            attenuation_db_per_km=0.2, fiber_length_km=25.0, detector_efficiency=0.6
        )
        x, p = _measure_arrays(3.0, -2.0, lo_frame(0.0), det, rng=None)
        scale = math.sqrt(det.transmittance * 0.6 / 2.0)
        assert x == pytest.approx(3.0 * scale, rel=1e-12)
        assert p == pytest.approx(-2.0 * scale, rel=1e-12)

    def test_rotation_convention(self):
        # A pulse encoded at angle theta measured at LO offset phi lands at
        # angle theta - phi.
        det = ChannelDetector(transmittance_override=1.0, detector_efficiency=1.0)
        theta, phi = 0.9, 0.4
        x_in, p_in = 20.0 * math.cos(theta), 20.0 * math.sin(theta)  # 100 photons at theta
        x, p = _measure_arrays(x_in, p_in, lo_frame(phi), det, rng=None)
        assert math.atan2(p, x) == pytest.approx(theta - phi, rel=1e-9)


class TestSimulateRun:
    def test_static_interferometer(self):
        lasers = (LaserModel.noiseless(), LaserModel.noiseless())
        train = PulseTrainConfig(20e-9, 16, 100.0, 100.0)
        samples = simulate_run(train, lasers, ChannelDetector(), seed=9)
        phases = {s.true_phase for s in samples}
        assert len(phases) == 1

    def test_detuning_advances_per_slot(self):
        f_d = 1.5e6
        lasers = (LaserModel.noiseless(), LaserModel.noiseless(center_detuning_hz=f_d))
        train = PulseTrainConfig(20e-9, 8, 100.0, 100.0)
        samples = simulate_run(train, lasers, ChannelDetector(), seed=9)
        advances = np.diff([s.true_phase for s in samples])
        np.testing.assert_allclose(advances, 2.0 * math.pi * f_d * 20e-9, rtol=1e-9)

    def test_phase_steps_follow_both_lasers(self):
        # One beat walk per run: each period's step of the true phase has the
        # beat's mean advance and the sum of the two lasers' variances.
        period, n_pairs = 20e-9, 50_000
        train = PulseTrainConfig(period, n_pairs, 10.0, 10.0)
        block = simulate_run(train, (BENCH_LASER_S, BENCH_LASER_L), ChannelDetector(), seed=3)
        steps = np.diff(block.true_phase)
        n = steps.size
        mean = 2.0 * math.pi * (
            BENCH_LASER_L.center_detuning_hz - BENCH_LASER_S.center_detuning_hz
        ) * period
        variance = phase_noise_variance(period, BENCH_LASER_S) + phase_noise_variance(
            period, BENCH_LASER_L
        )
        assert abs(steps.mean() - mean) < 3.0 * math.sqrt(variance / n)
        assert abs(steps.var(ddof=1) - variance) < 3.0 * variance * math.sqrt(2.0 / (n - 1))

    def test_schedule_order(self):
        train = PulseTrainConfig(20e-9, 5, 10.0, 10.0)
        samples = simulate_run(
            train, (BENCH_LASER_S, BENCH_LASER_L), ChannelDetector(), seed=9
        )
        assert [s.index for s in samples] == list(range(10))
        assert [s.kind for s in samples] == ["reference", "signal"] * 5

    def test_needs_two_pairs(self):
        train = PulseTrainConfig(20e-9, 1, 10.0, 10.0)
        with pytest.raises(ScheduleError):
            simulate_run(train, (BENCH_LASER_S, BENCH_LASER_L), ChannelDetector(), 9)

    def test_determinism_and_seed_sensitivity(self):
        train = PulseTrainConfig(20e-9, 20, 10.0, 10.0)
        lasers = (BENCH_LASER_S, BENCH_LASER_L)
        det = ChannelDetector()
        a = simulate_run(train, lasers, det, seed=11)
        b = simulate_run(train, lasers, det, seed=11)
        c = simulate_run(train, lasers, det, seed=12)

        def same(u, v):
            columns = ("x", "p", "true_phase")
            return all(np.array_equal(getattr(u, k), getattr(v, k)) for k in columns)

        assert same(a, b)
        assert not same(a, c)

    def test_one_launch_detected_twice(self):
        # One launch, two detector streams: same true phases, different
        # measured quadratures; on the run's own "detector" stream the
        # detection is simulate_run's.
        train = PulseTrainConfig(20e-9, 20, 10.0, 10.0)
        lasers = (BENCH_LASER_S, BENCH_LASER_L)
        det = ChannelDetector()
        launched = launch_run(train, lasers, 21, "batch", 3)
        a = detect_run(launched, 10.0, det, seed_sequence(21, "batch", 3, "detector"))
        b = detect_run(launched, 10.0, det, substream(99, "other-detector"))
        assert np.array_equal(a.true_phase, b.true_phase)
        assert not np.array_equal(a.x, b.x)
        run = simulate_run(train, lasers, det, 21, "batch", 3)
        for column in ("x", "p", "true_phase", "encoded_phase"):
            assert np.array_equal(getattr(a, column), getattr(run, column)), column

    def test_bob_variance_identity(self):
        # Sample variance of Bob's quadratures on Gaussian modulation matches
        # (eta*T/2) * (V + chi_tot) with zero excess noise.
        det = ChannelDetector(
            attenuation_db_per_km=0.2,
            fiber_length_km=25.0,
            detector_efficiency=0.6,
            electronic_noise_snu=0.1,
        )
        v_a = 1.0
        train = PulseTrainConfig(
            20e-9, 40_000, 0.0, 500.0, modulation=GaussianModulation(v_a)
        )
        samples = simulate_run(train, (BENCH_LASER_S, BENCH_LASER_L), det, seed=31)
        xs = np.array([s.x for s in samples if s.kind == "signal"])
        t = det.transmittance
        chi_tot = 1.0 / t - 1.0 + det.chi_het / t
        expected = det.amplitude_gain**2 * (v_a + 1.0 + chi_tot)
        se = expected * math.sqrt(2.0 / (xs.size - 1))
        assert abs(xs.var(ddof=1) - expected) < 3.0 * se

    def test_energy_bookkeeping(self):
        # Mean squared vector length scales with photon number and T*eta.
        lasers = (LaserModel.noiseless(), LaserModel.noiseless(center_detuning_hz=1e6))

        def mean_power(photons, det):
            train = PulseTrainConfig(20e-9, 20_000, photons, photons)
            samples = simulate_run(train, lasers, det, seed=37)
            xs = np.array([s.x for s in samples])
            ps = np.array([s.p for s in samples])
            noise = 2.0 * (1.0 + det.electronic_noise_snu)
            return np.mean(xs**2 + ps**2) - noise

        det_a = ChannelDetector(transmittance_override=1.0, detector_efficiency=0.5)
        det_b = ChannelDetector(transmittance_override=0.5, detector_efficiency=0.5)
        p_ref = mean_power(100.0, det_a)
        assert mean_power(200.0, det_a) / p_ref == pytest.approx(2.0, rel=0.05)
        assert mean_power(100.0, det_b) / p_ref == pytest.approx(0.5, rel=0.05)

    def test_alice_symbols_match_run_draws(self):
        # High modulation variance so the unit measurement noise cannot hide
        # a mismatch between the block's encoded phases and the run's draws.
        train = PulseTrainConfig(
            20e-9, 50, 0.0, 10.0, modulation=GaussianModulation(1e4)
        )
        det = ChannelDetector(transmittance_override=1.0, detector_efficiency=1.0)
        lasers = (LaserModel.noiseless(), LaserModel.noiseless())
        block = simulate_run(train, lasers, det, seed=41)
        assert block.encoded_phase.shape == (50,)
        # Undo the measurement rotation R(-phi), then split Bob's vector along
        # and across the recorded encoded direction.
        x, p, phi = block.x[1::2], block.p[1::2], block.true_phase[1::2]
        x_in = x * np.cos(phi) - p * np.sin(phi)
        p_in = x * np.sin(phi) + p * np.cos(phi)
        enc = block.encoded_phase
        along = x_in * np.cos(enc) + p_in * np.sin(enc)
        across = -x_in * np.sin(enc) + p_in * np.cos(enc)
        # Across the encoded direction is pure unit measurement noise; along
        # it lies the symbol's amplitude, sqrt(0.5) * 100 * sqrt(pi/2) on average.
        assert np.abs(across).max() < 6.0
        assert along.min() > -6.0 and along.mean() > 40.0


class TestPulseBlock:
    @pytest.mark.parametrize("column", ["x", "p"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_quadrature_rejected(self, column, bad):
        columns = {
            "x": np.ones(4), "p": np.ones(4), "true_phase": np.zeros(4),
            "encoded_phase": np.zeros(2),
        }
        columns[column][2] = bad
        with pytest.raises(DomainError):
            PulseBlock(**columns)

    @pytest.mark.parametrize(
        "n_pulses,n_encoded", [(5, 2), (6, 2), (6, 4)], ids=["odd", "short", "long"]
    )
    def test_schedule_shape_rejected(self, n_pulses, n_encoded):
        with pytest.raises(ScheduleError):
            PulseBlock(
                np.ones(n_pulses), np.ones(n_pulses), np.zeros(n_pulses), np.zeros(n_encoded)
            )

