import math

import numpy as np
import pytest

from llo_sim._seeding import substream
from llo_sim.errors import ConfigError, DomainError, ScheduleError
from llo_sim.link_sim import (
    BPSKModulation,
    ChannelDetector,
    GaussianModulation,
    NoModulation,
    PulseBlock,
    PulseTrainConfig,
    RunSeeds,
    alice_symbols,
    coherent_amplitude,
    simulate_run,
    _draw_symbols,
    _measure_arrays,
)
from llo_sim.noise_models import LaserModel
from llo_sim.security import NoiseBudget

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
        symbols = _draw_symbols(NoModulation(), 9.0, np.arange(1), substream(1))
        assert (symbols.x_a[0], symbols.p_a[0]) == (2.0 * 3.0, 0.0)
        assert symbols.encoded_phase[0] == 0.0
        assert coherent_amplitude(9.0) == (6.0, 0.0)

    def test_bpsk_pattern_and_angle(self):
        mod = BPSKModulation(phase0=0.0, phase1=1.65)
        symbols = _draw_symbols(mod, 4.0, np.arange(2), substream(1))
        ph0, ph1 = symbols.encoded_phase
        x1, p1 = symbols.x_a[1], symbols.p_a[1]
        assert ph0 == 0.0 and ph1 == 1.65
        assert math.atan2(p1, x1) == pytest.approx(1.65, rel=1e-12)
        assert math.hypot(x1, p1) == pytest.approx(4.0, rel=1e-12)

    def test_gaussian_variance_monte_carlo(self):
        train = PulseTrainConfig(
            repetition_period_s=20e-9,
            n_pairs=100_000,
            signal_photons=0.0,
            reference_photons=100.0,
            modulation=GaussianModulation(variance_snu=1.0),
        )
        symbols = alice_symbols(train, seed=3)
        n = symbols.x_a.size
        se = math.sqrt(2.0 / (n - 1))
        assert abs(symbols.x_a.var(ddof=1) - 1.0) < 3.0 * se
        assert abs(symbols.p_a.var(ddof=1) - 1.0) < 3.0 * se

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


class TestHeterodyneMeasure:
    def test_vacuum_snu_anchor(self):
        det = ChannelDetector(transmittance_override=1.0, detector_efficiency=1.0)
        rng = substream(5)
        n = 100_000
        x, _ = _measure_arrays(np.zeros(n), np.zeros(n), 0.0, det, rng)
        se = math.sqrt(2.0 / (n - 1))
        assert abs(x.var(ddof=1) - 1.0) < 3.0 * se

    def test_vacuum_anchor_any_channel(self):
        # Vacuum in, vacuum out: the anchor holds regardless of T and eta.
        det = ChannelDetector(
            attenuation_db_per_km=0.2, fiber_length_km=80.0, detector_efficiency=0.4
        )
        rng = substream(6)
        n = 100_000
        x, _ = _measure_arrays(np.zeros(n), np.zeros(n), 0.3, det, rng)
        se = math.sqrt(2.0 / (n - 1))
        assert abs(x.var(ddof=1) - 1.0) < 3.0 * se

    def test_reference_phase_estimate_variance(self):
        # 1000 photons at a 50% efficient heterodyne: variance about 1e-3.
        det = ChannelDetector(transmittance_override=1.0, detector_efficiency=0.5)
        n = 100_000
        rng = substream(7)
        phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
        x_in, p_in = coherent_amplitude(1000.0)
        x, p = _measure_arrays(np.full(n, x_in), np.full(n, p_in), phi, det, rng)
        estimates = -np.arctan2(p, x)
        err = np.angle(np.exp(1j * (estimates - phi)))
        assert np.var(err) == pytest.approx(1.0 / (2.0 * 0.5 * 1000.0), rel=0.1)

    def test_noiseless_scaling_exact(self):
        det = ChannelDetector(
            attenuation_db_per_km=0.2, fiber_length_km=25.0, detector_efficiency=0.6
        )
        x, p = _measure_arrays(3.0, -2.0, 0.0, det, rng=None)
        scale = math.sqrt(det.transmittance * 0.6 / 2.0)
        assert x == pytest.approx(3.0 * scale, rel=1e-12)
        assert p == pytest.approx(-2.0 * scale, rel=1e-12)

    def test_rotation_convention(self):
        # A pulse encoded at angle theta measured at LO offset phi lands at
        # angle theta - phi.
        det = ChannelDetector(transmittance_override=1.0, detector_efficiency=1.0)
        theta, phi = 0.9, 0.4
        x_in, p_in = coherent_amplitude(100.0, theta)
        x, p = _measure_arrays(x_in, p_in, phi, det, rng=None)
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

    def test_run_seeds_shared_trajectories(self):
        # Common laser streams, fresh detector stream: same true phases,
        # different measured quadratures.
        train = PulseTrainConfig(20e-9, 20, 10.0, 10.0)
        lasers = (BENCH_LASER_S, BENCH_LASER_L)
        det = ChannelDetector()
        base = RunSeeds.from_seed(21)
        varied = RunSeeds(
            laser_s=base.laser_s,
            laser_l=base.laser_l,
            phase0=base.phase0,
            modulation=base.modulation,
            detector=substream(99, "other-detector"),
        )
        a = simulate_run(train, lasers, det, seed=RunSeeds.from_seed(21))
        b = simulate_run(train, lasers, det, seed=varied)
        assert [s.true_phase for s in a] == [s.true_phase for s in b]
        assert [s.x for s in a] != [s.x for s in b]

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
        budget = NoiseBudget.from_channel(det, 0.0)
        expected = (
            det.detector_efficiency * det.transmittance / 2.0
        ) * (v_a + 1.0 + budget.chi_tot)
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
        # a mismatch between the run's draws and the regenerated record.
        train = PulseTrainConfig(
            20e-9, 50, 0.0, 10.0, modulation=GaussianModulation(1e4)
        )
        recorded = alice_symbols(train, seed=41)
        det = ChannelDetector(transmittance_override=1.0, detector_efficiency=1.0)
        lasers = (LaserModel.noiseless(), LaserModel.noiseless())
        samples = simulate_run(train, lasers, det, seed=41)
        sig = [s for s in samples if s.kind == "signal"]
        scale = math.sqrt(0.5)
        recovered = np.array(
            [
                (s.x * math.cos(s.true_phase) - s.p * math.sin(s.true_phase)) / scale
                for s in sig
            ]
        )
        # Residual is pure measurement noise, std sqrt(2) input-referred.
        np.testing.assert_allclose(recovered, recorded.x_a, atol=8.0 * math.sqrt(2.0))
        assert np.corrcoef(recovered, recorded.x_a)[0, 1] > 0.999


class TestPulseBlock:
    @pytest.mark.parametrize("column", ["x", "p"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_quadrature_rejected(self, column, bad):
        columns = {"x": np.ones(4), "p": np.ones(4), "true_phase": np.zeros(4)}
        columns[column][2] = bad
        with pytest.raises(DomainError):
            PulseBlock(**columns)

