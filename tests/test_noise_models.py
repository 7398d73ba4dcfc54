import math

import numpy as np
import pytest

from llo_sim._seeding import substream
from llo_sim.errors import DomainError
from llo_sim.noise_models import (
    LaserModel,
    PhaseTrajectory,
    coherence_time_from_linewidth,
    linewidth_from_coherence_time,
    phase_noise_variance,
    sample_phase_trajectory,
    simulate_self_interference,
)

# Laser matching the measured 0.035 rad^2 at a 20 ns delay.
TAU_C = 2.0 * 20e-9 / 0.035


class TestCoherenceTime:
    def test_unit_case(self):
        assert coherence_time_from_linewidth(1.0 / math.pi) == pytest.approx(1.0, rel=1e-12)

    def test_measured_variance_inversion(self):
        # 2 * 20ns / tau_c = 0.035 pins tau_c, hence the linewidth.
        assert TAU_C == pytest.approx(1.1429e-6, rel=1e-3)
        linewidth = linewidth_from_coherence_time(TAU_C)
        assert linewidth == pytest.approx(2.785e5, rel=1e-3)
        assert coherence_time_from_linewidth(linewidth) == pytest.approx(TAU_C, rel=1e-12)

    def test_reciprocal_law(self):
        assert coherence_time_from_linewidth(2e5) == pytest.approx(
            coherence_time_from_linewidth(1e5) / 2.0, rel=1e-12
        )

    @pytest.mark.parametrize("bad", [0.0, -1.0, -1e5])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(DomainError):
            coherence_time_from_linewidth(bad)

    @pytest.mark.parametrize("linewidth", [1.0, 1e3, 2.785e5, 1e7])
    def test_round_trip(self, linewidth):
        tau = coherence_time_from_linewidth(linewidth)
        assert linewidth_from_coherence_time(tau) == pytest.approx(linewidth, rel=1e-12)


class TestLaserModel:
    def test_requires_one_spec(self):
        with pytest.raises(DomainError):
            LaserModel()

    def test_derives_coherence_time(self):
        laser = LaserModel(linewidth_hz=2.785e5)
        assert laser.coherence_time_s * laser.linewidth_hz == pytest.approx(
            1.0 / math.pi, rel=1e-12
        )

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(DomainError):
            LaserModel(linewidth_hz=1e5, coherence_time_s=1.0)

    def test_consistent_pair_accepted(self):
        lw = 1e5
        LaserModel(linewidth_hz=lw, coherence_time_s=1.0 / (math.pi * lw))

    def test_noiseless_limit(self):
        laser = LaserModel.noiseless(center_detuning_hz=1e6)
        assert laser.is_noiseless
        assert laser.linewidth_hz == 0.0
        assert math.isinf(laser.coherence_time_s)

    def test_from_delay_variance(self):
        laser = LaserModel.from_delay_variance(0.035, 20e-9)
        assert laser.coherence_time_s == pytest.approx(TAU_C, rel=1e-15)


class TestPhaseNoiseVariance:
    def test_zero_time(self):
        assert phase_noise_variance(0.0, LaserModel(coherence_time_s=TAU_C)) == 0.0

    def test_measured_value_at_20ns(self):
        laser = LaserModel(coherence_time_s=TAU_C)
        assert phase_noise_variance(20e-9, laser) == pytest.approx(0.035, rel=1e-12)

    def test_linear_in_time(self):
        laser = LaserModel(coherence_time_s=TAU_C)
        assert phase_noise_variance(40e-9, laser) == pytest.approx(
            2.0 * phase_noise_variance(20e-9, laser), rel=1e-12
        )

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            phase_noise_variance(-1e-9, LaserModel(coherence_time_s=TAU_C))


class TestPhaseTrajectory:
    def test_single_time_is_zero(self):
        traj = sample_phase_trajectory(
            LaserModel(coherence_time_s=TAU_C), [0.0], seed=substream(1)
        )
        assert traj.phases.tolist() == [0.0]

    def test_determinism(self):
        laser = LaserModel(coherence_time_s=TAU_C)
        times = np.linspace(0.0, 1e-6, 64)
        a = sample_phase_trajectory(laser, times, seed=substream(7, "traj"))
        b = sample_phase_trajectory(laser, times, seed=substream(7, "traj"))
        assert np.array_equal(a.phases, b.phases)

    def test_unordered_times_rejected(self):
        laser = LaserModel(coherence_time_s=TAU_C)
        with pytest.raises(DomainError):
            sample_phase_trajectory(laser, [0.0, 2e-9, 1e-9], seed=substream(1))
        with pytest.raises(DomainError):
            sample_phase_trajectory(laser, [1e-9, 2e-9], seed=substream(1))

    def test_increment_variance_monte_carlo(self):
        # Increments of one long trajectory over equal windows are iid copies
        # of the phase deviation after one window.
        laser = LaserModel(coherence_time_s=TAU_C)
        n = 100_000
        times = np.arange(n + 1) * 20e-9
        traj = sample_phase_trajectory(laser, times, seed=substream(11))
        increments = np.diff(traj.phases)
        expected = phase_noise_variance(20e-9, laser)
        sample_var = increments.var(ddof=1)
        se = expected * math.sqrt(2.0 / (n - 1))
        assert abs(sample_var - expected) < 3.0 * se

    def test_trajectory_calls_match_closed_form(self):
        laser = LaserModel(coherence_time_s=TAU_C)
        n = 2000
        finals = np.array(
            [
                sample_phase_trajectory(laser, [0.0, 20e-9], substream(3, i)).phases[-1]
                for i in range(n)
            ]
        )
        expected = phase_noise_variance(20e-9, laser)
        se = expected * math.sqrt(2.0 / (n - 1))
        assert abs(finals.var(ddof=1) - expected) < 3.0 * se

    def test_wiener_additivity(self):
        # Var over t1 + t2 windows adds; checked on alternating spacings.
        laser = LaserModel(coherence_time_s=TAU_C)
        t1, t2 = 10e-9, 30e-9
        n = 50_000
        steps = np.empty(2 * n)
        steps[0::2], steps[1::2] = t1, t2
        times = np.concatenate(([0.0], np.cumsum(steps)))
        traj = sample_phase_trajectory(laser, times, seed=substream(13))
        inc = np.diff(traj.phases)
        var1 = inc[0::2].var(ddof=1)
        var2 = inc[1::2].var(ddof=1)
        var_sum = (inc[0::2] + inc[1::2]).var(ddof=1)
        se = var_sum * math.sqrt(2.0 / (n - 1)) * 2.0
        assert abs(var_sum - (var1 + var2)) < 3.0 * se

    def test_gaussian_increments(self):
        laser = LaserModel(coherence_time_s=TAU_C)
        n = 100_000
        times = np.arange(n + 1) * 20e-9
        inc = np.diff(sample_phase_trajectory(laser, times, substream(17)).phases)
        z = (inc - inc.mean()) / inc.std()
        skew = np.mean(z**3)
        kurt = np.mean(z**4) - 3.0
        assert abs(skew) < 3.0 * math.sqrt(6.0 / n)
        assert abs(kurt) < 3.0 * math.sqrt(24.0 / n)

    def test_noiseless_detuning_is_exact(self):
        f_d = 2.5e6
        laser = LaserModel.noiseless(center_detuning_hz=f_d)
        times = np.linspace(0.0, 1e-6, 33)
        traj = sample_phase_trajectory(laser, times, seed=substream(1))
        np.testing.assert_allclose(traj.phases, 2.0 * math.pi * f_d * times, rtol=1e-12)

    def test_drift_term(self):
        laser = LaserModel.noiseless(center_detuning_hz=1e6, drift_rate_hz_per_s=1e12)
        times = np.array([0.0, 1e-6])
        traj = sample_phase_trajectory(laser, times, seed=substream(1))
        expected = 2.0 * math.pi * (1e6 + 1e12 * 1e-6) * 1e-6
        assert traj.phases[1] == pytest.approx(expected, rel=1e-12)

    def test_trajectory_type_invariants(self):
        with pytest.raises(DomainError):
            PhaseTrajectory(times=np.array([0.0, 1.0]), phases=np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            PhaseTrajectory(times=np.array([0.0, 0.0]), phases=np.array([0.0, 1.0]))


class TestSelfInterference:
    def test_zero_delay_exact(self):
        laser = LaserModel(coherence_time_s=TAU_C)
        assert simulate_self_interference(laser, 0.0, 1000, substream(1)) == 0.0

    def test_measured_value_at_20ns(self):
        laser = LaserModel.from_delay_variance(0.035, 20e-9)
        n = 100_000
        var = simulate_self_interference(laser, 20e-9, n, substream(23))
        se = 0.035 * math.sqrt(2.0 / (n - 1))
        assert abs(var - 0.035) < 3.0 * se

    def test_linear_in_delay(self):
        laser = LaserModel.from_delay_variance(0.044, 20e-9)
        delays = np.array([5e-9, 20e-9, 25e-9])
        variances = np.array(
            [
                simulate_self_interference(laser, d, 20_000, substream(29, i))
                for i, d in enumerate(delays)
            ]
        )
        slope, intercept = np.polyfit(delays, variances, 1)
        expected_slope = 2.0 / laser.coherence_time_s
        assert slope == pytest.approx(expected_slope, rel=0.05)
        fitted = slope * delays + intercept
        r2 = 1.0 - np.sum((variances - fitted) ** 2) / np.sum(
            (variances - variances.mean()) ** 2
        )
        assert r2 > 0.99

    def test_preconditions(self):
        laser = LaserModel(coherence_time_s=TAU_C)
        with pytest.raises(DomainError):
            simulate_self_interference(laser, -1e-9, 100, substream(1))
        with pytest.raises(DomainError):
            simulate_self_interference(laser, 1e-9, 1, substream(1))


class TestSeeding:
    def test_substream_paths_independent(self):
        a = substream(5, "alpha").standard_normal(8)
        b = substream(5, "beta").standard_normal(8)
        again = substream(5, "alpha").standard_normal(8)
        assert np.array_equal(a, again)
        assert not np.array_equal(a, b)
