import collections
import json
import math
from dataclasses import replace
from decimal import Context, Decimal
from fractions import Fraction

import numpy as np
import pytest

from llo_sim import experiments, link_sim
from llo_sim._seeding import substream
from llo_sim.config import (
    DistanceSweepConfig,
    LaserNoiseSweepConfig,
    NSweepConfig,
    PhaseExperimentConfig,
    RemapExperimentConfig,
    WeakReferenceSweepConfig,
    _linspace,
)
from llo_sim.errors import ConfigError, DomainError, EstimationError
from llo_sim.experiments import (
    CSV_CHUNK_ROWS,
    ExperimentResult,
    Metric,
    _chi2_sf,
    batch_metric,
    linear_fit,
    result_to_csv,
    result_to_json,
    run_bpsk_phase_experiment,
    run_finite_size_sweep,
    run_keyrate_distance_sweep,
    run_laser_noise_sweep,
    run_quantum_remap_experiment,
    run_weak_reference_sweep,
    uniformity_pvalue,
    write_result,
)
from llo_sim.link_sim import ChannelDetector
from llo_sim.security import SecurityParams, asymptotic_key_rate

SMALL_PHASE = PhaseExperimentConfig(n_pairs=4000, uniformity_stride=25)
SMALL_REMAP = RemapExperimentConfig(n_pairs=4000, uniformity_stride=25)
SMALL_NOISE = LaserNoiseSweepConfig(n_samples=20000)
# Floats at and around the bounds of the CSV kernel's vectorised range.
EDGE_FLOATS = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-4, 9.9999999999999991e-05,
    0.99999999999999994, 9.999999999999999e15, 1e16, 2**52 + 0.5, 1e300,
]


def reference_security(length_km=0.0, eta=0.5, nu=0.1) -> SecurityParams:
    return SecurityParams(
        channel=ChannelDetector(
            attenuation_db_per_km=0.2,
            fiber_length_km=length_km,
            detector_efficiency=eta,
            electronic_noise_snu=nu,
        )
    )


class TestHelpers:
    def test_batch_metric(self):
        m = batch_metric([1.0, 2.0, 3.0, 4.0])
        assert m.value == 2.5
        assert m.stderr == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2.0, rel=1e-12)

    def test_batch_metric_needs_two(self):
        with pytest.raises(DomainError):
            batch_metric([1.0])

    def test_linear_fit_exact_line(self):
        x = np.array([1.0, 2.0, 3.0])
        slope, intercept, r2 = linear_fit(x, 2.0 * x + 1.0)
        assert slope == pytest.approx(2.0, rel=1e-12)
        assert intercept == pytest.approx(1.0, rel=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "x,y",
        [
            ([1.0, 2.0], [math.inf, math.inf]),
            ([1.0, math.nan], [1.0, 2.0]),
            ([1e-300, 2e-300], [1.0, 2.0]),
            ([1e200, 2e200], [1.0, 2.0]),
        ],
        ids=["infinite-y", "nan-x", "underflowing-x", "overflowing-x"],
    )
    def test_linear_fit_failure_rejected(self, x, y):
        with pytest.raises(EstimationError):
            linear_fit(x, y)

    def test_uniformity_accepts_uniform(self):
        rng = substream(101)
        phases = rng.uniform(0.0, 2 * math.pi, 20000)
        assert uniformity_pvalue(phases, n_bins=10, stride=10) > 0.01

    def test_uniformity_rejects_clustered(self):
        rng = substream(103)
        phases = rng.normal(0.0, 0.1, 20000)
        assert uniformity_pvalue(phases, n_bins=10, stride=10) < 1e-6

    def test_uniformity_needs_samples(self):
        with pytest.raises(DomainError):
            uniformity_pvalue(np.zeros(100), n_bins=10, stride=100)
        with pytest.raises(DomainError):
            uniformity_pvalue(np.zeros(100), n_bins=1, stride=1)

    def test_chi2_tail_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        grid = [0.0, 1e-12, 3.4382769211433e-6, 1e-3, 0.5, 1.0,
                *np.linspace(2.0, 300.0, 150).tolist()]
        for dof in range(1, 41):
            for stat in grid:
                p = _chi2_sf(stat, dof)
                assert 0.0 <= p <= 1.0, (dof, stat)  # the summed terms can round past 1
                assert p == pytest.approx(
                    float(stats.chi2.sf(stat, dof)), rel=1e-12, abs=0.0
                ), (dof, stat)


class TestBpskExperiment:
    def test_metrics_and_oracle(self):
        res = run_bpsk_phase_experiment(SMALL_PHASE, seed=7, threads=1)
        pooled = res.scalar_metrics["residual_variance_pooled"]
        predicted = res.scalar_metrics["predicted_residual_variance"]
        assert predicted.exact and predicted.stderr is None
        assert pooled.stderr is not None
        # Cross-module oracle: measured residual matches closed-form
        # prediction within 3 standard errors.
        assert abs(pooled.value - predicted.value) < 3.0 * pooled.stderr
        assert res.scalar_metrics["raw_phase_uniformity_pvalue"].value > 0.01

    def test_histogram_series_shape(self):
        res = run_bpsk_phase_experiment(SMALL_PHASE, seed=7, threads=1)
        assert len(res.series_rows) == SMALL_PHASE.histogram_bins
        counts = sum(r[3] + r[4] for r in res.series_rows)
        # All usable corrected signals are binned (half per bit).
        assert counts == sum(r[1] + r[2] for r in res.series_rows)

    def test_reproducible_and_thread_invariant(self):
        a = run_bpsk_phase_experiment(SMALL_PHASE, seed=11, threads=1)
        b = run_bpsk_phase_experiment(SMALL_PHASE, seed=11, threads=4)
        assert result_to_json(a) == result_to_json(b)
        assert result_to_csv(a) == result_to_csv(b)

    def test_seed_changes_result(self):
        a = run_bpsk_phase_experiment(SMALL_PHASE, seed=11, threads=1)
        b = run_bpsk_phase_experiment(SMALL_PHASE, seed=12, threads=1)
        assert result_to_json(a) != result_to_json(b)

    def test_noiseless_lasers_floor(self):
        from llo_sim.noise_models import LaserModel

        config = replace(
            SMALL_PHASE,
            laser_s=LaserModel.noiseless(),
            laser_l=LaserModel.noiseless(center_detuning_hz=2.3e6),
            signal_photons=1e6,
            reference_photons=1e6,
        )
        res = run_bpsk_phase_experiment(config, seed=13, threads=1)
        assert res.scalar_metrics["residual_variance_pooled"].value < 1e-3


class TestWeakReferenceSweep:
    def test_monotone_and_limit(self):
        config = WeakReferenceSweepConfig(
            photon_numbers=(1e9, 10000.0, 1000.0, 100.0), n_pairs=10000
        )
        res = run_weak_reference_sweep(config, seed=17, threads=1)
        values = [row[1] for row in res.series_rows]
        assert all(b >= a for a, b in zip(values, values[1:]))
        # Huge reference photon number converges to the laser-limited value.
        assert values[0] == pytest.approx(0.0395, rel=0.1)

    def test_one_launch_per_batch_detected_at_every_point(self, monkeypatch):
        """However batches group into blocks, each batch's launch streams are
        derived exactly once and its detector stream once per photon number."""
        paths = collections.Counter()

        def counting(derive):
            def counted(seed, *path):
                paths[path] += 1
                return derive(seed, *path)

            return counted

        for module in (experiments, link_sim):
            monkeypatch.setattr(module, "seed_sequence", counting(module.seed_sequence))
        config = WeakReferenceSweepConfig(
            photon_numbers=(1e4, 1e3, 100.0), n_pairs=2000, n_batches=4
        )
        expected = collections.Counter()
        for i in range(4):
            expected.update(("weak-ref", i, name) for name in ("phase0", "laser", "modulation"))
            expected.update(("weak-ref", i, "detector", point) for point in range(3))
        # One block, two blocks on two workers, and one block per batch.
        for threads, block_pulses in [(1, 50_000), (2, 50_000), (1, 1_000)]:
            monkeypatch.setattr(experiments, "BLOCK_PULSES", block_pulses)
            paths.clear()
            run_weak_reference_sweep(config, seed=17, threads=threads)
            assert paths == expected, (threads, block_pulses)


class TestRemapExperiment:
    def test_metrics(self):
        res = run_quantum_remap_experiment(SMALL_REMAP, seed=19, threads=1)
        x_noise = res.scalar_metrics["x_noise_variance_snu"]
        assert x_noise.value == pytest.approx(1.83, abs=0.2)
        sigma = res.scalar_metrics["sigma_phi_estimate"]
        assert 0.02 < sigma.value < 0.06
        assert res.scalar_metrics["raw_phase_uniformity_pvalue"].value > 0.01
        # P broadened beyond X by the residual phase noise.
        assert res.scalar_metrics["p_noise_variance_snu"].value > x_noise.value

    @pytest.mark.parametrize(
        "scatter_rows,expected",
        [
            (100, 100),
            (0, 0),
            # Above the run: every usable signal, one per pair less one per batch.
            (SMALL_REMAP.n_pairs, SMALL_REMAP.n_pairs - SMALL_REMAP.n_batches),
        ],
        ids=["100", "zero", "above-run"],
    )
    def test_scatter_row_cap(self, scatter_rows, expected):
        config = replace(SMALL_REMAP, scatter_rows=scatter_rows)
        res = run_quantum_remap_experiment(config, seed=19, threads=1)
        assert len(res.series_rows) == expected
        assert [row[0] for row in res.series_rows] == list(range(expected))


class TestLaserNoiseSweep:
    def test_slopes_and_fit(self):
        res = run_laser_noise_sweep(SMALL_NOISE, seed=23, threads=1)
        for label in ("signal", "lo"):
            slope = res.scalar_metrics[f"slope_{label}"].value
            expected = res.scalar_metrics[f"expected_slope_{label}"].value
            assert slope == pytest.approx(expected, rel=0.1)
            assert res.scalar_metrics[f"r_squared_{label}"].value > 0.99

    def test_series_layout(self):
        res = run_laser_noise_sweep(SMALL_NOISE, seed=23, threads=1)
        assert list(res.series) == ["laser", "delay_s", "variance", "stderr"]
        assert len(res.series_rows) == 2 * len(SMALL_NOISE.delays_s)

    def test_noiseless_lasers(self):
        """tau_c = inf runs the one Wiener path: the expected slope is 0, and
        an undetuned noiseless laser measures exactly 0 at every delay."""
        from llo_sim.noise_models import LaserModel

        config = replace(
            SMALL_NOISE,
            laser_s=LaserModel.noiseless(),
            laser_l=LaserModel.noiseless(center_detuning_hz=2.3e6),
        )
        res = run_laser_noise_sweep(config, seed=23, threads=1)
        for label in ("signal", "lo"):
            assert res.scalar_metrics[f"expected_slope_{label}"].value == 0.0
        signal = [row[2:] for row in res.series_rows if row[0] == "signal"]
        assert signal == [(0.0, 0.0)] * len(config.delays_s)

    def test_batches_cover_every_sample(self, monkeypatch):
        # 20,005 samples in 10 batches: the first five take one more, none is dropped.
        sizes = []
        simulate = experiments.simulate_self_interference

        def recording(laser, delay_s, n_samples, seed, *, batch_samples):
            assert sum(batch_samples) == n_samples
            sizes.extend(batch_samples)
            return simulate(laser, delay_s, n_samples, seed, batch_samples=batch_samples)

        monkeypatch.setattr(experiments, "simulate_self_interference", recording)
        config = replace(SMALL_NOISE, n_samples=20005)
        run_laser_noise_sweep(config, seed=23, threads=1)
        series = [sizes[k : k + 10] for k in range(0, len(sizes), 10)]
        assert len(series) == 2 * len(config.delays_s)
        assert all(batches == [2001] * 5 + [2000] * 5 for batches in series)


class TestKeyRateSweeps:
    def test_distance_crossing_and_monotone(self):
        res = run_keyrate_distance_sweep(reference_security(), seed=1)
        crossing = res.scalar_metrics["secure_range_km"].value
        assert 110.0 < crossing < 140.0
        rates = {row[0]: row[1] for row in res.series_rows}
        assert rates[0.0] > rates[50.0] > rates[100.0]

    def test_ideal_system_reaches_further(self):
        base = run_keyrate_distance_sweep(reference_security(), seed=1)
        ideal_params = SecurityParams(
            sigma_phi=0.0,
            channel=ChannelDetector(
                attenuation_db_per_km=0.2,
                detector_efficiency=1.0,
                electronic_noise_snu=0.0,
            ),
        )
        grid = np.arange(0.0, 300.0, 5.0)
        ideal = run_keyrate_distance_sweep(ideal_params, grid, seed=1)
        ideal_range = ideal.scalar_metrics["secure_range_km"].value
        base_range = base.scalar_metrics["secure_range_km"].value
        assert math.isnan(ideal_range) or ideal_range > base_range

    def test_distance_rates_equal_a_rebuilt_channel(self):
        params = replace(
            reference_security(), channel=replace(reference_security().channel,
                                                  transmittance_override=0.5),
        )
        grid = [0.0, 12.5, 80.0, 133.3]
        res = run_keyrate_distance_sweep(params, grid, seed=1)
        rebuilt = [
            asymptotic_key_rate(replace(params, channel=replace(
                params.channel, fiber_length_km=length, transmittance_override=None
            )))
            for length in grid
        ]
        assert [rate for _, rate in res.series_rows] == rebuilt

    @pytest.mark.parametrize("grid", [[0.0, -5.0, 10.0], [0.0, 1e5]])
    def test_distance_grid_checked_once(self, grid):
        with pytest.raises(ConfigError, match="fiber length"):
            run_keyrate_distance_sweep(reference_security(), grid, seed=1)

    def test_finite_size_threshold_and_monotone(self):
        params = SecurityParams(
            channel=ChannelDetector(
                attenuation_db_per_km=0.2,
                fiber_length_km=10.0,
                detector_efficiency=1.0,
                electronic_noise_snu=0.0,
            )
        )
        res = run_finite_size_sweep(params, seed=1)
        threshold = res.scalar_metrics["n_threshold"].value
        assert 10**10.5 <= threshold <= 10**11.5
        rates = [row[1] for row in res.series_rows]
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        below_million = [r for n, r in res.series_rows if n <= 1e6]
        assert all(r <= 0.0 for r in below_million)

    def test_finite_size_threshold_at_a_positive_first_point(self):
        # The rate is already positive at 1e12 pulses: no bisection below the grid.
        params = reference_security(10.0, eta=1.0, nu=0.0)
        n_grid = NSweepConfig(log10_min=12.0, log10_max=13.0, points=3).grid()
        res = run_finite_size_sweep(params, n_grid)
        assert res.series["rate_bits_per_pulse"][0] > 0.0
        assert res.scalar_metrics["n_threshold"].value == 1e12


class TestSweepGrids:
    @pytest.mark.parametrize(
        "lo,hi,n",
        [(0.0, 150.0, 31), (0.0, 150.0, 3001), (0.0, 5e-324, 3), (0.0, 1e-320, 5000),
         (1.0, 1.0 + 2**-52, 7)],
    )
    def test_distance_grid_is_np_linspace_bit_for_bit(self, lo, hi, n):
        grid = DistanceSweepConfig(lo, hi, n).grid()
        assert np.array(grid).tobytes() == np.linspace(lo, hi, n).tobytes()

    def test_random_distance_grids_are_np_linspace_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            lo = float(rng.choice([0.0, 10.0 ** rng.uniform(-320, 300)]))
            hi = lo + float(10.0 ** rng.uniform(-320, 300))
            n = int(rng.integers(2, 5000))
            grid = _linspace(lo, hi, n)  # hi may round to lo, which a section rejects
            assert np.array(grid).tobytes() == np.linspace(lo, hi, n).tobytes(), (lo, hi, n)

    @pytest.mark.parametrize(
        "cls,fields,message",
        [
            (DistanceSweepConfig, {"max_km": 0.0}, "need max_km > min_km"),
            (DistanceSweepConfig, {"min_km": 5.0, "max_km": 5.0}, "need max_km > min_km"),
            (DistanceSweepConfig, {"points": 1}, "2 <= points <= 10000"),
            (DistanceSweepConfig, {"points": 10001}, "2 <= points <= 10000"),
            (DistanceSweepConfig, {"max_km": math.inf}, "grid must be finite"),
            (NSweepConfig, {"log10_max": 6.0}, "need log10_max > log10_min"),
            (NSweepConfig, {"log10_max": math.nan}, "need log10_max > log10_min"),
            (NSweepConfig, {"points": 1}, "2 <= points <= 10000"),
            (NSweepConfig, {"points": 10001}, "2 <= points <= 10000"),
            (NSweepConfig, {"log10_max": 309.0}, "grid must be finite"),
            (NSweepConfig, {"log10_max": math.inf}, "grid must be finite"),
            (NSweepConfig, {"log10_min": -math.inf}, "grid must be finite"),
        ],
    )
    def test_sections_check_their_grid(self, cls, fields, message):
        with pytest.raises(ConfigError, match=message):
            cls(**fields)

    def test_largest_sections_build_finite_grids(self):
        # The checks read only the ends: the grid rises from one to the other.
        for sweep in (
            DistanceSweepConfig(max_km=1.7e308, points=10000),
            NSweepConfig(log10_min=-300.0, log10_max=308.0, points=10000),
        ):
            grid = sweep.grid()
            assert len(grid) == 10000 and all(map(math.isfinite, grid))
            assert grid == sorted(grid)

    @pytest.mark.parametrize("points", [29, 4000])
    def test_n_grid_within_an_ulp_of_exact_powers(self, points):
        config = NSweepConfig(points=points)
        exact = Context(prec=60)
        ys = np.linspace(config.log10_min, config.log10_max, points).tolist()
        for n, y in zip(config.grid(), ys):
            reference = float(exact.power(Decimal(10), Decimal(y)))
            assert abs(n - reference) <= math.ulp(reference), (y, n, reference)


class TestResultIO:
    def test_numpy_cells_and_metadata(self):
        result = ExperimentResult(
            scalar_metrics={
                "a": Metric(np.float32(0.1), np.float64(0.5)),
                "b": Metric(np.int64(7)),
            },
            series={
                "f32": [np.float32(0.1), np.float32(-np.inf)],
                "i64": [np.int64(-3), np.int64(2**40)],
                "arr": [np.array([1, 2]), np.array([0.5])],
                "f64": [np.float64(2.5), np.float64(np.nan)],
            },
            metadata={
                "experiment": "np",
                "seed": np.int64(0),
                "f32": np.float32(1e-3),
                "arr": np.array([[1.5, np.nan], [np.inf, -0.0]]),
                "ints": np.arange(3),
                "mixed": [np.float32(2.0), (np.int64(1), "s")],
            },
        )
        assert result_to_csv(result) == (
            "f32,i64,arr,f64\n"
            "0.10000000149011612,-3,[1 2],2.5\n"
            "-inf,1099511627776,[0.5],nan\n"
        )
        payload = {
            "name": "np",
            "metrics": {
                "a": {"value": 0.10000000149011612, "stderr": 0.5, "exact": False},
                "b": {"value": 7, "stderr": None, "exact": True},
            },
            "metadata": {
                "experiment": "np",
                "seed": 0,
                "f32": 0.0010000000474974513,
                "arr": [[1.5, "nan"], ["inf", -0.0]],
                "ints": [0, 1, 2],
                "mixed": [2.0, [1, "s"]],
            },
        }
        assert result_to_json(result) == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize(
        "rows,expected",
        [
            (
                [
                    (3, "lo", 0.1, np.float64(1.0 / 3.0)),
                    (-7, "signal", math.nan, np.float64(-0.0)),
                    (0, "x", math.inf, np.float64(-math.inf)),
                ],
                "n,label,f,g\n"
                "3,lo,0.10000000000000001,0.33333333333333331\n"
                "-7,signal,nan,-0\n"
                "0,x,inf,-inf\n",
            ),
            ([], "n,label,f,g\n"),
        ],
    )
    def test_csv_format(self, rows, expected):
        result = ExperimentResult(
            scalar_metrics={},
            series=dict(zip(("n", "label", "f", "g"), tuple(zip(*rows)) or ((),) * 4)),
            metadata={"experiment": "csv", "seed": 0},
        )
        assert result_to_csv(result) == expected
        assert result.series_rows == rows

    def test_chunked_csv_matches_row_wise_format(self, tmp_path):
        n = 2 * CSV_CHUNK_ROWS + 7  # three chunks, the last one ragged
        specials = [math.nan, math.inf, -0.0, -math.inf]
        floats = [specials[i % 4] if i % 5 == 0 else i / 7.0 for i in range(n)]
        edges = np.arange(n, dtype=float) / 3.0 - 17.0
        mid = CSV_CHUNK_ROWS + CSV_CHUNK_ROWS // 2  # in the middle of the second chunk
        edges[mid : mid + len(EDGE_FLOATS)] = EDGE_FLOATS
        columns = {
            "i": np.arange(n),
            "f": floats,
            "arr": np.arange(n, dtype=float) * 1e-3 - 1.0,
            "ints": np.arange(n) - 3,
            "npf": [np.float64(x) for x in floats],
            "label": [f"s{i % 3}" for i in range(n)],
            "edge": edges,
        }
        row_format = {"i": "%s", "ints": "%s", "label": "%s"}
        # With list columns the series is formatted cell by cell; its numeric
        # columns alone take the vectorised kernel.  Both give the same text.
        numeric = ("i", "arr", "ints", "edge")
        for names in (tuple(columns), numeric):
            result = ExperimentResult(
                scalar_metrics={},
                series={name: columns[name] for name in names},
                metadata={"experiment": "chunks", "seed": 0},
            )
            rows = result.series_rows
            assert len(rows) == n and all(len(row) == len(names) for row in rows)
            line = ",".join(row_format.get(name, "%.17g") for name in names) + "\n"
            row_wise = "".join(line % row for row in rows)
            _, csv_path = write_result(result, tmp_path)
            text = csv_path.read_text()
            assert text == result_to_csv(result) == ",".join(names) + "\n" + row_wise
        assert text.splitlines()[1 + mid : 1 + mid + 5] == [
            "%s,%.17g,%s,%s" % (mid + j, columns["arr"][mid + j], mid + j - 3, cell)
            for j, cell in enumerate(("0", "-0", "nan", "inf", "-inf"))
        ]
        rows = ExperimentResult({}, columns, {"experiment": "c", "seed": 0}).series_rows
        assert rows[5] == (5, floats[5], columns["arr"][5], 2, floats[5], "s2", edges[5])

    @pytest.mark.parametrize(
        "series,kernel",
        [
            ({"i": np.arange(3), "x": np.array([0.5, -1e-5, 3.0]), "n": np.array([1, 0, -2])},
             True),
            ({"i": np.arange(3), "x": [0.5, -1e-5, 3.0]}, False),
            ({"i": np.arange(3), "x": np.array([0.5, -1e-5, 3.0], dtype=np.float32)}, False),
            ({"i": np.arange(3), "b": np.array([True, False, True])}, False),
            # A range is not an array: it takes the per-cell path, at any size.
            ({"i": range(2**63, 2**63 + 3), "x": np.array([0.5, -1e-5, 3.0])}, False),
        ],
    )
    def test_numeric_series_take_the_vectorised_kernel(self, monkeypatch, series, kernel):
        from llo_sim import _csv_format

        calls = []
        csv_lines = _csv_format.csv_lines

        def counted(columns):
            calls.append(len(columns))
            return csv_lines(columns)

        result = ExperimentResult({}, series, {"experiment": "k", "seed": 0})
        expected = result_to_csv(result)
        monkeypatch.setattr(_csv_format, "csv_lines", counted)
        assert result_to_csv(result) == expected
        assert calls == ([len(series)] if kernel else [])

    def test_series_columns_must_share_one_length(self):
        with pytest.raises(ValueError):
            ExperimentResult({}, {"a": [1.0], "b": [2.0, 3.0]}, {"experiment": "bad", "seed": 0})

    def test_write_result_files(self, tmp_path):
        res = run_laser_noise_sweep(SMALL_NOISE, seed=29, threads=1)
        json_path, csv_path = write_result(res, tmp_path)
        assert json_path.name == "laser-noise-29.json"
        assert csv_path.name == "laser-noise-29.csv"
        assert csv_path.read_text().splitlines()[0] == "laser,delay_s,variance,stderr"
        assert "\"seed\": 29" in json_path.read_text()

    def test_metadata_records_config_and_seed(self):
        res = run_bpsk_phase_experiment(SMALL_PHASE, seed=31, threads=1)
        assert res.metadata["seed"] == 31
        assert res.metadata["config"]["n_pairs"] == SMALL_PHASE.n_pairs
        assert res.metadata["dropped_boundary_pulses"] == SMALL_PHASE.n_batches


class TestCsvKernel:
    """The vectorised CSV kernel against Python's ``%`` formatting."""

    @staticmethod
    def kernel_cells(values) -> list[str]:
        from llo_sim._csv_format import csv_lines

        chunks = (
            csv_lines([values[start : start + CSV_CHUNK_ROWS]])
            for start in range(0, len(values), CSV_CHUNK_ROWS)
        )
        return b"".join(b for chunk in chunks for b in chunk).decode().splitlines()

    @staticmethod
    def ties(rng, per_decade: int) -> np.ndarray:
        """Doubles halfway between two 17-digit decimals, at every decade
        ``d`` of the kernel's range: ``q * 2**(d - 17)`` with ``q`` odd is
        ``q * 5**(17 - d)`` (18 digits, the last a 5) times ``10**(d - 17)``.
        The largest lie just under 2**51, where the doubles are quarters."""
        ties = []
        for d in range(-4, 16):
            lo = math.ceil(Fraction(10) ** d * 2 ** (17 - d))
            hi = min(math.ceil(Fraction(10) ** (d + 1) * 2 ** (17 - d)), 2**53)
            q = 2 * rng.integers(lo // 2, (hi - 1) // 2, per_decade) + 1  # odd, in [lo, hi)
            ties.append(np.ldexp(q.astype(float), d - 17))
        return np.concatenate(ties)

    def test_ties_are_ties(self):
        ties = self.ties(np.random.default_rng(3), 50)
        for x in ties.tolist():
            digits = Decimal(x).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5, x

    def test_matches_percent_format(self):
        rng = np.random.default_rng(2024)
        n = 1_000_000
        log_uniform = 10.0 ** rng.uniform(-6.0, 18.0, n) * rng.choice([-1.0, 1.0], n)
        ties = self.ties(rng, 2000)
        values = np.concatenate([
            EDGE_FLOATS, [-x for x in EDGE_FLOATS], log_uniform, ties, -ties,
            np.nextafter(10.0 ** np.arange(-5, 18), 0.0), 10.0 ** np.arange(-5, 18),
            np.nextafter(10.0 ** np.arange(-5, 18), math.inf),
        ])
        expected = ["%.17g" % x for x in values.tolist()]
        got = self.kernel_cells(values)
        assert len(got) == len(expected)
        mismatches = [(e, g) for e, g in zip(expected, got) if e != g]
        assert mismatches == []

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint64])
    def test_integers_match_str(self, dtype):
        info = np.iinfo(dtype)
        lo, hi = max(int(info.min), -(2**60)), min(int(info.max), 2**60)
        values = np.concatenate([
            np.random.default_rng(5).integers(lo, hi, 20_000, dtype=dtype, endpoint=True),
            np.array([info.min, info.max, 0, 1], dtype=dtype),
        ])
        if info.max >= 2**53:
            values = np.concatenate([values, np.array([2**53 - 1, 2**53, 2**53 + 1], dtype=dtype)])
        if info.min <= -(2**53):
            values = np.concatenate([values, np.array([-(2**53) - 1, -(2**53)], dtype=dtype)])
        assert self.kernel_cells(values) == ["%s" % v for v in values.tolist()]

    def test_rows_join_columns(self):
        from llo_sim._csv_format import csv_lines

        columns = [np.arange(3, 6), np.array([1.5, math.nan, -2e-5]), np.array([7, -8, 0])]
        text = b"".join(csv_lines(columns)).decode()
        assert text == "3,1.5,7\n4,nan,-8\n5,-2.0000000000000002e-05,0\n"
