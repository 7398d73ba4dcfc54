"""Scenario runners wiring the simulation chain into reproducible studies.

Five studies are provided: the binary phase-encoding run with feedforward
correction, the weak-reference photon-number sweep, the quantum-signal
remapping run, the delayed self-interference laser-noise sweep, and the two
key-rate sweeps (distance and pulse count).

Every Monte Carlo experiment runs as independent sub-batches with sub-seeds
derived from the master seed, so results are bit-identical for a given seed
regardless of thread count; metric standard errors come from the batch
spread.  Results are written as JSON (metadata + metrics) and CSV (series),
named ``<experiment>-<seed>.{json,csv}``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from ._seeding import seed_sequence
from .errors import ConfigError, DomainError
from .link_sim import (
    BPSKModulation,
    ChannelDetector,
    NoModulation,
    PulseTrainConfig,
    RunSeeds,
    alice_symbols,
    simulate_run,
)
from .noise_models import LaserModel, phase_noise_variance, simulate_self_interference
from .phase_recovery import (
    predicted_sigma_phi,
    recover_run,
    residual_variance,
    sigma_phi_from_quadratures,
)
from .security import SecurityParams, asymptotic_key_rate, finite_size_key_rate

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Result containers and writers


@dataclass(frozen=True)
class Metric:
    """One scalar result.  ``exact=True`` marks values computed without Monte
    Carlo uncertainty (closed forms, deterministic statistics of a fixed run);
    everything else carries a standard error from >= 10 sub-batches."""

    value: float
    stderr: float | None = None
    exact: bool = False


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    scalar_metrics: dict[str, Metric]
    series_columns: tuple[str, ...]
    series_rows: list[tuple]
    metadata: dict


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    return obj


def result_to_json(result: ExperimentResult) -> str:
    payload = {
        "name": result.name,
        "metrics": {
            name: {
                "value": _json_safe(m.value),
                "stderr": _json_safe(m.stderr) if m.stderr is not None else None,
                "exact": m.exact,
            }
            for name, m in result.scalar_metrics.items()
        },
        "metadata": _json_safe(result.metadata),
    }
    return json.dumps(payload, indent=2) + "\n"


def result_to_csv(result: ExperimentResult) -> str:
    """The series as CSV: a header of ``series_columns``, then one line per row.

    Each column takes one ``%`` format from its cell in the first row:
    ``%.17g`` (round-trip precision; ``nan``, ``inf``, ``-0``) for a Python or
    numpy float, ``%s`` for anything else.  No rows give the header only.
    """
    lines = [",".join(result.series_columns)]
    if result.series_rows:
        row_format = ",".join(
            "%.17g" if isinstance(cell, (float, np.floating)) else "%s"
            for cell in result.series_rows[0]
        )
        lines += [row_format % row for row in result.series_rows]
    return "\n".join(lines) + "\n"


def write_result(result: ExperimentResult, output_dir) -> tuple[Path, Path]:
    """Write ``<name>-<seed>.json`` and ``.csv`` under ``output_dir``."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{result.name}-{result.metadata['seed']}"
    json_path = out / f"{stem}.json"
    csv_path = out / f"{stem}.csv"
    json_path.write_text(result_to_json(result), encoding="utf-8")
    csv_path.write_text(result_to_csv(result), encoding="utf-8")
    return json_path, csv_path


# ---------------------------------------------------------------------------
# Statistics helpers


def batch_metric(values: Sequence[float]) -> Metric:
    """Mean of per-batch estimates with the standard error of that mean."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise DomainError("need >= 2 batches for a standard error")
    return Metric(
        value=float(arr.mean()),
        stderr=float(arr.std(ddof=1) / math.sqrt(arr.size)),
    )


def linear_fit(x, y) -> tuple[float, float, float]:
    """Ordinary least squares line: returns (slope, intercept, r_squared)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if x.size != y.size or x.size < 2:
        raise DomainError("need >= 2 points of equal length")
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(residuals**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def _chi2_sf(stat: float, dof: int) -> float:
    """``P(chi2_dof > stat)`` for integer ``dof >= 1``: the regularised upper
    gamma ``Q(dof/2, y)``, ``y = stat/2``, in closed form.  It is ``erfc(sqrt(y))``
    for odd ``dof`` only, plus ``exp(-y) * y**s / Gamma(s + 1)`` summed over
    ``s = dof/2 - 1, dof/2 - 2, ... >= 0``; each term is taken in log space so
    that neither ``exp(-y)`` nor ``y**s`` over- or underflows alone."""
    y = stat / 2.0
    if y <= 0.0:
        return 1.0
    total = math.erfc(math.sqrt(y)) if dof % 2 else 0.0
    log_y = math.log(y)
    s = dof / 2.0 - 1.0
    while s >= 0.0:
        total += math.exp(s * log_y - y - math.lgamma(s + 1.0))
        s -= 1.0
    return min(total, 1.0)


def uniformity_pvalue(phases, *, n_bins: int = 10, stride: int = 100) -> float:
    """Chi-square p-value for uniformity of phases on [0, 2*pi).

    Consecutive pulses of a run are serially correlated (the beat phase is a
    random walk), which would inflate a naive chi-square statistic; the test
    therefore thins the sequence to every ``stride``-th phase, which is
    decorrelated at the default experiment parameters.  The tail probability
    of the statistic with ``n_bins - 1`` degrees of freedom comes from the
    closed-form regularised upper gamma of :func:`_chi2_sf`.
    """
    if n_bins < 2:
        raise DomainError(f"a chi-square test needs >= 2 bins, got {n_bins}")
    ph = np.mod(np.asarray(phases, dtype=float), TWO_PI)
    thinned = ph[::stride]
    if thinned.size < 5 * n_bins:
        raise DomainError(
            f"too few decorrelated samples ({thinned.size}) for {n_bins} bins"
        )
    counts, _ = np.histogram(thinned, bins=n_bins, range=(0.0, TWO_PI))
    expected = thinned.size / n_bins
    stat = float(((counts - expected) ** 2 / expected).sum())
    return _chi2_sf(stat, n_bins - 1)


def _map_ordered(fn: Callable, args: Sequence, threads: int) -> list:
    """Apply ``fn`` over ``args`` preserving order on up to ``threads``
    threads.  Results are identical at any thread count."""
    if threads <= 1 or len(args) <= 1:
        return [fn(a) for a in args]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, args))


def _batch_sizes(total: int, n_batches: int) -> list[int]:
    base, extra = divmod(total, n_batches)
    return [base + (1 if i < extra else 0) for i in range(n_batches)]


def _pooled_group_variance(corrected, encoded) -> tuple[dict[float, float], float]:
    """Per-symbol circular residual variances plus their pooled value."""
    groups = residual_variance(corrected, encoded)
    encoded = np.asarray(encoded)
    num = 0.0
    dof = 0
    for symbol, var in groups.items():
        size = int(np.count_nonzero(encoded == symbol))
        num += (size - 1) * var
        dof += size - 1
    return groups, num / dof


def _check_batches(n_items: int, n_batches: int) -> None:
    """Every Monte Carlo metric needs >= 2 batches of >= 2 items each."""
    if n_batches < 2:
        raise ConfigError(f"n_batches must be >= 2 for a standard error, got {n_batches}")
    if n_items // n_batches < 2:
        raise ConfigError(f"n_batches: {n_items} items cannot fill {n_batches} batches")


def _check_at_least(minimum: int, **values: int) -> None:
    for name, value in values.items():
        if value < minimum:
            raise ConfigError(f"{name} must be >= {minimum}, got {value}")


def _check_sweep_points(name: str, points, label: Callable[[float], str]) -> None:
    """Sweep points are >= 0 and their metric labels distinct, so no point
    overwrites another in the result."""
    if not all(point >= 0 for point in points):
        raise ConfigError(f"{name} must all be >= 0, got {list(points)}")
    labels = [label(point) for point in points]
    if len(set(labels)) < len(labels):
        raise ConfigError(f"{name} must label distinct result metrics, got {labels}")


def _check_uniformity_test(cfg) -> None:
    """:func:`uniformity_pvalue` needs >= 2 bins and >= 5 thinned raw phases
    per bin.  Each batch drops its last signal (no closing reference), so a
    run pools ``n_pairs - n_batches`` raw phases."""
    _check_at_least(2, uniformity_bins=cfg.uniformity_bins)
    _check_at_least(1, uniformity_stride=cfg.uniformity_stride)
    thinned = -(-(cfg.n_pairs - cfg.n_batches) // cfg.uniformity_stride)
    if thinned < 5 * cfg.uniformity_bins:
        raise ConfigError(
            f"uniformity_stride: {cfg.n_pairs - cfg.n_batches} raw phases at stride "
            f"{cfg.uniformity_stride} leave {thinned} samples, fewer than 5 per bin "
            f"for uniformity_bins = {cfg.uniformity_bins}"
        )


def _check_pilot_aliasing(cfg) -> None:
    """Midpoint interpolation aliases once the beat advances by pi between two
    references (two pulse periods), so the deterministic beat frequency
    ``(f_l - f_s) + 2*(r_l - r_s)*t`` must stay below ``1/(4*T)``.  It is
    linear in ``t``, so its ends, ``t = 0`` and the last pulse of the longest
    batch, bound it."""
    period = cfg.repetition_period_s
    limit = 1.0 / (4.0 * period)
    longest = -(-cfg.n_pairs // cfg.n_batches)
    offset = cfg.laser_l.center_detuning_hz - cfg.laser_s.center_detuning_hz
    chirp = 2.0 * (cfg.laser_l.drift_rate_hz_per_s - cfg.laser_s.drift_rate_hz_per_s)
    for t in (0.0, (2 * longest - 1) * period):
        beat = offset + chirp * t
        if abs(beat) >= limit:
            raise ConfigError(
                f"beat frequency {beat:g} Hz at t = {t:g} s reaches the pilot "
                f"aliasing limit 1/(4*repetition_period_s) = {limit:g} Hz"
            )


# ---------------------------------------------------------------------------
# Default experimental rig (bench-measured lasers and detector)


def default_signal_laser() -> LaserModel:
    return LaserModel.from_delay_variance(0.035, 20e-9)


def default_lo_laser() -> LaserModel:
    return LaserModel.from_delay_variance(0.044, 20e-9, center_detuning_hz=2.3e6)


def default_rig_detector() -> ChannelDetector:
    """Receiver-referenced detection: photon numbers are quoted at the
    receiver, so the channel collapses to unit transmittance."""
    return ChannelDetector(
        transmittance_override=1.0,
        detector_efficiency=0.5,
        electronic_noise_snu=0.83,
    )


# ---------------------------------------------------------------------------
# Binary phase-encoding experiment


@dataclass(frozen=True)
class PhaseExperimentConfig:
    n_pairs: int = 25000
    repetition_period_s: float = 20e-9
    bpsk_phases: tuple[float, float] = (0.0, 1.65)
    signal_photons: float = 1e5
    reference_photons: float = 1e5
    laser_s: LaserModel = field(default_factory=default_signal_laser)
    laser_l: LaserModel = field(default_factory=default_lo_laser)
    detector: ChannelDetector = field(default_factory=default_rig_detector)
    n_batches: int = 10
    histogram_bins: int = 100
    uniformity_bins: int = 10
    uniformity_stride: int = 100

    def __post_init__(self) -> None:
        _check_batches(self.n_pairs, self.n_batches)
        _check_at_least(1, histogram_bins=self.histogram_bins)
        _check_uniformity_test(self)
        _check_pilot_aliasing(self)


def _shot_noise_prediction(cfg) -> float:
    """Shot-noise contribution to the corrected-phase variance: raw signal
    phase noise plus the midpoint-averaged reference phase noise."""
    det = cfg.detector
    gain = det.transmittance * det.detector_efficiency
    noise = 1.0 + det.electronic_noise_snu
    per_signal = noise / (2.0 * gain * cfg.signal_photons)
    per_reference = noise / (2.0 * gain * cfg.reference_photons)
    return per_signal + 0.5 * per_reference


def _recovered_batch(config, modulation, reference_photons: float, n_pairs: int, seeds):
    """Simulate and recover one sub-batch: its :class:`RecoveredRun` and the
    encoded phase of each usable signal, regenerated from the same seeds."""
    train = PulseTrainConfig(
        repetition_period_s=config.repetition_period_s,
        n_pairs=n_pairs,
        signal_photons=config.signal_photons,
        reference_photons=reference_photons,
        modulation=modulation,
    )
    block = simulate_run(train, (config.laser_s, config.laser_l), config.detector, seeds)
    rec = recover_run(block)
    return rec, alice_symbols(train, seeds).encoded_phase[: rec.corrected_phases.size]


def run_bpsk_phase_experiment(
    config: PhaseExperimentConfig = PhaseExperimentConfig(),
    seed: int = 0,
    threads: int = 1,
) -> ExperimentResult:
    """Feedforward correction of a binary-phase-encoded run.

    Emits pre/post-correction phase histograms, per-bit and pooled residual
    variances, the closed-form prediction they should match, and the
    uniformity p-value of the raw phases.
    """
    modulation = BPSKModulation(*config.bpsk_phases)
    sizes = _batch_sizes(config.n_pairs, config.n_batches)
    recs, encoded = zip(*_map_ordered(
        lambda i: _recovered_batch(
            config, modulation, config.reference_photons, sizes[i],
            RunSeeds.from_seed(seed, "bpsk", i),
        ),
        range(config.n_batches), threads,
    ))
    corrected = [rec.corrected_phases for rec in recs]
    groups, pooled = zip(*map(_pooled_group_variance, corrected, encoded))

    raw_all = np.concatenate([rec.raw_phases for rec in recs])
    corrected_all = np.concatenate(corrected)
    encoded_all = np.concatenate(encoded)

    p_uniform = uniformity_pvalue(
        raw_all, n_bins=config.uniformity_bins, stride=config.uniformity_stride
    )
    laser_var = predicted_sigma_phi(
        phase_noise_variance(config.repetition_period_s, config.laser_s),
        phase_noise_variance(config.repetition_period_s, config.laser_l),
    )

    bit0, bit1 = config.bpsk_phases
    edges = np.linspace(0.0, TWO_PI, config.histogram_bins + 1)
    columns = [edges[:-1]] + [
        np.histogram(np.mod(phases[encoded_all == bit], TWO_PI), bins=edges)[0]
        for phases in (raw_all, corrected_all)
        for bit in (bit0, bit1)
    ]

    return ExperimentResult(
        name="phase-exp",
        scalar_metrics={
            "residual_variance_bit0": batch_metric([g[bit0] for g in groups]),
            "residual_variance_bit1": batch_metric([g[bit1] for g in groups]),
            "residual_variance_pooled": batch_metric(pooled),
            "predicted_sigma_phi_lasers": Metric(laser_var, exact=True),
            "predicted_residual_variance": Metric(
                laser_var + _shot_noise_prediction(config), exact=True
            ),
            "raw_phase_uniformity_pvalue": Metric(p_uniform, exact=True),
        },
        series_columns=(
            "bin_left_rad", "raw_bit0", "raw_bit1", "corrected_bit0", "corrected_bit1"
        ),
        series_rows=list(zip(*(c.tolist() for c in columns))),
        metadata=_metadata(
            "phase-exp", seed, config,
            dropped_boundary_pulses=sum(r.diagnostics.n_dropped_boundary for r in recs),
            antipodal_ties=sum(r.diagnostics.n_antipodal_ties for r in recs),
        ),
    )


# ---------------------------------------------------------------------------
# Weak-reference photon-number sweep


@dataclass(frozen=True)
class WeakReferenceSweepConfig:
    photon_numbers: tuple[float, ...] = (10000.0, 1000.0, 100.0)
    n_pairs: int = 25000
    repetition_period_s: float = 20e-9
    bpsk_phases: tuple[float, float] = (0.0, 1.65)
    signal_photons: float = 1e5
    laser_s: LaserModel = field(default_factory=default_signal_laser)
    laser_l: LaserModel = field(default_factory=default_lo_laser)
    detector: ChannelDetector = field(default_factory=default_rig_detector)
    n_batches: int = 10

    def __post_init__(self) -> None:
        if not self.photon_numbers:
            raise ConfigError("photon_numbers must not be empty")
        _check_sweep_points("photon_numbers", self.photon_numbers, lambda n: f"{n:g}")
        _check_batches(self.n_pairs, self.n_batches)
        _check_pilot_aliasing(self)


def run_weak_reference_sweep(
    config: WeakReferenceSweepConfig = WeakReferenceSweepConfig(),
    seed: int = 0,
    threads: int = 1,
) -> ExperimentResult:
    """Residual phase variance vs reference photon number.

    All sweep points of a batch share the laser trajectories and initial
    phase (common random numbers): only the detection noise is redrawn.
    That mirrors re-detecting one run at different reference powers and keeps
    the sweep's monotonicity free of trajectory-to-trajectory noise.
    """
    modulation = BPSKModulation(*config.bpsk_phases)
    sizes = _batch_sizes(config.n_pairs, config.n_batches)

    def pooled_variance(task) -> float:
        point, i = task
        seeds = replace(
            RunSeeds.from_seed(seed, "weak-ref", i),
            detector=seed_sequence(seed, "weak-ref", i, "detector", point),
        )
        rec, encoded = _recovered_batch(
            config, modulation, config.photon_numbers[point], sizes[i], seeds
        )
        return _pooled_group_variance(rec.corrected_phases, encoded)[1]

    n_points = len(config.photon_numbers)
    tasks = list(itertools.product(range(n_points), range(config.n_batches)))
    pooled = np.reshape(
        _map_ordered(pooled_variance, tasks, threads), (n_points, config.n_batches)
    )
    per_point = [batch_metric(values) for values in pooled]

    return ExperimentResult(
        name="weak-ref",
        scalar_metrics={
            f"residual_variance_nref_{n_ref:g}": metric
            for n_ref, metric in zip(config.photon_numbers, per_point)
        },
        series_columns=("reference_photons", "residual_variance", "stderr"),
        series_rows=list(zip(
            np.asarray(config.photon_numbers, dtype=float).tolist(),
            [m.value for m in per_point],
            [m.stderr for m in per_point],
        )),
        metadata=_metadata("weak-ref", seed, config),
    )


# ---------------------------------------------------------------------------
# Quantum-signal remapping experiment


@dataclass(frozen=True)
class RemapExperimentConfig:
    n_pairs: int = 24000
    repetition_period_s: float = 20e-9
    signal_photons: float = 66.0
    reference_photons: float = 1000.0
    laser_s: LaserModel = field(default_factory=default_signal_laser)
    laser_l: LaserModel = field(default_factory=default_lo_laser)
    detector: ChannelDetector = field(default_factory=default_rig_detector)
    n_batches: int = 10
    scatter_rows: int = 24000
    uniformity_bins: int = 10
    uniformity_stride: int = 100

    def __post_init__(self) -> None:
        _check_batches(self.n_pairs, self.n_batches)
        _check_at_least(0, scatter_rows=self.scatter_rows)
        _check_uniformity_test(self)
        _check_pilot_aliasing(self)


def run_quantum_remap_experiment(
    config: RemapExperimentConfig = RemapExperimentConfig(),
    seed: int = 0,
    threads: int = 1,
) -> ExperimentResult:
    """Quadrature remapping of an unmodulated weak-signal train.

    Emits the raw and remapped phase-space scatter, the X/P quadrature noise
    variances in shot-noise units, and the phase-noise variance estimated
    from the P/X variance asymmetry.
    """
    sizes = _batch_sizes(config.n_pairs, config.n_batches)
    recs, _ = zip(*_map_ordered(
        lambda i: _recovered_batch(
            config, NoModulation(), config.reference_photons, sizes[i],
            RunSeeds.from_seed(seed, "remap", i),
        ),
        range(config.n_batches), threads,
    ))
    p_uniform = uniformity_pvalue(
        np.concatenate([rec.raw_phases for rec in recs]),
        n_bins=config.uniformity_bins, stride=config.uniformity_stride,
    )
    scatter = np.concatenate(
        [(rec.signal_x, rec.signal_p, rec.remapped_x, rec.remapped_p) for rec in recs], axis=1
    )[:, : config.scatter_rows].tolist()
    return ExperimentResult(
        name="remap-exp",
        scalar_metrics={
            "x_noise_variance_snu": batch_metric([np.var(r.remapped_x, ddof=1) for r in recs]),
            "p_noise_variance_snu": batch_metric([np.var(r.remapped_p, ddof=1) for r in recs]),
            "sigma_phi_estimate": batch_metric(
                [sigma_phi_from_quadratures((r.remapped_x, r.remapped_p)) for r in recs]
            ),
            "raw_phase_uniformity_pvalue": Metric(p_uniform, exact=True),
        },
        series_columns=("index", "x_raw", "p_raw", "x_remapped", "p_remapped"),
        series_rows=list(zip(range(len(scatter[0])), *scatter)),
        metadata=_metadata(
            "remap-exp", seed, config,
            dropped_boundary_pulses=sum(r.diagnostics.n_dropped_boundary for r in recs),
        ),
    )


# ---------------------------------------------------------------------------
# Laser-noise (delayed self-interference) sweep


@dataclass(frozen=True)
class LaserNoiseSweepConfig:
    delays_s: tuple[float, ...] = (5e-9, 20e-9, 25e-9)
    n_samples: int = 100000
    laser_s: LaserModel = field(default_factory=default_signal_laser)
    laser_l: LaserModel = field(default_factory=default_lo_laser)
    n_batches: int = 10

    def __post_init__(self) -> None:
        if len(self.delays_s) < 2:
            raise ConfigError(f"delays_s needs >= 2 delays, got {len(self.delays_s)}")
        _check_sweep_points("delays_s", self.delays_s, lambda d: f"{d * 1e9:g}")
        _check_batches(self.n_samples, self.n_batches)


def run_laser_noise_sweep(
    config: LaserNoiseSweepConfig = LaserNoiseSweepConfig(),
    seed: int = 0,
    threads: int = 1,
) -> ExperimentResult:
    """Delayed self-interference variance vs delay, per laser, with the
    linear fit whose slope estimates 2/tau_c."""
    lasers = {"signal": config.laser_s, "lo": config.laser_l}
    per_batch = config.n_samples // config.n_batches
    n_delays = len(config.delays_s)
    tasks = list(itertools.product(lasers, range(n_delays), range(config.n_batches)))

    def worker(task):
        label, d_idx, _ = task
        return simulate_self_interference(
            lasers[label], config.delays_s[d_idx], per_batch,
            seed_sequence(seed, "laser-noise", *task),
        )

    variances = np.reshape(
        _map_ordered(worker, tasks, threads), (len(lasers), n_delays, config.n_batches)
    )

    metrics: dict[str, Metric] = {}
    series: list[Metric] = []
    for (label, laser), per_delay in zip(lasers.items(), variances):
        by_delay = [batch_metric(values) for values in per_delay]
        series += by_delay
        for delay, metric in zip(config.delays_s, by_delay):
            metrics[f"variance_{label}_{delay * 1e9:g}ns"] = metric
        slope, intercept, r2 = linear_fit(config.delays_s, [m.value for m in by_delay])
        metrics[f"slope_{label}"] = Metric(slope, exact=True)
        metrics[f"intercept_{label}"] = Metric(intercept, exact=True)
        metrics[f"r_squared_{label}"] = Metric(r2, exact=True)
        metrics[f"expected_slope_{label}"] = Metric(
            0.0 if laser.is_noiseless else 2.0 / laser.coherence_time_s, exact=True
        )

    return ExperimentResult(
        name="laser-noise",
        scalar_metrics=metrics,
        series_columns=("laser", "delay_s", "variance", "stderr"),
        series_rows=list(zip(
            [label for label in lasers for _ in config.delays_s],
            np.tile(np.asarray(config.delays_s, dtype=float), len(lasers)).tolist(),
            [m.value for m in series],
            [m.stderr for m in series],
        )),
        metadata=_metadata("laser-noise", seed, config),
    )


# ---------------------------------------------------------------------------
# Key-rate sweeps (deterministic formula evaluations)


def run_keyrate_distance_sweep(
    params: SecurityParams,
    l_grid=None,
    seed: int = 0,
) -> ExperimentResult:
    """Asymptotic rate over a fibre-length grid with bisected zero crossing.

    Any ``transmittance_override`` on the channel is cleared so the length
    actually varies the transmittance.  Negative rates are reported as-is.
    """
    if l_grid is None:
        l_grid = np.arange(0.0, 150.0 + 1e-9, 5.0)
    l_grid = np.asarray(l_grid, dtype=float)

    def rate_at(length: float) -> float:
        channel = replace(
            params.channel, fiber_length_km=length, transmittance_override=None
        )
        return asymptotic_key_rate(replace(params, channel=channel))

    rates = np.array([rate_at(length) for length in l_grid])

    crossing = math.nan
    for k in range(len(l_grid) - 1):
        if rates[k] > 0.0 >= rates[k + 1]:
            lo, hi = float(l_grid[k]), float(l_grid[k + 1])
            while hi - lo > 0.1:
                mid = 0.5 * (lo + hi)
                if rate_at(mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            crossing = 0.5 * (lo + hi)
            break

    return ExperimentResult(
        name="sweep-distance",
        scalar_metrics={
            "secure_range_km": Metric(crossing, exact=True),
            "rate_at_first_grid_point": Metric(float(rates[0]), exact=True),
        },
        series_columns=("fiber_length_km", "rate_bits_per_pulse"),
        series_rows=list(zip(l_grid.tolist(), rates.tolist())),
        metadata=_metadata("sweep-distance", seed, params, l_grid=l_grid.tolist()),
    )


def run_finite_size_sweep(
    params: SecurityParams,
    n_grid=None,
    seed: int = 0,
) -> ExperimentResult:
    """Composable finite-size rate vs pulse count; reports the smallest
    ``n`` with a positive rate (bisected to a factor 1.05)."""
    if n_grid is None:
        n_grid = np.logspace(6, 13, 29)
    n_grid = np.asarray(n_grid, dtype=float)

    def rate_at(n: float) -> float:
        return finite_size_key_rate(params, int(n))

    rates = np.array([rate_at(n) for n in n_grid])

    threshold = math.nan
    for k in range(len(n_grid)):
        if rates[k] > 0.0:
            if k == 0:
                threshold = float(n_grid[0])
            else:
                lo, hi = float(n_grid[k - 1]), float(n_grid[k])
                while hi / lo > 1.05:
                    mid = math.sqrt(lo * hi)
                    if rate_at(mid) > 0.0:
                        hi = mid
                    else:
                        lo = mid
                threshold = hi
            break

    return ExperimentResult(
        name="sweep-n",
        scalar_metrics={
            "n_threshold": Metric(threshold, exact=True),
        },
        series_columns=("n_pulses", "rate_bits_per_pulse"),
        series_rows=list(zip(n_grid.tolist(), rates.tolist())),
        metadata=_metadata("sweep-n", seed, params, n_grid=n_grid.tolist()),
    )


# ---------------------------------------------------------------------------


def _metadata(name: str, seed: int, config, **extra) -> dict:
    meta = {
        "experiment": name,
        "seed": int(seed),
        "package_version": __version__,
        "config": dataclasses.asdict(config),
    }
    meta.update(extra)
    return meta
