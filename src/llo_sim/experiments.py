"""Scenario runners wiring the simulation chain into reproducible studies.

Five studies are provided: the binary phase-encoding run with feedforward
correction, the weak-reference photon-number sweep, the quantum-signal
remapping run, the delayed self-interference laser-noise sweep, and the two
key-rate sweeps (distance and pulse count).

Every Monte Carlo experiment runs as independent sub-batches with sub-seeds
derived from the master seed, so results are bit-identical for a given seed
regardless of thread count; metric standard errors come from the batch
spread.  Results are written as JSON (metadata + metrics) and CSV (series),
named ``<experiment>-<seed>.{json,csv}``.  The sections each runner takes,
and their defaults, live in :mod:`llo_sim.config`.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import __version__
from ._lazy_numpy import np
from ._record import Record
from ._seeding import seed_sequence
from .config import (
    DistanceSweepConfig,
    LaserNoiseSweepConfig,
    NSweepConfig,
    PhaseExperimentConfig,
    RemapExperimentConfig,
    WeakReferenceSweepConfig,
)
from .errors import DomainError, EstimationError
from .link_sim import PulseTrainConfig, RunSeeds, fiber_transmittance, simulate_run
from .noise_models import phase_noise_variance, simulate_self_interference
from .phase_recovery import (
    RecoveredRun,
    predicted_sigma_phi,
    recover_run,
    remap_quadratures,
    residual_variance,
    sigma_phi_from_quadratures,
)
from .security import SecurityParams, asymptotic_key_rate, finite_size_key_rate


# ---------------------------------------------------------------------------
# Result containers and writers


class Metric(Record):
    """One scalar result.  A Monte Carlo metric carries the standard error of
    its mean over the run's ``n_batches`` sub-batches (default 10), with
    ``n_batches - 1`` degrees of freedom (:func:`batch_metric`).  A value
    computed without Monte Carlo uncertainty (a closed form, a deterministic
    statistic of a fixed run) has no standard error, and so is
    :attr:`exact`."""

    value: float
    stderr: float | None = None

    @property
    def exact(self) -> bool:
        """Whether the value is free of Monte Carlo uncertainty: no stderr."""
        return self.stderr is None


class ExperimentResult(Record):
    """One experiment's scalar metrics, series and metadata.

    ``series`` holds one column per name in ``series_columns``: a list, a
    ``range`` or a 1-d numpy array, all of one length.  Columns are kept as
    built, never copied into rows, so the writer can stream them to disk.
    """

    name: str
    scalar_metrics: dict[str, Metric]
    series_columns: tuple[str, ...]
    series: Sequence[Sequence]
    metadata: dict

    def __post_init__(self) -> None:
        lengths = {len(column) for column in self.series}
        if len(self.series) != len(self.series_columns) or len(lengths) > 1:
            raise ValueError(
                f"series needs one column of one length per name in {self.series_columns}"
            )

    @property
    def series_rows(self) -> list[tuple]:
        """The series as row tuples (the columns zipped)."""
        return list(zip(*self.series))


def _float_types() -> tuple[type, ...]:
    """``float``, plus ``numpy.floating`` once numpy is loaded.  numpy is looked
    up, never imported: before its import no numpy object can exist."""
    numpy = sys.modules.get("numpy")
    return (float,) if numpy is None else (float, numpy.floating)


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, _float_types()):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    numpy = sys.modules.get("numpy")
    if numpy is not None and isinstance(obj, numpy.integer):
        return int(obj)
    if numpy is not None and isinstance(obj, numpy.ndarray):
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


#: Rows formatted per chunk when writing a series; bounds the writer's memory.
CSV_CHUNK_ROWS = 4096


def _csv_chunks(result: ExperimentResult) -> Iterator[str]:
    """The series as CSV text: the header line, then up to
    :data:`CSV_CHUNK_ROWS` lines per chunk, each ending in a newline.

    A chunk takes its slice of each column, as Python objects through
    ``tolist`` where the column has one (a numpy array).  Each column takes
    one ``%`` format from its cell in the first row: ``%.17g`` (round-trip
    precision; ``nan``, ``inf``, ``-0``) for a Python float, or a numpy float
    when numpy is loaded (without it no numpy cell can exist, so writing never
    imports numpy), ``%s`` for anything else.
    """
    yield ",".join(result.series_columns) + "\n"
    n_rows = len(result.series[0]) if result.series else 0
    for start in range(0, n_rows, CSV_CHUNK_ROWS):
        chunk = [column[start : start + CSV_CHUNK_ROWS] for column in result.series]
        chunk = [c.tolist() if hasattr(c, "tolist") else c for c in chunk]
        if start == 0:
            floats = _float_types()
            row_format = ",".join("%.17g" if isinstance(c[0], floats) else "%s" for c in chunk)
        yield "\n".join([row_format % row for row in zip(*chunk)]) + "\n"


def result_to_csv(result: ExperimentResult) -> str:
    """The series as CSV: a header of ``series_columns``, then one line per
    row, formatted as :func:`write_result` writes it.  No rows give the header
    only."""
    return "".join(_csv_chunks(result))


def write_result(result: ExperimentResult, output_dir) -> tuple[Path, Path]:
    """Write ``<name>-<seed>.json``, then ``.csv``, under ``output_dir``.

    The CSV is streamed in chunks of :data:`CSV_CHUNK_ROWS` rows, so the
    whole file is never held in memory.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{result.name}-{result.metadata['seed']}"
    json_path = out / f"{stem}.json"
    csv_path = out / f"{stem}.csv"
    json_path.write_text(result_to_json(result), encoding="utf-8")
    with csv_path.open("w", encoding="utf-8") as csv_file:
        csv_file.writelines(_csv_chunks(result))
    return json_path, csv_path


# ---------------------------------------------------------------------------
# Statistics helpers


def batch_metric(values: Sequence[float]) -> Metric:
    """Mean of per-batch estimates with the standard error of that mean.

    A run has ``n_batches`` batches (default 10, at least 2), so the error is
    estimated with ``n_batches - 1`` degrees of freedom and a metric's
    deviation in units of it follows a t distribution, not a normal one: at
    10 batches a 3-SE check rejects a correct run at about 1.5% of seeds, not
    0.27%.  A mean or spread beyond the float range raises
    :class:`EstimationError`.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise DomainError("need >= 2 batches for a standard error")
    try:
        with np.errstate(over="raise"):
            return Metric(
                value=float(arr.mean()),
                stderr=float(arr.std(ddof=1) / math.sqrt(arr.size)),
            )
    except FloatingPointError as exc:
        raise EstimationError(f"batch statistics leave the float range: {exc}") from exc


def linear_fit(x, y) -> tuple[float, float, float]:
    """Ordinary least squares line: returns (slope, intercept, r_squared).

    Non-finite data, or a fit that overflows, divides by zero or does not
    converge, raises :class:`EstimationError`.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if x.size != y.size or x.size < 2:
        raise DomainError("need >= 2 points of equal length")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise EstimationError("cannot fit a line through non-finite points")
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            slope, intercept = np.polyfit(x, y, 1)
            residuals = y - (slope * x + intercept)
            ss_tot = float(np.sum((y - y.mean()) ** 2))
            ss_res = float(np.sum(residuals**2))
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise EstimationError(f"line fit failed: {exc}") from exc
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
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


def uniformity_pvalue(phases, *, n_bins: int, stride: int) -> float:
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
    ph = np.mod(np.asarray(phases, dtype=float), math.tau)
    thinned = ph[::stride]
    if thinned.size < 5 * n_bins:
        raise DomainError(
            f"too few decorrelated samples ({thinned.size}) for {n_bins} bins"
        )
    counts, _ = np.histogram(thinned, bins=n_bins, range=(0.0, math.tau))
    expected = thinned.size / n_bins
    stat = float(((counts - expected) ** 2 / expected).sum())
    return _chi2_sf(stat, n_bins - 1)


def _map_ordered(fn: Callable, args: Sequence, threads: int) -> list:
    """Apply ``fn`` over ``args`` preserving order on up to ``threads``
    threads.  Results are identical at any thread count."""
    if threads <= 1 or len(args) <= 1:
        return [fn(a) for a in args]
    from concurrent.futures import ThreadPoolExecutor  # imported only where a pool runs

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, args))


def _batch_sizes(total: int, n_batches: int) -> list[int]:
    base, extra = divmod(total, n_batches)
    return [base + (1 if i < extra else 0) for i in range(n_batches)]


def _pooled_group_variance(rec: RecoveredRun) -> tuple[dict[float, float], float]:
    """Per-symbol circular residual variances of one recovered run plus their
    pooled value."""
    encoded = rec.encoded_phases
    groups = residual_variance(rec.corrected_phases, encoded)
    num = 0.0
    dof = 0
    for symbol, var in groups.items():
        size = int(np.count_nonzero(encoded == symbol))
        num += (size - 1) * var
        dof += size - 1
    return groups, num / dof


# ---------------------------------------------------------------------------
# Binary phase-encoding experiment


def _shot_noise_prediction(cfg) -> float:
    """Shot-noise contribution to the corrected-phase variance: raw signal
    phase noise plus the midpoint-averaged reference phase noise."""
    det = cfg.detector
    per_signal = det.noise_snu / (2.0 * det.power_gain * cfg.signal_photons)
    per_reference = det.noise_snu / (2.0 * det.power_gain * cfg.reference_photons)
    return per_signal + 0.5 * per_reference


def _recovered_batch(
    config, modulation, reference_photons: float, n_pairs: int, seeds
) -> RecoveredRun:
    """Simulate and recover one sub-batch of a train with ``modulation`` (a
    :attr:`~llo_sim.link_sim.PulseTrainConfig.modulation`); the
    :class:`RecoveredRun` carries the encoded phase of each usable signal from
    the simulated block."""
    train = PulseTrainConfig(
        repetition_period_s=config.repetition_period_s,
        n_pairs=n_pairs,
        signal_photons=config.signal_photons,
        reference_photons=reference_photons,
        modulation=modulation,
    )
    block = simulate_run(train, (config.laser_s, config.laser_l), config.detector, seeds)
    return recover_run(block)


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
    sizes = _batch_sizes(config.n_pairs, config.n_batches)
    recs = _map_ordered(
        lambda i: _recovered_batch(
            config, config.bpsk_phases, config.reference_photons, sizes[i],
            RunSeeds.from_seed(seed, "bpsk", i),
        ),
        range(config.n_batches), threads,
    )
    groups, pooled = zip(*map(_pooled_group_variance, recs))

    raw_all = np.concatenate([rec.raw_phases for rec in recs])
    corrected_all = np.concatenate([rec.corrected_phases for rec in recs])
    encoded_all = np.concatenate([rec.encoded_phases for rec in recs])

    p_uniform = uniformity_pvalue(
        raw_all, n_bins=config.uniformity_bins, stride=config.uniformity_stride
    )
    laser_var = predicted_sigma_phi(
        phase_noise_variance(config.repetition_period_s, config.laser_s),
        phase_noise_variance(config.repetition_period_s, config.laser_l),
    )

    bit0, bit1 = config.bpsk_phases
    edges = np.linspace(0.0, math.tau, config.histogram_bins + 1)
    columns = [edges[:-1]] + [
        np.histogram(np.mod(phases[encoded_all == bit], math.tau), bins=edges)[0]
        for phases in (raw_all, corrected_all)
        for bit in (bit0, bit1)
    ]

    return ExperimentResult(
        name="phase-exp",
        scalar_metrics={
            "residual_variance_bit0": batch_metric([g[bit0] for g in groups]),
            "residual_variance_bit1": batch_metric([g[bit1] for g in groups]),
            "residual_variance_pooled": batch_metric(pooled),
            "predicted_sigma_phi_lasers": Metric(laser_var),
            "predicted_residual_variance": Metric(laser_var + _shot_noise_prediction(config)),
            "raw_phase_uniformity_pvalue": Metric(p_uniform),
        },
        series_columns=(
            "bin_left_rad", "raw_bit0", "raw_bit1", "corrected_bit0", "corrected_bit1"
        ),
        series=columns,
        metadata=_metadata(
            "phase-exp", seed, config,
            dropped_boundary_pulses=config.n_batches,
            antipodal_ties=sum(r.n_antipodal_ties for r in recs),
        ),
    )


# ---------------------------------------------------------------------------
# Weak-reference photon-number sweep


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
    sizes = _batch_sizes(config.n_pairs, config.n_batches)

    def pooled_variance(task) -> float:
        point, i = task
        seeds = replace(
            RunSeeds.from_seed(seed, "weak-ref", i),
            detector=seed_sequence(seed, "weak-ref", i, "detector", point),
        )
        rec = _recovered_batch(
            config, config.bpsk_phases, config.photon_numbers[point], sizes[i], seeds
        )
        return _pooled_group_variance(rec)[1]

    n_points = len(config.photon_numbers)
    tasks = list(itertools.product(range(n_points), range(config.n_batches)))
    pooled = np.reshape(
        _map_ordered(pooled_variance, tasks, threads), (n_points, config.n_batches)
    )
    per_point = [batch_metric(values) for values in pooled]

    return ExperimentResult(
        name="weak-ref",
        scalar_metrics={
            f"residual_variance_nref_{config.label(n_ref)}": metric
            for n_ref, metric in zip(config.photon_numbers, per_point)
        },
        series_columns=("reference_photons", "residual_variance", "stderr"),
        series=(
            np.asarray(config.photon_numbers, dtype=float),
            [m.value for m in per_point],
            [m.stderr for m in per_point],
        ),
        metadata=_metadata("weak-ref", seed, config),
    )


# ---------------------------------------------------------------------------
# Quantum-signal remapping experiment


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
    recs = _map_ordered(
        lambda i: _recovered_batch(
            config, (0.0, 0.0), config.reference_photons, sizes[i],  # unmodulated
            RunSeeds.from_seed(seed, "remap", i),
        ),
        range(config.n_batches), threads,
    )
    p_uniform = uniformity_pvalue(
        np.concatenate([rec.raw_phases for rec in recs]),
        n_bins=config.uniformity_bins, stride=config.uniformity_stride,
    )
    remapped = [remap_quadratures(r.signal_x, r.signal_p, r.interpolated_phases) for r in recs]
    scatter = np.concatenate(
        [(rec.signal_x, rec.signal_p, *xp) for rec, xp in zip(recs, remapped)], axis=1
    )[:, : config.scatter_rows]
    return ExperimentResult(
        name="remap-exp",
        scalar_metrics={
            "x_noise_variance_snu": batch_metric([np.var(x, ddof=1) for x, _ in remapped]),
            "p_noise_variance_snu": batch_metric([np.var(p, ddof=1) for _, p in remapped]),
            "sigma_phi_estimate": batch_metric(list(map(sigma_phi_from_quadratures, remapped))),
            "raw_phase_uniformity_pvalue": Metric(p_uniform),
        },
        series_columns=("index", "x_raw", "p_raw", "x_remapped", "p_remapped"),
        series=(range(scatter.shape[1]), *scatter),
        metadata=_metadata(
            "remap-exp", seed, config,
            dropped_boundary_pulses=config.n_batches,
        ),
    )


# ---------------------------------------------------------------------------
# Laser-noise (delayed self-interference) sweep


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
            metrics[f"variance_{label}_{config.label(delay)}ns"] = metric
        slope, intercept, r2 = linear_fit(config.delays_s, [m.value for m in by_delay])
        metrics[f"slope_{label}"] = Metric(slope)
        metrics[f"intercept_{label}"] = Metric(intercept)
        metrics[f"r_squared_{label}"] = Metric(r2)
        metrics[f"expected_slope_{label}"] = Metric(
            0.0 if laser.is_noiseless else 2.0 / laser.coherence_time_s
        )

    return ExperimentResult(
        name="laser-noise",
        scalar_metrics=metrics,
        series_columns=("laser", "delay_s", "variance", "stderr"),
        series=(
            [label for label in lasers for _ in config.delays_s],
            np.tile(np.asarray(config.delays_s, dtype=float), len(lasers)),
            [m.value for m in series],
            [m.stderr for m in series],
        ),
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

    Each length is evaluated at its fibre transmittance, so any
    ``transmittance_override`` on the channel is ignored.  Negative rates are
    reported as-is.
    """
    l_grid = [float(x) for x in (DistanceSweepConfig().grid() if l_grid is None else l_grid)]
    # The channel check rejects a negative length or an underflowing
    # transmittance; bisection midpoints lie between grid points.
    for length in (min(l_grid), max(l_grid)):
        replace(params.channel, fiber_length_km=length, transmittance_override=None)
    alpha = params.channel.attenuation_db_per_km

    def rate_at(length: float) -> float:
        return asymptotic_key_rate(params, fiber_transmittance(alpha, length))

    rates = [rate_at(length) for length in l_grid]

    crossing = math.nan
    for k in range(len(l_grid) - 1):
        if rates[k] > 0.0 >= rates[k + 1]:
            lo, hi = l_grid[k], l_grid[k + 1]
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
            "secure_range_km": Metric(crossing),
            "rate_at_first_grid_point": Metric(rates[0]),
        },
        series_columns=("fiber_length_km", "rate_bits_per_pulse"),
        series=(l_grid, rates),
        metadata=_metadata("sweep-distance", seed, params, l_grid=l_grid),
    )


def run_finite_size_sweep(
    params: SecurityParams,
    n_grid=None,
    seed: int = 0,
) -> ExperimentResult:
    """Composable finite-size rate vs pulse count; reports the smallest
    ``n`` with a positive rate (bisected to a factor 1.05)."""
    n_grid = [float(n) for n in (NSweepConfig().grid() if n_grid is None else n_grid)]

    def rate_at(n: float) -> float:
        return finite_size_key_rate(params, int(n))

    rates = [rate_at(n) for n in n_grid]

    threshold = math.nan
    for k in range(len(n_grid)):
        if rates[k] > 0.0:
            if k == 0:
                threshold = n_grid[0]
            else:
                lo, hi = n_grid[k - 1], n_grid[k]
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
            "n_threshold": Metric(threshold),
        },
        series_columns=("n_pulses", "rate_bits_per_pulse"),
        series=(n_grid, rates),
        metadata=_metadata("sweep-n", seed, params, n_grid=n_grid),
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
