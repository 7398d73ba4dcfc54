"""Scenario runners wiring the simulation chain into reproducible studies.

Five studies are provided: the binary phase-encoding run with feedforward
correction, the weak-reference photon-number sweep, the quantum-signal
remapping run, the delayed self-interference laser-noise sweep, and the two
key-rate sweeps (distance and pulse count).

Every Monte Carlo experiment runs as independent sub-batches with sub-seeds
derived from the master seed, so results are bit-identical for a given seed
regardless of thread count; metric standard errors come from the batch
spread.  Contiguous sub-batches are laid end to end in blocks, each
simulated and recovered in one array pass (:func:`_map_ordered`).  Results
are written as JSON (metadata + metrics) and CSV (series), named
``<experiment>-<seed>.{json,csv}``.  The sections each runner takes, and
their defaults, live in :mod:`llo_sim.config`.
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
    batch_size,
)
from .errors import DomainError, EstimationError
from .link_sim import detect_run, fiber_transmittance, launch_run, simulate_run
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

    ``series`` maps each column name to its column, in CSV order: a list or
    a 1-d numpy array, all of one length.  Columns are kept as built, never
    copied into rows, so the writer can stream them to disk.
    The experiment's name is ``metadata["experiment"]``.
    """

    scalar_metrics: dict[str, Metric]
    series: dict[str, Sequence]
    metadata: dict

    def __post_init__(self) -> None:
        if len({len(column) for column in self.series.values()}) > 1:
            raise ValueError(f"series columns {list(self.series)} must share one length")

    @property
    def name(self) -> str:
        return self.metadata["experiment"]

    @property
    def series_rows(self) -> list[tuple]:
        """The series as row tuples (the columns zipped)."""
        return list(zip(*self.series.values()))


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
                "stderr": _json_safe(m.stderr),
                "exact": m.exact,
            }
            for name, m in result.scalar_metrics.items()
        },
        "metadata": _json_safe(result.metadata),
    }
    return json.dumps(payload, indent=2) + "\n"


#: Rows formatted per chunk when writing a series; bounds the writer's memory.
CSV_CHUNK_ROWS = 4096


def _numeric(columns) -> bool:
    """Whether every column is a numpy float64 or integer array.  numpy is
    looked up, never imported: before its import no array can exist."""
    numpy = sys.modules.get("numpy")
    return numpy is not None and all(
        isinstance(c, numpy.ndarray) and (c.dtype == numpy.float64 or c.dtype.kind in "iu")
        for c in columns
    )


def _csv_chunks(result: ExperimentResult) -> Iterator[bytes]:
    """The series as UTF-8 CSV: the header line, then up to
    :data:`CSV_CHUNK_ROWS` lines per chunk, each ending in a newline.

    Each column takes one ``%`` format from its cell in the first row:
    ``%.17g`` (round-trip precision; ``nan``, ``inf``, ``-0``) for a float,
    ``%s`` for anything else.  A series whose columns are all numpy float64
    or integer arrays is formatted by the vectorised kernel of
    :mod:`llo_sim._csv_format`, imported only then, which gives the same
    bytes.  Any other series (a list column, or no numpy loaded) is formatted
    cell by cell: a chunk takes its slice of each column, as Python objects
    through ``tolist`` where the column has one.  Writing never imports numpy.
    """
    yield (",".join(result.series) + "\n").encode()
    columns = list(result.series.values())
    n_rows = len(columns[0]) if columns else 0
    if n_rows and _numeric(columns):
        from ._csv_format import csv_lines

        for start in range(0, n_rows, CSV_CHUNK_ROWS):
            yield from csv_lines([column[start : start + CSV_CHUNK_ROWS] for column in columns])
        return
    for start in range(0, n_rows, CSV_CHUNK_ROWS):
        chunk = [column[start : start + CSV_CHUNK_ROWS] for column in columns]
        chunk = [c.tolist() if hasattr(c, "tolist") else c for c in chunk]
        if start == 0:
            floats = _float_types()
            row_format = ",".join("%.17g" if isinstance(c[0], floats) else "%s" for c in chunk)
        yield ("\n".join([row_format % row for row in zip(*chunk)]) + "\n").encode()


def result_to_csv(result: ExperimentResult) -> str:
    """The series as CSV: a header of the column names, then one line per
    row, formatted as :func:`write_result` writes it.  No rows give the header
    only."""
    return b"".join(_csv_chunks(result)).decode()


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
    with csv_path.open("wb") as csv_file:
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
    thinned = np.mod(np.asarray(phases, dtype=float)[::stride], math.tau)
    if thinned.size < 5 * n_bins:
        raise DomainError(
            f"too few decorrelated samples ({thinned.size}) for {n_bins} bins"
        )
    counts, _ = np.histogram(thinned, bins=n_bins, range=(0.0, math.tau))
    expected = thinned.size / n_bins
    stat = float(((counts - expected) ** 2 / expected).sum())
    return _chi2_sf(stat, n_bins - 1)


#: Pulses (for the laser-noise sweep, trajectory samples) that one block of
#: batches holds at most.  A block's array pass makes a fixed number of numpy
#: calls, each a hand-off of the GIL when two threads run, so long blocks let
#: threads overlap; but a block's arrays, and the process's peak memory, grow
#: with it.  A batch above the budget is a block of its own.  Chosen from a
#: grid of 12.5k to 100k pulses (CHANGES.md).
BLOCK_PULSES = 50_000


def _map_ordered(fn: Callable[[range], object], sizes: Sequence[int], threads: int,
                 group: int = 0) -> list:
    """``fn`` of each block of batches, in order, on up to ``threads`` threads.

    Batch ``i`` holds ``sizes[i]`` pulses.  The batches are cut into at most
    ``threads`` contiguous ranges of near-equal count (:func:`batch_size`),
    one per worker, so two threads run two long streams of array calls.  A
    worker walks its range in blocks, ranges of batch indices holding at most
    :data:`BLOCK_PULSES` pulses that start a new block at each multiple of
    ``group`` (if nonzero), and calls ``fn`` once per block.  Every batch
    draws from its own streams, so results are identical at any thread
    count.
    """
    workers = max(1, min(threads, len(sizes)))
    bounds = list(itertools.accumulate(
        (batch_size(len(sizes), workers, w) for w in range(workers)), initial=0
    ))

    def walk(span: range) -> list:
        results = []
        start = span.start
        pulses = 0
        for i in span:
            if i > start and (pulses + sizes[i] > BLOCK_PULSES or (group and i % group == 0)):
                results.append(fn(range(start, i)))
                start, pulses = i, 0
            pulses += sizes[i]
        results.append(fn(range(start, span.stop)))
        return results

    first, *rest = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if not rest:
        return walk(first)
    from concurrent.futures import ThreadPoolExecutor  # imported only where a pool runs

    # The calling thread walks the first range while the pool walks the rest.
    with ThreadPoolExecutor(max_workers=len(rest)) as pool:
        later = pool.map(walk, rest)
        return walk(first) + [result for results in later for result in results]


def _batch_pulses(config) -> list[int]:
    """The pulses of each sub-batch of a pilot-aided train."""
    return [2 * batch_size(config.n_pairs, config.n_batches, i) for i in range(config.n_batches)]


def _joined(recs: Sequence[RecoveredRun], name: str):
    """Field ``name`` of the blocks ``recs``, end to end."""
    return np.concatenate([getattr(rec, name) for rec in recs])


def _pooled_group_variance(corrected, encoded) -> tuple[dict[float, float], float]:
    """Per-symbol circular residual variances of one recovered batch plus
    their pooled value."""
    groups = residual_variance(corrected, encoded)
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


def _recovered_blocks(config, modulation, tag, seed: int, threads: int) -> list[RecoveredRun]:
    """Simulate and recover the ``config.n_batches`` sub-batches of a train
    with ``modulation``, batch ``i`` on the streams of path ``(tag, i)``, one
    block of batches at a time (:func:`_map_ordered`): one
    :class:`RecoveredRun` per block, in batch order, which carries the
    encoded phase of each usable signal."""
    lasers = (config.laser_s, config.laser_l)

    def recovered(batches: range) -> RecoveredRun:
        train, pairs = config.block_train(modulation, batches, config.reference_photons)
        return recover_run(simulate_run(
            train, lasers, config.detector, seed, tag, batches.start, batch_pairs=pairs
        ))

    return _map_ordered(recovered, _batch_pulses(config), threads)


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
    recs = _recovered_blocks(config, config.bpsk_phases, "bpsk", seed, threads)
    groups, pooled = zip(*(
        _pooled_group_variance(rec.corrected_phases[s], rec.encoded_phases[s])
        for rec in recs for s in rec.batch_slices
    ))

    raw_all = _joined(recs, "raw_phases")
    corrected_all = _joined(recs, "corrected_phases")
    encoded_all = _joined(recs, "encoded_phases")

    p_uniform = uniformity_pvalue(
        raw_all, n_bins=config.uniformity_bins, stride=config.uniformity_stride
    )
    laser_var = predicted_sigma_phi(
        phase_noise_variance(config.repetition_period_s, config.laser_s),
        phase_noise_variance(config.repetition_period_s, config.laser_l),
    )

    bit0, bit1 = config.bpsk_phases
    edges = np.linspace(0.0, math.tau, config.histogram_bins + 1)

    masks = {bit: encoded_all == bit for bit in config.bpsk_phases}

    def histogram(phases, bit):
        return np.histogram(np.mod(phases[masks[bit]], math.tau), bins=edges)[0]

    return ExperimentResult(
        scalar_metrics={
            "residual_variance_bit0": batch_metric([g[bit0] for g in groups]),
            "residual_variance_bit1": batch_metric([g[bit1] for g in groups]),
            "residual_variance_pooled": batch_metric(pooled),
            "predicted_sigma_phi_lasers": Metric(laser_var),
            "predicted_residual_variance": Metric(laser_var + _shot_noise_prediction(config)),
            "raw_phase_uniformity_pvalue": Metric(p_uniform),
        },
        series={
            "bin_left_rad": edges[:-1],
            "raw_bit0": histogram(raw_all, bit0), "raw_bit1": histogram(raw_all, bit1),
            "corrected_bit0": histogram(corrected_all, bit0),
            "corrected_bit1": histogram(corrected_all, bit1),
        },
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

    Each batch is launched once and detected at every photon number (common
    random numbers): only the detection noise is redrawn.  That mirrors
    re-detecting one run at different reference powers and keeps the sweep's
    monotonicity free of trajectory-to-trajectory noise.
    """
    lasers = (config.laser_s, config.laser_l)

    def recovered(batches: range) -> tuple:
        # The launch reads no reference photon number; detection takes each.
        train, pairs = config.block_train(config.bpsk_phases, batches, reference_photons=0.0)
        launched = launch_run(train, lasers, seed, "weak-ref", batches.start, batch_pairs=pairs)
        corrected = []
        for point, photons in enumerate(config.photon_numbers):
            rec = recover_run(detect_run(
                launched, photons, config.detector,
                [seed_sequence(seed, "weak-ref", i, "detector", point) for i in batches],
                batch_pairs=pairs,
            ))
            # Every detection recovers the launch's encoded phases; only what the
            # statistics read outlives the detection.
            corrected.append(rec.corrected_phases)
            encoded, slices = rec.encoded_phases, rec.batch_slices
            del rec
        return encoded, slices, corrected

    blocks = _map_ordered(recovered, _batch_pulses(config), threads)
    per_point = [
        batch_metric([
            _pooled_group_variance(corrected[point][s], encoded[s])[1]
            for encoded, slices, corrected in blocks for s in slices
        ])
        for point in range(len(config.photon_numbers))
    ]

    return ExperimentResult(
        scalar_metrics={
            f"residual_variance_nref_{config.label(n_ref)}": metric
            for n_ref, metric in zip(config.photon_numbers, per_point)
        },
        series={
            "reference_photons": config.photon_numbers,
            "residual_variance": [m.value for m in per_point],
            "stderr": [m.stderr for m in per_point],
        },
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
    recs = _recovered_blocks(config, (0.0, 0.0), "remap", seed, threads)  # unmodulated
    p_uniform = uniformity_pvalue(
        _joined(recs, "raw_phases"),
        n_bins=config.uniformity_bins, stride=config.uniformity_stride,
    )
    remapped = [remap_quadratures(r.signal_x, r.signal_p, r.interpolated_phases) for r in recs]
    scatter = np.concatenate(
        [(rec.signal_x, rec.signal_p, *xp) for rec, xp in zip(recs, remapped)], axis=1
    )[:, : config.scatter_rows]
    batches = [
        (x[s], p[s]) for rec, (x, p) in zip(recs, remapped) for s in rec.batch_slices
    ]
    return ExperimentResult(
        scalar_metrics={
            "x_noise_variance_snu": batch_metric([np.var(x, ddof=1) for x, _ in batches]),
            "p_noise_variance_snu": batch_metric([np.var(p, ddof=1) for _, p in batches]),
            "sigma_phi_estimate": batch_metric(list(map(sigma_phi_from_quadratures, batches))),
            "raw_phase_uniformity_pvalue": Metric(p_uniform),
        },
        series={
            "index": np.arange(scatter.shape[1]),
            "x_raw": scatter[0], "p_raw": scatter[1],
            "x_remapped": scatter[2], "p_remapped": scatter[3],
        },
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
    n_delays = len(config.delays_s)
    tasks = list(itertools.product(lasers, range(n_delays), range(config.n_batches)))

    samples = [batch_size(config.n_samples, config.n_batches, i) for _, _, i in tasks]

    def worker(batches: range) -> list[float]:
        # A block never spans two (laser, delay) points: they share one time grid.
        label, d_idx, _ = tasks[batches.start]
        block_samples = samples[batches.start : batches.stop]
        return simulate_self_interference(
            lasers[label], config.delays_s[d_idx], sum(block_samples),
            [seed_sequence(seed, "laser-noise", *tasks[k]) for k in batches],
            batch_samples=block_samples,
        )

    # A batch of n samples is a trajectory of n + 1 points.
    blocks = _map_ordered(worker, [n + 1 for n in samples], threads, group=config.n_batches)
    variances = np.reshape(
        [v for block in blocks for v in block], (len(lasers), n_delays, config.n_batches)
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
        metrics[f"expected_slope_{label}"] = Metric(phase_noise_variance(1.0, laser))

    return ExperimentResult(
        scalar_metrics=metrics,
        series={
            "laser": [label for label in lasers for _ in config.delays_s],
            "delay_s": list(config.delays_s) * len(lasers),
            "variance": [m.value for m in series],
            "stderr": [m.stderr for m in series],
        },
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
        scalar_metrics={
            "secure_range_km": Metric(crossing),
            "rate_at_first_grid_point": Metric(rates[0]),
        },
        series={"fiber_length_km": l_grid, "rate_bits_per_pulse": rates},
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
        return finite_size_key_rate(params, n)

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
        scalar_metrics={
            "n_threshold": Metric(threshold),
        },
        series={"n_pulses": n_grid, "rate_bits_per_pulse": rates},
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
