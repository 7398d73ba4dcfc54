"""The block pass lays a run's contiguous batches end to end and runs every
elementwise stage once per block.  Each batch must come out bit for bit as
its own one-batch call gives it.  These checks compare within one host, so
they hold where the golden manifest's Monte Carlo hashes skip."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from llo_sim import experiments
from llo_sim._seeding import seed_sequence
from llo_sim.config import (
    LO_LASER,
    RIG_DETECTOR,
    SIGNAL_LASER,
    LaserNoiseSweepConfig,
    PhaseExperimentConfig,
    RemapExperimentConfig,
    WeakReferenceSweepConfig,
    batch_size,
)
from llo_sim.errors import DomainError, ScheduleError
from llo_sim.experiments import result_to_csv, result_to_json
from llo_sim.link_sim import (
    GaussianModulation,
    PulseBlock,
    PulseTrainConfig,
    detect_run,
    launch_run,
    simulate_run,
)
from llo_sim.noise_models import LaserModel, sample_phase_trajectory, simulate_self_interference
from llo_sim.phase_recovery import recover_run

LASERS = (SIGNAL_LASER, LO_LASER)
#: 2,503 pairs in 10 batches: three of 251, seven of 250.
PAIRS = [batch_size(2503, 10, i) for i in range(10)]
RECOVERED = (
    "signal_x", "signal_p", "raw_phases", "interpolated_phases", "corrected_phases",
    "encoded_phases",
)


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def assert_same_bits(a, b, what):
    assert np.array_equal(bits(a), bits(b)), what


def train(n_pairs, modulation=(0.0, 1.65)):
    return PulseTrainConfig(20e-9, n_pairs, 1e4, 1e3, modulation)


def batch_pulses(pairs):
    """The pulse slice of each batch of a block of ``pairs``."""
    ends = list(itertools.accumulate(2 * n for n in pairs))
    return [slice(end - 2 * n, end) for n, end in zip(pairs, ends)]


def assert_recovered_per_batch(block, per_batch):
    """``recover_run`` of ``block`` holds, batch by batch, the recovery of
    the one-batch blocks ``per_batch``."""
    rec = recover_run(block)
    assert rec.batch_signals == tuple(n - 1 for n in block.batch_pairs)
    ties = 0
    for i, (s, one_block) in enumerate(zip(rec.batch_slices, per_batch)):
        one = recover_run(one_block)
        for name in RECOVERED:
            assert_same_bits(getattr(rec, name)[s], getattr(one, name), (i, name))
        ties += one.n_antipodal_ties
    assert rec.n_antipodal_ties == ties


@pytest.mark.parametrize(
    "modulation", [(0.0, 1.65), (0.0, 0.0), GaussianModulation(4.0)],
    ids=["bpsk", "unmodulated", "gaussian"],
)
def test_block_simulates_and_recovers_every_batch_as_its_own_run(modulation):
    block = simulate_run(
        train(sum(PAIRS), modulation), LASERS, RIG_DETECTOR, 7, "blk", 3, batch_pairs=PAIRS
    )
    assert block.batch_pairs == tuple(PAIRS)
    per_batch = [
        simulate_run(train(n, modulation), LASERS, RIG_DETECTOR, 7, "blk", 3 + i)
        for i, n in enumerate(PAIRS)
    ]
    pair_ends = list(itertools.accumulate(PAIRS))
    for i, (pulses, one) in enumerate(zip(batch_pulses(PAIRS), per_batch)):
        for name in ("x", "p", "true_phase"):
            assert_same_bits(getattr(block, name)[pulses], getattr(one, name), (i, name))
        signals = slice(pair_ends[i] - PAIRS[i], pair_ends[i])
        assert_same_bits(block.encoded_phase[signals], one.encoded_phase, (i, "encoded"))
    assert_recovered_per_batch(block, per_batch)


def test_one_launch_block_detected_at_several_photon_numbers():
    launched = launch_run(train(sum(PAIRS)), LASERS, 5, "weak-ref", 0, batch_pairs=PAIRS)
    launches = [launch_run(train(n), LASERS, 5, "weak-ref", i) for i, n in enumerate(PAIRS)]
    for point, photons in enumerate((1e4, 100.0)):
        seeds = [seed_sequence(5, "weak-ref", i, "detector", point) for i in range(len(PAIRS))]
        block = detect_run(launched, photons, RIG_DETECTOR, seeds)
        per_batch = [
            detect_run(one, photons, RIG_DETECTOR, [s]) for one, s in zip(launches, seeds)
        ]
        assert_recovered_per_batch(block, per_batch)


@pytest.mark.parametrize(
    "laser",
    [LO_LASER, LaserModel.noiseless(center_detuning_hz=-2e6, drift_rate_hz_per_s=3e12)],
    ids=["noisy", "noiseless-drifting"],
)
def test_trajectories_of_a_block_are_those_of_each_batch(laser):
    sizes = [7, 5, 1, 7, 6]
    grid = np.arange(max(sizes), dtype=float) * 20e-9
    seeds = [seed_sequence(11, "traj", b) for b in range(len(sizes))]
    block = sample_phase_trajectory(
        laser, np.concatenate([grid[:n] for n in sizes]), seeds, batch_sizes=sizes
    )
    start = 0
    for size, seed in zip(sizes, seeds):
        own = sample_phase_trajectory(laser, grid[:size], seed)
        assert_same_bits(block[start : start + size], own, size)
        start += size


def test_self_interference_of_a_block_is_that_of_each_batch():
    sizes = [2001, 2001, 2000, 1999]
    seeds = [seed_sequence(13, "sif", b) for b in range(len(sizes))]
    block = simulate_self_interference(LO_LASER, 25e-9, sum(sizes), seeds, batch_samples=sizes)
    own = [simulate_self_interference(LO_LASER, 25e-9, n, s) for n, s in zip(sizes, seeds)]
    assert_same_bits(block, own, "variances")
    zero = simulate_self_interference(LO_LASER, 0.0, sum(sizes), seeds, batch_samples=sizes)
    assert zero == [0.0] * len(sizes)


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: sample_phase_trajectory(
            LO_LASER, [0.0, 1.0, 0.0, 2.0], [1, 2], batch_sizes=[2, 2]), "begin the longest"),
        (lambda: sample_phase_trajectory(
            LO_LASER, [0.0, 1.0, 0.0], [1, 2], batch_sizes=[2, 2]), "summing to 3"),
        (lambda: sample_phase_trajectory(
            LO_LASER, [0.0, 1.0, 0.0], [1], batch_sizes=[2, 1]), "one seed per batch"),
        (lambda: simulate_self_interference(LO_LASER, 1e-9, 10, [1, 2], batch_samples=[4, 4]),
         "sum to 10"),
    ],
    ids=["not-a-prefix", "sizes-short", "seeds-short", "samples-short"],
)
def test_a_malformed_block_is_rejected(call, match):
    with pytest.raises(DomainError, match=match):
        call()


def test_block_layouts_are_checked():
    with pytest.raises(ScheduleError, match="do not sum"):
        simulate_run(train(10), LASERS, RIG_DETECTOR, 1, "b", 0, batch_pairs=[4, 4])
    with pytest.raises(ScheduleError, match="first batch index"):
        simulate_run(train(8), LASERS, RIG_DETECTOR, 1, "b", batch_pairs=[4, 4])
    with pytest.raises(ScheduleError, match="need n_pairs >= 2"):
        simulate_run(train(8), LASERS, RIG_DETECTOR, 1, "b", 0, batch_pairs=[7, 1])
    launched = launch_run(train(8), LASERS, 1, "b", 0, batch_pairs=[4, 4])
    with pytest.raises(ScheduleError, match="one detector seed per batch"):
        detect_run(launched, 10.0, RIG_DETECTOR, [seed_sequence(1, "b", 0, "detector")])
    assert detect_run(launched, 10.0, RIG_DETECTOR, [1, 2]).batch_pairs == launched.batch_pairs
    with pytest.raises(ScheduleError, match="batch_pairs"):
        PulseBlock(np.zeros(8), np.zeros(8), np.zeros(8), np.zeros(4), batch_pairs=(3, 2))
    block = PulseBlock(np.ones(8), np.ones(8), np.zeros(8), np.zeros(4), batch_pairs=(3, 1))
    with pytest.raises(ScheduleError, match="need >= 2 R S pairs"):
        recover_run(block)


def test_blocks_are_contiguous_within_budget_and_group(monkeypatch):
    monkeypatch.setattr(experiments, "BLOCK_PULSES", 10)
    sizes = [4, 4, 4, 4, 4, 11, 4, 4]
    blocks = {
        # One worker walks all 8 batches; two take 4 each; three take 3, 3 and 2.
        1: [range(0, 2), range(2, 4), range(4, 5), range(5, 6), range(6, 8)],
        2: [range(0, 2), range(2, 4), range(4, 5), range(5, 6), range(6, 8)],
        3: [range(0, 2), range(2, 3), range(3, 5), range(5, 6), range(6, 8)],
        20: [range(i, i + 1) for i in range(8)],
    }
    for threads, expected in blocks.items():
        assert experiments._map_ordered(lambda r: r, sizes, threads) == expected, threads
    assert experiments._map_ordered(lambda r: r, [1] * 8, 1, group=3) == [
        range(0, 3), range(3, 6), range(6, 8),
    ]


# Uneven batches: no run size below is a multiple of its 10 batches.
RUNNERS = {
    "phase-exp": (experiments.run_bpsk_phase_experiment,
                  PhaseExperimentConfig(n_pairs=4003, uniformity_stride=25)),
    "weak-ref": (experiments.run_weak_reference_sweep, WeakReferenceSweepConfig(n_pairs=2003)),
    "remap-exp": (experiments.run_quantum_remap_experiment,
                  RemapExperimentConfig(n_pairs=4003, uniformity_stride=25)),
    "laser-noise": (experiments.run_laser_noise_sweep, LaserNoiseSweepConfig(n_samples=20005)),
}


@pytest.mark.parametrize("name", list(RUNNERS))
def test_runner_outputs_do_not_depend_on_threads_or_blocks(name, monkeypatch):
    run, config = RUNNERS[name]

    def outputs(threads):
        result = run(config, seed=29, threads=threads)
        return result_to_json(result), result_to_csv(result)

    reference = outputs(1)
    for threads in (2, 3, config.n_batches + 1):
        assert outputs(threads) == reference, threads
    # A budget below every batch makes each batch a block of its own.
    monkeypatch.setattr(experiments, "BLOCK_PULSES", 1)
    for threads in (1, 2):
        assert outputs(threads) == reference, ("one batch per block", threads)


def test_phase_exp_metadata_counts_every_batch(monkeypatch):
    config = replace(RUNNERS["phase-exp"][1], n_batches=7)
    metadata = []
    for budget in (1, experiments.BLOCK_PULSES):
        monkeypatch.setattr(experiments, "BLOCK_PULSES", budget)
        metadata.append(experiments.run_bpsk_phase_experiment(config, seed=3, threads=2).metadata)
    assert metadata[0]["dropped_boundary_pulses"] == 7
    assert metadata[0]["antipodal_ties"] == metadata[1]["antipodal_ties"]
