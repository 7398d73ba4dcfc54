"""Schema parity and fuzzing of ``parse_config``."""

import dataclasses
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from llo_sim.config import RunConfig, parse_config
from llo_sim.errors import ConfigError
from llo_sim.experiments import (
    LaserNoiseSweepConfig,
    PhaseExperimentConfig,
    RemapExperimentConfig,
    WeakReferenceSweepConfig,
)
from llo_sim.link_sim import ChannelDetector, PulseTrainConfig
from llo_sim.noise_models import LaserModel
from llo_sim.security import EpsilonBudget, SecurityParams


def _channel(prefix, transmittance_override, electronic_noise_snu):
    return {
        f"{prefix}.attenuation_db_per_km": 0.2,
        f"{prefix}.fiber_length_km": 0.0,
        f"{prefix}.transmittance_override": transmittance_override,
        f"{prefix}.detector_efficiency": 0.5,
        f"{prefix}.electronic_noise_snu": electronic_noise_snu,
    }


#: Every key the config accepts, at its default value.
DEFAULTS = {
    "seed": 1,
    "output_dir": "results",
    "threads": 1,
    "laser_s.center_detuning_hz": 0.0,
    "laser_s.drift_rate_hz_per_s": 0.0,
    "laser_l.center_detuning_hz": 2.3e6,
    "laser_l.drift_rate_hz_per_s": 0.0,
    "train.repetition_period_s": 20e-9,
    "train.n_pairs": 25000,
    "train.signal_photons": 1e5,
    "train.reference_photons": 1e5,
    **_channel("channel", None, 0.1),
    "security.modulation_variance": 1.0,
    "security.reconciliation_efficiency": 0.95,
    "security.sigma_phi": 0.04,
    "security.discretization": 5,
    "security.robustness": 0.0,
    "security.n_pulses": 10**11,
    "security.pe_fraction": 0.5,
    "security.pe_radius_scale": 190.0,
    "security.swap_delta_terms": False,
    "security.epsilons.eps": 1e-20,
    "security.epsilons.eps_bar": 1e-21,
    "security.epsilons.eps_sm": 1e-21,
    "security.epsilons.eps_pe": 1e-41,
    "security.epsilons.eps_cor": 1e-41,
    "security.epsilons.eps_ent": 1e-41,
    **_channel("experiments.detector", 1.0, 0.83),
    "experiments.phase_exp.bpsk_phases": [0.0, 1.65],
    "experiments.phase_exp.n_batches": 10,
    "experiments.phase_exp.histogram_bins": 100,
    "experiments.phase_exp.uniformity_bins": 10,
    "experiments.phase_exp.uniformity_stride": 100,
    "experiments.weak_ref.photon_numbers": [10000.0, 1000.0, 100.0],
    "experiments.weak_ref.n_batches": 10,
    "experiments.remap.n_pairs": 24000,
    "experiments.remap.signal_photons": 66.0,
    "experiments.remap.reference_photons": 1000.0,
    "experiments.remap.n_batches": 10,
    "experiments.remap.scatter_rows": 24000,
    "experiments.remap.uniformity_bins": 10,
    "experiments.remap.uniformity_stride": 100,
    "experiments.laser_noise.delays_s": [5e-9, 20e-9, 25e-9],
    "experiments.laser_noise.n_samples": 100000,
    "experiments.laser_noise.n_batches": 10,
    "experiments.distance_sweep.min_km": 0.0,
    "experiments.distance_sweep.max_km": 150.0,
    "experiments.distance_sweep.points": 31,
    "experiments.n_sweep.log10_min": 6.0,
    "experiments.n_sweep.log10_max": 13.0,
    "experiments.n_sweep.points": 29,
}

#: The laser noise specs at the bench values (per-20 ns variance 0.035 / 0.044).
NOISE_SPECS = {}
for _laser, _variance in (("laser_s", 0.035), ("laser_l", 0.044)):
    _tau_c = 2 * 20e-9 / _variance
    NOISE_SPECS[f"{_laser}.linewidth_hz"] = 1 / (math.pi * _tau_c)
    NOISE_SPECS[f"{_laser}.coherence_time_s"] = _tau_c
    NOISE_SPECS[f"{_laser}.delay_variance"] = {"variance_rad2": _variance, "delay_s": 20e-9}

KEYS = sorted(
    [*DEFAULTS, *NOISE_SPECS]
    + [f"{laser}.delay_variance.{k}" for laser in ("laser_s", "laser_l")
       for k in ("variance_rad2", "delay_s")]
)

#: The keys plus every section that holds them, for the fuzz test.
FUZZ_KEYS = sorted(
    {*KEYS} | {key.rsplit(".", i)[0] for key in KEYS for i in range(1, key.count(".") + 1)}
)

#: Section path -> the dataclass whose field names are candidate keys there.
SECTION_CLASSES = {
    "": RunConfig,
    "laser_s.": LaserModel,
    "laser_l.": LaserModel,
    "train.": PulseTrainConfig,
    "channel.": ChannelDetector,
    "security.": SecurityParams,
    "security.epsilons.": EpsilonBudget,
    "experiments.detector.": ChannelDetector,
    "experiments.phase_exp.": PhaseExperimentConfig,
    "experiments.weak_ref.": WeakReferenceSweepConfig,
    "experiments.remap.": RemapExperimentConfig,
    "experiments.laser_noise.": LaserNoiseSweepConfig,
}
INHERITED = sorted(
    prefix + f.name
    for prefix, cls in SECTION_CLASSES.items()
    for f in dataclasses.fields(cls)
    if not any(key == prefix + f.name or key.startswith(prefix + f.name + ".") for key in KEYS)
)


@pytest.mark.parametrize("key", sorted(DEFAULTS))
def test_key_at_its_default_changes_nothing(key):
    assert parse_config(overrides={key: DEFAULTS[key]}) == parse_config()


@pytest.mark.parametrize("key", sorted(NOISE_SPECS))
def test_noise_spec_at_bench_value_matches_default_laser(key):
    laser = key.split(".")[0]
    got = getattr(parse_config(overrides={key: NOISE_SPECS[key]}), laser)
    want = getattr(parse_config(), laser)
    assert got.coherence_time_s == pytest.approx(want.coherence_time_s, rel=1e-15)
    assert got.linewidth_hz == pytest.approx(want.linewidth_hz, rel=1e-15)


@pytest.mark.parametrize("key", INHERITED)
def test_inherited_fields_are_not_keys(key):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(overrides={key: 1})


_NUMBERS = st.one_of(
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, -1, 2**63, 2**64, 10**400, -(10**400)]),
)
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_UNKNOWN_KEYS = st.one_of(
    st.text(max_size=6),
    st.builds(lambda key, tail: f"{key}.{tail}", st.sampled_from(KEYS), st.text(max_size=4)),
    st.builds(lambda key: key.rsplit(".", 1)[0] + ".bogus", st.sampled_from(KEYS)),
)
_OVERRIDES = st.builds(
    lambda known, unknown: {**known, **unknown},
    st.dictionaries(st.sampled_from(FUZZ_KEYS), _NUMBERS | _JSON, max_size=4),
    st.dictionaries(_UNKNOWN_KEYS, _JSON, max_size=1),
)


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_OVERRIDES)
def test_any_override_parses_or_raises_config_error(overrides):
    try:
        cfg = parse_config(overrides=overrides)
    except ConfigError as exc:
        assert str(exc).startswith("config")
    else:
        assert isinstance(cfg, RunConfig)
