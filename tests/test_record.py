"""The shared methods of :class:`llo_sim._record.Record` behave as the ones
``@dataclass(frozen=True)`` would generate for each record."""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import llo_sim
from llo_sim._record import Record
from llo_sim.config import NSweepConfig, RunConfig
from llo_sim.errors import ConfigError
from llo_sim.experiments import Metric
from llo_sim.link_sim import ChannelDetector, PulseBlock, QuadratureSample
from llo_sim.noise_models import LaserModel
from llo_sim.security import SecurityParams

_METHODS = ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")


def _records():
    """Every class defined in llo_sim that has dataclass fields."""
    found = []
    for info in pkgutil.iter_modules(llo_sim.__path__, "llo_sim."):
        module = importlib.import_module(info.name)
        found += [
            obj for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and hasattr(obj, "__dataclass_fields__")
        ]
    return found


def test_every_dataclass_is_a_record_without_generated_methods():
    records = _records()
    assert len(records) == 18
    for cls in records:
        assert issubclass(cls, Record), cls
        own = set(_METHODS).intersection(vars(cls))
        expected = {"__eq__", "__hash__"} if cls is PulseBlock else set()
        assert own == expected, cls
        # Without a docstring of its own, dataclasses writes one from the signature.
        assert "(*args, **kwargs)" not in cls.__doc__, cls


def test_still_a_dataclass_to_the_standard_library():
    laser = LaserModel(1.0, center_detuning_hz=2.0)
    assert dataclasses.is_dataclass(laser)
    assert [f.name for f in dataclasses.fields(laser)] == [
        "coherence_time_s", "center_detuning_hz", "drift_rate_hz_per_s",
    ]
    assert dataclasses.asdict(laser) == {
        "coherence_time_s": 1.0, "center_detuning_hz": 2.0, "drift_rate_hz_per_s": 0.0,
    }
    assert dataclasses.replace(laser, drift_rate_hz_per_s=3.0) == LaserModel(1.0, 2.0, 3.0)


def test_replace_reruns_post_init():
    with pytest.raises(ConfigError, match="detector efficiency"):
        dataclasses.replace(ChannelDetector(), detector_efficiency=2.0)


def test_fields_cannot_be_set_or_deleted():
    laser = LaserModel(1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        laser.coherence_time_s = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        laser.other = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del laser.coherence_time_s


def test_repr_names_every_field():
    assert repr(LaserModel(1.0)) == (
        "LaserModel(coherence_time_s=1.0, center_detuning_hz=0.0, drift_rate_hz_per_s=0.0)"
    )
    assert repr(Metric(0.5, None)) == "Metric(value=0.5, stderr=None)"


def test_equality_and_hash_follow_the_field_tuple():
    assert Metric(1.0, 0.1) == Metric(value=1.0, stderr=0.1)
    assert Metric(1.0) != Metric(1.0, 0.1)
    assert hash(Metric(1.0, 0.1)) == hash((1.0, 0.1))
    assert hash(NSweepConfig()) == hash((6.0, 13.0, 29))
    assert Metric(1.0).__eq__((1.0, None)) is NotImplemented
    assert NSweepConfig().__eq__(Metric(6.0)) is NotImplemented


def test_argument_binding():
    assert LaserModel(1.0, drift_rate_hz_per_s=4.0).drift_rate_hz_per_s == 4.0
    assert vars(NSweepConfig(points=3)) == {"log10_min": 6.0, "log10_max": 13.0, "points": 3}
    with pytest.raises(TypeError, match="missing required argument 'coherence_time_s'"):
        LaserModel()
    with pytest.raises(TypeError, match="unexpected keyword argument 'linewidth_hz'"):
        LaserModel(1.0, linewidth_hz=2.0)
    with pytest.raises(TypeError, match="multiple values"):
        LaserModel(1.0, coherence_time_s=2.0)
    with pytest.raises(TypeError, match="positional"):
        LaserModel(1.0, 0.0, 0.0, 0.0)


def test_run_config_is_keyword_only():
    with pytest.raises(TypeError, match="takes 0 positional"):
        RunConfig(1)


def test_cached_properties_live_in_the_instance_dict():
    params = SecurityParams()
    assert "_kernel" in vars(params)  # __post_init__ evaluates it
    params._nominal_mutual_information
    assert "_nominal_mutual_information" in vars(params)


def test_pulse_blocks_compare_by_identity():
    arrays = (np.zeros(2), np.ones(2), np.zeros(2), np.zeros(1))
    a, b = PulseBlock(*arrays), PulseBlock(*arrays)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)


def test_quadrature_samples_read_by_field():
    block = PulseBlock([1.0, 2.0], [3.0, 4.0], [0.5, 0.6], [0.1])
    samples = list(block)
    assert samples == [
        QuadratureSample(1.0, 3.0, "reference", 0, 0.5),
        QuadratureSample(2.0, 4.0, "signal", 1, 0.6),
    ]
    second = samples[1]
    assert (second.x, second.p, second.kind, second.index, second.true_phase) == (
        2.0, 4.0, "signal", 1, 0.6,
    )
    assert QuadratureSample(0.0, 0.0, "signal", 3).true_phase is None
