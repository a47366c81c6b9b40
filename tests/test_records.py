"""Record fields declared once: each field with a single-field rule declares its key-table
kind with `spatial._kind`, `spatial._check_fields` checks it at construction, and a key
table whose keys are the record's field names reads those declarations."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shuttlekit import amp, estimator, goal, retarget, reward, scenario, shuttle, spatial
from shuttlekit.amp import AmpConfig
from shuttlekit.estimator import HitCriteria, NoiseConfig
from shuttlekit.goal import RobotState, StrikeTarget
from shuttlekit.retarget import KeypointFrame, RetargetSolution, RetargetWeights
from shuttlekit.reward import HitQualityConfig, RewardConfig, TerminationConfig
from shuttlekit.scenario import (EpisodeRecord, ManifoldPoint, RandomizationTable,
                                 ServeConfig)
from shuttlekit.shuttle import CourtGeometry, ShuttleParams
from shuttlekit.spatial import Joint, Pose, Twist

MODULES = (amp, estimator, goal, retarget, reward, scenario, shuttle, spatial)

# one valid instance of each record that declares a field
VALID = {
    ShuttleParams: lambda: ShuttleParams(0.005, 0.001),
    CourtGeometry: lambda: CourtGeometry(1.55, 2.0, 2.5, 8.0, -2.5, 2.5),
    RewardConfig: lambda: RewardConfig([1.0], [0.5], [1.0, 0.5], [0.5, 0.2], 0.5, 0.05),
    TerminationConfig: lambda: TerminationConfig(0.5, 0.8, 1.0),
    HitQualityConfig: lambda: HitQualityConfig(8.0),
    AmpConfig: AmpConfig,
    StrikeTarget: lambda: StrikeTarget(1.0, Pose.identity(), Pose.identity()),
    RobotState: lambda: RobotState(Pose.identity(), Twist.zero(), np.zeros(2), np.zeros(2),
                                   np.array([0.0, 0.0, -1.0]), np.zeros(2), 0.9, np.ones(2)),
    ManifoldPoint: lambda: ManifoldPoint([0.0, 0.0, 1.1], 1.0, 0),
    RandomizationTable: RandomizationTable,
    ServeConfig: ServeConfig,
    EpisodeRecord: lambda: EpisodeRecord(0, True, np.zeros(3)),
    RetargetWeights: RetargetWeights,
    KeypointFrame: lambda: KeypointFrame(0.0, {"kp": [0.0, 0.0, 1.0]}, {"hand": [1, 0, 0, 0]}),
    RetargetSolution: lambda: RetargetSolution((Pose.identity(),), np.zeros((1, 2))),
    Joint: lambda: Joint("j", -1, Pose.identity(), [0.0, 0.0, 1.0], (-1.0, 1.0)),
    NoiseConfig: lambda: NoiseConfig(1.0, np.eye(3)),
    HitCriteria: lambda: HitCriteria((1.0, 1.3)),
}

# "Class.field": why the property below leaves that declared field out. None is left out:
# no declared kind accepts a NaN, an inf, a wrong shape or a non-number.
EXEMPT: dict[str, str] = {}


def _public_frozen_dataclasses():
    for module in MODULES:
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and not name.startswith("_") and dataclasses.is_dataclass(obj)
                    and obj.__dataclass_params__.frozen):
                yield obj


DECLARED = [(cls, f.name, f.metadata["kind"]) for cls in _public_frozen_dataclasses()
            for f in dataclasses.fields(cls) if "kind" in f.metadata
            and f"{cls.__name__}.{f.name}" not in EXEMPT]


def test_every_record_that_declares_a_field_has_a_valid_instance():
    assert {cls for cls, _, _ in DECLARED} == set(VALID)
    for build in VALID.values():
        build()


def _bad_values(kind):
    """NaN, inf, a wrong shape and non-numbers, each a value that `kind` refuses."""
    common = [math.nan, math.inf, -math.inf, None, object(), [1.0, 2.0], np.zeros(2)]
    if isinstance(kind, dict):  # an object of free keys, each of the shape kind[str]
        shape = kind[str]
        return common + [{"k": np.full(shape, math.nan)}, {"k": np.zeros(shape[0] + 1)},
                         {"k": "x"}]
    if isinstance(kind, list):  # a list of numbers, which may be given as a 1-D array
        return common[:5] + ["x", [math.nan], [math.inf], ["x"], [[1.0]], np.zeros((2, 2)),
                             np.array(0.5)]
    if kind == (float, float):
        return common[:5] + [(math.nan, 1.0), (0.0, math.inf), (1.0, 2.0, 3.0), ("a", "b")]
    if isinstance(kind, tuple) and isinstance(kind[0], int):  # a shape
        return common[:5] + [np.full(kind, math.nan), np.full(kind, -math.inf),
                             np.zeros((*kind, 1)), np.zeros(kind[0] + 1), "x"]
    return common + ([] if kind is str else ["x"]) + ([2.5, True] if kind is int else [])


@pytest.mark.parametrize("cls, name, kind", DECLARED,
                         ids=[f"{cls.__name__}.{name}" for cls, name, _ in DECLARED])
@given(data=st.data())
def test_a_bad_value_in_any_declared_field_raises_naming_it(cls, name, kind, data):
    bad = data.draw(st.sampled_from(_bad_values(kind)), label="bad")
    valid = VALID[cls]()
    with pytest.raises(ValueError, match=rf"^{name}\b"):
        dataclasses.replace(valid, **{name: bad})


@pytest.mark.parametrize("table, cls", [
    (shuttle.PARAMS, ShuttleParams),
    (retarget.PROBLEM["weights"][1], RetargetWeights),
    (spatial.JOINT, Joint),
    (retarget.FRAME, KeypointFrame),
], ids=["PARAMS", "PROBLEM.weights", "JOINT", "FRAME"])
def test_a_derived_key_table_holds_each_declared_kind(table, cls):
    """The table reads each field's kind object and default from the record, so the two
    cannot drift apart."""
    for f in dataclasses.fields(cls):
        if "kind" not in f.metadata:
            continue
        default, kind = table[f.name]
        assert kind is f.metadata["kind"], f.name
        if f.default_factory is not dataclasses.MISSING:
            assert default == f.default_factory(), f.name
        else:
            assert default is (spatial.REQUIRED if f.default is dataclasses.MISSING
                               else f.default), f.name


def test_converted_fields_keep_their_stored_types():
    joint = Joint("j", np.int64(-1), Pose.identity(), [0, 0, 1], np.array([-1, 2]))
    assert type(joint.parent) is int
    criteria = HitCriteria(np.array([1, 2]))
    table = RandomizationTable(base_mass=np.array([-1, 1]))
    for pair in (joint.limits, criteria.height_band, table.base_mass):
        assert type(pair) is tuple and [type(v) for v in pair] == [float, float]
    assert joint.limits == (-1.0, 2.0) and criteria.height_band == (1.0, 2.0)
    params = ShuttleParams(np.float64(0.005), 1, axis_damping="0.5", gravity=np.int64(9))
    assert all(type(getattr(params, f.name)) is float for f in dataclasses.fields(params))
    assert (params.drag_coeff, params.axis_damping, params.gravity) == (1.0, 0.5, 9.0)


@pytest.mark.parametrize("build, name", [
    (lambda: ShuttleParams("x", 0.001), "mass"),
    (lambda: CourtGeometry("x", 0, 0, 1, 0, 1), "net_height"),
    (lambda: TerminationConfig("x", 1, 1), "min_base_height"),
    (lambda: HitQualityConfig("x"), "speed_scale"),
    (lambda: NoiseConfig("x", np.eye(3)), "process_psd"),
    (lambda: AmpConfig(history_length="x"), "history_length"),
    (lambda: RetargetSolution((Pose.identity(),), np.zeros((1, 2)), "x"), "global_scale"),
    (lambda: RandomizationTable(base_mass=("a", "b")), "base_mass"),
    (lambda: AmpConfig(history_length=2.5), "history_length"),
    (lambda: RewardConfig(0.5, 0.2, 0.5, 0.3, 0.5, 0.02), "hit_weights"),
    (lambda: HitCriteria(("a", "b")), "height_band"),
    (lambda: Joint("b", 0.5, Pose.identity(), [0, 0, 1], (0.0, 1.0)), "parent"),
    (lambda: Joint("b", 0, Pose.identity(), [0, 0, 1], (0.0, math.inf)), "limits"),
], ids=["ShuttleParams", "CourtGeometry", "TerminationConfig", "HitQualityConfig",
        "NoiseConfig", "AmpConfig-str", "RetargetSolution", "RandomizationTable",
        "AmpConfig-fraction", "RewardConfig", "HitCriteria", "Joint-parent", "Joint-limits"])
def test_a_bad_value_fails_at_construction_naming_its_field(build, name):
    """Each of these once raised a bare TypeError, or built a record that failed later."""
    with pytest.raises(ValueError, match=rf"^{name} must "):
        build()


@pytest.mark.parametrize("weights, message", [
    (0.5, "hit_weights must be a list, got float"),
    (np.array(0.5), "hit_weights must be a list, got float"),
    ([[1.0]], "hit_weights[0] must be a number: "),
    (np.ones((1, 1)), "hit_weights[0] must be a number: "),
], ids=["scalar", "0-d-array", "nested-list", "column"])
def test_reward_config_arrays_must_be_1d(weights, message):
    """A scalar weight once built a config whose every tracking reward raised a bare
    TypeError; each array must be a list or a 1-D array of numbers."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        RewardConfig(weights, [1.0], [1.0], [1.0], 0.5, 0.02)
    with pytest.raises(ValueError, match="^rec_scales must be a list, got float$"):
        RewardConfig([1.0], [1.0], [1.0], 0.3, 0.5, 0.02)
    cfg = RewardConfig((0.6, 0.4), np.array([0.05, 0.2]), [1.0], [0.1], 0.5, 0.02)
    assert cfg.hit_weights.tolist() == [0.6, 0.4] and cfg.hit_scales.dtype == np.float64


@pytest.mark.parametrize("value", [2.5, True, "x"])
def test_history_length_must_be_an_integer(value):
    with pytest.raises(ValueError,
                       match=rf"^history_length must be an integer, got {re.escape(repr(value))}$"):
        AmpConfig(history_length=value)


def test_history_length_must_be_at_least_one():
    with pytest.raises(ValueError, match="^history_length must be at least 1$"):
        AmpConfig(history_length=0)
    for given_length in (np.int64(3), 3.0, "3"):
        cfg = AmpConfig(history_length=given_length)
        assert cfg.history_length == 3 and type(cfg.history_length) is int
