"""One rule for value types: config sections are frozen dataclasses, every
other record is a NamedTuple, and inside the loop a value that every reader
takes apart by position is a plain tuple.

A NamedTuple is built in about half the time of a frozen dataclass; these
tests pin what the records keep from the dataclasses they replaced: read-only
fields, the checks on construction, and the ``repr``.  The loop
builds the records that have no check with ``tuple.__new__(Cls, (...))``,
every field given, which is the body of their generated ``__new__`` without
its frame; ``BoxMeasurement`` and ``RecoveryState`` always run their checked
constructors.  Over whole runs, the stages hand each other exactly the
records that a reader outside the loop reads by field name, and each must
have all its fields and the ``repr`` its constructor gives; the box
``(u, v, v2)``, the joint angles ``(alpha, beta)`` and the pixel errors
``(e_u, e_v, e_v2)`` are plain tuples.
"""

import dataclasses
import math
import re

import pytest

from ptfollow import controller, runner
from ptfollow.config import PRESETS, ScenarioConfig, parse_config
from ptfollow.controller import (
    BoxMeasurement,
    ControlCommand,
    ControllerGains,
    FollowController,
    ImageErrors,
    JacobianTerms,
    SaturationFlags,
    SaturationLimits,
)
from ptfollow.geometry import BodyModel, CameraIntrinsics, CameraPoint, JointLimits, PanTiltAngles
from ptfollow.perception import (
    NoiseModel,
    PerceptionOutput,
    PerceptionPipeline,
    RecoveryState,
)
from ptfollow.runlog import RunSummary
from ptfollow.simworld import CircleTrajectory, LineTrajectory, WaypointTrajectory
from test_goldens import NOISY_WALK

# each record with its repr, as the frozen dataclasses printed it
RECORDS = [
    (BoxMeasurement(320.0, 240.0, 140.0), "BoxMeasurement(u=320.0, v=240.0, v2=140.0)"),
    (PanTiltAngles(0.1, -0.2), "PanTiltAngles(alpha=0.1, beta=-0.2)"),
    (RecoveryState(True, 2.5), "RecoveryState(failure_state=True, region_scale=2.5)"),
    (CameraPoint(0.5, -0.25, 3.0), "CameraPoint(x=0.5, y=-0.25, z=3.0)"),
    (ImageErrors(1.0, 2.0, 3.0), "ImageErrors(e_u=1.0, e_v=2.0, e_v2=3.0)"),
    (
        JacobianTerms(*map(float, range(9))),
        "JacobianTerms(omega1=0.0, omega2=1.0, omega3=2.0, a=3.0, b=4.0, c=5.0, d=6.0,"
        " e=7.0, f=8.0)",
    ),
    (
        SaturationFlags(),
        "SaturationFlags(v_r=False, omega_r=False, omega_alpha=False, omega_beta=False)",
    ),
    (
        ControlCommand(0.1, 0.0, 0.2, 0.3),
        "ControlCommand(v_r=0.1, omega_r=0.0, omega_alpha=0.2, omega_beta=0.3,"
        " saturated=SaturationFlags(v_r=False, omega_r=False, omega_alpha=False,"
        " omega_beta=False), hold=False)",
    ),
    (
        PerceptionOutput(None, False, 0.0, 1.0, False, False),
        "PerceptionOutput(box=None, hold=False, score=0.0, region_scale=1.0,"
        " failure_state=False, initialized=False)",
    ),
    (
        RunSummary(0.5, math.nan, 1.25, 2.0, 3.0, 4.0, 0.75, 2, (3, 40), 0.1),
        "RunSummary(settling_time_e_u=0.5, settling_time_e_v=nan, settling_time_e_v2=1.25,"
        " rms_e_u=2.0, rms_e_v=3.0, rms_e_v2=4.0, mean_abs_height_error=0.75,"
        " failure_episodes=2, reacquisition_latencies=(3, 40), saturation_duty_cycle=0.1)",
    ),
]
CONFIG_SECTIONS = (
    CameraIntrinsics, BodyModel, ControllerGains, SaturationLimits, JointLimits,
    NoiseModel, CircleTrajectory, LineTrajectory, WaypointTrajectory,
    ScenarioConfig,
)


@pytest.mark.parametrize("record, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_per_tick_record_is_a_read_only_named_tuple(record, text):
    assert isinstance(record, tuple) and type(record)._fields
    assert not dataclasses.is_dataclass(record)
    for name in [*record._fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
    assert repr(record) == text


@pytest.mark.parametrize("cls", CONFIG_SECTIONS, ids=lambda c: c.__name__)
def test_config_section_is_a_frozen_dataclass(cls):
    assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen


@pytest.mark.parametrize(
    "v, v2", [(240.0, 240.0), (240.0, 250.0), (math.nan, 140.0), (240.0, math.nan)]
)
def test_box_rejects_a_top_row_not_above_the_center(v, v2):
    message = f"^{re.escape(f'box top row v2={v2} must lie above center v={v}')}$"
    with pytest.raises(ValueError, match=message):
        BoxMeasurement(320.0, v, v2)
    with pytest.raises(ValueError, match=message):
        BoxMeasurement(320.0, 240.0, 140.0)._replace(v=v, v2=v2)


RUNS = {
    **{name: PRESETS[name] for name in ("circle-sim", "indoor", "outdoor")},
    "noisy-walk": lambda: parse_config(NOISY_WALK),
}


def _named_tuples(value):
    if isinstance(value, tuple):
        if hasattr(type(value), "_fields"):
            yield value
        for item in value:
            yield from _named_tuples(item)


@pytest.mark.parametrize("name", RUNS)
def test_every_record_of_a_run_is_whole(name, monkeypatch):
    # a record built with tuple.__new__ that leaves out a defaulted field
    # (ControlCommand.hold, say) would be one item short
    handed = []

    def spy(owner, attr):
        fn = getattr(owner, attr)

        def wrapper(*args):
            result = fn(*args)
            handed.append((attr, args, result))
            return result

        monkeypatch.setattr(owner, attr, wrapper)

    spy(controller, "jacobian_terms")
    spy(PerceptionPipeline, "step")
    spy(FollowController, "step")
    runner.run_scenario(RUNS[name]())

    records = {id(rec): rec for rec in _named_tuples(tuple(handed))}
    kinds = {type(rec).__name__ for rec in records.values()}
    # exactly these, each read by field name outside the loop (the benchmark's
    # trace, the acceptance suite): a record built per tick only to be taken
    # apart by position fails
    assert kinds == {"ControlCommand", "PerceptionOutput", "SaturationFlags"}
    # the runner renders and integrates inline: PerceptionPipeline.step(self,
    # truth, t, rng) gets each rendered box, FollowController.step(self, box,
    # angles, hold, err) each integrated angle pair and the errors
    boxes = [args[1] for fn, args, _ in handed if fn == "step" and len(args) == 4]
    boxes = [box for box in boxes if box is not None]
    controls = [args for fn, args, _ in handed if fn == "step" and len(args) == 5]
    angles = [args[2] for args in controls]
    errors = [args[4] for args in controls if args[4] is not None]
    assert boxes and angles and errors
    assert all(type(box) is tuple and len(box) == 3 for box in boxes)
    assert all(type(pair) is tuple and len(pair) == 2 for pair in angles)
    assert all(type(err) is tuple and len(err) == 3 for err in errors)
    for rec in records.values():
        cls = type(rec)
        assert len(rec) == len(cls._fields), rec
        assert repr(rec) == repr(cls(*rec))
