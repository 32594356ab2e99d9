"""Scenario presets, YAML parsing with strict validation, and the CLI."""

import csv
import dataclasses
import json
import math
import re
import sys
import time
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from ptfollow import cli
from ptfollow.cli import main
from ptfollow.config import (
    MAX_FLOW_DEPTH,
    MAX_TICKS,
    ConfigError,
    PRESETS,
    TRAJECTORIES,
    ScenarioConfig,
    load_config,
    parse_config,
    preset_circle_sim,
    preset_indoor,
    preset_outdoor,
    resolve_scenario,
    signed_lambdas,
)
from ptfollow.controller import DEADBAND_HALF_WIDTH, ControllerGains, SaturationLimits
from ptfollow.geometry import FIELD_CHECKS, CameraIntrinsics, JointLimits, PanTiltAngles
from ptfollow.perception import NoiseModel, RecoveryPolicy
from ptfollow.runner import run_scenario, summarize_run
from ptfollow.simworld import (
    BodyModel,
    CircleTrajectory,
    LineTrajectory,
    WaypointTrajectory,
    render_measurement,
)

REPO = Path(__file__).resolve().parent.parent
README = REPO / "README.md"

# Scenario-file section -> the class whose fields are its keys (a dataclass,
# or the NamedTuple PanTiltAngles).
SECTIONS = {
    "intrinsics": CameraIntrinsics,
    "body": BodyModel,
    "gains": ControllerGains,
    "saturation": SaturationLimits,
    "joints": JointLimits,
    "noise": NoiseModel,
    "initial_angles": PanTiltAngles,
}
TRAJECTORY_SAMPLES = {
    "circle": CircleTrajectory(),
    "line": LineTrajectory(),
    "waypoints": WaypointTrajectory(points=((1.0, 0.0), (2.0, 1.0))),
}


class TestPresets:
    def test_circle_sim(self):
        cfg = preset_circle_sim()
        assert cfg.gains.target_half_height == 100.0
        assert isinstance(cfg.trajectory, CircleTrajectory)
        assert cfg.trajectory.center == (0.5, 0.5)
        assert cfg.trajectory.radius == 0.4
        assert cfg.robot_start == (-4.4, 0.5, 0.0)  # 4.5 m behind the person, facing it
        assert cfg.dt == 0.02 and cfg.duration == 60.0
        # exact inverse offsets from the default body geometry
        assert cfg.gains.lambda1 == pytest.approx(-5.0)
        assert cfg.gains.lambda2 == pytest.approx(-1.0 / 1.1)

    def test_indoor(self):
        cfg = preset_indoor()
        assert cfg.gains.target_half_height == 200.0
        assert cfg.trajectory.start == (2.5, 0.0)
        assert abs(cfg.gains.lambda1) == pytest.approx(5.0)
        assert abs(cfg.gains.lambda2) == pytest.approx(0.91)

    def test_outdoor(self):
        cfg = preset_outdoor()
        assert cfg.gains.target_half_height == 120.0
        assert abs(cfg.gains.lambda1) == pytest.approx(5.0)
        assert abs(cfg.gains.lambda2) == pytest.approx(0.91)

    def test_registry(self):
        assert set(PRESETS) == {"circle-sim", "indoor", "outdoor"}

    @pytest.mark.parametrize("name", PRESETS)
    def test_renders_a_box_at_tick_0(self, name):
        cfg = PRESETS[name]()
        world = (cfg.robot_start, cfg.initial_angles, cfg.trajectory.position(0.0))
        assert render_measurement(*world, cfg.body, cfg.intrinsics) is not None


def _rejected_in_file(tmp_path, capsys, message, data):
    """A scenario file of ``data`` exits 2 with ``message`` and writes nothing."""
    scenario = tmp_path / "bad.yaml"
    scenario.write_text(json.dumps(data))  # JSON is YAML
    assert main(["--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"ptfollow: configuration error: {message}\n"
    assert not (tmp_path / "out").exists()


def _rejected_in_code_and_file(tmp_path, capsys, message, data, build):
    """``build()`` and a scenario file of ``data`` both fail with ``message``."""
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build()
    _rejected_in_file(tmp_path, capsys, message, data)


@pytest.mark.parametrize(
    "half_height, v0", [(240.0, 240.0), (500.0, 240.0), (100.0, 100.0), (100.0, 0.0)]
)
def test_reference_the_image_cannot_hold_rejected_naming_both_fields(
    tmp_path, capsys, half_height, v0
):
    # a zero-error box has its head-top row at v0 - target_half_height
    message = (
        f"gains.target_half_height: must be below intrinsics.v0 ({v0!r} px), got {half_height!r}"
    )
    gains, intrinsics = {"target_half_height": half_height}, {"v0": v0}
    _rejected_in_code_and_file(
        tmp_path, capsys, message, {"gains": gains, "intrinsics": intrinsics},
        lambda: ScenarioConfig(
            gains=ControllerGains(**gains), intrinsics=CameraIntrinsics(**intrinsics)
        ),
    )


def test_reference_just_below_v0_accepted():
    cfg = ScenarioConfig(gains=ControllerGains(target_half_height=math.nextafter(240.0, 0.0)))
    assert cfg.intrinsics.v0 == 240.0


@pytest.mark.parametrize("k, dt", [(4.0, 0.5), (100.0, 0.02), (1e300, 0.02)])
@pytest.mark.parametrize("gain", ["k1", "k2", "k3"])
def test_gain_the_time_step_cannot_follow_rejected_naming_both_fields(
    tmp_path, capsys, gain, k, dt
):
    # an Euler step of de/dt = -k e maps e to (1 - k dt) e, which no longer
    # shrinks from k dt = 2 on
    message = f"gains.{gain}: {gain} * dt must be below 2, got {k!r} at dt {dt!r}"
    _rejected_in_code_and_file(
        tmp_path, capsys, message, {"gains": {gain: k}, "dt": dt},
        lambda: ScenarioConfig(gains=ControllerGains(**{gain: k}), dt=dt),
    )


def test_gain_just_below_two_over_dt_accepted(tmp_path):
    k = math.nextafter(4.0, 0.0)  # k * 0.5 is exact: the float just below 2
    path = tmp_path / "edge.yaml"
    path.write_text(json.dumps({"gains": {"k1": k, "k2": k, "k3": k}, "dt": 0.5}))
    gains = ControllerGains(k1=k, k2=k, k3=k)
    assert load_config(path) == ScenarioConfig(name="edge", gains=gains, dt=0.5)


@pytest.mark.parametrize("alpha_max", [0.5, math.nextafter(DEADBAND_HALF_WIDTH, 0.0)])
def test_pan_limit_inside_the_yaw_deadband_rejected_naming_both_fields(
    tmp_path, capsys, alpha_max
):
    # the base turns only while the pan is past the deadband
    message = (
        f"joints.alpha_max: must be at least controller.DEADBAND_HALF_WIDTH"
        f" ({DEADBAND_HALF_WIDTH!r} rad), got {alpha_max!r}"
    )
    _rejected_in_code_and_file(
        tmp_path, capsys, message, {"joints": {"alpha_max": alpha_max}},
        lambda: ScenarioConfig(joints=JointLimits(alpha_max=alpha_max)),
    )


@pytest.mark.parametrize("alpha_max", [DEADBAND_HALF_WIDTH, 0.6])
def test_pan_limit_at_the_yaw_deadband_accepted(tmp_path, alpha_max):
    # the deadband test is strict, so a pan clamped at pi/6 still turns the base
    path = tmp_path / "edge.yaml"
    path.write_text(json.dumps({"joints": {"alpha_max": alpha_max}}))
    expected = ScenarioConfig(name="edge", joints=JointLimits(alpha_max=alpha_max))
    assert load_config(path) == expected


def _circle_overflow_message(rate, phase, duration):
    return (
        f"trajectory.rate: |rate| * duration + |phase| must be finite, got rate"
        f" {rate!r} and phase {phase!r} at duration {duration!r}"
    )


@pytest.mark.parametrize(
    "rate, phase, duration",
    [
        (1e308, 0.0, 3.0),  # rate * t passes the float range near t = 1.8 s
        (-1e308, 0.0, 3.0),
        # neither term alone is out of range, their sum is from t = 0.8 s on
        (1e308, 1e308, 1.0),
        (-1e308, -1e308, 1.0),
    ],
)
def test_circle_angle_past_the_float_range_rejected_naming_both_fields(
    tmp_path, capsys, rate, phase, duration
):
    # math.cos of an infinite angle raises mid-run
    traj = {"rate": rate, "phase": phase}
    _rejected_in_code_and_file(
        tmp_path, capsys, _circle_overflow_message(rate, phase, duration),
        {"trajectory": {"kind": "circle", **traj}, "duration": duration},
        lambda: ScenarioConfig(trajectory=CircleTrajectory(**traj), duration=duration),
    )


@pytest.mark.parametrize("rate, phase", [(1e307, 0.0), (1.0, sys.float_info.max)])
def test_circle_angle_inside_the_float_range_runs(tmp_path, rate, phase):
    path = tmp_path / "edge.yaml"
    traj = {"kind": "circle", "rate": rate, "phase": phase}
    path.write_text(json.dumps({"trajectory": traj, "duration": 3.0}))
    assert main(["--scenario", str(path), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize(
    "center, radius", [((-1e308, 0.0), 1e308), ((0.5, 1e308), 1e308), ((0.0, -1.7e308), 1e307)]
)
def test_circle_past_the_float_range_rejected_naming_its_radius(
    tmp_path, capsys, center, radius
):
    # a coordinate of the walk reaches |center| + radius, which would write
    # an infinite target into the log
    message = (
        f"radius: |center| + radius must be finite on each axis, got center"
        f" {list(center)} and radius {radius!r}"
    )
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        CircleTrajectory(center=center, radius=radius)
    traj = {"kind": "circle", "center": list(center), "radius": radius}
    _rejected_in_file(tmp_path, capsys, f"trajectory.{message}", {"trajectory": traj})


@pytest.mark.parametrize(
    "points, i, length",
    [
        ([[1e308, 0.0], [-1e308, 0.0]], 1, math.inf),  # x1 - x0 overflows
        ([[0.0, 0.0], [1.0, 1.0], [1.5e308, 1.5e308]], 2, math.inf),  # the hypotenuse does
    ],
)
def test_waypoint_segment_past_the_float_range_rejected_naming_its_point(
    tmp_path, capsys, points, i, length
):
    # an infinite segment length turns the interpolated target into NaN
    message = (
        f"points[{i}]: the segment from points[{i - 1}] must have a finite length,"
        f" got {length!r}"
    )
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        WaypointTrajectory(points=points)
    traj = {"kind": "waypoints", "points": points}
    _rejected_in_file(tmp_path, capsys, f"trajectory.{message}", {"trajectory": traj})


def _line_overflow_message(start, velocity, delay, duration):
    return (
        f"trajectory.velocity: |start| + |velocity| * (duration + max(0, -delay)) must be"
        f" finite on each axis, got start {list(start)}, velocity {list(velocity)} and"
        f" delay {delay!r} at duration {duration!r}"
    )


@pytest.mark.parametrize(
    "start, velocity, delay, duration",
    [
        ((1e308, 0.0), (1e308, 0.0), 0.0, 3.0),  # the target passes the float range at once
        ((0.0, -1e308), (0.0, -1e308), 0.0, 3.0),
        # 2.5 s of walk: a negative delay moves the start back in time
        ((0.0, 0.0), (0.0, 1e308), -2.0, 0.5),
    ],
)
def test_line_past_the_float_range_rejected_naming_its_velocity(
    tmp_path, capsys, start, velocity, delay, duration
):
    traj = {"start": start, "velocity": velocity, "delay": delay}
    _rejected_in_code_and_file(
        tmp_path, capsys, _line_overflow_message(start, velocity, delay, duration),
        {"trajectory": {"kind": "line", **traj}, "duration": duration},
        lambda: ScenarioConfig(trajectory=LineTrajectory(**traj), duration=duration),
    )


@pytest.mark.parametrize(
    "traj",
    [
        {"kind": "circle", "center": [-1e308, 1e308], "radius": 7e307},
        {"kind": "line", "start": [0.0, 0.0], "velocity": [0.0, 1e308], "delay": -0.5},
        {"kind": "waypoints", "points": [[8e307, 0.0], [-8e307, 0.0]]},
    ],
    ids=["circle", "line", "waypoints"],
)
def test_walk_inside_the_float_range_runs(tmp_path, traj):
    path = tmp_path / "edge.yaml"
    path.write_text(json.dumps({"trajectory": traj, "duration": 0.5}))
    assert main(["--scenario", str(path), "--out", str(tmp_path / "out")]) == 0


def _assert_runs_to_finite_commands_and_pose(tmp_path, alpha_x):
    path = tmp_path / "focal.yaml"
    path.write_text(
        "trajectory: {kind: waypoints, points: [[3.0, 0.0], [3.0, 0.0]]}\n"
        f"intrinsics: {{alpha_x: {alpha_x}}}\n"
        "duration: 2.0\n"
    )
    out = tmp_path / "out"
    assert main(["--scenario", str(path), "--out", str(out)]) == 0
    with open(out / "timeseries.csv") as fh:
        rows = list(csv.DictReader(fh))
    columns = (
        "V_r", "omega_r", "omega_alpha", "omega_beta", "robot_x", "robot_y", "theta",
        "alpha", "beta",
    )
    assert len(rows) == 100 and sum(not math.isnan(float(row["h"])) for row in rows) > 90
    assert [
        (i, name) for i, row in enumerate(rows) for name in columns
        if not math.isfinite(float(row[name]))
    ] == []


def test_float_maximum_focal_length_runs_to_finite_commands_and_pose(tmp_path):
    # the 2x2 determinant overflows to inf on the tracked ticks of this run
    # (the 3x3 denominator is NaN there); the guard takes it as singular, so
    # each is a hold tick, not a NaN command
    _assert_runs_to_finite_commands_and_pose(tmp_path, "1.7976931348623157e+308")


def test_overflowing_focal_length_runs_to_finite_commands_and_pose(tmp_path):
    # here the 3x3 denominator overflows to -inf, but g_h and the 2x2
    # determinant stay finite, so the loop solves and follows
    _assert_runs_to_finite_commands_and_pose(tmp_path, "1.0e+304")


@pytest.mark.parametrize(
    "scenario", [*PRESETS, str(REPO / "perfbench" / "scenarios" / "noisy-walk.yaml")],
    ids=[*PRESETS, "noisy-walk.yaml"],
)
def test_shipped_scenarios_pass_the_trajectory_bounds(tmp_path, scenario):
    out = tmp_path / "out"
    assert main(["--scenario", scenario, "--out", str(out), "--duration", "1.0"]) == 0
    assert (out / "summary.json").is_file()


class TestSignedLambdas:
    def test_derived_from_body(self):
        l1, l2 = signed_lambdas(BodyModel(), None, None)
        assert l1 == pytest.approx(-5.0)
        assert l2 == pytest.approx(-1.0 / 1.1)

    def test_magnitudes_get_geometric_sign(self):
        l1, l2 = signed_lambdas(BodyModel(), 5.0, 0.91)
        assert l1 == -5.0 and l2 == -0.91
        # already-signed values keep their magnitude, sign still normalized
        l1, _ = signed_lambdas(BodyModel(), -5.0, None)
        assert l1 == -5.0


class TestParseConfig:
    def test_defaults_from_empty_mapping(self):
        cfg = parse_config({})
        assert cfg.dt == 0.02 and cfg.mode == "re-derived"

    def test_code_built_defaults_equal_parsed_defaults(self):
        assert ScenarioConfig() == parse_config({})
        # default gains take their lambdas from the config's own body
        tall = ScenarioConfig(body=BodyModel(head_height=2.0))
        assert tall == parse_config({"body": {"head_height": 2.0}})
        assert tall.gains.lambda1 == BodyModel(head_height=2.0).lambda1 == pytest.approx(-1 / 0.3)
        # and so do gains given without them, in code as in a file
        tall = ScenarioConfig(body=BodyModel(head_height=2.0), gains=ControllerGains(k1=0.4))
        assert tall == parse_config({"body": {"head_height": 2.0}, "gains": {"k1": 0.4}})
        assert tall.gains.lambda1 == BodyModel(head_height=2.0).lambda1

    def test_code_built_lambdas_get_the_body_sign(self):
        # the published magnitudes, as the indoor preset quotes them
        gains = ControllerGains(lambda1=5.0, lambda2=0.91, target_half_height=200.0)
        assert dataclasses.replace(preset_indoor(), gains=gains) == preset_indoor()

    def test_code_built_angles_take_a_plain_pair(self):
        # as robot_start takes a plain triple
        cfg = ScenarioConfig(initial_angles=(0.1, -0.2))
        assert type(cfg.initial_angles) is PanTiltAngles and cfg.initial_angles == (0.1, -0.2)
        assert cfg == parse_config({"initial_angles": {"alpha": 0.1, "beta": -0.2}})
        with pytest.raises(ConfigError, match=r"^initial_angles\.alpha: 2\.0 outside"):
            ScenarioConfig(initial_angles=[2.0, 0.0])

    @pytest.mark.parametrize("angles", [(0.1,), (0.1, 0.2, 0.3), 0.5, "ab", None])
    def test_code_built_angles_not_a_pair_rejected(self, angles):
        with pytest.raises(ConfigError, match=r"^initial_angles: expected a pair \(alpha, beta\)"):
            ScenarioConfig(initial_angles=angles)

    @pytest.mark.parametrize("start", [(0.0, 0.0), (0.0, 0.0, 0.0, 0.0), 0.5, "xyz", None])
    def test_code_built_start_not_a_triple_rejected(self, start):
        # a pair used to construct and then fail in run_scenario's unpacking
        with pytest.raises(ConfigError, match=r"^robot_start: expected a triple \(x, y, theta\)"):
            ScenarioConfig(robot_start=start, duration=0.2)

    def test_code_built_start_takes_a_list(self):
        cfg = ScenarioConfig(robot_start=[1.0, -2.0, 0.5])
        assert type(cfg.robot_start) is tuple and cfg.robot_start == (1.0, -2.0, 0.5)
        assert cfg == parse_config({"robot_start": {"x": 1.0, "y": -2.0, "theta": 0.5}})

    def test_tick_count_capped(self):
        assert ScenarioConfig(dt=1.0, duration=float(MAX_TICKS)).n_ticks == MAX_TICKS
        with pytest.raises(ConfigError, match=f"^duration: .* above the cap of {MAX_TICKS}"):
            ScenarioConfig(dt=1.0, duration=float(MAX_TICKS + 1))
        with pytest.raises(ConfigError, match="60000000000 ticks"):
            ScenarioConfig(dt=1e-9)

    def test_zero_dt_rejected_naming_field(self):
        with pytest.raises(ConfigError, match="dt"):
            parse_config({"dt": 0.0})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key 'dtt'"):
            parse_config({"dtt": 0.02})

    def test_unknown_nested_key_has_path(self):
        with pytest.raises(ConfigError, match="gains.k9"):
            parse_config({"gains": {"k9": 1.0}})

    def test_bad_trajectory_kind(self):
        with pytest.raises(ConfigError, match="trajectory.kind"):
            parse_config({"trajectory": {"kind": "spiral"}})

    def test_wrong_type_reported_with_path(self):
        with pytest.raises(ConfigError, match="intrinsics.alpha_x"):
            parse_config({"intrinsics": {"alpha_x": "fast"}})

    def test_full_round_trip(self, tmp_path):
        text = """
name: walk
intrinsics: {alpha_x: 400, alpha_y: 410, u0: 300, v0: 250, width: 600, height: 500}
body: {camera_height: 0.8, head_height: 1.7, body_center_height: 0.85}
gains: {k1: 0.4, k2: 0.3, k3: 0.2, target_half_height: 120, lambda1: 20.0, lambda2: 1.111}
saturation: {v_max: 1.0, omega_alpha_max: 1.4, omega_beta_max: 1.3, omega_r_max: 0.9}
joints: {alpha_max: 1.5, beta_max: 1.0}
trajectory:
  kind: waypoints
  points: [[3.0, 0.0], [3.0, 2.0]]
  speed: 0.5
  delay: 4.0
noise:
  sigma_px: 1.0
  occlusion_windows: [[4.0, 6.0]]
  dropout_prob: 0.1
robot_start: {x: 0.5, y: -0.5, theta: 0.25}
initial_angles: {alpha: 0.1, beta: -0.1}
dt: 0.01
duration: 12.0
seed: 7
"""
        path = tmp_path / "walk.yaml"
        path.write_text(text)
        expected = ScenarioConfig(
            name="walk",
            intrinsics=CameraIntrinsics(
                alpha_x=400.0, alpha_y=410.0, u0=300.0, v0=250.0, width=600, height=500
            ),
            body=BodyModel(camera_height=0.8, body_center_height=0.85, head_height=1.7),
            # lambda magnitudes get the sign of the body geometry (points above
            # the camera are negative)
            gains=ControllerGains(
                k1=0.4, k2=0.3, k3=0.2, lambda1=-20.0, lambda2=-1.111,
                target_half_height=120.0,
            ),
            saturation=SaturationLimits(
                v_max=1.0, omega_alpha_max=1.4, omega_beta_max=1.3, omega_r_max=0.9
            ),
            joints=JointLimits(alpha_max=1.5, beta_max=1.0),
            trajectory=WaypointTrajectory(
                points=((3.0, 0.0), (3.0, 2.0)), speed=0.5, delay=4.0
            ),
            noise=NoiseModel(
                sigma_px=1.0, occlusion_windows=((4.0, 6.0),), dropout_prob=0.1
            ),
            robot_start=(0.5, -0.5, 0.25),
            initial_angles=PanTiltAngles(alpha=0.1, beta=-0.1),
            dt=0.01,
            duration=12.0,
            seed=7,
        )
        assert load_config(path) == expected

    @pytest.mark.parametrize(
        "data",
        [{section: {}} for section in [*SECTIONS, "robot_start"]]
        + [{"trajectory": {"kind": "circle"}}]  # the kind is required
        + [{"body": {"body_center_height": None}}]  # null derives it, as None does in code
        + [{"gains": {"lambda1": None, "lambda2": None}}],  # and these from the body
        ids=str,
    )
    def test_empty_section_keeps_defaults(self, data):
        assert parse_config(data) == parse_config({})

    def test_schema_covers_every_config_field(self):
        top_level = {"name", "trajectory", "robot_start", "dt", "duration", "seed"}
        assert {f.name for f in dataclasses.fields(ScenarioConfig)} == set(SECTIONS) | top_level
        assert set(TRAJECTORY_SAMPLES) == set(TRAJECTORIES)
        # the loop's coefficient block and the failure-recovery numbers are
        # class constants, not fields
        assert ScenarioConfig.mode == "re-derived"
        with pytest.raises(TypeError):
            ScenarioConfig(mode="as-printed")
        recovery = preset_circle_sim().recovery
        assert recovery is RecoveryPolicy
        assert (recovery.th_low, recovery.th_high) == (0.4, 0.8)
        assert (recovery.step_s, recovery.search_dilation) == (0.5, 2.0)
        with pytest.raises(TypeError):
            ScenarioConfig(recovery=RecoveryPolicy)

    @pytest.mark.parametrize("section", SECTIONS)
    def test_every_section_field_is_a_key(self, section):
        sample = SECTIONS[section]()
        names = getattr(sample, "_fields", None) or [f.name for f in dataclasses.fields(sample)]
        # what the sample gives in a code-built config: the lambdas, None in
        # the sample, are derived from the body there
        expected = getattr(ScenarioConfig(**{section: sample}), section)
        for name in names:
            cfg = parse_config({section: {name: _as_yaml(getattr(sample, name))}})
            assert getattr(getattr(cfg, section), name) == getattr(expected, name), name

    @pytest.mark.parametrize("kind", TRAJECTORY_SAMPLES)
    def test_every_trajectory_field_is_a_key(self, kind):
        sample = TRAJECTORY_SAMPLES[kind]
        for f in dataclasses.fields(sample):
            given = {"kind": kind, f.name: _as_yaml(getattr(sample, f.name))}
            if kind == "waypoints":
                given.setdefault("points", _as_yaml(sample.points))
            cfg = parse_config({"trajectory": given})
            assert getattr(cfg.trajectory, f.name) == getattr(sample, f.name), f.name

    def test_top_level_fields_are_keys(self):
        given = {"name": "n", "dt": 0.01, "duration": 2.0, "seed": 3}
        cfg = parse_config(given)
        assert {key: getattr(cfg, key) for key in given} == given
        pose = parse_config({"robot_start": {"x": 1.0, "y": 2.0, "theta": 0.5}})
        assert pose.robot_start == (1.0, 2.0, 0.5)

    @pytest.mark.parametrize(
        "data, path",
        [
            ({"search_dilation": 2.0}, "search_dilation"),
            ({"step_s": 0.5}, "step_s"),
            ({"joint_limits": {}}, "joint_limits"),
            ({"robot_start": {"z": 0.0}}, "robot_start.z"),
            # the tracker scores and the failure-recovery numbers are constants
            ({"noise": {"score_occluded": 0.5}}, "noise.score_occluded"),
            ({"noise": {"score_visible": 0.7}}, "noise.score_visible"),
            ({"recovery": {}}, "recovery"),
            ({"recovery": {"step_s": 0.5, "search_dilation": 2.0}}, "recovery"),
            ({"recovery": {"th_low": 0.9}}, "recovery"),
            # and so is the loop's coefficient block
            ({"mode": "re-derived"}, "mode"),
        ],
    )
    def test_non_schema_keys_rejected(self, tmp_path, capsys, data, path):
        with pytest.raises(ConfigError, match=re.escape(f"unknown key '{path}'")):
            parse_config(data)
        scenario = tmp_path / "bad.yaml"
        scenario.write_text(json.dumps(data))  # JSON is YAML
        assert main(["--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
        assert f"unknown key '{path}'" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("dt: [unclosed")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("duration: 1.0\nduration: 2.0\n", "duration: given twice, on lines 1 and 2"),
            (
                "noise:\n  sigma_px: 1.0\n  dropout_prob: 0.1\n  sigma_px: 2.0\n",
                "noise.sigma_px: given twice, on lines 2 and 4",
            ),
            ("noise: {sigma_px: 1.0, sigma_px: 2.0}\n", "noise.sigma_px: given twice, on lines 1 and 1"),
            (
                "trajectory:\n  kind: waypoints\n  points: [[0, 0], {x: 1, x: 2}]\n",
                "trajectory.points[1].x: given twice, on lines 3 and 3",
            ),
        ],
        ids=["top-level", "nested", "flow", "in-a-list"],
    )
    def test_repeated_key_rejected(self, tmp_path, capsys, text, message):
        path = tmp_path / "dup.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)
        assert main(["--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    def test_merge_key_may_be_overridden(self, tmp_path):
        path = tmp_path / "merge.yaml"
        path.write_text("noise: {<<: {sigma_px: 1.0, dropout_prob: 0.1}, sigma_px: 2.0}\n")
        noise = load_config(path).noise
        assert (noise.sigma_px, noise.dropout_prob) == (2.0, 0.1)

    def test_recursive_alias_is_a_config_error(self, tmp_path):
        path = tmp_path / "loop.yaml"
        path.write_text("name: &a [*a]\n")
        with pytest.raises(ConfigError, match="^name: expected a string"):
            load_config(path)

    @pytest.mark.parametrize(
        "text, where",
        [
            # flow collections: the scanner stops at the first level past the bound
            ("a: " + "[\n" * 5000 + "]" * 5000 + "\n", "line 101, column 1"),
            ("{b: " * 5000 + "1" + "}" * 5000 + "\n", "line 1, column 401"),
            ("a: " + "[" * 5000 + "]" * 5000 + "\n", "line 1, column 104"),
            # block sequences have no bound of their own: the composer's recursion is
            ("- " * 5000 + "1\n", None),
        ],
        ids=["sequence", "mapping", "one-line", "block"],
    )
    def test_deep_nesting_is_a_config_error(self, tmp_path, capsys, text, where):
        path = tmp_path / "deep.yaml"
        path.write_text(text)
        message = f"{path}: invalid YAML: nested too deeply"
        if where is not None:
            message = (
                f"{path}: invalid YAML: flow collections nested deeper than {MAX_FLOW_DEPTH}"
                f' levels\n  in "{path}", {where}'
            )
        start = time.perf_counter()
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)
        # the scanner stops at the bound, so even one line of 5000 levels is quick
        assert time.perf_counter() - start < 0.5
        assert main(["--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"ptfollow: configuration error: {message}\n"

    def test_flow_nesting_up_to_the_bound_is_read(self, tmp_path):
        path = tmp_path / "deep.yaml"
        path.write_text("a: " + "[" * MAX_FLOW_DEPTH + "]" * MAX_FLOW_DEPTH + "\n")
        with pytest.raises(ConfigError, match="^unknown key 'a'$"):  # read, then rejected
            load_config(path)

    def test_resolve_prefers_presets(self):
        assert resolve_scenario("circle-sim").name == "circle-sim"


def _as_yaml(value):
    """A field value as the YAML loader would produce it (lists for tuples)."""
    return [_as_yaml(v) for v in value] if isinstance(value, tuple) else value


BAD_INPUTS = [
    # non-finite numbers, one or more per section
    ("intrinsics: {alpha_x: .nan}", "intrinsics.alpha_x"),
    ("intrinsics: {width: .inf}", "intrinsics.width"),
    ("body: {head_height: .inf}", "body.head_height"),
    ("gains: {k1: .nan}", "gains.k1"),
    ("gains: {lambda2: -.inf}", "gains.lambda2"),
    ("saturation: {v_max: .inf}", "saturation.v_max"),
    ("joints: {beta_max: .nan}", "joints.beta_max"),
    ("trajectory: {kind: circle, radius: .nan}", "trajectory.radius"),
    ("trajectory: {kind: line, velocity: [.inf, 0]}", "trajectory.velocity[0]"),
    ("noise: {sigma_px: .inf}", "noise.sigma_px"),
    ("noise: {occlusion_windows: [[1.0, .inf]]}", "noise.occlusion_windows[0][1]"),
    ("robot_start: {theta: .inf}", "robot_start.theta"),
    ("initial_angles: {alpha: .nan}", "initial_angles.alpha"),
    ("dt: .nan", "dt"),
    ("duration: .inf", "duration"),
    ("dt: 1" + "0" * 400, "dt"),  # an integer beyond the float range
    # null values
    ("dt: null", "dt"),
    ("seed: null", "seed"),
    ("name: null", "name"),
    ("gains: {k1: null}", "gains.k1"),
    ("noise: null", "noise"),
    ("trajectory: {kind: line, start: null}", "trajectory.start"),
    ("robot_start: {x: null}", "robot_start.x"),
    # strings and bools inside pairs
    ("trajectory: {kind: line, start: [a, 1]}", "trajectory.start[0]"),
    ("trajectory: {kind: circle, center: [0.5, true]}", "trajectory.center[1]"),
    ("trajectory: {kind: waypoints, points: [[1, 2], [false, 1]]}", "trajectory.points[1][0]"),
    ("noise: {occlusion_windows: [[1.0, x]]}", "noise.occlusion_windows[0][1]"),
    # limits that must be positive
    ("saturation: {v_max: -1}", "saturation.v_max"),
    ("saturation: {omega_r_max: 0}", "saturation.omega_r_max"),
    ("joints: {alpha_max: -1}", "joints.alpha_max"),
    # initial angles outside the joint range
    ("initial_angles: {alpha: 10.0}", "initial_angles.alpha"),
    ("initial_angles: {beta: -1.1}", "initial_angles.beta"),
    ("{joints: {alpha_max: 0.6}, initial_angles: {alpha: 0.7}}", "initial_angles.alpha"),
    # invariants a section's dataclass checks on its own fields
    ("gains: {k1: -1}", "gains.k1"),
    ("gains: {target_half_height: 0}", "gains.target_half_height"),
    ("gains: {lambda1: 0}", "gains.lambda1"),
    ("intrinsics: {alpha_x: 0}", "intrinsics.alpha_x"),
    ("intrinsics: {u0: 700}", "intrinsics.u0"),
    ("intrinsics: {width: 0}", "intrinsics.width"),
    ("intrinsics: {height: -480}", "intrinsics.height"),
    ("body: {camera_height: 2.0}", "body.camera_height"),
    ("body: {camera_height: 0.9}", "body.camera_height"),  # level with the body center
    ("body: {body_center_height: 1.0}", "body.body_center_height"),
    ("noise: {sigma_px: -1}", "noise.sigma_px"),
    ("noise: {dropout_prob: 1.5}", "noise.dropout_prob"),
    ("noise: {occlusion_windows: [[0.0, 1.0], [2.0, 2.0]]}", "noise.occlusion_windows[1]"),
    ("noise: {occlusion_windows: [[2.0, 4.0], [1.0, 3.0]]}", "noise.occlusion_windows"),
    ("trajectory: {kind: circle, radius: 0}", "trajectory.radius"),
    ("trajectory: {kind: waypoints, points: [[1, 0]], speed: -1}", "trajectory.speed"),
]


@pytest.mark.parametrize("text, path", BAD_INPUTS)
def test_bad_input_is_config_error_naming_its_path(tmp_path, capsys, text, path):
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}:"):
        parse_config(yaml.safe_load(text))
    scenario = tmp_path / "bad.yaml"
    scenario.write_text(text)
    assert main(["--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert path in capsys.readouterr().err


nan, inf = math.nan, math.inf

# Non-finite values in configs built in code, which a scenario file cannot
# give; each must fail its dataclass's check naming the field or item as a
# scenario file would, not run on.  Rows are (build, path[, test id]).
NON_FINITE_IN_CODE = [
    (lambda: ControllerGains(lambda1=nan), "lambda1"),
    (lambda: ControllerGains(lambda2=-inf), "lambda2"),
    (lambda: ControllerGains(target_half_height=inf), "target_half_height"),
    (lambda: ControllerGains(k2=nan), "k2"),
    (lambda: CircleTrajectory(rate=nan), "rate"),
    (lambda: CircleTrajectory(center=(0.5, inf)), "center[1]", "center"),
    (lambda: CircleTrajectory(phase=-inf), "phase"),
    (lambda: LineTrajectory(velocity=(inf, 0.0)), "velocity[0]", "velocity"),
    (lambda: LineTrajectory(delay=nan), "delay"),
    (lambda: WaypointTrajectory(points=((0.0, 0.0), (nan, 1.0))), "points[1][0]", "points"),
    (lambda: WaypointTrajectory(points=[[0.0, 0.0], [1.0, inf]]), "points[1][1]", "points"),
    (lambda: WaypointTrajectory(points=((0.0, 0.0),), speed=inf), "speed"),
    (lambda: ScenarioConfig(robot_start=(nan, 0.0, 0.0)), "robot_start.x", "robot_start"),
    (lambda: ScenarioConfig(robot_start=(0.0, 0.0, inf)), "robot_start.theta", "robot_start"),
    (lambda: ScenarioConfig(seed=nan), "seed"),
    (lambda: ScenarioConfig(initial_angles=(nan, 0.0)), "initial_angles.alpha"),
    (lambda: ScenarioConfig(initial_angles=PanTiltAngles(0.0, nan)), "initial_angles.beta"),
    (lambda: SaturationLimits(v_max=inf), "v_max"),
    (lambda: CameraIntrinsics(alpha_x=inf), "alpha_x"),
    (lambda: CameraIntrinsics(height=nan), "height"),
    (lambda: BodyModel(head_height=inf), "head_height"),
    (lambda: BodyModel(head_height=nan), "head_height"),
    (lambda: BodyModel(body_center_height=nan), "body_center_height"),
    (lambda: JointLimits(alpha_max=inf), "alpha_max"),
    (lambda: NoiseModel(sigma_px=inf), "sigma_px"),
]


# Values of the wrong type in configs built in code, which a scenario file
# rejects by the field's annotation; the code path must reject them too, with
# the same path.
WRONG_TYPE_IN_CODE = [
    (lambda: CameraIntrinsics(width=640.5), "width", "width-float"),
    (lambda: CameraIntrinsics(alpha_x="5"), "alpha_x", "alpha_x-string"),
    (lambda: SaturationLimits(v_max=True), "v_max", "v_max-bool"),
    (lambda: NoiseModel(dropout_prob=True), "dropout_prob", "dropout_prob-bool"),
    (lambda: NoiseModel(occlusion_windows=[(1.0,)]), "occlusion_windows[0]", "window-not-a-pair"),
    (lambda: ScenarioConfig(name=5), "name", "name-int"),
    (lambda: ScenarioConfig(robot_start=(0, 0, True)), "robot_start.theta", "robot_start-bool"),
    (lambda: ScenarioConfig(robot_start=(0, 0, "x")), "robot_start.theta", "robot_start-string"),
    (lambda: ScenarioConfig(initial_angles=("a", 0)), "initial_angles.alpha", "initial_angles-string"),
    # a section holds an instance of its class
    (lambda: ScenarioConfig(body="tall"), "body", "body-string"),
    (lambda: ScenarioConfig(trajectory=None, duration=1.0), "trajectory", "trajectory-none"),
]


@pytest.mark.parametrize(
    "build, field",
    [
        pytest.param(build, field, id=test_id[0] if test_id else field)
        for build, field, *test_id in NON_FINITE_IN_CODE + WRONG_TYPE_IN_CODE
    ],
)
def test_non_finite_value_in_code_rejected_naming_its_field(build, field):
    with pytest.raises(ValueError, match=f"^{re.escape(field)}: "):
        build()


def test_section_of_another_class_in_code_is_a_config_error():
    with pytest.raises(ConfigError, match=r"^body: expected a BodyModel, got 'tall'$"):
        ScenarioConfig(body="tall")
    with pytest.raises(ConfigError, match=r"^trajectory: expected a TargetTrajectory, got None$"):
        ScenarioConfig(trajectory=None, duration=1.0)


# one value per rule a config class checks in __post_init__ beyond its fields'
# annotations, with the field the error names
SECTION_RULES = [
    (lambda: CameraIntrinsics(u0=-1.0), "u0", "u0"),
    (lambda: CameraIntrinsics(v0=480.0), "v0", "v0"),
    (lambda: BodyModel(camera_height=5.0), "camera_height", "camera_height"),
    (lambda: BodyModel(body_center_height=1.0), "body_center_height", "body_center_height"),
    (lambda: ControllerGains(lambda1=0.0), "lambda1", "lambda1"),
    (lambda: NoiseModel(sigma_px=-1.0), "sigma_px", "sigma_px"),
    (lambda: NoiseModel(dropout_prob=1.5), "dropout_prob", "dropout_prob"),
    (lambda: NoiseModel(occlusion_windows=[(2.0, 1.0)]), "occlusion_windows[0]", "window-empty"),
    (
        lambda: NoiseModel(occlusion_windows=[(0.0, 2.0), (1.0, 3.0)]),
        "occlusion_windows",
        "windows-overlap",
    ),
    (lambda: WaypointTrajectory(points=()), "points", "points"),
]


@pytest.mark.parametrize(
    "build, field", [pytest.param(build, field, id=i) for build, field, i in SECTION_RULES]
)
def test_section_rule_in_code_is_a_config_error(build, field):
    with pytest.raises(ConfigError, match=f"^{re.escape(field)}: "):
        build()


# Every config dataclass: the section classes, the trajectories and the root.
CONFIG_CLASSES = [
    *(cls for cls in SECTIONS.values() if dataclasses.is_dataclass(cls)),
    *TRAJECTORIES.values(),
    ScenarioConfig,
]


def test_every_config_field_has_a_validator_or_is_a_section():
    # check_fields takes a field it has no validator for as a section, which
    # must hold an instance of the class its annotation names in the owner's
    # module; so only ScenarioConfig has sections, each a config class, and a
    # new annotation elsewhere must be added to FIELD_CHECKS
    defaults = ScenarioConfig()
    for cls in CONFIG_CLASSES:
        namespace = vars(sys.modules[cls.__module__])
        for f in dataclasses.fields(cls):
            kind = f.type.removesuffix(" | None")
            if kind in FIELD_CHECKS:
                continue
            assert cls is ScenarioConfig, (cls.__name__, f.name)
            section = getattr(defaults, f.name)
            assert isinstance(section, namespace[kind]), f.name
            assert type(section) in CONFIG_CLASSES, f.name


# (section, key) of every field that takes only a number > 0; the section is
# named as in a scenario file, a trajectory by its kind, the root by None.
POSITIVE_FIELDS = [
    *(("intrinsics", key) for key in ("alpha_x", "alpha_y", "width", "height")),
    ("joints", "alpha_max"),
    ("joints", "beta_max"),
    ("body", "head_height"),
    *(("gains", key) for key in ("k1", "k2", "k3", "target_half_height")),
    *(("saturation", f.name) for f in dataclasses.fields(SaturationLimits)),
    ("circle", "radius"),
    ("waypoints", "speed"),
    (None, "dt"),
]


def _owner(section):
    return ScenarioConfig if section is None else TRAJECTORIES.get(section) or SECTIONS[section]


def test_fields_annotated_positive_are_exactly_these():
    annotated = {
        (cls, f.name)
        for cls in CONFIG_CLASSES
        for f in dataclasses.fields(cls)
        if f.type in ("PositiveFloat", "PositiveInt")
    }
    assert annotated == {(_owner(section), key) for section, key in POSITIVE_FIELDS}


@pytest.mark.parametrize("value", [0, -0.0, -1])
@pytest.mark.parametrize(
    "section, key", POSITIVE_FIELDS, ids=[f"{s or 'root'}.{k}" for s, k in POSITIVE_FIELDS]
)
def test_value_not_above_zero_rejected_naming_its_field(tmp_path, capsys, section, key, value):
    cls = _owner(section)
    if {f.name: f.type for f in dataclasses.fields(cls)}[key] == "PositiveInt":
        reason = "expected an integer" if isinstance(value, float) else "must be a finite number > 0"
    else:
        reason, value = "must be a finite number > 0", float(value)
    message = f"{key}: {reason}, got {value!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        cls(**{**_required(section), key: value})
    if section is None:
        data = {key: value}
    elif section in TRAJECTORIES:
        data = {"trajectory": {"kind": section, **_required(section), key: value}}
        message = f"trajectory.{message}"
    else:
        data = {section: {key: value}}
        message = f"{section}.{message}"
    scenario = tmp_path / "bad.yaml"
    scenario.write_text(json.dumps(data))  # JSON is YAML
    assert main(["--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"ptfollow: configuration error: {message}\n"


# The top-level fields a scenario file gives as mappings of named numbers.
NAMED_KEYS = {"robot_start": ("x", "y", "theta"), "initial_angles": PanTiltAngles._fields}
# (section, key): every key of every section, of each trajectory kind and of
# NAMED_KEYS, and every other top-level field (section None).
LEAF_KEYS = [
    *((section, f.name) for section, cls in SECTIONS.items() if section not in NAMED_KEYS
      for f in dataclasses.fields(cls)),
    *((kind, f.name) for kind, cls in TRAJECTORIES.items() for f in dataclasses.fields(cls)),
    *((section, key) for section, keys in NAMED_KEYS.items() for key in keys),
    *((None, key) for key in ("name", "dt", "duration", "seed")),
]
SCALARS = st.one_of(
    st.integers(-3, 3),
    st.floats(),  # NaN and the infinities too
    st.sampled_from([0.25, 1.5, 2**64, 10**400, "1.0"]),
    st.booleans(),
    st.text(max_size=2),
    st.none(),
)
LEAF_VALUES = st.one_of(
    SCALARS, st.lists(SCALARS, max_size=3), st.lists(st.lists(SCALARS, max_size=3), max_size=3)
)
WAYPOINTS = [[0.0, 0.0], [1.0, 0.0]]


def _outcome(build):
    """(config, None) or (None, error message)."""
    try:
        return build(), None
    except ValueError as exc:
        return None, str(exc)


def _required(section):
    """The keys a section cannot go without: a waypoint walk's points."""
    return {"points": WAYPOINTS} if section == "waypoints" else {}


def _in_file(section, key, value):
    if section is None:
        data = {key: value}
    elif section in TRAJECTORIES:
        data = {"trajectory": {"kind": section, **_required(section), key: value}}
    else:
        data = {section: {key: value}}
    return _outcome(lambda: parse_config(data))


def _in_code(section, key, value):
    """The same value built in code; a section's own error gets its section
    prefix, as the parser adds it."""
    if section is None:
        return _outcome(lambda: ScenarioConfig(**{key: value}))
    if section in NAMED_KEYS:  # the default with one item replaced
        items = list(getattr(ScenarioConfig(), section))
        items[NAMED_KEYS[section].index(key)] = value
        return _outcome(lambda: ScenarioConfig(**{section: items}))
    field = "trajectory" if section in TRAJECTORIES else section
    cls = TRAJECTORIES.get(section) or SECTIONS[section]
    built, error = _outcome(lambda: cls(**{**_required(section), key: value}))
    if error is not None:
        return None, f"{field}.{error}"
    return _outcome(lambda: ScenarioConfig(**{field: built}))


@settings(max_examples=300, deadline=None)
@given(leaf=st.sampled_from(LEAF_KEYS), value=LEAF_VALUES)
def test_file_and_code_agree_on_every_leaf_value(leaf, value):
    # one validator serves both paths: a scenario file fails exactly where the
    # same value built in code fails, with the same message, and else both
    # give the same config
    in_file, in_code = _in_file(*leaf, value), _in_code(*leaf, value)
    assert in_file[1] == in_code[1]
    assert in_file[0] == in_code[0]


# A body and a gains mapping drawn together: the lambdas a gains mapping
# omits or gives are resolved against the body given beside it, which the
# one-leaf property above cannot reach.
HEIGHTS = st.one_of(st.sampled_from([0.7, 0.9, 1.0, 1.8, 2.0]), st.floats(0.1, 3.0))
BODY_KEYS = st.fixed_dictionaries(
    {}, optional={"camera_height": HEIGHTS, "head_height": HEIGHTS}
)
LAMBDAS = st.one_of(st.none(), st.sampled_from([0.0, 5.0, -0.91]), st.floats(-10.0, 10.0))
GAINS_KEYS = st.fixed_dictionaries(
    {},
    optional={
        "k1": st.floats(0.1, 2.0),
        "lambda1": LAMBDAS,
        "lambda2": LAMBDAS,
        "target_half_height": st.floats(50.0, 300.0),
    },
)


@settings(max_examples=300, deadline=None)
@given(body=BODY_KEYS, gains=GAINS_KEYS)
def test_file_and_code_agree_on_body_and_gains_together(body, gains):
    def in_code():
        built = {}
        for section, cls, keys in (("body", BodyModel, body), ("gains", ControllerGains, gains)):
            try:
                built[section] = cls(**keys)
            except ValueError as exc:  # the parser adds the section prefix
                raise ConfigError(f"{section}.{exc}") from None
        return ScenarioConfig(**built)

    in_file = _outcome(lambda: parse_config({"body": body, "gains": gains}))
    assert in_file == _outcome(in_code)


def test_undecodable_file_is_invalid_yaml(tmp_path, capsys):
    scenario = tmp_path / "bad.yaml"
    scenario.write_bytes(b"duration: 1.0 # \xff\n")
    assert main(["--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert "invalid YAML" in capsys.readouterr().err


def test_exponent_floats_are_read_as_in_yaml_1_2(tmp_path):
    # YAML 1.1 wants a dot and a signed exponent; integers keep their forms
    path = tmp_path / "exp.yaml"
    path.write_text(
        "noise: {dropout_prob: 1e-3}\n"
        "saturation: {v_max: 1E5}\n"
        "intrinsics: {alpha_x: 1.5e3, alpha_y: .5e3, width: 1_000}\n"
        "seed: 0x10\n"
    )
    expected = ScenarioConfig(
        name="exp",
        noise=NoiseModel(dropout_prob=1e-3),
        saturation=SaturationLimits(v_max=1e5),
        intrinsics=CameraIntrinsics(alpha_x=1.5e3, alpha_y=500.0, width=1000),
        seed=16,
    )
    assert load_config(path) == expected


@pytest.mark.parametrize("value, shown", [("1e400", "inf"), ("'1e-3'", "'1e-3'")])
def test_exponent_float_out_of_range_or_quoted_rejected(tmp_path, capsys, value, shown):
    scenario = tmp_path / "bad.yaml"
    scenario.write_text(f"noise: {{dropout_prob: {value}}}\n")
    assert main(["--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
    message = f"noise.dropout_prob: expected a finite number, got {shown}"
    assert capsys.readouterr().err == f"ptfollow: configuration error: {message}\n"


def test_readme_section_table_names_exactly_the_sections():
    text = README.read_text().split("## Scenario files\n")[1].split("\n## ")[0]
    keys = set(re.findall(r"^\| `(\w+)` ", text, re.M))
    config_fields = dataclasses.fields(ScenarioConfig)
    assert keys <= {f.name for f in config_fields}
    # a section is a field that check_fields has no validator for
    assert {f.name for f in config_fields if f.type not in FIELD_CHECKS} <= keys


def test_readme_scenario_example_runs_one_tick(tmp_path):
    blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    path = tmp_path / "example.yaml"
    path.write_text(blocks[0])
    cfg = load_config(path)
    assert len(run_scenario(dataclasses.replace(cfg, duration=cfg.dt))) == 1


class TestCli:
    def test_run_preset_writes_files(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "--scenario", "circle-sim", "--out", str(out), "--duration", "1.0",
        ])
        assert code == 0
        csv_path = out / "timeseries.csv"
        assert csv_path.is_file()
        assert len(csv_path.read_text().splitlines()) == 51  # header + 50 ticks
        summary = json.loads((out / "summary.json").read_text())
        assert "rms_e_u" in summary
        assert "50 ticks" in capsys.readouterr().out

    def test_zero_duration_header_only(self, tmp_path):
        out = tmp_path / "out"
        code = main(["--scenario", "circle-sim", "--out", str(out), "--duration", "0"])
        assert code == 0
        lines = (out / "timeseries.csv").read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("t,e_u,")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failure_episodes"] == 0
        assert summary["settling_time_e_u"] is None or math.isnan(summary["settling_time_e_u"])

    def test_equal_seeds_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main([
                "--scenario", "circle-sim", "--out", str(out),
                "--duration", "3.0", "--seed", "11",
            ]) == 0
            outs.append((out / "timeseries.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = main(["--scenario", str(tmp_path / "missing.yaml"), "--out", str(tmp_path)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_path_the_system_cannot_read_is_config_error(self, tmp_path, capsys):
        # a file name longer than the system allows; a file the process may
        # not read (EACCES) takes the same path, untested as a process run as
        # root reads every file
        path = tmp_path / ("a" * 300 + ".yaml")
        assert main(["--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ptfollow: configuration error: {path}: cannot read scenario file:")

    def test_directory_is_not_a_scenario_file(self, tmp_path, capsys):
        # it exists, so it is not "not found"; nor is it read
        assert main(["--scenario", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
        message = f"{tmp_path}: cannot read scenario file: not a regular file"
        assert capsys.readouterr().err == f"ptfollow: configuration error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main([
            "--scenario", "circle-sim", "--out", str(blocker / "sub"),
            "--duration", "0.1",
        ])
        assert code == 3
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("preset", PRESETS)
    def test_summary_is_strict_json(self, tmp_path, preset):
        out = tmp_path / preset
        assert main(["--scenario", preset, "--out", str(out), "--summary-only"]) == 0

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        cfg = PRESETS[preset]()
        for key, value in summarize_run(cfg, run_scenario(cfg)).to_dict().items():
            if isinstance(value, float) and math.isnan(value):
                assert summary[key] is None, key  # a channel that never settles
            else:
                assert summary[key] == value, key

    def test_summary_only(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "--scenario", "circle-sim", "--out", str(out),
            "--duration", "0.5", "--summary-only",
        ])
        assert code == 0
        assert not (out / "timeseries.csv").exists()
        assert (out / "summary.json").is_file()

    def test_noise_far_past_the_image_loses_the_target(self, tmp_path):
        # a valid config whose every noisy box lands outside the image: the
        # tracker loses the target once the gate opens, and the run completes
        scenario = tmp_path / "huge.yaml"
        scenario.write_text(
            "trajectory: {kind: waypoints, points: [[4.5, 0.0], [20.0, 3.0]]}\n"
            "noise: {sigma_px: 1.0e+20}\n"
            "duration: 1.0\n"
        )
        out = tmp_path / "out"
        assert main(["--scenario", str(scenario), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failure_episodes"] == 1 and summary["reacquisition_latencies"] == []

    def test_mode_flag_is_gone(self, tmp_path, capsys):
        # the loop runs one coefficient block; argparse rejects the flag
        with pytest.raises(SystemExit) as exc:
            main(["--scenario", "circle-sim", "--out", str(tmp_path), "--mode", "as-printed"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode as-printed" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    def test_dt_override_changes_tick_count(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "--scenario", "circle-sim", "--out", str(out),
            "--duration", "1.0", "--dt", "0.01",
        ])
        assert code == 0
        assert len((out / "timeseries.csv").read_text().splitlines()) == 101

    def test_dt_override_the_gains_cannot_follow_is_config_error(self, tmp_path, capsys):
        code = main(["--scenario", "circle-sim", "--out", str(tmp_path), "--dt", "4"])
        assert code == 2
        message = "gains.k1: k1 * dt must be below 2, got 0.5 at dt 4.0"
        assert capsys.readouterr().err == f"ptfollow: configuration error: {message}\n"

    def test_invalid_dt_override_is_config_error(self, tmp_path):
        code = main([
            "--scenario", "circle-sim", "--out", str(tmp_path), "--dt", "0",
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--duration", "nan"), ("--duration", "inf"), ("--dt", "inf"), ("--dt", "nan"),
            ("--duration", "1e308"),  # finite, but duration / dt overflows
        ],
    )
    def test_non_finite_override_is_config_error(self, tmp_path, capsys, flag, value):
        code = main(["--scenario", "circle-sim", "--out", str(tmp_path), flag, value])
        assert code == 2
        reason = "must be a finite number" if value == "1e308" else "expected a finite number"
        assert f"{flag[2:]}: {reason}" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    def test_duration_override_past_the_circle_float_range_is_config_error(
        self, tmp_path, capsys
    ):
        path = tmp_path / "fast.yaml"
        traj = {"kind": "circle", "rate": 1e307}
        path.write_text(json.dumps({"trajectory": traj, "duration": 3.0}))
        assert load_config(path).duration == 3.0  # accepted: 3e307 rad at most
        code = main(["--scenario", str(path), "--out", str(tmp_path / "out"), "--duration", "30"])
        assert code == 2
        message = _circle_overflow_message(1e307, 0.0, 30.0)
        assert capsys.readouterr().err == f"ptfollow: configuration error: {message}\n"

    def test_duration_override_past_the_line_float_range_is_config_error(
        self, tmp_path, capsys
    ):
        path = tmp_path / "fast.yaml"
        traj = {"kind": "line", "start": [1e308, 0.0], "velocity": [1e307, 0.0]}
        path.write_text(json.dumps({"trajectory": traj, "duration": 3.0}))
        assert load_config(path).duration == 3.0  # accepted: 1.3e308 m at most
        code = main(["--scenario", str(path), "--out", str(tmp_path / "out"), "--duration", "30"])
        assert code == 2
        message = _line_overflow_message((1e308, 0.0), (1e307, 0.0), 0.0, 30.0)
        assert capsys.readouterr().err == f"ptfollow: configuration error: {message}\n"

    @pytest.mark.parametrize("flag, value", [("--dt", "1e-9"), ("--duration", "1e7")])
    def test_tick_count_above_cap_is_config_error(
        self, tmp_path, capsys, monkeypatch, flag, value
    ):
        monkeypatch.setattr(cli, "run", lambda *args, **kwargs: pytest.fail("run started"))
        code = main(["--scenario", "circle-sim", "--out", str(tmp_path), flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert "duration: " in err and " at dt " in err and f"cap of {MAX_TICKS} ticks" in err

    @pytest.mark.parametrize("preset", ["indoor", "outdoor"])
    def test_other_presets_run(self, tmp_path, preset):
        out = tmp_path / preset
        code = main(["--scenario", preset, "--out", str(out), "--duration", "1.0"])
        assert code == 0
        assert (out / "timeseries.csv").is_file()

    def test_joint_limits_wider_than_default(self, tmp_path):
        # a run may start anywhere inside its own joint range
        path = tmp_path / "wide.yaml"
        path.write_text("joints: {alpha_max: 2.0}\ninitial_angles: {alpha: 1.8}\nduration: 1.0\n")
        out = tmp_path / "out"
        assert main(["--scenario", str(path), "--out", str(out)]) == 0
        with open(out / "timeseries.csv") as fh:
            assert float(next(csv.DictReader(fh))["alpha"]) == 1.8

    def test_scenario_file_runs(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text("trajectory: {kind: line, start: [5.0, 0.0], velocity: [0.0, 0.1]}\nduration: 1.0\n")
        out = tmp_path / "out"
        assert main(["--scenario", str(path), "--out", str(out)]) == 0
