"""World kinematics, trajectories, and ground-truth measurement rendering."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ptfollow.controller import DEADBAND_HALF_WIDTH, ControlCommand, compute_errors
from oracles import (
    DepthUnobservableError,
    depth_from_height,
    integrate_by_parts,
    integrate_exact_arc,
    line_position_plain,
    render_two_points,
    true_body_center_depth,
    waypoint_position_scan,
    wrap_angle,
)
from ptfollow.config import PRESETS, ScenarioConfig, parse_config
from ptfollow.geometry import CameraIntrinsics, JointLimits, PanTiltAngles
from ptfollow.perception import PerceptionPipeline
from ptfollow.runner import run_scenario
from ptfollow.simworld import (
    BodyModel,
    CircleTrajectory,
    LineTrajectory,
    WaypointTrajectory,
    integrate,
    render_measurement,
    target_position,
)
from test_goldens import NOISY_WALK

LIMITS = JointLimits()  # the default pan and tilt ranges
ORIGIN, LEVEL = (0.0, 0.0, 0.0), PanTiltAngles()  # a robot at the origin facing +x, joints at zero


class TestTrajectories:
    def test_circle_start(self):
        traj = CircleTrajectory(center=(0.5, 0.5), radius=0.4, rate=1.0)
        assert target_position(0.0, traj) == (pytest.approx(0.1), pytest.approx(0.5))

    def test_circle_quarter_period(self):
        traj = CircleTrajectory(center=(0.5, 0.5), radius=0.4, rate=1.0)
        x, y = target_position(math.pi / 2, traj)
        assert (x, y) == (pytest.approx(0.5), pytest.approx(0.1))

    def test_circle_phase_offset(self):
        traj = CircleTrajectory(center=(0.5, 0.5), radius=0.4, rate=1.0, phase=math.pi / 2)
        x, y = target_position(0.0, traj)
        assert (x, y) == (pytest.approx(0.5), pytest.approx(0.1))

    def test_waypoints_interpolate(self):
        traj = WaypointTrajectory(points=((0.0, 0.0), (1.0, 0.0)), speed=0.5)
        assert target_position(1.0, traj) == (pytest.approx(0.5), pytest.approx(0.0))

    def test_waypoints_hold_at_end(self):
        traj = WaypointTrajectory(points=((0.0, 0.0), (1.0, 0.0)), speed=0.5)
        assert target_position(100.0, traj) == (1.0, 0.0)

    def test_waypoints_delay(self):
        traj = WaypointTrajectory(points=((2.0, 0.0), (3.0, 0.0)), speed=1.0, delay=5.0)
        assert target_position(4.0, traj) == (2.0, 0.0)
        assert target_position(5.5, traj) == (pytest.approx(2.5), pytest.approx(0.0))

    def test_line_delay(self):
        traj = LineTrajectory(start=(1.0, 1.0), velocity=(0.5, 0.0), delay=2.0)
        assert target_position(1.0, traj) == (1.0, 1.0)
        assert target_position(4.0, traj) == (pytest.approx(2.0), pytest.approx(1.0))

    # a coarse grid repeats points (zero-length segments); fine values do not
    _COORD = st.integers(-3, 3).map(float) | st.floats(-50.0, 50.0)

    @settings(max_examples=300, deadline=None)
    @given(
        points=st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=7),
        speed=st.floats(1e-3, 10.0),
        delay=st.floats(0.0, 20.0),
        times=st.lists(st.floats(-10.0, 60.0), max_size=10),
    )
    @example(((1.0, 1.0), (1.0, 1.0), (2.0, 1.0), (2.0, 1.0)), 1.0, 0.5, [0.0, 0.5, 1.0, 1.5, 9.0])
    # -0.0 - 0.0 is a -0.0 elapsed time, which max(0.0, .) walks as 0.0: a
    # -0.0 walk would keep the -0.0 of the first point
    @example(((-0.0, -0.0), (1.0, -0.0)), 1.0, 0.0, [])
    def test_waypoints_equal_a_per_call_scan(self, points, speed, delay, times):
        traj = WaypointTrajectory(points=tuple(points), speed=speed, delay=delay)
        total = sum(math.dist(p, q) for p, q in zip(points, points[1:]))
        # before the delay, at it, an ulp either side of it, a -0.0 or NaN
        # elapsed time, at each vertex's time and past the end
        probes = times + _delay_probes(delay) + [delay - 1.0, delay + total / speed + 1.0]
        walked = 0.0
        for p, q in zip(points, points[1:]):
            walked += math.dist(p, q)
            probes.append(delay + walked / speed)
        for t in probes:
            want = waypoint_position_scan(traj, t)
            assert tuple(map(float.hex, traj.position(t))) == tuple(map(float.hex, want)), t

    @settings(max_examples=300, deadline=None)
    @given(
        start=st.tuples(_COORD | st.sampled_from([0.0, -0.0]), _COORD | st.sampled_from([-0.0])),
        velocity=st.tuples(_COORD, _COORD | st.sampled_from([-0.0])),
        delay=st.sampled_from([0.0, -0.0]) | st.floats(-5.0, 20.0),
        times=st.lists(st.floats(-10.0, 60.0), max_size=10),
    )
    @example((-0.0, -0.0), (1.0, -2.0), 0.0, [])
    def test_line_equals_builtin_max(self, start, velocity, delay, times):
        traj = LineTrajectory(start=start, velocity=velocity, delay=delay)
        for t in times + _delay_probes(delay):
            want = line_position_plain(traj, t)
            assert tuple(map(float.hex, traj.position(t))) == tuple(map(float.hex, want)), t

    def test_waypoint_fields_unchanged(self):
        # the precomputed segments stay off the fields the config parser reads
        names = [f.name for f in dataclasses.fields(WaypointTrajectory)]
        assert names == ["points", "speed", "delay"]
        traj = WaypointTrajectory(points=((0.0, 0.0), (3.0, 4.0)))
        assert traj == WaypointTrajectory(points=((0.0, 0.0), (3.0, 4.0)))
        assert dataclasses.replace(traj, speed=2.0).position(1.0) == (0.0 + 0.4 * 3.0, 0.4 * 4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CircleTrajectory(radius=0.0)
        with pytest.raises(ValueError):
            WaypointTrajectory(points=())


class TestIntegrate:
    def test_straight_line(self):
        cmd = ControlCommand(1.0, 0.0, 0.0, 0.0)
        robot, _ = integrate(ORIGIN, LEVEL, cmd, 0.1, LIMITS)
        assert robot == (pytest.approx(0.1), 0.0, 0.0)

    def test_pure_pan(self):
        cmd = ControlCommand(0.0, 0.0, 0.5, 0.0)
        _, (alpha, beta) = integrate(ORIGIN, LEVEL, cmd, 0.2, LIMITS)
        assert alpha == pytest.approx(0.1)
        assert beta == 0.0

    def test_arc_against_closed_form(self):
        # 1000 small steps of a unit-speed, unit-rate arc end within 1e-3 of
        # the exact arc endpoint (sin 1, 1 - cos 1, 1)
        robot, angles = ORIGIN, LEVEL
        cmd = ControlCommand(1.0, 1.0, 0.0, 0.0)
        for _ in range(1000):
            robot, angles = integrate(robot, angles, cmd, 1e-3, LIMITS)
        x, y, theta = robot
        assert abs(x - math.sin(1.0)) < 1e-3
        assert abs(y - (1.0 - math.cos(1.0))) < 1e-3
        assert abs(theta - 1.0) < 1e-12

    def test_exact_arc_matches_closed_form(self):
        cmd = ControlCommand(0.8, 0.6, 0.0, 0.0)
        robot, _ = integrate_exact_arc((0.2, -0.1, 0.4), PanTiltAngles(), cmd, 1.0, LIMITS)
        ratio = 0.8 / 0.6
        assert robot[0] == pytest.approx(0.2 + ratio * (math.sin(1.0) - math.sin(0.4)), abs=1e-12)
        assert robot[1] == pytest.approx(-0.1 - ratio * (math.cos(1.0) - math.cos(0.4)), abs=1e-12)

    def test_exact_arc_reversible(self):
        robot, angles = (0.3, 0.7, -0.5), PanTiltAngles(0.2, 0.1)
        cmd = ControlCommand(0.5, 0.3, 0.4, -0.2)
        there = integrate_exact_arc(robot, angles, cmd, 0.05, LIMITS)
        back_robot, back_angles = integrate_exact_arc(*there, cmd, -0.05, LIMITS)
        assert np.allclose(back_robot, robot, atol=1e-12)
        assert back_angles.alpha == pytest.approx(0.2, abs=1e-12)

    def test_theta_wraps(self):
        cmd = ControlCommand(0.0, 1.0, 0.0, 0.0)
        robot, _ = integrate((0.0, 0.0, 3.1), PanTiltAngles(), cmd, 0.1, LIMITS)
        assert -math.pi < robot[2] <= math.pi

    def test_angles_clamped_to_joint_limits(self):
        cmd = ControlCommand(0.0, 0.0, 0.0, 1.5)
        start = PanTiltAngles(beta=math.pi / 3 - 0.01)
        _, (_, beta) = integrate(ORIGIN, start, cmd, 0.1, LIMITS)
        assert beta == pytest.approx(math.pi / 3)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            integrate(ORIGIN, LEVEL, ControlCommand(0, 0, 0, 0), 0.0, LIMITS)

    def test_wrap_angle(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    @example(data=None).via("theta exactly at -pi, joints beyond both stops")
    def test_equals_wrap_and_clamp(self, data):
        # integrate wraps the heading and clamps the joints inline; the bits
        # must be those of wrap_angle and clamp_joints
        if data is None:
            limits = JointLimits(alpha_max=0.5, beta_max=0.25)
            robot, angles = (0.0, 0.0, -math.pi), PanTiltAngles(0.6, -0.3)
            cmd, dt = ControlCommand(0.5, 0.0, 1.0, -1.0), 0.02
        else:
            limits, robot, angles, cmd, dt = data.draw(_integrate_inputs())
        _assert_integrate_equals_by_parts(robot, angles, cmd, dt, limits)

    @pytest.mark.parametrize("side", [1.0, -1.0])
    @pytest.mark.parametrize("rate", [0.0, -0.0, math.nan, math.inf, -math.inf])
    def test_clamp_edges_equal_min_max(self, side, rate):
        # joints exactly at a stop, just inside it and at +/-0.0, moved by a
        # signed zero or a non-finite rate: the comparisons integrate writes
        # for min(max(...)) must keep the builtins' bits, NaN included
        limits = JointLimits(alpha_max=0.5, beta_max=0.25)
        for alpha in (0.5, math.nextafter(0.5, 0.0), 0.0, -0.0):
            for beta in (0.25, math.nextafter(0.25, 0.0), 0.0, -0.0):
                angles = PanTiltAngles(side * alpha, side * beta)
                cmd = ControlCommand(0.5, 0.0, rate, -rate)
                _assert_integrate_equals_by_parts((0.0, 0.0, 0.3), angles, cmd, 0.02, limits)


def _assert_integrate_equals_by_parts(robot, angles, cmd, dt, limits):
    args = (robot, angles, cmd, dt, limits)
    try:
        want = integrate_by_parts(*args)
    except ValueError as exc:  # math.fmod of an infinite heading
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            integrate(*args)
        return
    got = integrate(*args)
    # the new pose and angles, each a plain tuple, and no record around them
    assert type(got) is tuple and len(got) == 2
    assert type(got[0]) is tuple and type(got[1]) is tuple
    assert _float_bits(got) == _float_bits(want)
    assert repr(got) == repr(want)


def _delay_probes(delay):
    """Times at which ``t - delay`` is +0.0, an ulp either side of it, -0.0
    (``-0.0 - 0.0``) where the delay allows it, and NaN."""
    probes = [delay, math.nextafter(delay, math.inf), math.nextafter(delay, -math.inf), math.nan]
    if delay == 0.0:
        probes.append(-0.0)
    return probes


def _float_bits(value):
    """Every float in a nested tuple, as ``float.hex``."""
    if isinstance(value, tuple):
        return [bits for item in value for bits in _float_bits(item)]
    return [float.hex(value)]


_NEAR_PI = [
    s * x for s in (1.0, -1.0)
    for x in (math.pi, math.nextafter(math.pi, 0.0), math.nextafter(math.pi, 4.0), 3 * math.pi)
]


@st.composite
def _integrate_inputs(draw):
    """Joint limits, a pose with the heading near +/-pi, joints at, inside or
    beyond their stops, a command whose rates may be signed zeros, NaN or
    infinite, and a step."""
    limits = JointLimits(alpha_max=draw(st.floats(0.02, 3.0)), beta_max=draw(st.floats(0.02, 1.5)))

    def joint(limit):
        edges = [limit, -limit, math.nextafter(limit, 0.0), 1.5 * limit, -1.5 * limit, 0.0, -0.0]
        return draw(st.sampled_from(edges) | st.floats(-2.0 * limit, 2.0 * limit))

    theta = draw(st.sampled_from(_NEAR_PI + [0.0, -0.0]) | st.floats(-7.0, 7.0))
    robot = (draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0)), theta)
    angles = PanTiltAngles(joint(limits.alpha_max), joint(limits.beta_max))
    rate = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]) | st.floats(-5.0, 5.0)
    cmd = ControlCommand(draw(rate), draw(rate), draw(rate), draw(rate))
    dt = draw(st.sampled_from([0.02, 1e-3]) | st.floats(1e-6, 1.0))
    return limits, robot, angles, cmd, dt


class TestBodyModel:
    def test_signed_inverse_offsets(self):
        body = BodyModel(camera_height=0.7, body_center_height=0.9, head_height=1.8)
        assert body.lambda1 == pytest.approx(-5.0)
        assert body.lambda2 == pytest.approx(-1.0 / 1.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            BodyModel(camera_height=2.0, body_center_height=0.9, head_height=1.8)
        with pytest.raises(ValueError):
            BodyModel(camera_height=0.7, body_center_height=1.0, head_height=1.8)

    def test_center_within_tolerance_is_stored_as_the_exact_half(self):
        near = 1.0 + 5e-10
        exact = BodyModel(head_height=2.0)
        assert BodyModel(head_height=2.0, body_center_height=near) == exact
        parsed = parse_config({"body": {"head_height": 2.0, "body_center_height": near}})
        assert parsed.body == exact
        assert parsed == parse_config({"body": {"head_height": 2.0}})
        assert float.hex(parsed.body.body_center_height) == float.hex(1.0)


class TestRenderMeasurement:
    def test_reference_distance_gives_reference_half_height(self, intrinsics, body):
        # at 4.5 m with the default geometry the half height is exactly
        # alpha_y * (head - body_center) / depth = 500 * 0.9 / 4.5 = 100
        u, v, v2 = render_measurement(ORIGIN, LEVEL, (4.5, 0.0), body, intrinsics)
        assert u == pytest.approx(intrinsics.u0)
        assert v - v2 == pytest.approx(100.0)

    def test_half_height_inversely_proportional_to_depth(self, intrinsics, body):
        _, v, v2 = render_measurement(ORIGIN, LEVEL, (9.0, 0.0), body, intrinsics)
        assert v - v2 == pytest.approx(50.0)

    def test_on_axis_body_center_row(self, intrinsics):
        # body center exactly at camera height: the center row is v0
        body = BodyModel(camera_height=0.9, body_center_height=0.9, head_height=1.8)
        _, v, _ = render_measurement(ORIGIN, LEVEL, (5.0, 0.0), body, intrinsics)
        assert v == intrinsics.v0

    def test_behind_camera_gives_none(self, intrinsics, body):
        assert render_measurement(ORIGIN, LEVEL, (-3.0, 0.0), body, intrinsics) is None

    def test_center_outside_image_gives_none(self, intrinsics, body):
        # target far to the side: still in front, but the center column
        # leaves the image
        assert render_measurement(ORIGIN, LEVEL, (2.0, 1.9), body, intrinsics) is None

    def test_head_top_above_image_gives_none(self, intrinsics, body):
        # rows 240 - 500 * 1.1 / d: at 2.5 m the head top is row 20, at 2.0 m
        # row -35, above the image though the center (row 190) is inside it
        _, _, v2 = render_measurement(ORIGIN, LEVEL, (2.5, 0.0), body, intrinsics)
        assert v2 == pytest.approx(20.0)
        assert render_measurement(ORIGIN, LEVEL, (2.0, 0.0), body, intrinsics) is None

    # one example per outcome: x, y, heading, bearing, distance, alpha, beta,
    # camera_height, head_height, focal
    @example(18.72, 15.02, -1.22, 2.25, 2.69, 1.32, 0.49, 0.72, 1.63, 205.0)  # a box
    @example(13.43, -2.69, 1.65, -3.13, 3.73, 0.66, -0.54, 1.38, 1.95, 218.0)  # behind
    @example(-18.73, -5.51, -2.06, 0.28, 0.4, 1.36, -0.98, 1.11, 1.51, 353.0)  # head behind
    @example(-14.63, 13.9, 1.66, -1.54, 4.11, -0.15, 0.3, 1.19, 1.55, 217.0)  # center out
    @example(7.0, 14.4, -2.85, -0.17, 0.45, 1.43, 0.82, 0.3, 1.88, 227.0)  # v2 >= v
    @example(0.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.7, 1.8, 500.0)  # head top above the image
    @settings(max_examples=300, deadline=None)
    @given(
        x=st.floats(-20.0, 20.0),
        y=st.floats(-20.0, 20.0),
        heading=st.floats(-math.pi, math.pi),
        bearing=st.floats(-math.pi, math.pi),
        distance=st.floats(0.3, 8.0),
        alpha=st.floats(-1.5, 1.5),
        beta=st.floats(-1.0, 1.0),
        camera_height=st.floats(0.2, 1.45),
        head_height=st.floats(1.5, 2.0),
        focal=st.floats(200.0, 800.0),
    )
    def test_fused_render_equals_two_point_reference(
        self, x, y, heading, bearing, distance, alpha, beta, camera_height, head_height, focal
    ):
        # bearing is the target's direction relative to the robot heading
        target = (
            x + distance * math.cos(heading + bearing),
            y + distance * math.sin(heading + bearing),
        )
        world = ((x, y, heading), PanTiltAngles(alpha, beta), target)
        body = BodyModel(camera_height=camera_height, head_height=head_height)
        k = CameraIntrinsics(alpha_x=focal, alpha_y=focal)
        got = render_measurement(*world, body, k)
        want = render_two_points(*world, body, k)
        if want is None:
            assert got is None
        else:
            assert type(got) is tuple
            assert [b.hex() for b in got] == [w.hex() for w in want]


class TestDepthAgreement:
    def test_depth_formula_matches_true_depth_along_a_run(self, intrinsics, body):
        # with exact inverse offsets the depth recovered from the row error
        # equals the true body-center depth at every tick
        from ptfollow.config import preset_circle_sim
        from ptfollow.controller import FollowController

        cfg = preset_circle_sim()
        controller = FollowController(cfg.gains, cfg.intrinsics, cfg.saturation)
        robot, angles = cfg.robot_start, cfg.initial_angles
        checked = 0
        for tick in range(800):
            world = (robot, angles, target_position(tick * cfg.dt, cfg.trajectory))
            box = render_measurement(*world, cfg.body, cfg.intrinsics)
            cmd = controller.step(box, angles)
            if box is not None:
                err = compute_errors(box, cfg.intrinsics, cfg.gains.target_half_height)
                try:
                    recovered = depth_from_height(
                        err.e_v, angles[1], cfg.body.offset_body, cfg.intrinsics
                    )
                except DepthUnobservableError:
                    continue
                true_depth = true_body_center_depth(*world, cfg.body, cfg.intrinsics)
                assert abs(recovered - true_depth) <= 1e-6 * true_depth
                checked += 1
            robot, angles = integrate(robot, angles, cmd, cfg.dt, cfg.joints)
        assert checked > 500


_XY = st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
_TRAJECTORIES = st.one_of(
    st.builds(CircleTrajectory, center=_XY, radius=st.floats(0.1, 3.0), rate=st.floats(-2.0, 2.0)),
    st.builds(
        LineTrajectory, start=_XY, velocity=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    ),
    st.builds(
        WaypointTrajectory,
        points=st.lists(_XY, min_size=1, max_size=4).map(tuple),
        speed=st.floats(0.1, 2.0),
    ),
)


@st.composite
def _joint_range_runs(draw):
    """A scenario with a random joint range (a pan limit no narrower than
    the yaw deadband, as configs require), initial angles inside it, and a
    trajectory the robot starts roughly facing, so the pan-tilt unit often
    drives into its stops."""
    alpha_max = draw(st.floats(DEADBAND_HALF_WIDTH, 3.0))
    joints = JointLimits(alpha_max=alpha_max, beta_max=draw(st.floats(0.02, 1.5)))
    angles = PanTiltAngles(
        alpha=draw(st.floats(-1.0, 1.0)) * joints.alpha_max,
        beta=draw(st.floats(-1.0, 1.0)) * joints.beta_max,
    )
    trajectory = draw(_TRAJECTORIES)
    tx, ty = trajectory.position(0.0)
    theta = math.atan2(ty, tx) + draw(st.floats(-0.8, 0.8))
    return ScenarioConfig(
        joints=joints, initial_angles=angles, trajectory=trajectory,
        robot_start=(0.0, 0.0, theta), duration=2.0,
    )


@settings(max_examples=60, deadline=None)
@given(_joint_range_runs())
def test_logged_angles_stay_in_joint_range(config):
    log = run_scenario(config)
    assert np.all(np.abs(log.column("alpha")) <= config.joints.alpha_max)
    assert np.all(np.abs(log.column("beta")) <= config.joints.beta_max)


class TestRunnerWorldStep:
    """``run_scenario`` renders and integrates in its own frame; on every
    tick of a recorded run its box must be :func:`render_measurement` of the
    logged pose, angles and target, and the next row's pose and angles
    :func:`integrate` of this row's, to the bit."""

    RUNS = {
        **{name: name for name in ("circle-sim", "indoor", "outdoor")},
        "noisy-walk": NOISY_WALK,
        # the person crosses in front of a robot heading nearly -pi: the pan
        # runs into its stop and the yaw carries the heading across -pi
        "turn-past-pi": {
            "robot_start": {"x": 0.0, "y": 0.0, "theta": -3.0},
            "trajectory": {"kind": "line", "start": [-2.97, -0.42], "velocity": [-0.14, 0.99]},
            "duration": 20.0,
        },
        # the person walks up to the robot: the head top leaves the image
        # above while the body center stays in it
        "approach": {
            "trajectory": {"kind": "waypoints", "points": [[4.5, 0.0], [1.0, 0.0]], "speed": 2.0},
            "duration": 5.0,
        },
    }

    @pytest.mark.parametrize("name", RUNS)
    def test_inline_step_equals_the_plain_forms(self, name, monkeypatch):
        scenario = self.RUNS[name]
        cfg = PRESETS[scenario]() if isinstance(scenario, str) else parse_config(scenario)
        truths, perceive = [], PerceptionPipeline.step

        def spy(pipeline, truth, t, rng):
            truths.append(truth)
            return perceive(pipeline, truth, t, rng)

        monkeypatch.setattr(PerceptionPipeline, "step", spy)
        log = run_scenario(cfg)
        x, y, theta, alpha, beta, tx, ty, v_r, w_r, w_a, w_b = map(log.series, (
            "robot_x", "robot_y", "theta", "alpha", "beta", "target_x", "target_y",
            "V_r", "omega_r", "omega_alpha", "omega_beta",
        ))

        def bits(value):
            return None if value is None else [float.hex(item) for item in value]

        assert len(truths) == len(log) == cfg.n_ticks
        if name == "turn-past-pi":
            assert any(b - a > math.pi for a, b in zip(theta, theta[1:]))
            assert -cfg.joints.alpha_max in alpha
        for i, truth in enumerate(truths):
            pose, angles = (x[i], y[i], theta[i]), (alpha[i], beta[i])
            want = render_measurement(pose, angles, (tx[i], ty[i]), cfg.body, cfg.intrinsics)
            assert truth is None or type(truth) is tuple, i
            assert bits(truth) == bits(want), i
            if i + 1 < len(log):
                cmd = (v_r[i], w_r[i], w_a[i], w_b[i], None, None)
                want = integrate(pose, angles, cmd, cfg.dt, cfg.joints)
                got = (x[i + 1], y[i + 1], theta[i + 1]), (alpha[i + 1], beta[i + 1])
                assert list(map(bits, got)) == list(map(bits, want)), i
