"""Verification oracles: independent forms of the loop's math.

The closed loop never calls these.  The tests and acceptance criteria check
the loop's arithmetic against them: the camera rotation as a matrix, the
camera and point velocities built from it and their hand expansion, the
exact unicycle arc flow, depth recovery from a known vertical offset, and
the true depth of the body center.  The per-tick functions that were
reworked for speed keep their plain form here too (the rate solve reading
each coefficient as an attribute, the waypoint walk measuring every
segment per call, the line walk with the builtin ``max``, a perception step
that always computes the search-region cap, the clamp of one commanded rate
as a function).  So does the tracker update, which the loop runs only
inline (``simulated_track``, with its occlusion test ``occluded_at`` and its
search-region comparison).  The exact arc flow wraps its heading with
``wrap_angle`` and clamps its joints with ``clamp_joints``.  The controller and
perception steps, which the loop runs in one frame each, keep theirs as a
composition of plain functions: the controller step (with
:func:`partitioned_law`, the plain form of the loop's rate solve) and the
perception step (with :func:`ptfollow.perception.recovery_step`, the plain
form of the recovery transition).  The world step's plain form is in the
package: :func:`ptfollow.simworld.render_measurement` and
:func:`ptfollow.simworld.integrate`.  The tests check that the fast forms
give the same bits.  The scenario-file reader has its
reference too: :func:`pyyaml_load`, the PyYAML loader that read scenario files
before ``ptfollow.scenario_text``, with :func:`same_value` to compare read
values.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from random import Random

import numpy as np
import yaml

from ptfollow.controller import (
    BoxMeasurement,
    ControlCommand,
    ControllerGains,
    ImageErrors,
    JacobianTerms,
    SaturationFlags,
    SaturationLimits,
    SingularConfigurationError,
    compute_errors,
    jacobian_terms,
    robot_angular_strategy,
)
from ptfollow.geometry import (
    BodyModel,
    CameraIntrinsics,
    CameraPoint,
    JointLimits,
    PanTiltAngles,
    world_to_camera,
)
from ptfollow.perception import (
    LOST_SCORE,
    SEEN_SCORE,
    NoiseModel,
    PerceptionOutput,
    PerceptionPipeline,
    RecoveryPolicy,
    gate_update,
    normal,
    recovery_step,
)
from ptfollow.simworld import LineTrajectory, WaypointTrajectory


class DepthUnobservableError(ValueError):
    """Depth recovery is degenerate: the measured row is too close to the
    horizon line for the current tilt."""


def as_array(p: CameraPoint) -> np.ndarray:
    return np.array([p.x, p.y, p.z])


def rotation_camera_from_robot(
    angles: PanTiltAngles, limits: JointLimits = JointLimits()
) -> np.ndarray:
    """Rotation taking robot-frame coordinates to camera-frame coordinates.

    Composition: base alignment (robot X onto camera Z, robot Y onto camera
    -X, robot Z onto camera -Y), then pan about the vertical axis, then tilt
    about the camera lateral axis.  The returned matrix is orthonormal with
    determinant +1.  :func:`ptfollow.geometry.world_to_camera` evaluates its
    rows as scalar expressions.

    Raises:
        JointLimitError: if either angle is outside ``limits``.
    """
    limits.check(angles)
    sa, ca = math.sin(angles.alpha), math.cos(angles.alpha)
    sb, cb = math.sin(angles.beta), math.cos(angles.beta)
    # Closed form of Rx(beta)^T @ Ry(-alpha)^T @ base alignment; rows are the
    # camera axes expressed in the robot frame.
    return np.array(
        [
            [sa, -ca, 0.0],
            [sb * ca, sb * sa, -cb],
            [cb * ca, cb * sa, sb],
        ]
    )


def camera_motion(
    angles: PanTiltAngles,
    v_r: float,
    omega_r: float,
    omega_alpha: float,
    omega_beta: float,
    limits: JointLimits = JointLimits(),
) -> tuple[np.ndarray, np.ndarray]:
    """Linear and angular velocity of the camera, in camera coordinates.

    The base contributes forward speed ``v_r`` along robot X; base yaw and pan
    both rotate about the vertical axis, the tilt rate rotates about the
    camera lateral axis.
    """
    rot = rotation_camera_from_robot(angles, limits)
    v_c = rot @ np.array([v_r, 0.0, 0.0])
    w_c = rot @ np.array([0.0, 0.0, omega_r + omega_alpha])
    w_c[0] += omega_beta
    return v_c, w_c


def point_velocity(
    p: CameraPoint,
    angles: PanTiltAngles,
    v_r: float,
    omega_r: float,
    omega_alpha: float,
    omega_beta: float,
) -> np.ndarray:
    """Apparent velocity of a static world point seen from the moving camera:
    ``-v_c - w_c x p``."""
    v_c, w_c = camera_motion(angles, v_r, omega_r, omega_alpha, omega_beta)
    return -v_c - np.cross(w_c, as_array(p))


def point_velocity_expanded(
    p: CameraPoint,
    angles: PanTiltAngles,
    v_r: float,
    omega_r: float,
    omega_alpha: float,
    omega_beta: float,
) -> np.ndarray:
    """Component-wise expansion of :func:`point_velocity`.

    Kept as an independent closed form so the matrix construction and the
    hand expansion can be checked against each other.
    """
    sa, ca = math.sin(angles.alpha), math.cos(angles.alpha)
    sb, cb = math.sin(angles.beta), math.cos(angles.beta)
    w = omega_alpha + omega_r
    return np.array(
        [
            -v_r * sa + w * cb * p.z + w * sb * p.y,
            -v_r * ca * sb - w * sb * p.x + omega_beta * p.z,
            -v_r * ca * cb - omega_beta * p.y - w * cb * p.x,
        ]
    )


def depth_eps(k: CameraIntrinsics) -> float:
    """Scale-invariant guard for the depth denominator."""
    return 1e-6 * k.alpha_y


def depth_from_height(
    e_v: float, beta: float, b_y: float, k: CameraIntrinsics
) -> float:
    """Recover optical-axis depth from a known vertical offset.

    ``b_y`` is the point's vertical offset from the camera in the pan frame,
    down-positive (negative for points above the camera).  ``e_v`` is the
    pixel row error ``v - v0`` of the point's projection.

    Returns:
        Depth in meters; positive for physically consistent inputs.

    Raises:
        DepthUnobservableError: when ``e_v*cos(beta) - alpha_y*sin(beta)`` is
            within the guard band of zero (the row is degenerate with the
            current tilt and carries no depth information).
    """
    den = e_v * math.cos(beta) - k.alpha_y * math.sin(beta)
    if abs(den) <= depth_eps(k):
        raise DepthUnobservableError(
            f"depth denominator {den:.3e} within guard {depth_eps(k):.3e}"
        )
    return k.alpha_y * b_y / den


def true_body_center_depth(
    robot: tuple[float, float, float],
    angles: PanTiltAngles,
    target: tuple[float, float],
    body: BodyModel,
    k: CameraIntrinsics,
) -> float:
    """Camera-frame depth of the body-center point."""
    tx, ty = target
    p = world_to_camera(robot, body.camera_height, angles, (tx, ty, body.body_center_height))
    return p.z


def wrap_angle(theta: float) -> float:
    """Wrap to (-pi, pi]."""
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def clamp_joints(limits: JointLimits, alpha: float, beta: float) -> PanTiltAngles:
    """The angles ``alpha``, ``beta`` clamped to the range of ``limits``."""
    return PanTiltAngles(
        min(max(alpha, -limits.alpha_max), limits.alpha_max),
        min(max(beta, -limits.beta_max), limits.beta_max),
    )


def integrate_exact_arc(
    robot: tuple[float, float, float],
    angles: PanTiltAngles,
    cmd: ControlCommand,
    dt: float,
    joint_limits: JointLimits,
) -> tuple[tuple[float, float, float], PanTiltAngles]:
    """Closed-form unicycle flow for constant commands over ``dt``.

    Exact for any sign of ``dt``; the reference for
    :func:`ptfollow.simworld.integrate` and for finite-difference checks where
    Euler bias would pollute the comparison.
    """
    x, y, theta = robot
    if abs(cmd.omega_r) > 1e-12:
        ratio = cmd.v_r / cmd.omega_r
        x += ratio * (math.sin(theta + cmd.omega_r * dt) - math.sin(theta))
        y -= ratio * (math.cos(theta + cmd.omega_r * dt) - math.cos(theta))
    else:
        x += cmd.v_r * math.cos(theta) * dt
        y += cmd.v_r * math.sin(theta) * dt
    theta = wrap_angle(theta + cmd.omega_r * dt)
    angles = clamp_joints(
        joint_limits, angles.alpha + cmd.omega_alpha * dt, angles.beta + cmd.omega_beta * dt
    )
    return (x, y, theta), angles


def solve_denominator_by_attribute(terms: JacobianTerms, gains: ControllerGains) -> float:
    """The determinant of the error-rate assignment system, as
    :func:`ptfollow.controller.control_law` computes it, reading each
    coefficient as an attribute."""
    t = terms
    return (
        (t.b * t.c - t.a * t.d) * t.omega3 * gains.lambda2
        + (t.a * t.f - t.b * t.e) * t.omega2 * gains.lambda1
        - (t.c * t.f - t.d * t.e) * t.omega1 * gains.lambda1
    )


def control_law_by_attribute(
    err: ImageErrors,
    terms: JacobianTerms,
    gains: ControllerGains,
    omega_r: float,
    eps_den: float = 0.0,
) -> tuple[float, float, float]:
    """:func:`ptfollow.controller.control_law`, reading each error and
    coefficient as an attribute."""
    t = terms
    k1e, k2e, k3e = gains.k1 * err.e_u, gains.k2 * err.e_v, gains.k3 * err.e_v2
    l1, l2 = gains.lambda1, gains.lambda2
    den = solve_denominator_by_attribute(terms, gains)
    if not eps_den < abs(den) < math.inf:  # a NaN or infinite denominator too
        raise SingularConfigurationError(
            f"solve denominator {den:.3e} within guard {eps_den:.3e}"
        )
    num_v = -(
        (t.b * t.c - t.a * t.d) * (k2e - k3e)
        + (t.a * t.f - t.b * t.e) * k2e
        - (t.c * t.f - t.d * t.e) * k1e
    )
    num_wa = (
        (t.d * k1e - t.b * k2e - t.b * t.c * omega_r + t.a * t.d * omega_r)
        * t.omega3 * l2
        + (t.b * t.e * omega_r - t.a * t.f * omega_r - t.b * k3e + t.b * k2e - t.f * k1e)
        * t.omega2 * l1
        + (t.c * t.f * omega_r - t.d * t.e * omega_r + t.d * k3e - t.d * k2e + t.f * k2e)
        * t.omega1 * l1
    )
    num_wb = (
        (t.a * k2e - t.c * k1e) * t.omega3 * l2
        + (t.e * k1e - t.a * k2e + t.a * k3e) * t.omega2 * l1
        + (t.c * k2e - t.e * k2e - t.c * k3e) * t.omega1 * l1
    )
    rates = num_v / den, num_wa / den, num_wb / den
    if not all(map(math.isfinite, rates)):
        raise SingularConfigurationError(f"solved rates {rates!r} not all finite")
    return rates


def partition_eps(k: CameraIntrinsics, gains: ControllerGains) -> tuple[float, float]:
    """The guards :class:`ptfollow.controller.FollowController` puts on the
    half-height coefficient ``g_h`` (px/m) and the 2x2 determinant (px^2)."""
    return (
        1e-6 * k.alpha_y * max(abs(gains.lambda1), abs(gains.lambda2)),
        1e-6 * k.alpha_x * k.alpha_y,
    )


def partition_coefficients(terms: JacobianTerms, gains: ControllerGains) -> tuple[float, float]:
    """``(g_h, det)``: the speed's coefficient in ``de_v2`` (px/m) and the
    determinant of the 2x2 block ``[[a, b], [c, d]]`` (px^2)."""
    t = terms
    return gains.lambda1 * t.omega2 - gains.lambda2 * t.omega3, t.a * t.d - t.b * t.c


def partitioned_law(
    err: ImageErrors,
    terms: JacobianTerms,
    gains: ControllerGains,
    omega_r: float,
    eps_g: float,
    eps_det: float,
) -> tuple[float, float, float]:
    """The loop's rate solve, ``(v_r, omega_alpha, omega_beta)``: the speed
    from the half-height channel alone, ``g_h * v_r = -k3 * e_v2``, then the
    camera rates from the 2x2 block that assigns ``de_u = -k1 * e_u`` and
    ``de_v = -k2 * e_v`` at that speed.

    Raises:
        SingularConfigurationError: if ``|g_h|`` is at or below ``eps_g`` or
            ``|det|`` at or below ``eps_det``, either is infinite or NaN, or
            a solved rate is not finite.
    """
    t, l1 = terms, gains.lambda1
    e_u, e_v, e_v2 = err  # an ImageErrors or the plain triple the runner hands on
    g_h, det = partition_coefficients(terms, gains)
    if not (eps_g < abs(g_h) < math.inf and eps_det < abs(det) < math.inf):
        raise SingularConfigurationError(f"g_h {g_h:.3e} or det {det:.3e} within its guard")
    v_r = -gains.k3 * e_v2 / g_h
    r1 = -gains.k1 * e_u - l1 * v_r * t.omega1
    r2 = -gains.k2 * e_v - l1 * v_r * t.omega2
    w = (t.d * r1 - t.b * r2) / det  # omega_alpha + omega_r
    rates = v_r, w - omega_r, (t.a * r2 - t.c * r1) / det
    if not all(map(math.isfinite, rates)):
        raise SingularConfigurationError(f"solved rates {rates!r} not all finite")
    return rates


def predicted_error_rates_by_attribute(
    terms: JacobianTerms,
    gains: ControllerGains,
    v_r: float,
    omega_r: float,
    omega_alpha: float,
    omega_beta: float,
) -> tuple[float, float, float]:
    """:func:`ptfollow.controller.predicted_error_rates`, reading each
    coefficient as an attribute."""
    w = omega_alpha + omega_r
    de_u = gains.lambda1 * v_r * terms.omega1 + terms.a * w + terms.b * omega_beta
    de_v = gains.lambda1 * v_r * terms.omega2 + terms.c * w + terms.d * omega_beta
    de_v2 = (
        de_v
        - gains.lambda2 * v_r * terms.omega3
        - terms.e * w
        - terms.f * omega_beta
    )
    return de_u, de_v, de_v2


def waypoint_position_scan(traj: WaypointTrajectory, t: float) -> tuple[float, float]:
    """:meth:`ptfollow.simworld.WaypointTrajectory.position`, measuring each
    segment with ``hypot`` on every call."""
    remaining = traj.speed * max(0.0, t - traj.delay)
    for (x0, y0), (x1, y1) in zip(traj.points, traj.points[1:]):
        seg = math.hypot(x1 - x0, y1 - y0)
        if remaining <= seg:
            if seg == 0.0:
                continue
            f = remaining / seg
            return (x0 + f * (x1 - x0), y0 + f * (y1 - y0))
        remaining -= seg
    return traj.points[-1]


def line_position_plain(traj: LineTrajectory, t: float) -> tuple[float, float]:
    """:meth:`ptfollow.simworld.LineTrajectory.position` with the builtin
    ``max``."""
    dt = max(0.0, t - traj.delay)
    return (traj.start[0] + traj.velocity[0] * dt, traj.start[1] + traj.velocity[1] * dt)


def occluded_at(noise: NoiseModel, t: float) -> bool:
    """Whether ``t`` lies in one of ``noise``'s occlusion windows; the
    windows do not overlap, so only the last one starting at or before ``t``
    can hold it."""
    i = bisect_right(noise._starts, t)
    return i > 0 and t < noise._ends[i - 1]


def simulated_track(
    truth: BoxMeasurement | None,
    last_box: BoxMeasurement,
    region_scale: float,
    noise: NoiseModel,
    t: float,
    rng: Random,
    k: CameraIntrinsics = CameraIntrinsics(),
) -> BoxMeasurement | None:
    """One tracker update against the synthetic measurement channel.

    Returns ``None`` (target lost) whenever the target is occluded, absent,
    outside the square search region around ``last_box``, or lost to a
    random dropout, or its noisy box is outside the image ``k`` (the test
    ``0 <= u < width and 0 <= v2 < v < height`` that the loop puts on a
    rendered box too); otherwise returns the
    (possibly noise-perturbed) truth.
    """
    if truth is None or occluded_at(noise, t):
        return None
    half = region_scale * RecoveryPolicy.search_dilation * last_box.half_height
    if not (abs(truth.u - last_box.u) <= half and abs(truth.v - last_box.v) <= half):
        return None
    if noise.dropout_prob > 0.0 and rng.random() < noise.dropout_prob:
        return None
    if noise.sigma_px > 0.0:
        random, sigma = rng.random, noise.sigma_px
        du, dv, dv2 = normal(random, sigma), normal(random, sigma), normal(random, sigma)
        v = truth.v + dv
        v2 = min(truth.v2 + dv2, v - 1.0)  # keep at least 1 px of half height
        u = truth.u + du
        if not (0.0 <= u < k.width and 0.0 <= v2 < v < k.height):
            return None
        return BoxMeasurement(u, v, v2)
    return truth


def pipeline_step_with_cap(
    pipe: PerceptionPipeline, truth: BoxMeasurement | None, t: float, rng
) -> PerceptionOutput:
    """:meth:`ptfollow.perception.PerceptionPipeline.step` as calls: the
    tracker update by :func:`simulated_track`, the search-region cap computed
    on every tracked tick, and the recovery machine stepped with
    :func:`ptfollow.perception.recovery_step`."""
    if pipe._box is None:
        detection = None if (truth is None or occluded_at(pipe.noise, t)) else truth
        pipe._box = gate_update(pipe.window, detection)
        if pipe._box is None:
            return PerceptionOutput(None, False, 0.0, 1.0, False, False)
        score = SEEN_SCORE
    else:
        seen = simulated_track(
            truth, pipe._box, pipe.recovery.region_scale,
            pipe.noise, t, rng, pipe.intrinsics,
        )
        if seen is None:
            score = LOST_SCORE
        else:
            score = SEEN_SCORE
            pipe._box = seen
        # the multiplier at which the search region covers the whole image
        nominal = RecoveryPolicy.search_dilation * pipe._box.half_height
        k = pipe.intrinsics
        cap = max(1.0, max(k.width, k.height) / nominal)
        pipe.recovery = recovery_step(pipe.recovery, score, cap)
    failed = pipe.recovery.failure_state
    return PerceptionOutput(pipe._box, failed, score, pipe.recovery.region_scale, failed, True)


def clamp(value: float, limit: float) -> tuple[float, bool]:
    """One rate of :meth:`ptfollow.controller.FollowController.step`'s
    saturation, as a function: ``value`` clipped to ``+/-limit``, and whether
    it was.  A NaN passes through unsaturated."""
    if value > limit:
        return limit, True
    if value < -limit:
        return -limit, True
    return value, False


def hold_and_decay(last: ControlCommand, freeze_rotation: bool) -> ControlCommand:
    """The degraded command after ``last``: half its speed, its rotation
    rates held or, with ``freeze_rotation``, zero."""
    return ControlCommand(
        v_r=0.5 * last.v_r,
        omega_r=0.0 if freeze_rotation else last.omega_r,
        omega_alpha=0.0 if freeze_rotation else last.omega_alpha,
        omega_beta=0.0 if freeze_rotation else last.omega_beta,
        hold=True,
    )


def follow_step(
    last: ControlCommand,
    box: BoxMeasurement | None,
    angles: PanTiltAngles,
    hold: bool,
    err: ImageErrors | None,
    gains: ControllerGains,
    k: CameraIntrinsics,
    limits: SaturationLimits,
) -> ControlCommand:
    """:meth:`ptfollow.controller.FollowController.step` after the command
    ``last``, composed of the plain functions: :func:`compute_errors`,
    the re-derived :func:`jacobian_terms`, :func:`robot_angular_strategy`,
    :func:`partitioned_law` with its guards, and :func:`clamp` per rate."""
    if box is None:
        return ControlCommand(0.0, 0.0, 0.0, 0.0)
    if hold:
        return hold_and_decay(last, freeze_rotation=True)
    if err is None:
        err = compute_errors(box, k, gains.target_half_height)
    terms = jacobian_terms(err, box, angles, k, gains)
    omega_r = robot_angular_strategy(angles.alpha)
    try:
        v_r, omega_alpha, omega_beta = partitioned_law(
            err, terms, gains, omega_r, *partition_eps(k, gains)
        )
    except SingularConfigurationError:
        return hold_and_decay(last, freeze_rotation=False)
    clamped = (
        clamp(v_r, limits.v_max),
        clamp(omega_r, limits.omega_r_max),
        clamp(omega_alpha, limits.omega_alpha_max),
        clamp(omega_beta, limits.omega_beta_max),
    )
    flags = SaturationFlags(*(flag for _, flag in clamped))
    return ControlCommand(*(rate for rate, _ in clamped), saturated=flags)


class _OldScenarioLoader(yaml.SafeLoader):
    pass


# YAML 1.2's exponent floats, such as 1e-3 and 1E5, which YAML 1.1 reads as
# strings; after the int resolver, so 10, 0x10 and 1_000 stay integers
_OldScenarioLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def pyyaml_load(raw: bytes):
    """A scenario file's bytes as PyYAML's ``SafeLoader`` with YAML 1.2's
    exponent floats reads them: the loader scenario files had before
    ``ptfollow.scenario_text``."""
    return yaml.load(raw, Loader=_OldScenarioLoader)


def same_value(a, b, pairs: dict | None = None) -> bool:
    """Whether two read values are the same: equal types at every place (so
    ``True`` is not ``1``), floats with the same bits or both NaN, keys in the
    same order, and a collection that holds itself where the other does."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex() or (math.isnan(a) and math.isnan(b))
    if not isinstance(a, (list, dict)):
        return a == b
    pairs = {} if pairs is None else pairs
    if id(a) in pairs:
        return pairs[id(a)] is b
    pairs[id(a)] = b
    if isinstance(a, dict):
        return len(a) == len(b) and all(
            same_value(ka, kb, pairs) and same_value(a[ka], b[kb], pairs) for ka, kb in zip(a, b)
        )
    return len(a) == len(b) and all(same_value(x, y, pairs) for x, y in zip(a, b))
