"""Deterministic kinematic world for closed-loop runs.

The robot is a unicycle (forward speed plus yaw rate) carrying the pan-tilt
camera; the followed person is a vertical segment moving in the ground plane,
reduced to exactly the two points the controller regulates: the body center
and the head top.  Ground-truth box measurements come from projecting those
two points through the pinhole model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from .controller import BoxMeasurement, ControlCommand
from .geometry import (
    DEFAULT_JOINT_LIMITS,
    BodyModel,
    CameraIntrinsics,
    JointLimits,
    PanTiltAngles,
    require_positive,
)

# Bound here for the benchmark's ``geometry.world_to_camera`` span
# (perfbench/tracing.py:SPANS), which wraps ``ptfollow.simworld.world_to_camera``.
# render_measurement projects its two points inline, so that span counts no calls.
from .geometry import world_to_camera  # noqa: F401


def wrap_angle(theta: float) -> float:
    """Wrap to (-pi, pi]."""
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


@dataclass(frozen=True)
class SimState:
    """World snapshot: time, robot planar pose, joint angles, target plan
    position."""

    t: float = 0.0
    robot: tuple[float, float, float] = (0.0, 0.0, 0.0)
    angles: PanTiltAngles = PanTiltAngles()
    target: tuple[float, float] = (0.0, 0.0)


@dataclass(frozen=True)
class CircleTrajectory:
    """Circular walk: ``(cx - r*cos(rate*t + phase), cy - r*sin(rate*t + phase))``."""

    center: tuple[float, float] = (0.5, 0.5)
    radius: float = 0.4
    rate: float = 1.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        require_positive(self, "radius")

    def position(self, t: float) -> tuple[float, float]:
        ang = self.rate * t + self.phase
        return (
            self.center[0] - self.radius * math.cos(ang),
            self.center[1] - self.radius * math.sin(ang),
        )


@dataclass(frozen=True)
class LineTrajectory:
    """Constant-velocity walk starting after an optional delay."""

    start: tuple[float, float] = (0.0, 0.0)
    velocity: tuple[float, float] = (0.0, 0.0)
    delay: float = 0.0

    def position(self, t: float) -> tuple[float, float]:
        dt = max(0.0, t - self.delay)
        return (self.start[0] + self.velocity[0] * dt, self.start[1] + self.velocity[1] * dt)


@dataclass(frozen=True)
class WaypointTrajectory:
    """Constant-speed walk along a polyline, holding at the final point.

    ``delay`` keeps the target at the first waypoint until that time, which
    makes scripted move-during-occlusion scenarios easy to write.
    """

    points: tuple[tuple[float, float], ...] = ()
    speed: float = 1.0
    delay: float = 0.0

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("points: must be a non-empty list of [x, y] pairs")
        require_positive(self, "speed")

    def position(self, t: float) -> tuple[float, float]:
        remaining = self.speed * max(0.0, t - self.delay)
        for (x0, y0), (x1, y1) in zip(self.points, self.points[1:]):
            seg = math.hypot(x1 - x0, y1 - y0)
            if remaining <= seg:
                if seg == 0.0:
                    continue
                f = remaining / seg
                return (x0 + f * (x1 - x0), y0 + f * (y1 - y0))
            remaining -= seg
        return self.points[-1]


TargetTrajectory = Union[CircleTrajectory, LineTrajectory, WaypointTrajectory]


def target_position(t: float, traj: TargetTrajectory) -> tuple[float, float]:
    """Evaluate a trajectory at time ``t``."""
    return traj.position(t)


def integrate(
    state: SimState,
    cmd: ControlCommand,
    dt: float,
    joint_limits: JointLimits = DEFAULT_JOINT_LIMITS,
) -> SimState:
    """Semi-implicit Euler step: pose advances with the pre-update heading,
    joint angles integrate and clamp to their limits, heading wraps."""
    if dt <= 0:
        raise ValueError("integrate: dt must be > 0")
    x, y, theta = state.robot
    x += cmd.v_r * math.cos(theta) * dt
    y += cmd.v_r * math.sin(theta) * dt
    theta = wrap_angle(theta + cmd.omega_r * dt)
    angles = joint_limits.clamp(
        state.angles.alpha + cmd.omega_alpha * dt, state.angles.beta + cmd.omega_beta * dt
    )
    return SimState(state.t + dt, (x, y, theta), angles, state.target)


def render_measurement(
    state: SimState, body: BodyModel, k: CameraIntrinsics
) -> Optional[BoxMeasurement]:
    """Ground-truth box from projecting the body-center and head-top points.

    Returns ``None`` when the target is not measurable: either point at or
    behind the optical center, or the box center outside the image bounds.

    This is :func:`~ptfollow.geometry.world_to_camera` and
    :func:`~ptfollow.geometry.project` for the two points, fused: the
    rotation is evaluated once, and the two points share their ground-plane
    offset and every row term that does not involve height.  Each
    expression keeps the left-to-right order of those functions, so the
    box is the same to the last bit.
    """
    x, y, theta = state.robot
    tx, ty = state.target
    h_cam, ang = body.camera_height, state.angles
    dx, dy = tx - x, ty - y
    ct, st = math.cos(theta), math.sin(theta)
    # world -> robot frame (rotation about Z by -theta)
    rx = ct * dx + st * dy
    ry = -st * dx + ct * dy
    sa, ca = math.sin(ang.alpha), math.cos(ang.alpha)
    sb, cb = math.sin(ang.beta), math.cos(ang.beta)
    # camera-frame x is the same for both points; y and z differ only in the
    # height term added to these partial row sums
    cam_x = sa * rx - ca * ry
    row_y = sb * ca * rx + sb * sa * ry
    row_z = cb * ca * rx + cb * sa * ry
    dz_center = body.body_center_height - h_cam
    dz_head = body.head_height - h_cam
    z_center = row_z + sb * dz_center
    z_head = row_z + sb * dz_head
    if z_center <= 0.0 or z_head <= 0.0:
        return None
    u = k.u0 + k.alpha_x * cam_x / z_center
    v = k.v0 + k.alpha_y * (row_y - cb * dz_center) / z_center
    v2 = k.v0 + k.alpha_y * (row_y - cb * dz_head) / z_head
    if not (0.0 <= u < k.width and 0.0 <= v < k.height):
        return None
    if not v2 < v:  # only possible for degenerate geometry behind the mast
        return None
    return BoxMeasurement(u=u, v=v, v2=v2)
