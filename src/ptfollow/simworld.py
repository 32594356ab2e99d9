"""Deterministic kinematic world for closed-loop runs.

The robot is a unicycle (forward speed plus yaw rate) carrying the pan-tilt
camera; the followed person is a vertical segment moving in the ground plane,
reduced to exactly the two points the controller regulates: the body center
and the head top.  Ground-truth box measurements come from projecting those
two points through the pinhole model.  Here the world state is two plain
tuples, the pose ``(x, y, theta)`` and the joint angles ``(alpha, beta)``,
and a rendered box is the plain triple ``(u, v, v2)``: every reader takes
them apart by position, and a plain tuple is built and unpacked in a
fraction of the time of a ``NamedTuple``.  Any pair, a
:class:`~ptfollow.geometry.PanTiltAngles` too, serves as the angles.
:func:`render_measurement` and :func:`integrate` are the plain forms of the
world step that ``run_scenario`` runs inline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from .controller import Box, ControlCommand
from .geometry import (
    BodyModel,
    CameraIntrinsics,
    ConfigError,
    JointLimits,
    PositiveFloat,
    check_fields,
)

# Bound here for the benchmark's ``geometry.world_to_camera`` span
# (perfbench/tracing.py:SPANS), which wraps ``ptfollow.simworld.world_to_camera``.
# render_measurement projects its two points inline, so that span counts no calls.
from .geometry import world_to_camera  # noqa: F401


@dataclass(frozen=True)
class CircleTrajectory:
    """Circular walk: ``(cx - r*cos(rate*t + phase), cy - r*sin(rate*t + phase))``."""

    center: tuple[float, float] = (0.5, 0.5)
    radius: PositiveFloat = 0.4
    rate: float = 1.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        check_fields(self)
        # each coordinate of the walk lies within |center| + radius
        (cx, cy), r = self.center, self.radius
        if not (math.isfinite(abs(cx) + r) and math.isfinite(abs(cy) + r)):
            raise ConfigError(
                f"radius: |center| + radius must be finite on each axis, got center"
                f" {list(self.center)} and radius {r!r}"
            )

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

    def __post_init__(self) -> None:
        check_fields(self)

    def position(self, t: float) -> tuple[float, float]:
        dt = t - self.delay
        dt = dt if dt > 0.0 else 0.0  # max(0.0, dt): 0.0 for NaN and -0.0
        return (self.start[0] + self.velocity[0] * dt, self.start[1] + self.velocity[1] * dt)


@dataclass(frozen=True)
class WaypointTrajectory:
    """Constant-speed walk along a polyline, holding at the final point.

    ``delay`` keeps the target at the first waypoint until that time, which
    makes scripted move-during-occlusion scenarios easy to write.
    """

    points: tuple[tuple[float, float], ...] = ()
    speed: PositiveFloat = 1.0
    delay: float = 0.0

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.points:
            raise ConfigError("points: must be a non-empty list of [x, y] pairs")
        # (x0, y0, x1, y1, length) per segment, measured once; not a
        # dataclass field, which the config parser reads as a scenario key
        segments = tuple(
            (x0, y0, x1, y1, math.hypot(x1 - x0, y1 - y0))
            for (x0, y0), (x1, y1) in zip(self.points, self.points[1:])
        )
        for i, (*_, seg) in enumerate(segments):
            if not math.isfinite(seg):
                raise ConfigError(
                    f"points[{i + 1}]: the segment from points[{i}] must have a finite"
                    f" length, got {seg!r}"
                )
        object.__setattr__(self, "_segments", segments)

    def position(self, t: float) -> tuple[float, float]:
        """The point ``speed * max(0.0, t - delay)`` along the polyline.

        That ``max`` is written as a comparison keeping the builtin's
        first-argument-wins rule (a NaN or ``-0.0`` elapsed time walks
        ``0.0``), and each segment length is subtracted in turn, since
        cumulative sums would round differently and move the target's
        pinned path by an ulp."""
        elapsed = t - self.delay
        remaining = self.speed * (elapsed if elapsed > 0.0 else 0.0)
        for x0, y0, x1, y1, seg in self._segments:
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
    robot: tuple[float, float, float],
    angles: tuple[float, float],
    cmd: ControlCommand,
    dt: float,
    joint_limits: JointLimits,
) -> tuple[tuple[float, float, float], tuple[float, float]]:
    """Semi-implicit Euler step: pose advances with the pre-update heading,
    joint angles integrate and clamp to their limits, heading wraps.

    ``wrap_angle`` and ``clamp_joints`` of ``tests/oracles.py`` run inline,
    each expression in its order, so the result has their bits.  The clamp's
    ``min(max(angle, -limit), limit)`` is written as two comparisons that
    keep the builtins' first-argument-wins rule: ``max(a, b)`` is
    ``b if b > a else a`` and ``min(a, b)`` is ``b if b < a else a``, so a
    NaN angle passes through as it does there."""
    if dt <= 0:
        raise ValueError("integrate: dt must be > 0")
    (x, y, theta), (alpha, beta) = robot, angles
    v_r, omega_r, omega_alpha, omega_beta, _, _ = cmd
    x += v_r * math.cos(theta) * dt
    y += v_r * math.sin(theta) * dt
    theta = math.fmod(theta + omega_r * dt + math.pi, 2.0 * math.pi)  # wrap to (-pi, pi]
    if theta <= 0.0:
        theta += 2.0 * math.pi
    theta -= math.pi
    alpha_max, beta_max = joint_limits.alpha_max, joint_limits.beta_max
    alpha += omega_alpha * dt
    if -alpha_max > alpha:
        alpha = -alpha_max
    if alpha_max < alpha:
        alpha = alpha_max
    beta += omega_beta * dt
    if -beta_max > beta:
        beta = -beta_max
    if beta_max < beta:
        beta = beta_max
    return (x, y, theta), (alpha, beta)


def render_measurement(
    robot: tuple[float, float, float],
    angles: tuple[float, float],
    target: tuple[float, float],
    body: BodyModel,
    k: CameraIntrinsics,
) -> Optional[Box]:
    """Ground-truth box ``(u, v, v2)`` from projecting the body-center and
    head-top points, in the field order of
    :class:`~ptfollow.controller.BoxMeasurement`, whose check ``v2 < v`` the
    image test implies.

    Returns ``None`` when the target is not measurable: either point at or
    behind the optical center, or the box center or its head-top row outside
    the image bounds.

    This is :func:`~ptfollow.geometry.world_to_camera` and
    :func:`~ptfollow.geometry.project` for the two points, fused: the
    rotation is evaluated once, and the two points share their ground-plane
    offset and every row term that does not involve height.  Each
    expression keeps the left-to-right order of those functions, so the
    box is the same to the last bit.
    """
    x, y, theta = robot
    tx, ty = target
    h_cam = body.camera_height
    dx, dy = tx - x, ty - y
    ct, st = math.cos(theta), math.sin(theta)
    # world -> robot frame (rotation about Z by -theta)
    rx = ct * dx + st * dy
    ry = -st * dx + ct * dy
    alpha, beta = angles
    sa, ca = math.sin(alpha), math.cos(alpha)
    sb, cb = math.sin(beta), math.cos(beta)
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
    # the head-top row must be in the image too, above the center row
    # (v2 < v fails only for degenerate geometry behind the mast)
    if not (0.0 <= u < k.width and 0.0 <= v2 < v < k.height):
        return None
    return (u, v, v2)
