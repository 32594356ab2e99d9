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
The world step has two forms: ``run_scenario`` runs it inline, and
:func:`render_measurement` (one :func:`~ptfollow.geometry.world_to_camera`
and one :func:`~ptfollow.geometry.project` call per body point) and
:func:`integrate` (the builtin ``min``/``max`` clamp) are its plain
references, which the tests check the loop against.
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
    project,
    world_to_camera,
)


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
    heading wraps to (-pi, pi], joint angles integrate and clamp to their
    limits."""
    if dt <= 0:
        raise ValueError("integrate: dt must be > 0")
    (x, y, theta), (alpha, beta) = robot, angles
    v_r, omega_r, omega_alpha, omega_beta, _, _ = cmd
    x += v_r * math.cos(theta) * dt
    y += v_r * math.sin(theta) * dt
    theta = math.fmod(theta + omega_r * dt + math.pi, 2.0 * math.pi)
    if theta <= 0.0:
        theta += 2.0 * math.pi
    theta -= math.pi
    alpha_max, beta_max = joint_limits.alpha_max, joint_limits.beta_max
    alpha = min(max(alpha + omega_alpha * dt, -alpha_max), alpha_max)
    beta = min(max(beta + omega_beta * dt, -beta_max), beta_max)
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
    """
    tx, ty = target
    h_cam = body.camera_height
    center = world_to_camera(robot, h_cam, angles, (tx, ty, body.body_center_height))
    head = world_to_camera(robot, h_cam, angles, (tx, ty, body.head_height))
    if center.z <= 0.0 or head.z <= 0.0:
        return None
    u, v = project(center, k)
    _, v2 = project(head, k)
    # the head-top row must be in the image too, above the center row
    # (v2 < v fails only for degenerate geometry behind the mast)
    if not (0.0 <= u < k.width and 0.0 <= v2 < v < k.height):
        return None
    return (u, v, v2)
