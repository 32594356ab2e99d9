"""Frame math for a pan-tilt camera mounted on a differential-drive robot.

Coordinate conventions used throughout the package:

World frame
    X/Y span the ground plane, Z points up.

Robot frame
    Origin at the midpoint of the wheel axis, X forward, Y left, Z up.
    The planar pose is ``(x, y, theta)`` with ``theta`` measured
    counter-clockwise from world +X.

Camera frame
    Standard image convention: X right in the image, Y down, Z along the
    optical axis.  The camera sits on the pan-tilt unit directly above the
    robot origin at a configured height, so rotations of the base or of the
    joints never translate the optical center.

Joint angles
    ``alpha`` (pan) is positive when the camera turns left (counter-clockwise
    seen from above).  ``beta`` (tilt) is positive when the optical axis rises
    above the horizon.  At ``alpha = beta = 0`` the optical axis coincides
    with the robot forward axis, the image u-axis points to the robot's
    right and the image v-axis points down.

Vertical offsets
    Heights relative to the camera are expressed in the camera's down-positive
    sense: a point *above* the optical center has a *negative* offset.  This
    keeps the depth-from-height formula positive for physically consistent
    inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class JointLimitError(ValueError):
    """Pan or tilt angle outside the configured joint range."""


class BehindCameraError(ValueError):
    """Projection requested for a point at or behind the optical center."""


def require_positive(obj, *names: str) -> None:
    """Reject the first named field of ``obj`` that is not > 0, naming only the field."""
    for name in names:
        value = getattr(obj, name)
        if not value > 0:
            raise ValueError(f"{name}: must be > 0, got {value!r}")


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters, all in pixels."""

    alpha_x: float = 500.0
    alpha_y: float = 500.0
    u0: float = 320.0
    v0: float = 240.0
    width: int = 640
    height: int = 480

    def __post_init__(self) -> None:
        require_positive(self, "alpha_x", "alpha_y", "width", "height")
        if not (0 <= self.u0 < self.width):
            raise ValueError("u0: must lie in [0, width)")
        if not (0 <= self.v0 < self.height):
            raise ValueError("v0: must lie in [0, height)")


@dataclass(frozen=True)
class CameraPoint:
    """Point in the camera frame, meters.  ``z`` is optical-axis depth."""

    x: float
    y: float
    z: float


@dataclass(frozen=True)
class PanTiltAngles:
    """Pan/tilt joint angles in radians."""

    alpha: float = 0.0
    beta: float = 0.0


@dataclass(frozen=True)
class JointLimits:
    """Symmetric joint range; defaults give the full useful envelope of a
    typical pan-tilt unit."""

    alpha_max: float = math.pi / 2
    beta_max: float = math.pi / 3

    def __post_init__(self) -> None:
        require_positive(self, "alpha_max", "beta_max")

    def check(self, angles: PanTiltAngles) -> None:
        """Raise :class:`JointLimitError` naming the first angle outside the range."""
        for name, limit in (("alpha", self.alpha_max), ("beta", self.beta_max)):
            value = getattr(angles, name)
            if abs(value) > limit:
                raise JointLimitError(f"{name}: {value!r} outside +/-{limit!r}")

    def clamp(self, alpha: float, beta: float) -> PanTiltAngles:
        """The angles ``alpha``, ``beta`` clamped to the range."""
        return PanTiltAngles(
            min(max(alpha, -self.alpha_max), self.alpha_max),
            min(max(beta, -self.beta_max), self.beta_max),
        )


DEFAULT_JOINT_LIMITS = JointLimits()


def project(p: CameraPoint, k: CameraIntrinsics) -> tuple[float, float]:
    """Pinhole projection to pixel coordinates ``(u, v)``, v increasing down.

    Raises:
        BehindCameraError: if ``p.z <= 0``.
    """
    if p.z <= 0:
        raise BehindCameraError(f"cannot project point with depth {p.z}")
    u = k.u0 + k.alpha_x * p.x / p.z
    v = k.v0 + k.alpha_y * p.y / p.z
    return u, v


def world_to_camera(
    robot_pose: tuple[float, float, float],
    camera_height: float,
    angles: PanTiltAngles,
    p_world,
) -> CameraPoint:
    """Transform a world point into the camera frame.

    ``robot_pose`` is ``(x, y, theta)``; the optical center sits at
    ``(x, y, camera_height)`` in world coordinates.  Valid at any joint
    angles; the run keeps them inside its range (see :func:`JointLimits.clamp`).
    """
    x, y, theta = robot_pose
    px, py, pz = float(p_world[0]), float(p_world[1]), float(p_world[2])
    dx, dy, dz = px - x, py - y, pz - camera_height
    ct, st = math.cos(theta), math.sin(theta)
    # world -> robot frame (rotation about Z by -theta)
    rx = ct * dx + st * dy
    ry = -st * dx + ct * dy
    sa, ca = math.sin(angles.alpha), math.cos(angles.alpha)
    sb, cb = math.sin(angles.beta), math.cos(angles.beta)
    # the rows of the camera-from-robot rotation matrix times (rx, ry, dz), summed
    # left to right
    return CameraPoint(
        sa * rx - ca * ry,
        sb * ca * rx + sb * sa * ry - cb * dz,
        cb * ca * rx + cb * sa * ry + sb * dz,
    )


def vertical_offset(camera_height: float, point_height: float) -> float:
    """Down-positive vertical offset of a world point relative to the camera."""
    return camera_height - point_height


@dataclass(frozen=True)
class BodyModel:
    """Vertical-segment person model plus the camera mount height, meters.

    The body center sits at half the person's height; ``None`` derives it.
    """

    camera_height: float = 0.7
    body_center_height: float | None = None
    head_height: float = 1.8

    def __post_init__(self) -> None:
        center = self.head_height / 2.0
        if self.body_center_height is None:
            object.__setattr__(self, "body_center_height", center)
        if not 0.0 < self.camera_height < self.head_height:
            raise ValueError("camera_height: must lie in (0, head_height)")
        if abs(self.body_center_height - center) > 1e-9:
            raise ValueError("body_center_height: must equal head_height / 2")

    @property
    def offset_body(self) -> float:
        """Down-positive vertical offset of the body center from the camera."""
        return vertical_offset(self.camera_height, self.body_center_height)

    @property
    def offset_head(self) -> float:
        return vertical_offset(self.camera_height, self.head_height)

    @property
    def lambda1(self) -> float:
        """Inverse body-center offset (signed, down-positive convention)."""
        return 1.0 / self.offset_body

    @property
    def lambda2(self) -> float:
        return 1.0 / self.offset_head
