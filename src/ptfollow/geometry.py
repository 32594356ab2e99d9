"""Frame math for a pan-tilt camera mounted on a differential-drive robot,
and :func:`check_fields`, the one field validator of every config dataclass.
A field's annotation carries its type and a range rule that many fields
share (``PositiveFloat``, ``PositiveInt``: a number > 0); ``__post_init__``
keeps the rules that read several fields or that one field alone has.

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
import sys
from dataclasses import dataclass, fields
from functools import partial
from typing import Any, Callable, NamedTuple


class ConfigError(ValueError):
    """Invalid scenario configuration; the message names the offending field."""


class JointLimitError(ValueError):
    """Pan or tilt angle outside the configured joint range."""


class BehindCameraError(ValueError):
    """Projection requested for a point at or behind the optical center."""


class PanTiltAngles(NamedTuple):
    """Pan/tilt joint angles in radians, for callers that name them; the
    loop carries them as the plain pair ``(alpha, beta)``."""

    alpha: float = 0.0
    beta: float = 0.0


def _number(value: Any, path: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(f"{path}: expected a finite number, got {value!r}")


def _instance(kind: type, noun: str) -> Callable:
    def check(value: Any, path: str) -> Any:
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"{path}: expected {noun}, got {value!r}")
        return value

    return check


def _floats(names: tuple, shape: str, make: Callable = tuple) -> Callable:
    """Validator of a list or tuple holding one finite number per name, made
    into ``make(numbers)``; the item named ``n`` is ``<path>.n``, as a
    scenario file gives it, and the item at index ``i`` is ``<path>[i]``."""
    items = [f"[{n}]" if isinstance(n, int) else f".{n}" for n in names]

    def check(value: Any, path: str) -> tuple:
        if not isinstance(value, (tuple, list)) or len(value) != len(names):
            raise ConfigError(f"{path}: expected {shape}, got {value!r}")
        return make(_number(v, path + item) for v, item in zip(value, items))

    check.names = names
    return check


_pair = _floats((0, 1), "a pair [x, y]")


def _pairs(value: Any, path: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path}: expected a list of pairs, got {value!r}")
    return tuple(_pair(item, f"{path}[{i}]") for i, item in enumerate(value))


def _positive(check: Callable, value: Any, path: str) -> Any:
    number = check(value, path)
    if not number > 0:
        raise ConfigError(f"{path}: must be a finite number > 0, got {number!r}")
    return number


# The annotations of a field that takes a number > 0, checked by FIELD_CHECKS
PositiveFloat = float
PositiveInt = int

_integer = _instance(int, "an integer")

# One validator per config field annotation (a string, as the modules postpone
# their evaluation).  Each returns the value normalised, a float for an int
# and tuples for lists, or raises ConfigError naming the item at fault.
FIELD_CHECKS: dict[str, Callable[[Any, str], Any]] = {
    "float": _number,
    "int": _integer,
    "PositiveFloat": partial(_positive, _number),
    "PositiveInt": partial(_positive, _integer),
    "str": _instance(str, "a string"),
    "tuple[float, float]": _pair,
    "tuple[tuple[float, float], ...]": _pairs,
    "tuple[float, float, float]": _floats(("x", "y", "theta"), "a triple (x, y, theta)"),
    "PanTiltAngles": _floats(PanTiltAngles._fields, "a pair (alpha, beta)", PanTiltAngles._make),
}


def check_fields(obj) -> None:
    """Check each field of the config dataclass ``obj`` by its annotation and
    store the normalised value; ``None`` passes where the annotation allows
    it.  A field with no validator is a section: it must hold an instance of
    the class its annotation names in the module of ``obj``, and that
    instance checked its own fields."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        kind = f.type.removesuffix(" | None")
        if value is None and kind != f.type:
            continue
        check = FIELD_CHECKS.get(kind)
        if check is not None:
            object.__setattr__(obj, f.name, check(value, f.name))
        elif not isinstance(value, vars(sys.modules[type(obj).__module__])[kind]):
            raise ConfigError(f"{f.name}: expected a {kind}, got {value!r}")


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters, all in pixels."""

    alpha_x: PositiveFloat = 500.0
    alpha_y: PositiveFloat = 500.0
    u0: float = 320.0
    v0: float = 240.0
    width: PositiveInt = 640
    height: PositiveInt = 480

    def __post_init__(self) -> None:
        check_fields(self)
        if not (0 <= self.u0 < self.width):
            raise ConfigError("u0: must lie in [0, width)")
        if not (0 <= self.v0 < self.height):
            raise ConfigError("v0: must lie in [0, height)")


class CameraPoint(NamedTuple):
    """Point in the camera frame, meters.  ``z`` is optical-axis depth."""

    x: float
    y: float
    z: float


@dataclass(frozen=True)
class JointLimits:
    """Symmetric joint range; defaults give the full useful envelope of a
    typical pan-tilt unit."""

    alpha_max: PositiveFloat = math.pi / 2
    beta_max: PositiveFloat = math.pi / 3

    def __post_init__(self) -> None:
        check_fields(self)

    def check(self, angles: tuple[float, float]) -> None:
        """Raise :class:`JointLimitError` naming the first of ``(alpha, beta)`` out of range."""
        for name, value, limit in zip(("alpha", "beta"), angles, (self.alpha_max, self.beta_max)):
            if not abs(value) <= limit:  # NaN too
                raise JointLimitError(f"{name}: {value!r} outside +/-{limit!r}")


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
    angles: tuple[float, float],
    p_world,
) -> CameraPoint:
    """Transform a world point into the camera frame.

    ``robot_pose`` is ``(x, y, theta)`` and ``angles`` is ``(alpha, beta)``;
    the optical center sits at ``(x, y, camera_height)`` in world
    coordinates.  Valid at any joint
    angles; :func:`~ptfollow.simworld.integrate` keeps a run's in range.
    """
    x, y, theta = robot_pose
    px, py, pz = float(p_world[0]), float(p_world[1]), float(p_world[2])
    dx, dy, dz = px - x, py - y, pz - camera_height
    ct, st = math.cos(theta), math.sin(theta)
    # world -> robot frame (rotation about Z by -theta)
    rx = ct * dx + st * dy
    ry = -st * dx + ct * dy
    alpha, beta = angles
    sa, ca = math.sin(alpha), math.cos(alpha)
    sb, cb = math.sin(beta), math.cos(beta)
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

    The body center is stored as exactly half the person's height.
    """

    camera_height: float = 0.7
    body_center_height: float | None = None
    head_height: PositiveFloat = 1.8

    def __post_init__(self) -> None:
        check_fields(self)
        center = self.head_height / 2.0
        if not 0.0 < self.camera_height < self.head_height:  # NaN too
            raise ConfigError("camera_height: must lie in (0, head_height)")
        given = self.body_center_height  # None derives it
        if given is not None and not abs(given - center) <= 1e-9:  # NaN too
            raise ConfigError("body_center_height: must equal head_height / 2")
        object.__setattr__(self, "body_center_height", center)

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
