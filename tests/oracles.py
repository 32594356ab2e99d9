"""Verification oracles: independent forms of the loop's math.

The closed loop never calls these.  The tests and acceptance criteria check
the loop's arithmetic against them: the camera rotation as a matrix, the
camera and point velocities built from it and their hand expansion, the
exact unicycle arc flow, depth recovery from a known vertical offset, and
the true depth of the body center.
"""

from __future__ import annotations

import math

import numpy as np

from ptfollow.controller import ControlCommand
from ptfollow.geometry import (
    DEFAULT_JOINT_LIMITS,
    BodyModel,
    CameraIntrinsics,
    CameraPoint,
    JointLimits,
    PanTiltAngles,
    world_to_camera,
)
from ptfollow.simworld import SimState, wrap_angle


class DepthUnobservableError(ValueError):
    """Depth recovery is degenerate: the measured row is too close to the
    horizon line for the current tilt."""


def as_array(p: CameraPoint) -> np.ndarray:
    return np.array([p.x, p.y, p.z])


def rotation_camera_from_robot(
    angles: PanTiltAngles, limits: JointLimits = DEFAULT_JOINT_LIMITS
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
    limits: JointLimits = DEFAULT_JOINT_LIMITS,
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
    state: SimState, body: BodyModel, k: CameraIntrinsics
) -> float:
    """Camera-frame depth of the body-center point."""
    tx, ty = state.target
    p = world_to_camera(
        state.robot, body.camera_height, state.angles, (tx, ty, body.body_center_height)
    )
    return p.z


def integrate_exact_arc(
    state: SimState,
    cmd: ControlCommand,
    dt: float,
    joint_limits: JointLimits = DEFAULT_JOINT_LIMITS,
) -> SimState:
    """Closed-form unicycle flow for constant commands over ``dt``.

    Exact for any sign of ``dt``; the reference for
    :func:`ptfollow.simworld.integrate` and for finite-difference checks where
    Euler bias would pollute the comparison.
    """
    x, y, theta = state.robot
    if abs(cmd.omega_r) > 1e-12:
        ratio = cmd.v_r / cmd.omega_r
        x += ratio * (math.sin(theta + cmd.omega_r * dt) - math.sin(theta))
        y -= ratio * (math.cos(theta + cmd.omega_r * dt) - math.cos(theta))
    else:
        x += cmd.v_r * math.cos(theta) * dt
        y += cmd.v_r * math.sin(theta) * dt
    theta = wrap_angle(theta + cmd.omega_r * dt)
    angles = joint_limits.clamp(
        PanTiltAngles(
            alpha=state.angles.alpha + cmd.omega_alpha * dt,
            beta=state.angles.beta + cmd.omega_beta * dt,
        )
    )
    return SimState(state.t + dt, (x, y, theta), angles, state.target)
