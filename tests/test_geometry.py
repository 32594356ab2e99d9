"""Frame math: rotation construction, projection, depth recovery.

The derived expectations come from independent oracles computed here:
homogeneous-transform composition for the world-to-camera path, the matrix
velocity construction against its hand expansion, and projection round trips
for the depth formula.
"""

import math

import numpy as np
import pytest

from ptfollow.geometry import (
    BehindCameraError,
    CameraPoint,
    JointLimitError,
    JointLimits,
    PanTiltAngles,
    project,
    vertical_offset,
    world_to_camera,
)
from oracles import (
    DepthUnobservableError,
    clamp_joints,
    depth_from_height,
    point_velocity,
    point_velocity_expanded,
    rotation_camera_from_robot,
)


class TestRotation:
    def test_zero_angles_map_forward_speed_onto_optical_axis(self):
        rot = rotation_camera_from_robot(PanTiltAngles(0.0, 0.0))
        v_c = rot @ np.array([1.0, 0.0, 0.0])
        assert v_c[2] == 1.0
        assert v_c[0] == 0.0 and v_c[1] == 0.0

    def test_zero_angles_exactly_orthonormal(self):
        rot = rotation_camera_from_robot(PanTiltAngles(0.0, 0.0))
        assert np.array_equal(rot @ rot.T, np.eye(3))

    def test_orthonormal_det_one_over_random_angles(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            angles = PanTiltAngles(rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0))
            rot = rotation_camera_from_robot(angles)
            assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(rot) - 1.0) < 1e-12

    def test_point_velocity_matches_hand_expansion(self):
        # acceptance: 1000 random tuples, componentwise to 1e-9 absolute
        rng = np.random.default_rng(11)
        for _ in range(1000):
            angles = PanTiltAngles(
                rng.uniform(-math.pi / 3, math.pi / 3),
                rng.uniform(-math.pi / 3, math.pi / 3),
            )
            p = CameraPoint(*rng.uniform(-5.0, 5.0, size=3))
            cmd = rng.uniform(-2.0, 2.0, size=4)
            matrix_path = point_velocity(p, angles, *cmd)
            expanded = point_velocity_expanded(p, angles, *cmd)
            assert np.allclose(matrix_path, expanded, atol=1e-9)

    def test_joint_limits_enforced(self):
        with pytest.raises(JointLimitError):
            rotation_camera_from_robot(PanTiltAngles(alpha=2.0, beta=0.0))
        with pytest.raises(JointLimitError):
            rotation_camera_from_robot(PanTiltAngles(alpha=0.0, beta=1.2))
        tight = JointLimits(alpha_max=0.1, beta_max=0.1)
        with pytest.raises(JointLimitError):
            rotation_camera_from_robot(PanTiltAngles(alpha=0.2, beta=0.0), tight)

    @pytest.mark.parametrize(
        "kind", [lambda a, b: (a, b), PanTiltAngles], ids=["pair", "PanTiltAngles"]
    )
    def test_joint_limits_check_reads_the_pair_by_position(self, kind):
        # the loop's own (alpha, beta) pair and the named record alike
        limits = JointLimits()
        limits.check(kind(math.pi / 2, -math.pi / 3))  # the edges lie inside
        for angles, name in (((3.0, 0.2), "alpha"), ((0.2, -1.2), "beta"), ((math.nan, 0.0), "alpha")):
            with pytest.raises(JointLimitError, match=f"^{name}: "):
                limits.check(kind(*angles))

    def test_joint_limit_clamp(self):
        clamped = clamp_joints(JointLimits(), 3.0, -2.0)
        assert clamped.alpha == math.pi / 2
        assert clamped.beta == -math.pi / 3


class TestProjection:
    def test_on_axis_point(self, intrinsics):
        assert project(CameraPoint(0.0, 0.0, 1.0), intrinsics) == (320.0, 240.0)

    def test_linear_in_lateral_offset(self, intrinsics):
        assert project(CameraPoint(0.1, 0.0, 1.0), intrinsics) == (370.0, 240.0)

    def test_general_point(self, intrinsics):
        # direct formula: u = 320 + 500*0.2/2, v = 240 + 500*(-0.1)/2
        u, v = project(CameraPoint(0.2, -0.1, 2.0), intrinsics)
        assert (u, v) == (370.0, 215.0)
        # cross-check by inverse ray
        z = 2.0
        assert math.isclose((u - 320.0) / 500.0 * z, 0.2, abs_tol=1e-12)
        assert math.isclose((v - 240.0) / 500.0 * z, -0.1, abs_tol=1e-12)

    def test_behind_camera_rejected(self, intrinsics):
        with pytest.raises(BehindCameraError):
            project(CameraPoint(0.0, 0.0, 0.0), intrinsics)
        with pytest.raises(BehindCameraError):
            project(CameraPoint(0.1, 0.1, -1.0), intrinsics)


class TestWorldToCamera:
    def test_aligned_frames(self):
        p = world_to_camera((0.0, 0.0, 0.0), 0.7, PanTiltAngles(), (4.5, 0.0, 0.7))
        assert np.allclose([p.x, p.y, p.z], [0.0, 0.0, 4.5], atol=1e-12)

    def test_point_above_camera_has_negative_y(self):
        p = world_to_camera((0.0, 0.0, 0.0), 0.7, PanTiltAngles(), (4.5, 0.0, 0.9))
        assert np.allclose([p.x, p.y, p.z], [0.0, -0.2, 4.5], atol=1e-12)

    def test_rotated_robot_against_transform_oracle(self):
        # independent oracle: compose the two rigid transforms as 4x4 matrices
        theta, alpha, beta = math.pi / 2, 0.3, -0.2
        cam_h = 0.7
        p_world = np.array([0.3, 2.0, 1.1, 1.0])

        t_rw = np.eye(4)
        t_rw[:3, :3] = np.array(
            [
                [math.cos(theta), math.sin(theta), 0.0],
                [-math.sin(theta), math.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        t_rw[:3, 3] = t_rw[:3, :3] @ np.array([0.0, 0.0, -cam_h])
        t_cr = np.eye(4)
        t_cr[:3, :3] = rotation_camera_from_robot(PanTiltAngles(alpha, beta))
        expected = (t_cr @ t_rw @ p_world)[:3]

        p = world_to_camera((0.0, 0.0, theta), cam_h, PanTiltAngles(alpha, beta), p_world[:3])
        assert np.allclose([p.x, p.y, p.z], expected, atol=1e-12)

    def test_heading_along_world_y(self):
        p = world_to_camera((0.0, 0.0, math.pi / 2), 0.7, PanTiltAngles(), (0.0, 2.0, 0.9))
        assert np.allclose([p.x, p.y, p.z], [0.0, -0.2, 2.0], atol=1e-12)

    def test_one_step_equals_chained_transforms(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            pose = tuple(rng.uniform(-3, 3, size=2)) + (rng.uniform(-math.pi, math.pi),)
            angles = PanTiltAngles(rng.uniform(-1, 1), rng.uniform(-1, 1))
            pw = rng.uniform(-5, 5, size=3)
            cam_h = rng.uniform(0.3, 1.5)
            direct = world_to_camera(pose, cam_h, angles, pw)
            # chain: world -> robot, then robot -> camera
            x, y, theta = pose
            d = pw - np.array([x, y, cam_h])
            rz = np.array(
                [
                    [math.cos(theta), math.sin(theta), 0.0],
                    [-math.sin(theta), math.cos(theta), 0.0],
                    [0.0, 0.0, 1.0],
                ]
            )
            chained = rotation_camera_from_robot(angles) @ (rz @ d)
            assert np.allclose([direct.x, direct.y, direct.z], chained, atol=1e-12)


class TestDepthFromHeight:
    def test_zero_tilt_reduces_to_ratio(self, intrinsics):
        assert depth_from_height(100.0, 0.0, 0.2, intrinsics) == 1.0

    def test_zero_row_error_is_degenerate(self, intrinsics):
        with pytest.raises(DepthUnobservableError):
            depth_from_height(0.0, 0.0, 0.2, intrinsics)

    def test_round_trip_recovers_depth(self, intrinsics):
        # acceptance: 1000 valid placements, 1e-9 relative
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 1000:
            beta = rng.uniform(-1.0, 1.0)
            angles = PanTiltAngles(rng.uniform(-1.0, 1.0), beta)
            cam_h = rng.uniform(0.3, 1.5)
            point_h = rng.uniform(0.0, 2.5)
            if abs(cam_h - point_h) < 0.05:
                continue
            pose = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-math.pi, math.pi))
            dist = rng.uniform(1.0, 12.0)
            bearing = pose[2] + angles.alpha + rng.uniform(-0.5, 0.5)
            pw = (
                pose[0] + dist * math.cos(bearing),
                pose[1] + dist * math.sin(bearing),
                point_h,
            )
            p = world_to_camera(pose, cam_h, angles, pw)
            if p.z <= 0.1:
                continue
            u, v = project(p, intrinsics)
            e_v = v - intrinsics.v0
            b_y = vertical_offset(cam_h, point_h)
            den = e_v * math.cos(beta) - intrinsics.alpha_y * math.sin(beta)
            if abs(den) <= 10 * 1e-6 * intrinsics.alpha_y:
                continue
            depth = depth_from_height(e_v, beta, b_y, intrinsics)
            assert depth > 0
            assert abs(depth - p.z) <= 1e-9 * p.z
            checked += 1

    def test_near_degenerate_raises(self, intrinsics):
        # pick e_v, beta that cancel: e_v*cos(b) == alpha_y*sin(b)
        beta = 0.1
        e_v = intrinsics.alpha_y * math.tan(beta)
        with pytest.raises(DepthUnobservableError):
            depth_from_height(e_v, beta, 0.5, intrinsics)
