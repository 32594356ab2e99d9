"""Closed-loop scenario execution.

The loop carries the robot's pose and joint angles as five float locals,
``x, y, theta, alpha, beta``.  One tick is: render the ground-truth box
``(u, v, v2)`` from them and the person's position at ``t = tick * dt``,
push it through the perception pipeline, compute the control command, log,
and integrate the pose and angles.  Render and integrate run inline, each
expression as in :func:`~ptfollow.simworld.render_measurement` and
:func:`~ptfollow.simworld.integrate`, so the outputs have their bits;
integrate reuses render's ``cos``/``sin`` of the heading, as both take the
heading from before the update.  The box, the angles handed to the
controller and the pixel errors ``(e_u, e_v, e_v2)`` are plain tuples
because every stage takes them apart by position; the records that a reader
outside the loop reads by field name (``PerceptionOutput``,
``ControlCommand``) stay ``NamedTuple`` records.  The tracker noise comes
from one ``random.Random(seed)`` per run, so a configuration and seed give
the same outputs in every process on a given Python version.
"""

from __future__ import annotations

import math
from random import Random

from .config import ScenarioConfig
# The loop calls none of compute_errors, target_position, render_measurement
# and integrate; they stay here, where the benchmark's tracer looks them up
# (their spans count 0 calls), and the last two are the plain forms the tests
# check the inline world step against.
from .controller import FollowController, compute_errors  # noqa: F401
from .perception import PerceptionPipeline
from .runlog import RunSummary, TimeSeriesLog, summarize
from .simworld import integrate, render_measurement, target_position  # noqa: F401


def run_scenario(config: ScenarioConfig) -> TimeSeriesLog:
    """Execute the closed loop and return the per-tick log."""
    controller = FollowController(
        gains=config.gains,
        intrinsics=config.intrinsics,
        saturation=config.saturation,
    )
    pipeline = PerceptionPipeline(noise=config.noise, intrinsics=config.intrinsics)
    rng = Random(config.seed)
    log = TimeSeriesLog()
    nan = math.nan
    k, target_half_height = config.intrinsics, config.gains.target_half_height
    u0, v0, ax, ay, width, height = k.u0, k.v0, k.alpha_x, k.alpha_y, k.width, k.height
    dt, body = config.dt, config.body
    h_cam = body.camera_height
    dz_center, dz_head = body.body_center_height - h_cam, body.head_height - h_cam
    alpha_max, beta_max = config.joints.alpha_max, config.joints.beta_max
    pi, two_pi, cos, sin, fmod = math.pi, 2.0 * math.pi, math.cos, math.sin, math.fmod
    # bound once per run; the benchmark wraps these methods before the run
    perceive, control, append = pipeline.step, controller.step, log.append
    position = config.trajectory.position
    x, y, theta = config.robot_start
    alpha, beta = config.initial_angles

    for tick in range(config.n_ticks):
        t = tick * dt
        tx, ty = position(t)
        # render_measurement: the rotation once, then both body points
        dx, dy = tx - x, ty - y
        ct, st = cos(theta), sin(theta)
        rx = ct * dx + st * dy
        ry = -st * dx + ct * dy
        sa, ca = sin(alpha), cos(alpha)
        sb, cb = sin(beta), cos(beta)
        row_z = cb * ca * rx + cb * sa * ry
        z_center = row_z + sb * dz_center
        z_head = row_z + sb * dz_head
        truth = None
        if z_center > 0.0 and z_head > 0.0:
            row_y = sb * ca * rx + sb * sa * ry
            u = u0 + ax * (sa * rx - ca * ry) / z_center
            v = v0 + ay * (row_y - cb * dz_center) / z_center
            v2 = v0 + ay * (row_y - cb * dz_head) / z_head
            if 0.0 <= u < width and 0.0 <= v2 < v < height:
                truth = (u, v, v2)
        box, hold, score, region_scale, failed, _ = perceive(truth, t, rng)
        if box is not None:
            # compute_errors, once per tick, for the log and the controller
            u, v, v2 = box
            h = v - v2  # half height
            e_u, e_v, e_v2 = u - u0, v - v0, h - target_half_height
            err = (e_u, e_v, e_v2)
        else:
            err = None
            e_u = e_v = e_v2 = h = nan
        v_r, omega_r, omega_alpha, omega_beta, _, _ = control(box, (alpha, beta), hold, err)
        append(  # a list, which the log takes without a copy
            [
                t, e_u, e_v, e_v2, h, v_r, omega_r, omega_alpha, omega_beta,
                alpha, beta, x, y, theta, tx, ty,
                score, region_scale, 1.0 if failed else 0.0,
            ]
        )
        # integrate: the pose advances with render's pre-update heading
        x += v_r * ct * dt
        y += v_r * st * dt
        theta = fmod(theta + omega_r * dt + pi, two_pi)  # wrap to (-pi, pi]
        if theta <= 0.0:
            theta += two_pi
        theta -= pi
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

    return log


def summarize_run(config: ScenarioConfig, log: TimeSeriesLog) -> RunSummary:
    """Summary with the run's configured reference values."""
    return summarize(log, config.gains.target_half_height, config.saturation)
