"""Closed-loop scenario execution.

The loop carries two values, the robot's pose ``(x, y, theta)`` and its
joint angles ``(alpha, beta)``, both plain tuples from the first tick on.
One tick is: render the ground-truth box ``(u, v, v2)`` from them and the
person's position at ``t = tick * dt``, push it through the perception
pipeline, compute the control command, log, and integrate the pose and
angles.  The box and the angles are plain tuples because every stage takes
them apart by position; the records that a reader outside the loop reads by
field name (``PerceptionOutput``, ``ImageErrors``, ``ControlCommand``) stay
``NamedTuple`` records.  The tracker noise comes from one
``random.Random(seed)`` per run, so a configuration and seed
give the same outputs in every process on a given Python version.
"""

from __future__ import annotations

import math
from random import Random

from .config import ScenarioConfig
from .controller import FollowController, compute_errors
from .perception import PerceptionPipeline
from .runlog import RunSummary, TimeSeriesLog, summarize
from .simworld import integrate, render_measurement, target_position


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
    dt, body, joints, trajectory = config.dt, config.body, config.joints, config.trajectory
    # bound once per run; the benchmark wraps these methods before the run
    perceive, control, append = pipeline.step, controller.step, log.append
    robot, angles = config.robot_start, tuple(config.initial_angles)

    for tick in range(config.n_ticks):
        t = tick * dt
        target = target_position(t, trajectory)
        truth = render_measurement(robot, angles, target, body, k)
        box, hold, score, region_scale, failed, _ = perceive(truth, t, rng)
        if box is not None:
            # once per tick, for the log and the controller (the benchmark
            # traces this call as its "controller.errors" SPANS entry)
            err = compute_errors(box, k, target_half_height)
            e_u, e_v, e_v2 = err
            h = box[1] - box[2]  # half height
        else:
            err = None
            e_u = e_v = e_v2 = h = nan
        cmd = control(box, angles, hold, err)
        v_r, omega_r, omega_alpha, omega_beta, _, _ = cmd
        append(  # a list, which the log takes without a copy
            [
                t, e_u, e_v, e_v2, h, v_r, omega_r, omega_alpha, omega_beta,
                angles[0], angles[1], robot[0], robot[1], robot[2], target[0], target[1],
                score, region_scale, 1.0 if failed else 0.0,
            ]
        )
        robot, angles = integrate(robot, angles, cmd, dt, joints)

    return log


def summarize_run(config: ScenarioConfig, log: TimeSeriesLog) -> RunSummary:
    """Summary with the run's configured reference values."""
    return summarize(log, config.gains.target_half_height, config.saturation)
