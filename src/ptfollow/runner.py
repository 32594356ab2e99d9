"""Closed-loop scenario execution.

One tick is: render the ground-truth box from the world state, push it
through the perception pipeline, compute the control command, log, and
integrate the kinematics.  The tracker noise comes from one
``random.Random(seed)`` per run, so a configuration and seed give the same
outputs in every process on a given Python version.
"""

from __future__ import annotations

import math
from random import Random

from .config import ScenarioConfig
from .controller import FollowController, compute_errors
from .perception import PerceptionPipeline
from .runlog import RunSummary, TimeSeriesLog, summarize
from .simworld import SimState, integrate, render_measurement, target_position


def run_scenario(config: ScenarioConfig) -> TimeSeriesLog:
    """Execute the closed loop and return the per-tick log."""
    controller = FollowController(
        gains=config.gains,
        intrinsics=config.intrinsics,
        saturation=config.saturation,
        mode=config.mode,
    )
    pipeline = PerceptionPipeline(
        noise=config.noise,
        policy=config.recovery,
        intrinsics=config.intrinsics,
    )
    rng = Random(config.seed)
    state = SimState(robot=config.robot_start, angles=config.initial_angles)
    log = TimeSeriesLog()
    nan = math.nan

    for tick in range(config.n_ticks):
        t = tick * config.dt
        state = SimState(t, state.robot, state.angles, target_position(t, config.trajectory))
        truth = render_measurement(state, config.body, config.intrinsics)
        seen = pipeline.step(truth, t, rng)
        cmd = controller.step(seen.box, state.angles, hold=seen.hold)

        if seen.box is not None:
            err = compute_errors(
                seen.box, config.intrinsics, config.gains.target_half_height
            )
            e_u, e_v, e_v2, h = err.e_u, err.e_v, err.e_v2, seen.box.half_height
        else:
            e_u = e_v = e_v2 = h = nan
        log.append(
            (
                t,
                e_u,
                e_v,
                e_v2,
                h,
                cmd.v_r,
                cmd.omega_r,
                cmd.omega_alpha,
                cmd.omega_beta,
                state.angles.alpha,
                state.angles.beta,
                state.robot[0],
                state.robot[1],
                state.robot[2],
                state.target[0],
                state.target[1],
                seen.score,
                seen.region_scale,
                1.0 if seen.failure_state else 0.0,
            )
        )
        state = integrate(state, cmd, config.dt, config.joints)

    return log


def summarize_run(config: ScenarioConfig, log: TimeSeriesLog) -> RunSummary:
    """Summary with the run's configured reference values."""
    return summarize(
        log,
        target_half_height=config.gains.target_half_height,
        saturation=config.saturation,
    )
