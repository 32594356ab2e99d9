"""Shared fixtures and world-state samplers for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import settings

from oracles import integrate_exact_arc, solve_denominator_by_attribute
from ptfollow.controller import (
    BoxMeasurement,
    ControlCommand,
    ControllerGains,
    compute_errors,
    jacobian_terms,
    predicted_error_rates,
    singularity_eps,
)
from ptfollow.geometry import CameraIntrinsics, PanTiltAngles
from ptfollow.simworld import (
    BodyModel,
    SimState,
    render_measurement,
)


# ``python tests/mutants.py`` selects this profile (``--hypothesis-profile
# mutants``): each property then draws at most MUTANT_EXAMPLES examples,
# whatever its own ``@settings`` asks for, in an order fixed by its source.
MUTANT_EXAMPLES = 20
settings.register_profile(
    "mutants", max_examples=MUTANT_EXAMPLES, derandomize=True, database=None
)


def pytest_collection_modifyitems(items):
    if settings.get_current_profile_name() != "mutants":
        return
    for item in items:
        test = getattr(item, "function", None)
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is not None and own.max_examples > MUTANT_EXAMPLES:
            test._hypothesis_internal_use_settings = settings(own, max_examples=MUTANT_EXAMPLES)


@pytest.fixture
def intrinsics() -> CameraIntrinsics:
    return CameraIntrinsics()


@pytest.fixture
def body() -> BodyModel:
    return BodyModel()


@pytest.fixture
def gains(body: BodyModel) -> ControllerGains:
    return ControllerGains(lambda1=body.lambda1, lambda2=body.lambda2)


def sample_tracking_state(
    rng: np.random.Generator,
    body: BodyModel,
    k: CameraIntrinsics,
    gains: ControllerGains,
    margin_px: float = 8.0,
) -> tuple[SimState, BoxMeasurement]:
    """Draw a random world state whose rendered box is valid, comfortably
    inside the image, and non-singular for the rate solve."""
    while True:
        theta = rng.uniform(-math.pi, math.pi)
        alpha = rng.uniform(-1.0, 1.0)
        beta = rng.uniform(-0.5, 0.5)
        depth = rng.uniform(2.0, 10.0)
        bearing = theta + alpha + rng.uniform(-0.4, 0.4)
        rx, ry = rng.uniform(-1.0, 1.0, size=2)
        state = SimState(
            t=0.0,
            robot=(rx, ry, theta),
            angles=PanTiltAngles(alpha, beta),
            target=(rx + depth * math.cos(bearing), ry + depth * math.sin(bearing)),
        )
        box = render_measurement(state, body, k)
        if box is None:
            continue
        if not (
            margin_px <= box.u <= k.width - margin_px
            and margin_px <= box.v <= k.height - margin_px
        ):
            continue
        err = compute_errors(box, k, gains.target_half_height)
        terms = jacobian_terms(err, box, state.angles, k, gains)
        if abs(solve_denominator_by_attribute(terms, gains)) <= 100.0 * singularity_eps(k, gains):
            continue
        return state, box


def random_command(rng: np.random.Generator) -> tuple[float, float, float, float]:
    """(v_r, omega_r, omega_alpha, omega_beta) within the actuator envelope."""
    return (
        rng.uniform(-1.2, 1.2),
        rng.uniform(-1.0, 1.0),
        rng.uniform(-1.5, 1.5),
        rng.uniform(-1.5, 1.5),
    )


def fd_error_rates(
    state: SimState,
    cmd: tuple[float, float, float, float],
    body: BodyModel,
    k: CameraIntrinsics,
    target_half_height: float,
    dt: float = 1e-4,
) -> np.ndarray | None:
    """Central-difference pixel-error rates under constant commands.

    Uses the exact unicycle arc flow so the differencing error stays at
    O(dt^2).  Returns None when either perturbed state loses the box.
    """
    wrapped = ControlCommand(*cmd)
    fwd = integrate_exact_arc(state, wrapped, dt)
    bwd = integrate_exact_arc(state, wrapped, -dt)
    rates = []
    for s in (fwd, bwd):
        box = render_measurement(s, body, k)
        if box is None:
            return None
        err = compute_errors(box, k, target_half_height)
        rates.append(np.array([err.e_u, err.e_v, err.e_v2]))
    return (rates[0] - rates[1]) / (2.0 * dt)


def model_error_rates(
    box: BoxMeasurement,
    angles: PanTiltAngles,
    cmd: tuple[float, float, float, float],
    k: CameraIntrinsics,
    gains: ControllerGains,
    mode: str = "re-derived",
) -> np.ndarray:
    """Error rates predicted by the linear model at the measured state."""
    err = compute_errors(box, k, gains.target_half_height)
    terms = jacobian_terms(err, box, angles, k, gains, mode)
    v_r, omega_r, omega_alpha, omega_beta = cmd
    return np.array(
        predicted_error_rates(err, terms, gains, v_r, omega_r, omega_alpha, omega_beta)
    )
