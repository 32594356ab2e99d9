"""Acceptance suite: every shipped guarantee at its pinned tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` or ``-v`` to see
them) and asserts the criterion.  Derived expectations are computed from
independent oracles: finite differences against the nonlinear world for the
coefficient block, back-substitution for the rate solve, projection algebra
for distances and depths.
"""

import math
import time

import numpy as np

from conftest import (
    fd_error_rates,
    model_error_rates,
    random_command,
    sample_tracking_state,
)
from oracles import (
    DepthUnobservableError,
    depth_from_height,
    point_velocity,
    point_velocity_expanded,
)
from ptfollow.config import ScenarioConfig, preset_circle_sim
from ptfollow.controller import (
    BoxMeasurement,
    ControllerGains,
    FollowController,
    compute_errors,
    control_law,
    format_discrepancy_report,
    jacobian_discrepancy_report,
    jacobian_terms,
    predicted_error_rates,
    robot_angular_strategy,
    singularity_eps,
)
from ptfollow.geometry import (
    CameraIntrinsics,
    CameraPoint,
    PanTiltAngles,
    project,
    vertical_offset,
    world_to_camera,
)
from ptfollow.perception import NoiseModel, RecoveryState, recovery_step
from ptfollow.runner import run_scenario
from ptfollow.simworld import BodyModel, WaypointTrajectory


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_circle_reproduction():
    cfg = preset_circle_sim()
    assert cfg.mode == "re-derived" and cfg.noise.sigma_px == 0.0
    start = time.perf_counter()
    log = run_scenario(cfg)
    elapsed = time.perf_counter() - start

    assert len(log) == 3000  # 60 s at 50 Hz
    t = log.column("t")
    steady = t >= 30.0
    h = log.column("h")[steady]
    mean_h_err = float(np.nanmean(np.abs(h - 100.0)))
    max_e_u = float(np.nanmax(np.abs(log.column("e_u")[steady])))
    max_e_v = float(np.nanmax(np.abs(log.column("e_v")[steady])))
    v_r_mean = abs(float(np.nanmean(log.column("V_r")[steady])))
    rms_e_u = float(np.sqrt(np.nanmean(log.column("e_u")[steady] ** 2)))
    assert rms_e_u < 100.0  # saturation-consistent cap

    omega_alpha = log.column("omega_alpha")
    period_ticks = round(2.0 * math.pi / cfg.dt)
    i0 = int(30.0 / cfg.dt)
    periodicity = float(
        np.max(np.abs(omega_alpha[i0 : len(omega_alpha) - period_ticks]
                      - omega_alpha[i0 + period_ticks :]))
    )

    ok = (
        mean_h_err <= 10.0
        and max_e_u <= 50.0
        and max_e_v <= 50.0
        and periodicity < 0.02
        and v_r_mean < 0.05
        and elapsed < 2.0
    )
    _report(
        "1 (circle-following reproduction)",
        ok,
        f"mean|h-100|={mean_h_err:.2f}px, max|e_u|={max_e_u:.1f}px, "
        f"max|e_v|={max_e_v:.1f}px, omega_alpha periodicity dev={periodicity:.4f}rad/s, "
        f"|mean V_r|={v_r_mean:.4f}m/s, runtime={elapsed:.2f}s",
    )


def test_criterion_02_back_substitution_identity():
    k = CameraIntrinsics()
    body = BodyModel()
    gains = ControllerGains(lambda1=body.lambda1, lambda2=body.lambda2)
    rng = np.random.default_rng(202)
    eps = singularity_eps(k, gains)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        state, box = sample_tracking_state(rng, body, k, gains)
        err = compute_errors(box, k, gains.target_half_height)
        terms = jacobian_terms(err, box, state.angles, k, gains)
        omega_r = rng.uniform(-1.0, 1.0)
        v_r, omega_alpha, omega_beta = control_law(err, terms, gains, omega_r, eps)
        got = predicted_error_rates(err, terms, gains, v_r, omega_r, omega_alpha, omega_beta)
        want = (-gains.k1 * err.e_u, -gains.k2 * err.e_v, -gains.k3 * err.e_v2)
        for g, w in zip(got, want):
            worst = max(worst, abs(g - w) / max(1.0, abs(w)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 1.0
    _report(
        "2 (back-substitution identity)",
        ok,
        f"worst relative deviation {worst:.2e} over 1000 states, runtime={elapsed:.2f}s",
    )


def test_criterion_03_jacobian_oracle_and_report():
    k = CameraIntrinsics()
    body = BodyModel()
    gains = ControllerGains(lambda1=body.lambda1, lambda2=body.lambda2)
    rng = np.random.default_rng(303)
    worst = 0.0
    checked = 0
    while checked < 1000:
        state, box = sample_tracking_state(rng, body, k, gains)
        cmd = random_command(rng)
        fd = fd_error_rates(state, cmd, body, k, gains.target_half_height, dt=1e-4)
        if fd is None:
            continue
        model = model_error_rates(box, state.angles, cmd, k, gains, "re-derived")
        rel = np.abs(model - fd) / np.maximum(np.abs(fd), 1.0)
        worst = max(worst, float(rel.max()))
        checked += 1

    report = jacobian_discrepancy_report(k, gains, n_states=500, seed=303)
    text = format_discrepancy_report(report)
    report_ok = len(text.splitlines()) >= 10 and report["n_states"] == 500

    ok = worst < 0.01 and report_ok
    _report(
        "3 (finite-difference coefficient oracle)",
        ok,
        f"worst relative error {worst:.2e} over 1000 states; "
        f"mode-discrepancy report generated ({len(text.splitlines())} lines)",
    )


def test_criterion_04_point_velocity_equivalence():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        angles = PanTiltAngles(
            rng.uniform(-math.pi / 3, math.pi / 3),
            rng.uniform(-math.pi / 3, math.pi / 3),
        )
        p = CameraPoint(*rng.uniform(-5.0, 5.0, size=3))
        cmd = rng.uniform(-2.0, 2.0, size=4)
        diff = point_velocity(p, angles, *cmd) - point_velocity_expanded(p, angles, *cmd)
        worst = max(worst, float(np.max(np.abs(diff))))
    ok = worst <= 1e-9
    _report(
        "4 (velocity-expansion equivalence)",
        ok,
        f"max componentwise deviation {worst:.2e} over 1000 tuples",
    )


def test_criterion_05_depth_round_trip():
    k = CameraIntrinsics()
    rng = np.random.default_rng(505)
    worst = 0.0
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
        pw = (pose[0] + dist * math.cos(bearing), pose[1] + dist * math.sin(bearing), point_h)
        p = world_to_camera(pose, cam_h, angles, pw)
        if p.z <= 0.1:
            continue
        _, v = project(p, k)
        e_v = v - k.v0
        if abs(e_v * math.cos(beta) - k.alpha_y * math.sin(beta)) <= 10 * 1e-6 * k.alpha_y:
            continue
        depth = depth_from_height(e_v, beta, vertical_offset(cam_h, point_h), k)
        worst = max(worst, abs(depth - p.z) / p.z)
        checked += 1

    degenerate_raises = False
    try:
        depth_from_height(0.0, 0.0, 0.2, k)
    except DepthUnobservableError:
        degenerate_raises = True

    ok = worst <= 1e-9 and degenerate_raises
    _report(
        "5 (depth round trip)",
        ok,
        f"worst relative error {worst:.2e} over 1000 placements; degenerate row raises",
    )


def test_criterion_06_lambda_sanity():
    body = BodyModel(camera_height=0.7, body_center_height=0.9, head_height=1.8)
    l1, l2 = abs(body.lambda1), abs(body.lambda2)
    ok = math.isclose(l1, 5.0, abs_tol=1e-12) and abs(l2 - 0.909) <= 1e-3
    _report(
        "6 (inverse-offset constants)",
        ok,
        f"|lambda1|={l1:.6f} (want 5), |lambda2|={l2:.6f} (want 0.909 +/- 0.001)",
    )


def test_criterion_07_failure_recovery_behavior():
    # converge on a standing person, then a 2 s occlusion during which the
    # person walks 2 m sideways and stops
    t_occ0, t_occ1 = 20.0, 22.0
    cfg = ScenarioConfig(
        name="occlusion-walk",
        trajectory=WaypointTrajectory(
            points=((6.0, 0.0), (6.0, 2.0)), speed=1.0, delay=t_occ0
        ),
        noise=NoiseModel(occlusion_windows=((t_occ0, t_occ1),)),
        robot_start=(0.0, 0.0, 0.0),
        duration=40.0,
    )
    log = run_scenario(cfg)
    t = log.column("t")
    dt = cfg.dt
    failure = log.column("failure_state").astype(bool)
    scale = log.column("region_scale")

    first_occluded = int(np.searchsorted(t, t_occ0))
    declared_immediately = bool(failure[first_occluded]) and not failure[first_occluded - 1]

    occ = (t >= t_occ0) & (t < t_occ1)
    scale_during = scale[occ]
    monotone = bool(np.all(np.diff(scale_during) >= 0.0))

    # re-acquisition bound: displacement of the truth from the held box at
    # occlusion end, against the grown region
    end_tick = int(np.searchsorted(t, t_occ1))
    held_u = log.column("e_u")[end_tick - 1] + cfg.intrinsics.u0
    held_h = log.column("h")[end_tick - 1]
    recovered = np.nonzero(~failure[end_tick:])[0]
    latency = int(recovered[0]) if len(recovered) else 10**9
    reacq_u = log.column("e_u")[end_tick + latency] + cfg.intrinsics.u0
    displacement = abs(reacq_u - held_u)
    nominal = cfg.recovery.search_dilation * held_h
    bound = math.ceil(max(0.0, displacement / nominal - 1.0) / cfg.recovery.step_s)
    within_bound = latency <= bound

    # errors back under 5 px within 10 s of occlusion end
    back_window = (t >= t_occ1) & (t <= t_occ1 + 10.0)
    tail = (t > t_occ1 + 10.0 - dt / 2) & (t <= t_occ1 + 10.0)
    errs_small = all(
        float(np.nanmax(np.abs(log.column(c)[tail]))) < 5.0 for c in ("e_u", "e_v", "e_v2")
    )

    # hysteresis inside the score band
    state = RecoveryState(failure_state=True)
    hysteresis = all(
        recovery_step(state, s, 10.0).failure_state for s in (0.41, 0.6, 0.79)
    ) and not any(
        recovery_step(RecoveryState(), s, 10.0).failure_state for s in (0.41, 0.6, 0.79)
    )

    ok = (
        declared_immediately
        and monotone
        and within_bound
        and errs_small
        and hysteresis
        and bool(back_window.any())
    )
    _report(
        "7 (failure recovery)",
        ok,
        f"declared on first occluded tick={declared_immediately}, scale monotone={monotone}, "
        f"latency={latency} ticks (bound {bound}, displacement {displacement:.0f}px), "
        f"errors<5px within 10s={errs_small}, hysteresis={hysteresis}",
    )


def test_criterion_08_steady_state_distance():
    cfg = preset_circle_sim()
    # independent pinhole oracle for the equilibrium distance
    expected = (
        cfg.intrinsics.alpha_y
        * (cfg.body.head_height - cfg.body.body_center_height)
        / cfg.gains.target_half_height
    )
    log = run_scenario(cfg)
    t = log.column("t")
    steady = t >= 30.0
    dist = np.hypot(
        log.column("target_x") - log.column("robot_x"),
        log.column("target_y") - log.column("robot_y"),
    )
    mean_dist = float(np.mean(dist[steady]))
    ok = abs(mean_dist - expected) <= 0.05 * expected
    _report(
        "8 (steady-state following distance)",
        ok,
        f"mean distance {mean_dist:.3f}m vs pinhole-derived {expected:.3f}m (+/-5%)",
    )


def test_criterion_09_fixed_point_and_deadband():
    k = CameraIntrinsics()
    body = BodyModel()
    gains = ControllerGains(lambda1=body.lambda1, lambda2=body.lambda2)
    ctrl = FollowController(gains, k)
    box = BoxMeasurement(u=k.u0, v=k.v0, v2=k.v0 - gains.target_half_height)
    cmd = ctrl.step(box, PanTiltAngles())
    zero_exact = (cmd.v_r, cmd.omega_r, cmd.omega_alpha, cmd.omega_beta) == (0.0, 0.0, 0.0, 0.0)

    inside = all(
        robot_angular_strategy(a) == 0.0
        for a in (-math.pi / 6 + 1e-9, -0.3, 0.0, 0.3, math.pi / 6 - 1e-9)
    )
    outside = all(
        robot_angular_strategy(a) == 0.1 * a
        for a in (-1.5, -math.pi / 6 - 1e-9, math.pi / 6 + 1e-9, 0.7, 1.5)
    )
    ok = zero_exact and inside and outside
    _report(
        "9 (zero-error fixed point and yaw deadband)",
        ok,
        f"exact zero command={zero_exact}, deadband inside/outside exact={inside}/{outside}",
    )


def test_criterion_10_determinism(tmp_path):
    blobs = []
    for i in range(2):
        cfg = preset_circle_sim()
        log = run_scenario(cfg)
        path = tmp_path / f"run{i}.csv"
        log.write_csv(path)
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    _report(
        "10 (bit-identical determinism)",
        ok,
        f"two identical-seed runs, {len(blobs[0])} bytes each, byte-equal={blobs[0] == blobs[1]}",
    )
