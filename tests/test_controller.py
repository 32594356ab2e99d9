"""Controller: pixel errors, coefficient block, rate solve, step semantics.

The linear model's correctness is adjudicated by finite differences against
the nonlinear world (re-derived mode must match within 1%, the hand-tabulated
as-printed mode demonstrably does not), and the rate solve by the
back-substitution identity.
"""

import math

import numpy as np
import pytest

from conftest import (
    fd_error_rates,
    model_error_rates,
    random_command,
    sample_tracking_state,
)
from ptfollow.controller import (
    BoxMeasurement,
    ControllerGains,
    FollowController,
    SaturationLimits,
    SingularConfigurationError,
    compute_errors,
    control_law,
    format_discrepancy_report,
    jacobian_discrepancy_report,
    jacobian_terms,
    predicted_error_rates,
    robot_angular_strategy,
    singularity_eps,
)
from ptfollow.geometry import PanTiltAngles
from ptfollow.simworld import SimState, integrate, render_measurement


class TestComputeErrors:
    def test_centered_box_at_reference_height(self, intrinsics):
        box = BoxMeasurement(u=320.0, v=240.0, v2=140.0)
        err = compute_errors(box, intrinsics, 100.0)
        assert (err.e_u, err.e_v, err.e_v2) == (0.0, 0.0, 0.0)

    def test_large_column_offset(self, intrinsics):
        box = BoxMeasurement(u=320.0 + 211.0, v=240.0, v2=140.0)
        assert compute_errors(box, intrinsics, 100.0).e_u == 211.0

    def test_direct_subtraction(self, intrinsics):
        box = BoxMeasurement(u=300.0, v=260.0, v2=150.0)
        err = compute_errors(box, intrinsics, 100.0)
        assert (err.e_u, err.e_v, err.e_v2) == (-20.0, 20.0, 10.0)

    def test_box_invariants(self):
        with pytest.raises(ValueError):
            BoxMeasurement(u=320.0, v=240.0, v2=240.0)  # zero half height


def _centered_box(intrinsics, half_height=100.0):
    return BoxMeasurement(u=intrinsics.u0, v=intrinsics.v0, v2=intrinsics.v0 - half_height)


class TestJacobianTerms:
    def test_as_printed_centered_point(self, intrinsics, gains):
        box = _centered_box(intrinsics)
        err = compute_errors(box, intrinsics, 100.0)
        t = jacobian_terms(err, box, PanTiltAngles(), intrinsics, gains, "as-printed")
        assert (t.a, t.b, t.c, t.d, t.e, t.f) == (500.0, 0.0, 0.0, -500.0, 0.0, -500.0)
        assert (t.omega1, t.omega2, t.omega3) == (0.0, 0.0, -20.0)

    def test_as_printed_b_term(self, intrinsics, gains):
        box = BoxMeasurement(u=intrinsics.u0 + 50.0, v=intrinsics.v0 + 40.0, v2=intrinsics.v0 - 60.0)
        err = compute_errors(box, intrinsics, 100.0)
        t = jacobian_terms(err, box, PanTiltAngles(), intrinsics, gains, "as-printed")
        assert t.b == -(50.0 * 40.0) / 500.0

    def test_re_derived_centered_point_flips_row_rate_signs(self, intrinsics, gains):
        # tilt-up-positive convention: raising the camera moves pixels down,
        # so the row-rate couplings come out positive where the as-printed
        # block has them negative; F also picks up the top-row offset squared
        # (the as-printed block uses the half-height error there instead)
        box = _centered_box(intrinsics)
        err = compute_errors(box, intrinsics, 100.0)
        t = jacobian_terms(err, box, PanTiltAngles(), intrinsics, gains, "re-derived")
        assert (t.a, t.b, t.c, t.d, t.e, t.f) == (500.0, 0.0, 0.0, 500.0, 0.0, 520.0)
        assert (t.omega1, t.omega2, t.omega3) == (0.0, 0.0, 20.0)

    def test_unknown_mode_rejected(self, intrinsics, gains):
        box = _centered_box(intrinsics)
        err = compute_errors(box, intrinsics, 100.0)
        with pytest.raises(ValueError):
            jacobian_terms(err, box, PanTiltAngles(), intrinsics, gains, "other")

    def test_re_derived_matches_finite_differences(self, intrinsics, body, gains):
        rng = np.random.default_rng(42)
        worst = 0.0
        checked = 0
        while checked < 1000:
            state, box = sample_tracking_state(rng, body, intrinsics, gains)
            cmd = random_command(rng)
            fd = fd_error_rates(state, cmd, body, intrinsics, gains.target_half_height)
            if fd is None:
                continue
            model = model_error_rates(box, state.angles, cmd, intrinsics, gains)
            rel = np.abs(model - fd) / np.maximum(np.abs(fd), 1.0)
            worst = max(worst, float(rel.max()))
            checked += 1
        assert worst < 0.01, f"worst relative error {worst:.3e}"

    def test_as_printed_fails_finite_differences(self, intrinsics, body, gains):
        # documents the adjudication: the hand-tabulated block is not a valid
        # linearization under the conventions the depth formula fixes
        rng = np.random.default_rng(43)
        worst = 0.0
        checked = 0
        while checked < 100:
            state, box = sample_tracking_state(rng, body, intrinsics, gains)
            cmd = random_command(rng)
            fd = fd_error_rates(state, cmd, body, intrinsics, gains.target_half_height)
            if fd is None:
                continue
            model = model_error_rates(box, state.angles, cmd, intrinsics, gains, "as-printed")
            rel = np.abs(model - fd) / np.maximum(np.abs(fd), 1.0)
            worst = max(worst, float(rel.max()))
            checked += 1
        assert worst > 0.1

    def test_discrepancy_report(self):
        report = jacobian_discrepancy_report(n_states=200, seed=5)
        assert report["n_states"] == 200
        assert set(report["max_abs_diff"]) == {
            "omega1", "omega2", "omega3", "a", "b", "c", "d", "e", "f"
        }
        # the tilt-coupled terms genuinely differ between the modes
        assert report["max_abs_diff"]["d"] > 0
        text = format_discrepancy_report(report)
        assert "omega1" in text and "sign flips" in text


class TestControlLaw:
    def test_zero_errors_zero_yaw_give_exact_zero(self, intrinsics, gains):
        box = _centered_box(intrinsics)
        err = compute_errors(box, intrinsics, 100.0)
        terms = jacobian_terms(err, box, PanTiltAngles(), intrinsics, gains)
        assert control_law(err, terms, gains, 0.0) == (0.0, 0.0, 0.0)

    def test_back_substitution_centered_example(self, intrinsics):
        # unit gains, published-magnitude lambdas, single e_u = 10 px error:
        # the assigned rates must come back as (-10, 0, 0)
        gains = ControllerGains(k1=1.0, k2=1.0, k3=1.0, lambda1=5.0, lambda2=0.91,
                                target_half_height=100.0)
        box = BoxMeasurement(u=intrinsics.u0 + 10.0, v=intrinsics.v0, v2=intrinsics.v0 - 100.0)
        err = compute_errors(box, intrinsics, 100.0)
        terms = jacobian_terms(err, box, PanTiltAngles(), intrinsics, gains, "as-printed")
        v_r, omega_alpha, omega_beta = control_law(err, terms, gains, 0.0)
        rates = predicted_error_rates(err, terms, gains, v_r, 0.0, omega_alpha, omega_beta)
        assert np.allclose(rates, (-10.0, 0.0, 0.0), rtol=1e-6, atol=1e-6)

    def test_back_substitution_random_states_both_modes(self, intrinsics, body, gains):
        rng = np.random.default_rng(17)
        for mode in ("re-derived", "as-printed"):
            for _ in range(200):
                state, box = sample_tracking_state(rng, body, intrinsics, gains)
                err = compute_errors(box, intrinsics, gains.target_half_height)
                terms = jacobian_terms(err, box, state.angles, intrinsics, gains, mode)
                omega_r = rng.uniform(-1.0, 1.0)
                try:
                    v_r, omega_alpha, omega_beta = control_law(
                        err, terms, gains, omega_r, singularity_eps(intrinsics, gains)
                    )
                except SingularConfigurationError:
                    continue
                got = predicted_error_rates(
                    err, terms, gains, v_r, omega_r, omega_alpha, omega_beta
                )
                want = (-gains.k1 * err.e_u, -gains.k2 * err.e_v, -gains.k3 * err.e_v2)
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-6 * max(1.0, abs(w))

    def test_degenerate_rows_raise_singular(self, intrinsics, gains):
        # body-center row and top row both on the principal row at zero tilt:
        # every forward-motion coefficient vanishes identically
        box = BoxMeasurement(u=intrinsics.u0 + 30.0, v=intrinsics.v0, v2=intrinsics.v0 - 1e-12)
        err = compute_errors(box, intrinsics, 100.0)
        terms = jacobian_terms(err, box, PanTiltAngles(), intrinsics, gains)
        assert terms.omega1 == 0.0 and terms.omega2 == 0.0
        assert abs(terms.omega3) < 1e-20
        with pytest.raises(SingularConfigurationError):
            control_law(err, terms, gains, 0.0, singularity_eps(intrinsics, gains))


class TestYawStrategy:
    def test_inside_deadband(self):
        assert robot_angular_strategy(0.1) == 0.0
        assert robot_angular_strategy(-0.5) == 0.0
        assert robot_angular_strategy(0.0) == 0.0

    def test_outside_deadband(self):
        assert robot_angular_strategy(1.0) == 0.1
        assert robot_angular_strategy(-0.8) == pytest.approx(-0.08)

    def test_jump_at_boundary(self):
        just_outside = math.pi / 6 + 1e-9
        assert robot_angular_strategy(just_outside) == 0.1 * just_outside
        assert robot_angular_strategy(math.pi / 6 - 1e-9) == 0.0
        assert robot_angular_strategy(-(math.pi / 6 + 1e-9)) == 0.1 * -(math.pi / 6 + 1e-9)


class TestFollowController:
    def test_centered_box_gives_zero_command(self, intrinsics, gains):
        ctrl = FollowController(gains, intrinsics)
        cmd = ctrl.step(_centered_box(intrinsics), PanTiltAngles())
        assert (cmd.v_r, cmd.omega_r, cmd.omega_alpha, cmd.omega_beta) == (0.0, 0.0, 0.0, 0.0)
        assert not cmd.saturated.any
        assert not cmd.hold

    def test_no_box_gives_zero_command(self, intrinsics, gains):
        ctrl = FollowController(gains, intrinsics)
        cmd = ctrl.step(None, PanTiltAngles())
        assert (cmd.v_r, cmd.omega_alpha, cmd.omega_beta) == (0.0, 0.0, 0.0)

    def test_large_column_error_pans_toward_target(self, intrinsics, body, gains):
        # target well to the right of the optical axis: the camera must pan
        # right (negative rate) and one simulated tick must shrink |e_u|
        offset = math.atan(211.0 / intrinsics.alpha_x)
        state = SimState(
            robot=(0.0, 0.0, 0.0),
            angles=PanTiltAngles(),
            target=(4.5 * math.cos(offset), -4.5 * math.sin(offset)),
        )
        box = render_measurement(state, body, intrinsics)
        err = compute_errors(box, intrinsics, gains.target_half_height)
        assert err.e_u == pytest.approx(211.0, abs=2.0)

        ctrl = FollowController(gains, intrinsics)
        cmd = ctrl.step(box, state.angles)
        assert cmd.omega_alpha < 0.0
        after = integrate(state, cmd, 0.02)
        box_after = render_measurement(after, body, intrinsics)
        err_after = compute_errors(box_after, intrinsics, gains.target_half_height)
        assert abs(err_after.e_u) < abs(err.e_u)

    def test_saturation_clamps_and_flags(self, intrinsics, body, gains):
        # very large half-height error demands more reverse speed than allowed
        state = SimState(robot=(0.0, 0.0, 0.0), angles=PanTiltAngles(), target=(1.2, 0.0))
        box = render_measurement(state, body, intrinsics)
        ctrl = FollowController(gains, intrinsics, SaturationLimits(v_max=0.2))
        cmd = ctrl.step(box, state.angles)
        assert abs(cmd.v_r) == 0.2
        assert cmd.saturated.v_r

    def test_hold_freezes_rotation_and_decays_speed(self, intrinsics, body, gains):
        state = SimState(robot=(0.0, 0.0, 0.0), angles=PanTiltAngles(), target=(6.0, 0.4))
        box = render_measurement(state, body, intrinsics)
        ctrl = FollowController(gains, intrinsics)
        normal = ctrl.step(box, state.angles)
        assert normal.v_r != 0.0

        held = ctrl.step(box, state.angles, hold=True)
        assert held.hold
        assert held.v_r == 0.5 * normal.v_r
        assert held.omega_alpha == 0.0 and held.omega_beta == 0.0 and held.omega_r == 0.0
        held2 = ctrl.step(box, state.angles, hold=True)
        assert held2.v_r == 0.25 * normal.v_r

    def test_singular_state_holds_last_rates(self, intrinsics, body, gains):
        state = SimState(robot=(0.0, 0.0, 0.0), angles=PanTiltAngles(), target=(6.0, 0.4))
        box = render_measurement(state, body, intrinsics)
        ctrl = FollowController(gains, intrinsics)
        normal = ctrl.step(box, state.angles)

        singular_box = BoxMeasurement(
            u=intrinsics.u0 + 30.0, v=intrinsics.v0, v2=intrinsics.v0 - 1e-12
        )
        cmd = ctrl.step(singular_box, PanTiltAngles())
        assert cmd.hold
        assert cmd.v_r == 0.5 * normal.v_r
        assert cmd.omega_alpha == normal.omega_alpha
        assert cmd.omega_beta == normal.omega_beta

    def test_yaw_engages_outside_deadband(self, intrinsics, body, gains):
        state = SimState(
            robot=(0.0, 0.0, 0.0),
            angles=PanTiltAngles(alpha=0.7),
            target=(4.5 * math.cos(0.7), 4.5 * math.sin(0.7)),
        )
        box = render_measurement(state, body, intrinsics)
        ctrl = FollowController(gains, intrinsics)
        cmd = ctrl.step(box, state.angles)
        assert cmd.omega_r == pytest.approx(0.07)

    @pytest.mark.parametrize("mode", ["re-derived", "as-printed"])
    def test_step_with_given_errors_equals_step_computing_them(
        self, intrinsics, body, gains, mode
    ):
        # two controllers fed one sequence of boxes, holds and a singular box:
        # handing step the errors changes no bit of any command
        rng = np.random.default_rng(11)
        given_err = FollowController(gains, intrinsics, SaturationLimits(v_max=0.3), mode)
        own_err = FollowController(gains, intrinsics, SaturationLimits(v_max=0.3), mode)
        singular_box = BoxMeasurement(
            u=intrinsics.u0 + 30.0, v=intrinsics.v0, v2=intrinsics.v0 - 1e-12
        )
        holds = singulars = 0
        for i in range(300):
            state, box = sample_tracking_state(rng, body, intrinsics, gains)
            angles = state.angles
            if i % 17 == 0:
                box, angles = singular_box, PanTiltAngles()
            hold = i % 7 == 3
            err = compute_errors(box, intrinsics, gains.target_half_height)
            a = given_err.step(box, angles, hold, err)
            b = own_err.step(box, angles, hold)
            assert repr(a) == repr(b), i
            holds += hold
            singulars += a.hold and not hold
        assert holds > 0 and singulars > 0
        assert repr(given_err.step(None, PanTiltAngles(), False, None)) == repr(
            own_err.step(None, PanTiltAngles())
        )
