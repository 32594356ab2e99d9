"""Controller: pixel errors, coefficient block, rate solve, step semantics.

The linear model's correctness is adjudicated by finite differences against
the nonlinear world (re-derived mode must match within 1%, the hand-tabulated
as-printed mode demonstrably does not), and the rate solve by the
back-substitution identity.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    fd_error_rates,
    model_error_rates,
    random_command,
    sample_tracking_state,
)
from oracles import (
    clamp,
    control_law_by_attribute,
    follow_step,
    predicted_error_rates_by_attribute,
    solve_denominator_by_attribute,
)
from ptfollow.controller import (
    DEADBAND_HALF_WIDTH,
    JACOBIAN_MODES,
    UNSATURATED,
    YAW_GAIN,
    ZERO_COMMAND,
    BoxMeasurement,
    ControlCommand,
    ControllerGains,
    FollowController,
    ImageErrors,
    JacobianTerms,
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
from ptfollow.geometry import BodyModel, CameraIntrinsics, JointLimits, PanTiltAngles
from ptfollow.simworld import integrate, render_measurement


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

    def test_discrepancy_report(self, gains):
        report = jacobian_discrepancy_report(n_states=200, seed=5)
        # the default gains are those of the default body
        assert report == jacobian_discrepancy_report(gains=gains, n_states=200, seed=5)
        assert report["n_states"] == 200
        assert set(report["max_abs_diff"]) == {
            "omega1", "omega2", "omega3", "a", "b", "c", "d", "e", "f"
        }
        # the tilt-coupled terms genuinely differ between the modes
        assert report["max_abs_diff"]["d"] > 0
        text = format_discrepancy_report(report)
        assert "omega1" in text and "sign flips" in text

    @pytest.mark.parametrize("n_states", [0, -3, 2.0, True, None])
    def test_discrepancy_report_rejects_a_bad_state_count(self, n_states):
        with pytest.raises(ValueError, match=r"^n_states: must be an integer >= 1$"):
            jacobian_discrepancy_report(n_states=n_states)

    @pytest.mark.parametrize("seed", [1.5, True, -1])
    def test_discrepancy_report_rejects_a_bad_seed(self, seed):
        with pytest.raises(ValueError, match=r"^seed: must be an integer >= 0$"):
            jacobian_discrepancy_report(seed=seed)

    @pytest.mark.parametrize("width, height", [(80, 60), (100, 480), (640, 110)])
    def test_discrepancy_report_rejects_a_camera_below_its_window(self, width, height):
        # the report samples u in [50, width - 50] and v in [100, height - 10]
        k = CameraIntrinsics(width=width, height=height, u0=width / 2, v0=height / 2)
        message = rf"^k: must be over 100 x 110 px, got {width} x {height}$"
        with pytest.raises(ValueError, match=message):
            jacobian_discrepancy_report(k=k, n_states=1)
        smallest = CameraIntrinsics(width=101, height=111, u0=50.0, v0=55.0)
        assert jacobian_discrepancy_report(k=smallest, n_states=20)["n_states"] == 20


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

    @pytest.mark.parametrize("name", ["lambda1", "lambda2"])
    def test_unresolved_lambda_rejected(self, intrinsics, gains, name):
        # None means "derive from the body", which only a ScenarioConfig does
        with pytest.raises(ValueError, match=f"^{name}: not resolved"):
            FollowController(replace(gains, **{name: None}), intrinsics)

    @pytest.mark.parametrize("name", ["lambda1", "lambda2"])
    @pytest.mark.parametrize(
        "fn", ["jacobian_terms", "control_law", "predicted_error_rates", "singularity_eps"]
    )
    def test_plain_function_rejects_an_unresolved_lambda(self, intrinsics, gains, name, fn):
        # FollowController's error, not a TypeError from the None
        box, angles = BoxMeasurement(u=350.0, v=260.0, v2=180.0), PanTiltAngles()
        err = compute_errors(box, intrinsics, gains.target_half_height)
        terms = jacobian_terms(err, box, angles, intrinsics, gains)
        g = replace(gains, **{name: None})
        calls = {
            "jacobian_terms": lambda: jacobian_terms(err, box, angles, intrinsics, g),
            "control_law": lambda: control_law(err, terms, g, 0.0),
            "predicted_error_rates": lambda: predicted_error_rates(err, terms, g, 1, 0, 1, 1),
            "singularity_eps": lambda: singularity_eps(intrinsics, g),
        }
        with pytest.raises(ValueError, match=f"^{name}: not resolved; a ScenarioConfig derives"):
            calls[fn]()

    def test_no_box_gives_zero_command(self, intrinsics, gains):
        ctrl = FollowController(gains, intrinsics)
        cmd = ctrl.step(None, PanTiltAngles())
        assert (cmd.v_r, cmd.omega_alpha, cmd.omega_beta) == (0.0, 0.0, 0.0)

    def test_large_column_error_pans_toward_target(self, intrinsics, body, gains):
        # target well to the right of the optical axis: the camera must pan
        # right (negative rate) and one simulated tick must shrink |e_u|
        offset = math.atan(211.0 / intrinsics.alpha_x)
        robot, angles = (0.0, 0.0, 0.0), PanTiltAngles()
        target = (4.5 * math.cos(offset), -4.5 * math.sin(offset))
        box = render_measurement(robot, angles, target, body, intrinsics)
        err = compute_errors(box, intrinsics, gains.target_half_height)
        assert err.e_u == pytest.approx(211.0, abs=2.0)

        ctrl = FollowController(gains, intrinsics)
        cmd = ctrl.step(box, angles)
        assert cmd.omega_alpha < 0.0
        robot, angles = integrate(robot, angles, cmd, 0.02, JointLimits())
        box_after = render_measurement(robot, angles, target, body, intrinsics)
        err_after = compute_errors(box_after, intrinsics, gains.target_half_height)
        assert abs(err_after.e_u) < abs(err.e_u)

    def test_saturation_clamps_and_flags(self, intrinsics, body, gains):
        # a person 2.5 m away, the head-top row 20 px into the image: a half
        # height 80 px above the reference demands more reverse speed than allowed
        box = render_measurement((0.0, 0.0, 0.0), PanTiltAngles(), (2.5, 0.0), body, intrinsics)
        _, v, v2 = box
        assert v - v2 - gains.target_half_height > 79.0
        ctrl = FollowController(gains, intrinsics, SaturationLimits(v_max=0.2))
        cmd = ctrl.step(box, PanTiltAngles())
        assert abs(cmd.v_r) == 0.2
        assert cmd.saturated.v_r

    def test_hold_freezes_rotation_and_decays_speed(self, intrinsics, body, gains):
        box = render_measurement((0.0, 0.0, 0.0), PanTiltAngles(), (6.0, 0.4), body, intrinsics)
        ctrl = FollowController(gains, intrinsics)
        normal = ctrl.step(box, PanTiltAngles())
        assert normal.v_r != 0.0

        held = ctrl.step(box, PanTiltAngles(), hold=True)
        assert held.hold
        assert held.v_r == 0.5 * normal.v_r
        assert held.omega_alpha == 0.0 and held.omega_beta == 0.0 and held.omega_r == 0.0
        held2 = ctrl.step(box, PanTiltAngles(), hold=True)
        assert held2.v_r == 0.25 * normal.v_r

    def test_singular_state_holds_last_rates(self, intrinsics, body, gains):
        box = render_measurement((0.0, 0.0, 0.0), PanTiltAngles(), (6.0, 0.4), body, intrinsics)
        ctrl = FollowController(gains, intrinsics)
        normal = ctrl.step(box, PanTiltAngles())

        singular_box = BoxMeasurement(
            u=intrinsics.u0 + 30.0, v=intrinsics.v0, v2=intrinsics.v0 - 1e-12
        )
        cmd = ctrl.step(singular_box, PanTiltAngles())
        assert cmd.hold
        assert cmd.v_r == 0.5 * normal.v_r
        assert cmd.omega_alpha == normal.omega_alpha
        assert cmd.omega_beta == normal.omega_beta

    def test_yaw_engages_outside_deadband(self, intrinsics, body, gains):
        angles = PanTiltAngles(alpha=0.7)
        target = (4.5 * math.cos(0.7), 4.5 * math.sin(0.7))
        box = render_measurement((0.0, 0.0, 0.0), angles, target, body, intrinsics)
        ctrl = FollowController(gains, intrinsics)
        cmd = ctrl.step(box, angles)
        assert cmd.omega_r == pytest.approx(0.07)

    def test_step_with_given_errors_equals_step_computing_them(self, intrinsics, body, gains):
        # two controllers fed one sequence of boxes, holds and a singular box:
        # handing step the errors changes no bit of any command
        rng = np.random.default_rng(11)
        given_err = FollowController(gains, intrinsics, SaturationLimits(v_max=0.3))
        own_err = FollowController(gains, intrinsics, SaturationLimits(v_max=0.3))
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


def _solve_bits(law, err, terms, gains, omega_r, eps_den):
    """The three rates as ``float.hex``, or the guard's message."""
    try:
        return tuple(map(float.hex, law(err, terms, gains, omega_r, eps_den)))
    except SingularConfigurationError as exc:
        return str(exc)


def _assert_solve_matches_attribute_form(err, terms, gains, omega_r, eps_den):
    got = _solve_bits(control_law, err, terms, gains, omega_r, eps_den)
    want = _solve_bits(control_law_by_attribute, err, terms, gains, omega_r, eps_den)
    assert got == want
    rates = (0.3, omega_r, -0.7, 0.4)  # v_r, omega_r, omega_alpha, omega_beta
    assert tuple(map(float.hex, predicted_error_rates(err, terms, gains, *rates))) == tuple(
        map(float.hex, predicted_error_rates_by_attribute(terms, gains, *rates))
    )
    return got


_COEF = st.floats(-1e4, 1e4)
_GAINS = st.builds(
    ControllerGains,
    k1=st.floats(0.01, 5.0),
    k2=st.floats(0.01, 5.0),
    k3=st.floats(0.01, 5.0),
    lambda1=st.floats(-10.0, -0.1) | st.floats(0.1, 10.0),
    lambda2=st.floats(-10.0, -0.1) | st.floats(0.1, 10.0),
)
_DEFAULT_GAINS = ControllerGains(lambda1=BodyModel().lambda1, lambda2=BodyModel().lambda2)


class TestUnpackedSolve:
    """The rate solve reads its terms by unpacking; every bit, and the
    guard, must be those of the attribute-reading form."""

    @settings(max_examples=300, deadline=None)
    @given(
        err=st.tuples(_COEF, _COEF, _COEF).map(lambda e: ImageErrors(*e)),
        terms=st.tuples(*[_COEF] * 9).map(lambda t: JacobianTerms(*t)),
        gains=_GAINS,
        omega_r=st.floats(-1.0, 1.0),
        eps_den=st.sampled_from([0.0, 1e-3, 1e6, 1e30]),
    )
    @example(  # all-zero block: the guard raises even at eps 0
        ImageErrors(1.0, 2.0, 3.0), JacobianTerms(*[0.0] * 9), _DEFAULT_GAINS, 0.5, 0.0
    ).via("the guard at a zero denominator")
    def test_any_terms(self, err, terms, gains, omega_r, eps_den):
        _assert_solve_matches_attribute_form(err, terms, gains, omega_r, eps_den)

    @settings(max_examples=300, deadline=None)
    @given(
        mode=st.sampled_from(JACOBIAN_MODES),
        u=st.floats(0.0, 639.0),
        v=st.floats(0.0, 479.0),
        half_height=st.floats(1e-12, 400.0),
        alpha=st.floats(-1.5, 1.5),
        beta=st.floats(-1.0, 1.0),
        omega_r=st.floats(-1.0, 1.0),
    )
    @example(  # both rows on the principal row at zero tilt: singular
        "re-derived", 350.0, 240.0, 1e-12, 0.0, 0.0, 0.0
    ).via("the guard on a degenerate box")
    def test_terms_of_both_modes(self, mode, u, v, half_height, alpha, beta, omega_r):
        k = CameraIntrinsics()
        box = BoxMeasurement(u, v, v - half_height)
        err = compute_errors(box, k, _DEFAULT_GAINS.target_half_height)
        terms = jacobian_terms(err, box, PanTiltAngles(alpha, beta), k, _DEFAULT_GAINS, mode)
        eps = singularity_eps(k, _DEFAULT_GAINS)
        _assert_solve_matches_attribute_form(err, terms, _DEFAULT_GAINS, omega_r, eps)

    def test_guard_raises_in_both_forms(self, intrinsics, gains):
        box = BoxMeasurement(u=intrinsics.u0 + 30.0, v=intrinsics.v0, v2=intrinsics.v0 - 1e-12)
        err = compute_errors(box, intrinsics, 100.0)
        terms = jacobian_terms(err, box, PanTiltAngles(), intrinsics, gains)
        got = _assert_solve_matches_attribute_form(
            err, terms, gains, 0.0, singularity_eps(intrinsics, gains)
        )
        assert got.startswith("solve denominator")


# distinct limits, so that a clamp against another channel's limit shows
_LIMITS = SaturationLimits(v_max=1.2, omega_alpha_max=1.5, omega_beta_max=0.7, omega_r_max=1.0)
# unequal focal lengths, so that a constant built from the wrong one shows
_WIDE = CameraIntrinsics(alpha_x=620.0, alpha_y=410.0)
_ALPHA = st.sampled_from([
    DEADBAND_HALF_WIDTH, -DEADBAND_HALF_WIDTH,
    math.nextafter(DEADBAND_HALF_WIDTH, math.inf), math.nextafter(-DEADBAND_HALF_WIDTH, -math.inf),
]) | st.floats(-1.5, 1.5)


def _limit(rate, edge):
    """A limit for ``rate``: at its magnitude, an ulp above or below, half
    or twice it; 1.0 where that is not a valid limit (a zero rate)."""
    m = abs(rate)
    limit = {
        "at": m, "above": math.nextafter(m, math.inf), "below": math.nextafter(m, 0.0),
        "half": m / 2, "twice": 2 * m,
    }[edge]
    return limit if 0.0 < limit < math.inf else 1.0


class TestInlineSaturation:
    """``FollowController.step`` clamps its four solved rates inline.  With
    each limit drawn at, just inside or beyond the rate the plain solve
    gives, every rate and flag of the step must be :func:`oracles.clamp`'s."""

    @settings(max_examples=400, deadline=None)
    @given(
        k=st.sampled_from([CameraIntrinsics(), _WIDE]),
        u=st.floats(0.0, 639.0),
        v=st.floats(100.0, 479.0),
        half_height=st.floats(1.0, 100.0),
        alpha=_ALPHA,
        beta=st.floats(-1.0, 1.0),
        edges=st.tuples(*[st.sampled_from(["at", "above", "below", "half", "twice"])] * 4),
    )
    @example(CameraIntrinsics(), 400.0, 300.0, 80.0, 0.7, 0.1, ("above",) * 4).via(
        "nothing saturated"
    )
    @example(CameraIntrinsics(), 400.0, 300.0, 80.0, -0.7, 0.1, ("below",) * 4).via(
        "every rate saturated by an ulp"
    )
    @example(CameraIntrinsics(alpha_x=1e304), 400.0, 300.0, 80.0, 0.0, 0.0, ("at",) * 4).via(
        "an infinite denominator: a NaN speed and -0.0 camera rates pass unsaturated"
    )
    def test_step_clamps_as_the_plain_clamp(self, k, u, v, half_height, alpha, beta, edges):
        gains = _DEFAULT_GAINS
        box, angles = BoxMeasurement(u, v, v - half_height), PanTiltAngles(alpha, beta)
        err = compute_errors(box, k, gains.target_half_height)
        terms = jacobian_terms(err, box, angles, k, gains)
        omega_r = robot_angular_strategy(alpha)
        try:
            v_r, omega_alpha, omega_beta = control_law(
                err, terms, gains, omega_r, singularity_eps(k, gains)
            )
        except SingularConfigurationError:
            assume(False)
        rates = (v_r, omega_r, omega_alpha, omega_beta)
        limits = [_limit(rate, edge) for rate, edge in zip(rates, edges)]
        saturation = SaturationLimits(
            v_max=limits[0], omega_r_max=limits[1],
            omega_alpha_max=limits[2], omega_beta_max=limits[3],
        )
        cmd = FollowController(gains, k, saturation).step(box, angles)
        want = [clamp(rate, limit) for rate, limit in zip(rates, limits)]
        assert [float.hex(rate) for rate in cmd[:4]] == [float.hex(rate) for rate, _ in want]
        assert cmd.saturated == tuple(flag for _, flag in want)
        assert cmd.saturated.any or cmd.saturated is UNSATURATED
        assert type(cmd) is ControlCommand and cmd.hold is False and len(cmd) == 6


# a box on the principal row with a 1e-12 px half height: singular at zero
# angles in both modes and for any gains
_SINGULAR_BOX = BoxMeasurement(u=350.0, v=240.0, v2=240.0 - 1e-12)
_TICK = st.sampled_from(["none", "singular"]) | st.tuples(
    st.floats(0.0, 639.0),  # u
    st.floats(0.0, 479.0),  # v
    st.floats(1e-12, 400.0),  # half height
    _ALPHA,
    st.floats(-1.0, 1.0),  # beta
    st.booleans(),  # hold
    st.booleans(),  # errors handed to step
)
_LIMIT_SETS = st.sampled_from([_LIMITS, SaturationLimits(), SaturationLimits(*[1e9] * 4)])


class TestFusedStep:
    """``FollowController.step`` runs the coefficient block, the yaw rule and
    the solve inline; over any tick sequence its commands must be those of
    :func:`oracles.follow_step`, the plain composition, to the bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.sampled_from([CameraIntrinsics(), _WIDE]),
        gains=_GAINS,
        limits=_LIMIT_SETS,
        ticks=st.lists(_TICK, min_size=1, max_size=30),
    )
    @example(  # yaw outside the deadband, then the guard's hold of its rates
        CameraIntrinsics(), _DEFAULT_GAINS, _LIMITS,
        [(400.0, 300.0, 80.0, 0.7, 0.1, False, False), "singular", "singular"],
    ).via("singular hold after a yawing tick")
    @example(
        _WIDE, _DEFAULT_GAINS, _LIMITS,
        [(400.0, 300.0, 80.0, -0.7, 0.1, False, True), "singular", "none"],
    ).via("singular hold after a yawing tick with its errors given")
    def test_step_equals_the_plain_composition(self, k, gains, limits, ticks):
        ctrl = FollowController(gains, k, limits)
        last = ZERO_COMMAND
        for i, tick in enumerate(ticks):
            if tick == "none":
                box, angles, hold, given_err = None, PanTiltAngles(), False, False
            elif tick == "singular":
                box, angles, hold, given_err = _SINGULAR_BOX, PanTiltAngles(), False, False
            else:
                u, v, half_height, alpha, beta, hold, given_err = tick
                box, angles = BoxMeasurement(u, v, v - half_height), PanTiltAngles(alpha, beta)
            # given as the runner hands them on: a plain triple
            err = tuple(compute_errors(box, k, gains.target_half_height)) if given_err else None
            got = ctrl.step(box, angles, hold, err)
            want = follow_step(last, box, angles, hold, err, gains, k, limits)
            assert list(map(float.hex, got[:4])) == list(map(float.hex, want[:4])), i
            assert type(got) is ControlCommand and repr(got) == repr(want), i
            last = want

    def test_guard_holds_at_its_bound(self, intrinsics, gains):
        # control_law raises at |den| == eps; the step must hold there too
        box, angles = BoxMeasurement(400.0, 300.0, 220.0), PanTiltAngles(0.2, 0.1)
        err = compute_errors(box, intrinsics, gains.target_half_height)
        terms = jacobian_terms(err, box, angles, intrinsics, gains)
        den = abs(solve_denominator_by_attribute(terms, gains))
        with pytest.raises(SingularConfigurationError):
            control_law(err, terms, gains, 0.0, den)
        for eps, holds in ((den, True), (math.nextafter(den, 0.0), False)):
            ctrl = FollowController(gains, intrinsics)
            ctrl._eps_den = eps
            assert ctrl.step(box, angles, False, err).hold is holds

    def test_nan_denominator_holds_in_both_forms(self, gains):
        # at a focal length at the float maximum the denominator is NaN, which
        # the guard takes as singular: a hold tick, not a NaN command
        k = CameraIntrinsics(alpha_x=1.7976931348623157e308)
        box, angles = BoxMeasurement(330.0, 250.0, 150.0), PanTiltAngles(0.1, 0.05)
        err = compute_errors(box, k, gains.target_half_height)
        terms = jacobian_terms(err, box, angles, k, gains)
        assert math.isnan(solve_denominator_by_attribute(terms, gains))
        with pytest.raises(SingularConfigurationError, match="^solve denominator nan "):
            control_law(err, terms, gains, 0.0, singularity_eps(k, gains))
        cmd = FollowController(gains, k).step(box, angles)
        want = follow_step(ZERO_COMMAND, box, angles, False, None, gains, k, SaturationLimits())
        assert cmd.hold and repr(cmd) == repr(want)

    @pytest.mark.parametrize(
        "box, sign", [((400.0, 300.0, 220.0), -1), ((400.0, 200.0, 100.0), 1)], ids=["-inf", "inf"]
    )
    def test_infinite_denominator_holds_in_both_forms(self, gains, box, sign):
        # at a focal length of 1e304 px the denominator overflows to +/-inf,
        # and num / inf is NaN where the numerator overflows too; the guard
        # takes it as singular: a hold tick, not a NaN command
        k = CameraIntrinsics(alpha_x=1.0e304)
        box, angles = BoxMeasurement(*box), PanTiltAngles(0.0, 0.0)
        err = compute_errors(box, k, gains.target_half_height)
        terms = jacobian_terms(err, box, angles, k, gains)
        assert solve_denominator_by_attribute(terms, gains) == sign * math.inf
        message = f"^solve denominator {sign * math.inf} "
        for law in (control_law, control_law_by_attribute):
            with pytest.raises(SingularConfigurationError, match=message):
                law(err, terms, gains, 0.0, singularity_eps(k, gains))
        cmd = FollowController(gains, k).step(box, angles)
        want = follow_step(ZERO_COMMAND, box, angles, False, None, gains, k, SaturationLimits())
        assert cmd.hold and repr(cmd) == repr(want)

    def test_examples_reach_the_guard_and_the_yaw(self, intrinsics):
        # the explicit examples above do hold on the guard after a yawing tick
        ctrl = FollowController(_DEFAULT_GAINS, intrinsics, _LIMITS)
        yawing = ctrl.step(BoxMeasurement(400.0, 300.0, 220.0), PanTiltAngles(0.7, 0.1))
        held = ctrl.step(_SINGULAR_BOX, PanTiltAngles())
        assert yawing.omega_r == YAW_GAIN * 0.7 and not yawing.hold
        assert held.hold and held[1:4] == yawing[1:4] and held.v_r == 0.5 * yawing.v_r
