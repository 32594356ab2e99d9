"""Image-error servo controller for the pan-tilt person follower.

The controller regulates three pixel errors of the tracked person box: the
horizontal and vertical offsets of the box center from the image center, and
the deviation of the box half height from a reference value.  Depth never
enters as a measurement; it is substituted through the known vertical offsets
of the two tracked body points (box center and top-border midpoint), whose
inverse values are the ``lambda`` gains.

Error dynamics are linear in the commanded rates::

    de_u  = lambda1*V_r*Omega1 + A*(w_alpha + w_r) + B*w_beta
    de_v  = lambda1*V_r*Omega2 + C*(w_alpha + w_r) + D*w_beta
    de_v2 = de_v - (lambda2*V_r*Omega3 + E*(w_alpha + w_r) + F*w_beta)

The closed loop uses the ``"re-derived"`` coefficient block: coefficients
obtained by differentiating the pixel errors through the projection model in
this package's conventions, verified against finite-difference error rates
from the nonlinear simulator.  :func:`jacobian_terms` also evaluates the
``"as-printed"`` block, an earlier hand-tabulated variant whose tilt-related
signs disagree with the finite-difference check; it serves only for
comparison (see :func:`jacobian_discrepancy_report`).

Given a yaw rate from the deadband strategy, the remaining three rates are
the unique solution of the 3x3 linear system that assigns ``de_i = -K_i e_i``
per channel.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple

from .geometry import BodyModel, CameraIntrinsics, ConfigError, PanTiltAngles, PositiveFloat
from .geometry import check_fields

JACOBIAN_MODES = ("re-derived", "as-printed")

DEADBAND_HALF_WIDTH = math.pi / 6
YAW_GAIN = 0.1


class SingularConfigurationError(ValueError):
    """The error-rate assignment system is singular at the current state."""


class _Box(NamedTuple):
    u: float
    v: float
    v2: float


class BoxMeasurement(_Box):
    """Tracked person box: center pixel and top-border midpoint row.

    ``v2 < v`` always holds (the top border sits above the center in the
    down-positive image convention); the half height is ``v - v2``.
    """

    __slots__ = ()  # no instance dict: fields and attributes stay read-only

    def __new__(cls, u: float, v: float, v2: float) -> "BoxMeasurement":
        if not v2 < v:
            raise ValueError(f"box top row v2={v2} must lie above center v={v}")
        return tuple.__new__(cls, (u, v, v2))

    @classmethod
    def _make(cls, iterable) -> "BoxMeasurement":  # so that _replace checks too
        return cls(*iterable)

    @property
    def half_height(self) -> float:
        return self.v - self.v2


# The box the loop hands on: ``(u, v, v2)``, the fields of BoxMeasurement as a
# plain tuple, which every stage reads by position.
Box = tuple[float, float, float]


class ImageErrors(NamedTuple):
    """The three regulated pixel errors."""

    e_u: float
    e_v: float
    e_v2: float


class JacobianTerms(NamedTuple):
    """Coefficient block of the error dynamics (see module docstring)."""

    omega1: float
    omega2: float
    omega3: float
    a: float
    b: float
    c: float
    d: float
    e: float
    f: float


@dataclass(frozen=True)
class ControllerGains:
    """Per-channel error gains, inverse vertical offsets, and the half-height
    reference.

    ``lambda1``/``lambda2`` are the reciprocals of the body-center and
    head-top vertical offsets from the camera, in the down-positive sense
    (negative for a person taller than the camera mount).  ``None`` means
    "derive from the body": :class:`~ptfollow.config.ScenarioConfig` resolves
    both against its ``body``, deriving a ``None`` and giving a value the
    body's sign.  :class:`FollowController` takes resolved lambdas only.
    """

    k1: PositiveFloat = 0.5
    k2: PositiveFloat = 0.5
    k3: PositiveFloat = 0.5
    lambda1: float | None = None
    lambda2: float | None = None
    target_half_height: PositiveFloat = 100.0

    def __post_init__(self) -> None:
        check_fields(self)
        for name in ("lambda1", "lambda2"):
            value = getattr(self, name)
            if value == 0:
                raise ConfigError(f"{name}: must be a finite nonzero number, got {value!r}")


@dataclass(frozen=True)
class SaturationLimits:
    """Symmetric actuator bounds."""

    v_max: PositiveFloat = 1.2
    omega_alpha_max: PositiveFloat = 1.5
    omega_beta_max: PositiveFloat = 1.5
    omega_r_max: PositiveFloat = 1.0

    def __post_init__(self) -> None:
        check_fields(self)


class SaturationFlags(NamedTuple):
    """Which commanded rates were clipped to their limit this tick."""

    v_r: bool = False
    omega_r: bool = False
    omega_alpha: bool = False
    omega_beta: bool = False

    @property
    def any(self) -> bool:
        return self.v_r or self.omega_r or self.omega_alpha or self.omega_beta


UNSATURATED = SaturationFlags()


class ControlCommand(NamedTuple):
    """Actuator outputs for one tick.  ``hold`` marks a degraded tick
    (stale measurement or singular solve) where the rotation rates were
    frozen or held and the linear speed decayed."""

    v_r: float
    omega_r: float
    omega_alpha: float
    omega_beta: float
    saturated: SaturationFlags = UNSATURATED
    hold: bool = False


ZERO_COMMAND = ControlCommand(0.0, 0.0, 0.0, 0.0)


def _resolved_lambdas(gains: ControllerGains) -> tuple[float, float]:
    """``gains``' two lambdas; a ``None`` one (unresolved) raises ValueError."""
    for name in ("lambda1", "lambda2"):
        if getattr(gains, name) is None:
            raise ValueError(f"{name}: not resolved; a ScenarioConfig derives it from its body")
    return gains.lambda1, gains.lambda2


def compute_errors(
    box: Box, k: CameraIntrinsics, target_half_height: float
) -> ImageErrors:
    """Pixel errors of a box measurement against the image center and the
    half-height reference."""
    u, v, v2 = box
    return tuple.__new__(ImageErrors, (u - k.u0, v - k.v0, v - v2 - target_half_height))


def jacobian_terms(
    err: ImageErrors,
    box: Box,
    angles: tuple[float, float],
    k: CameraIntrinsics,
    gains: ControllerGains,
    mode: str = "re-derived",
) -> JacobianTerms:
    """Evaluate the coefficient block at the current measurement.

    ``gains`` supplies the lambda ratio the re-derived mode uses to place the
    top point's column exactly; where that ratio is undefined (``g1 == 0``)
    the top point is assumed to share the center column.
    """
    if mode not in JACOBIAN_MODES:
        raise ValueError(f"unknown jacobian mode {mode!r}; expected one of {JACOBIAN_MODES}")
    alpha, beta = angles
    sa, ca = math.sin(alpha), math.cos(alpha)
    sb, cb = math.sin(beta), math.cos(beta)
    ax, ay = k.alpha_x, k.alpha_y
    e_u, e_v, e_v2 = err
    vt2 = box[2] - k.v0  # row error of the top-border midpoint

    if mode == "as-printed":
        u2 = e_u  # top-border midpoint shares the center column
        return tuple.__new__(JacobianTerms, (
            (ax * sa - e_v * ca * cb) * (e_v * cb + ay * sb) / ay,  # omega1
            (e_v * ca * cb + ay * ca * sb) * (-e_v * cb - ay * sb) / ay,  # omega2
            (vt2 * ca * cb + ay * ca * sb) * (-vt2 * cb - ay * sb) / ay,  # omega3
            (ax * ax * ay * cb - ax * ax * sb * e_v + e_u * e_u * ay * cb) / (ax * ay),  # a
            -e_u * e_v / ay,  # b
            (ay * sb * e_u + e_u * e_v * cb) / ax,  # c
            -(ay * ay + e_v * e_v) / ay,  # d
            (ay * sb * u2 - u2 * vt2 * cb) / ax,  # e
            -(ay * ay + e_v2 * e_v2) / ay,  # f
        ))

    l1, l2 = _resolved_lambdas(gains)
    g1 = e_v * cb - ay * sb
    g2 = vt2 * cb - ay * sb
    if g1 != 0.0:
        # The two body points share the camera-frame lateral coordinate, so
        # the top point's column offset is the center's scaled by the depth
        # ratio, which the lambda values recover from the two row errors.
        u2 = e_u * (l2 * g2) / (l1 * g1)
    else:
        u2 = e_u
    return tuple.__new__(JacobianTerms, (
        (e_u * ca * cb - ax * sa) * g1 / ay,  # omega1
        ca * g1 * g1 / ay,  # omega2
        ca * g2 * g2 / ay,  # omega3
        ax * cb + (ax / ay) * sb * e_v + e_u * e_u * cb / ax,  # a
        e_u * e_v / ay,  # b
        (e_u / ax) * g1,  # c
        (ay * ay + e_v * e_v) / ay,  # d
        (u2 / ax) * g2,  # e
        (ay * ay + vt2 * vt2) / ay,  # f
    ))


def predicted_error_rates(
    err: ImageErrors,
    terms: JacobianTerms,
    gains: ControllerGains,
    v_r: float,
    omega_r: float,
    omega_alpha: float,
    omega_beta: float,
) -> tuple[float, float, float]:
    """Error rates predicted by the linear model for the given rates."""
    o1, o2, o3, a, b, c, d, e, f = terms
    l1, l2 = _resolved_lambdas(gains)
    w = omega_alpha + omega_r
    de_u = l1 * v_r * o1 + a * w + b * omega_beta
    de_v = l1 * v_r * o2 + c * w + d * omega_beta
    de_v2 = de_v - l2 * v_r * o3 - e * w - f * omega_beta
    return de_u, de_v, de_v2


def singularity_eps(k: CameraIntrinsics, gains: ControllerGains) -> float:
    """Scale-aware threshold for the solve denominator."""
    l1, l2 = _resolved_lambdas(gains)
    return 1e-6 * k.alpha_x * k.alpha_y * max(abs(l1), abs(l2))


def control_law(
    err: ImageErrors,
    terms: JacobianTerms,
    gains: ControllerGains,
    omega_r: float,
    eps_den: float = 0.0,
) -> tuple[float, float, float]:
    """Solve for ``(v_r, omega_alpha, omega_beta)`` that assign each error
    channel the rate ``-K_i e_i``, with the yaw rate ``omega_r`` known.

    The closed form is the exact Cramer solution of the 3x3 system; every
    numerator term carries a ``K_i e_i`` or ``omega_r`` factor, so zero
    errors with zero yaw give the exact zero command.

    Raises:
        SingularConfigurationError: if the denominator magnitude is at or
            below ``eps_den``, infinite, or NaN.
    """
    o1, o2, o3, a, b, c, d, e, f = terms
    e_u, e_v, e_v2 = err
    k1e, k2e, k3e = gains.k1 * e_u, gains.k2 * e_v, gains.k3 * e_v2
    l1, l2 = _resolved_lambdas(gains)
    # the determinant, from the three 2x2 minors it shares with num_v
    m_bc, m_af, m_cf = b * c - a * d, a * f - b * e, c * f - d * e
    den = m_bc * o3 * l2 + m_af * o2 * l1 - m_cf * o1 * l1
    if not eps_den < abs(den) < math.inf:  # a NaN or infinite denominator too
        raise SingularConfigurationError(
            f"solve denominator {den:.3e} within guard {eps_den:.3e}"
        )
    num_v = -(m_bc * (k2e - k3e) + m_af * k2e - m_cf * k1e)
    num_wa = (
        (d * k1e - b * k2e - b * c * omega_r + a * d * omega_r) * o3 * l2
        + (b * e * omega_r - a * f * omega_r - b * k3e + b * k2e - f * k1e) * o2 * l1
        + (c * f * omega_r - d * e * omega_r + d * k3e - d * k2e + f * k2e) * o1 * l1
    )
    num_wb = (
        (a * k2e - c * k1e) * o3 * l2
        + (e * k1e - a * k2e + a * k3e) * o2 * l1
        + (c * k2e - e * k2e - c * k3e) * o1 * l1
    )
    return num_v / den, num_wa / den, num_wb / den


def robot_angular_strategy(alpha: float) -> float:
    """Deadband yaw-rate rule: zero while the pan magnitude stays below pi/6,
    proportional to the pan angle outside."""
    if -DEADBAND_HALF_WIDTH < alpha < DEADBAND_HALF_WIDTH:
        return 0.0
    return YAW_GAIN * alpha


class FollowController:
    """Stateful one-tick controller: errors -> coefficient block -> yaw
    strategy -> rate solve -> saturation.

    The only state is the hold-and-decay memory for degraded ticks:

    * singular solve (a denominator within the guard, infinite or NaN): the previous
      rotation rates are reissued (a one-off degeneracy) and the speed halves;
    * stale measurement (``hold=True``, tracking failure): the camera is
      frozen (zero rotation rates) and the linear speed halves each tick, so
      the search region the recovery machine grows around the last box keeps
      its meaning in image space.

    One instance drives one loop; use separate instances for concurrent runs.
    """

    def __init__(
        self,
        gains: ControllerGains,
        intrinsics: CameraIntrinsics,
        saturation: SaturationLimits | None = None,
    ) -> None:
        self._eps_den = singularity_eps(intrinsics, gains)  # rejects unresolved lambdas
        k, g, s = intrinsics, gains, saturation or SaturationLimits()
        # what step reads, fixed for the run, with its subexpressions ax / ay
        # and ay * ay evaluated once (the same operations, so the same bits)
        self._run = (
            k.u0, k.v0, k.alpha_x, k.alpha_y, k.alpha_x / k.alpha_y, k.alpha_y * k.alpha_y,
            g.lambda1, g.lambda2, g.k1, g.k2, g.k3, g.target_half_height,
            s.v_max, s.omega_r_max, s.omega_alpha_max, s.omega_beta_max, math.inf,
        )
        self._last = ZERO_COMMAND

    def _hold_and_decay(self, freeze_rotation: bool) -> ControlCommand:
        v_r, omega_r, omega_alpha, omega_beta, _, _ = self._last
        if freeze_rotation:
            omega_r = omega_alpha = omega_beta = 0.0
        cmd = tuple.__new__(
            ControlCommand, (0.5 * v_r, omega_r, omega_alpha, omega_beta, UNSATURATED, True)
        )
        self._last = cmd
        return cmd

    def step(
        self,
        box: Box | None,
        angles: tuple[float, float],
        hold: bool = False,
        err: tuple[float, float, float] | None = None,
    ) -> ControlCommand:
        """Compute the command for one tick.

        ``box is None`` (nothing tracked yet) gives the zero command;
        ``hold=True`` or a singular solve gives the hold-and-decay command.
        ``err`` is ``compute_errors`` of ``box`` (or its plain triple) when
        the caller has it already; otherwise it is computed here.

        The rates are :func:`control_law` of the re-derived
        :func:`jacobian_terms` with the yaw of :func:`robot_angular_strategy`,
        each clamped to +/-its limit and flagged if it was (a NaN passes
        unsaturated).  All of it runs inline here, each expression in its
        order, so every rate has the bits of the plain composition.
        """
        if box is None:
            self._last = ZERO_COMMAND
            return ZERO_COMMAND
        if hold:
            return self._hold_and_decay(freeze_rotation=True)

        u0, v0, ax, ay, ax_ay, ay_ay, l1, l2, k1, k2, k3, h_ref, vm, wrm, wam, wbm, inf = self._run
        u, v, v2 = box
        e_u, e_v, e_v2 = (u - u0, v - v0, v - v2 - h_ref) if err is None else err
        alpha, beta = angles
        # jacobian_terms, re-derived
        sa, ca = math.sin(alpha), math.cos(alpha)
        sb, cb = math.sin(beta), math.cos(beta)
        vt2 = v2 - v0
        g1 = e_v * cb - ay * sb
        g2 = vt2 * cb - ay * sb
        u2 = e_u * (l2 * g2) / (l1 * g1) if g1 != 0.0 else e_u
        o1 = (e_u * ca * cb - ax * sa) * g1 / ay
        o2 = ca * g1 * g1 / ay
        o3 = ca * g2 * g2 / ay
        a = ax * cb + ax_ay * sb * e_v + e_u * e_u * cb / ax
        b = e_u * e_v / ay
        c = (e_u / ax) * g1
        d = (ay_ay + e_v * e_v) / ay
        e = (u2 / ax) * g2
        f = (ay_ay + vt2 * vt2) / ay
        # robot_angular_strategy
        omega_r = 0.0 if -DEADBAND_HALF_WIDTH < alpha < DEADBAND_HALF_WIDTH else YAW_GAIN * alpha

        # control_law, with its guard
        k1e, k2e, k3e = k1 * e_u, k2 * e_v, k3 * e_v2
        # the three 2x2 minors den and num_v share, each evaluated once
        m_bc, m_af, m_cf = b * c - a * d, a * f - b * e, c * f - d * e
        den = m_bc * o3 * l2 + m_af * o2 * l1 - m_cf * o1 * l1
        if not self._eps_den < abs(den) < inf:  # a NaN or infinite denominator too
            return self._hold_and_decay(freeze_rotation=False)
        num_v = -(m_bc * (k2e - k3e) + m_af * k2e - m_cf * k1e)
        num_wa = (
            (d * k1e - b * k2e - b * c * omega_r + a * d * omega_r) * o3 * l2
            + (b * e * omega_r - a * f * omega_r - b * k3e + b * k2e - f * k1e) * o2 * l1
            + (c * f * omega_r - d * e * omega_r + d * k3e - d * k2e + f * k2e) * o1 * l1
        )
        num_wb = (
            (a * k2e - c * k1e) * o3 * l2
            + (e * k1e - a * k2e + a * k3e) * o2 * l1
            + (c * k2e - e * k2e - c * k3e) * o1 * l1
        )
        v_r, omega_alpha, omega_beta = num_v / den, num_wa / den, num_wb / den

        # each rate clamped to +/-its limit; an unsaturated command shares UNSATURATED
        sat_v = v_r > vm or v_r < -vm
        sat_wr = omega_r > wrm or omega_r < -wrm
        sat_wa = omega_alpha > wam or omega_alpha < -wam
        sat_wb = omega_beta > wbm or omega_beta < -wbm
        flags = UNSATURATED
        if sat_v or sat_wr or sat_wa or sat_wb:
            flags = tuple.__new__(SaturationFlags, (sat_v, sat_wr, sat_wa, sat_wb))
            if sat_v:
                v_r = vm if v_r > 0.0 else -vm
            if sat_wr:
                omega_r = wrm if omega_r > 0.0 else -wrm
            if sat_wa:
                omega_alpha = wam if omega_alpha > 0.0 else -wam
            if sat_wb:
                omega_beta = wbm if omega_beta > 0.0 else -wbm
        cmd = tuple.__new__(ControlCommand, (v_r, omega_r, omega_alpha, omega_beta, flags, False))
        self._last = cmd
        return cmd


def jacobian_discrepancy_report(
    k: CameraIntrinsics | None = None,
    gains: ControllerGains | None = None,
    n_states: int = 500,
    seed: int = 0,
) -> dict:
    """Compare the two coefficient-block modes over random measurement states.

    Returns per-term maximum absolute difference and the fraction of sampled
    states where the two modes disagree in sign.  Useful for documenting how
    far the hand-tabulated block drifts from the re-derived one.
    """
    if isinstance(n_states, bool) or not isinstance(n_states, int) or n_states < 1:
        raise ValueError("n_states: must be an integer >= 1")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError("seed: must be an integer >= 0")
    k = k or CameraIntrinsics()
    if not (k.width > 100 and k.height > 110):  # so the u and v windows below are not empty
        raise ValueError(f"k: must be over 100 x 110 px, got {k.width} x {k.height}")
    if gains is None:
        body = BodyModel()
        gains = ControllerGains(lambda1=body.lambda1, lambda2=body.lambda2)
    uniform = random.Random(seed).uniform
    term_names = ("omega1", "omega2", "omega3", "a", "b", "c", "d", "e", "f")
    max_abs_diff = {name: 0.0 for name in term_names}
    sign_flips = {name: 0 for name in term_names}
    for _ in range(n_states):
        alpha = uniform(-1.0, 1.0)
        beta = uniform(-0.5, 0.5)
        u = uniform(50.0, k.width - 50.0)
        v = uniform(100.0, k.height - 10.0)
        v2 = v - uniform(20.0, 200.0)
        box = BoxMeasurement(u=u, v=v, v2=v2)
        err = compute_errors(box, k, gains.target_half_height)
        angles = PanTiltAngles(alpha, beta)
        printed = jacobian_terms(err, box, angles, k, gains, mode="as-printed")
        rederived = jacobian_terms(err, box, angles, k, gains, mode="re-derived")
        for name in term_names:
            p, r = getattr(printed, name), getattr(rederived, name)
            max_abs_diff[name] = max(max_abs_diff[name], abs(p - r))
            if p * r < 0:
                sign_flips[name] += 1
    return {
        "n_states": n_states,
        "seed": seed,
        "max_abs_diff": max_abs_diff,
        "sign_flip_fraction": {
            name: sign_flips[name] / n_states for name in term_names
        },
    }


def format_discrepancy_report(report: dict) -> str:
    """Human-readable rendering of :func:`jacobian_discrepancy_report`."""
    lines = [
        f"coefficient-block comparison over {report['n_states']} random states "
        f"(seed {report['seed']})",
        f"{'term':>8}  {'max |as-printed - re-derived|':>30}  {'sign flips':>10}",
    ]
    for name in report["max_abs_diff"]:
        lines.append(
            f"{name:>8}  {report['max_abs_diff'][name]:>30.6g}  "
            f"{report['sign_flip_fraction'][name]:>10.1%}"
        )
    return "\n".join(lines)
