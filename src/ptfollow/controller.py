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

Two evaluation modes exist for the coefficient block:

``"re-derived"`` (default)
    Coefficients obtained by differentiating the pixel errors through the
    projection model in this package's conventions.  Verified against
    finite-difference error rates from the nonlinear simulator.

``"as-printed"``
    An earlier hand-tabulated variant of the same block whose tilt-related
    signs disagree with the finite-difference check.  Kept so the two forms
    can be compared; see :func:`jacobian_discrepancy_report`.

Given a yaw rate from the deadband strategy, the remaining three rates are
the unique solution of the 3x3 linear system that assigns ``de_i = -K_i e_i``
per channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

from .geometry import BodyModel, CameraIntrinsics, PanTiltAngles, require_positive

JACOBIAN_MODES = ("re-derived", "as-printed")

DEADBAND_HALF_WIDTH = math.pi / 6
YAW_GAIN = 0.1


class SingularConfigurationError(ValueError):
    """The error-rate assignment system is singular at the current state."""


@dataclass(frozen=True)
class BoxMeasurement:
    """Tracked person box: center pixel and top-border midpoint row.

    ``v2 < v`` always holds (the top border sits above the center in the
    down-positive image convention); the half height is ``v - v2``.
    """

    u: float
    v: float
    v2: float

    def __post_init__(self) -> None:
        if not self.v2 < self.v:
            raise ValueError(f"box top row v2={self.v2} must lie above center v={self.v}")

    @property
    def half_height(self) -> float:
        return self.v - self.v2


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
    (negative for a person taller than the camera mount); the defaults are
    those of the default :class:`BodyModel`.
    """

    k1: float = 0.5
    k2: float = 0.5
    k3: float = 0.5
    lambda1: float = BodyModel().lambda1
    lambda2: float = BodyModel().lambda2
    target_half_height: float = 100.0

    def __post_init__(self) -> None:
        require_positive(self, "k1", "k2", "k3", "target_half_height")
        for name in ("lambda1", "lambda2"):
            if getattr(self, name) == 0:
                raise ValueError(f"{name}: must be nonzero")


@dataclass(frozen=True)
class SaturationLimits:
    """Symmetric actuator bounds."""

    v_max: float = 1.2
    omega_alpha_max: float = 1.5
    omega_beta_max: float = 1.5
    omega_r_max: float = 1.0

    def __post_init__(self) -> None:
        require_positive(self, *(f.name for f in fields(self)))


class SaturationFlags(NamedTuple):
    """Which commanded rates were clipped to their limit this tick."""

    v_r: bool = False
    omega_r: bool = False
    omega_alpha: bool = False
    omega_beta: bool = False

    @property
    def any(self) -> bool:
        return self.v_r or self.omega_r or self.omega_alpha or self.omega_beta


class ControlCommand(NamedTuple):
    """Actuator outputs for one tick.  ``hold`` marks a degraded tick
    (stale measurement or singular solve) where the rotation rates were
    frozen or held and the linear speed decayed."""

    v_r: float
    omega_r: float
    omega_alpha: float
    omega_beta: float
    saturated: SaturationFlags = SaturationFlags()
    hold: bool = False


ZERO_COMMAND = ControlCommand(0.0, 0.0, 0.0, 0.0)


def compute_errors(
    box: BoxMeasurement, k: CameraIntrinsics, target_half_height: float
) -> ImageErrors:
    """Pixel errors of a box measurement against the image center and the
    half-height reference."""
    return ImageErrors(box.u - k.u0, box.v - k.v0, box.v - box.v2 - target_half_height)


def jacobian_terms(
    err: ImageErrors,
    box: BoxMeasurement,
    angles: PanTiltAngles,
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
    sa, ca = math.sin(angles.alpha), math.cos(angles.alpha)
    sb, cb = math.sin(angles.beta), math.cos(angles.beta)
    ax, ay = k.alpha_x, k.alpha_y
    e_u, e_v = err.e_u, err.e_v
    vt2 = box.v2 - k.v0  # row error of the top-border midpoint

    if mode == "as-printed":
        u2 = e_u  # top-border midpoint shares the center column
        return JacobianTerms(
            (ax * sa - e_v * ca * cb) * (e_v * cb + ay * sb) / ay,  # omega1
            (e_v * ca * cb + ay * ca * sb) * (-e_v * cb - ay * sb) / ay,  # omega2
            (vt2 * ca * cb + ay * ca * sb) * (-vt2 * cb - ay * sb) / ay,  # omega3
            (ax * ax * ay * cb - ax * ax * sb * e_v + e_u * e_u * ay * cb) / (ax * ay),  # a
            -e_u * e_v / ay,  # b
            (ay * sb * e_u + e_u * e_v * cb) / ax,  # c
            -(ay * ay + e_v * e_v) / ay,  # d
            (ay * sb * u2 - u2 * vt2 * cb) / ax,  # e
            -(ay * ay + err.e_v2 * err.e_v2) / ay,  # f
        )

    g1 = e_v * cb - ay * sb
    g2 = vt2 * cb - ay * sb
    if g1 != 0.0:
        # The two body points share the camera-frame lateral coordinate, so
        # the top point's column offset is the center's scaled by the depth
        # ratio, which the lambda values recover from the two row errors.
        u2 = e_u * (gains.lambda2 * g2) / (gains.lambda1 * g1)
    else:
        u2 = e_u
    return JacobianTerms(
        (e_u * ca * cb - ax * sa) * g1 / ay,  # omega1
        ca * g1 * g1 / ay,  # omega2
        ca * g2 * g2 / ay,  # omega3
        ax * cb + (ax / ay) * sb * e_v + e_u * e_u * cb / ax,  # a
        e_u * e_v / ay,  # b
        (e_u / ax) * g1,  # c
        (ay * ay + e_v * e_v) / ay,  # d
        (u2 / ax) * g2,  # e
        (ay * ay + vt2 * vt2) / ay,  # f
    )


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
    w = omega_alpha + omega_r
    de_u = gains.lambda1 * v_r * terms.omega1 + terms.a * w + terms.b * omega_beta
    de_v = gains.lambda1 * v_r * terms.omega2 + terms.c * w + terms.d * omega_beta
    de_v2 = (
        de_v
        - gains.lambda2 * v_r * terms.omega3
        - terms.e * w
        - terms.f * omega_beta
    )
    return de_u, de_v, de_v2


def singularity_eps(k: CameraIntrinsics, gains: ControllerGains) -> float:
    """Scale-aware threshold for the solve denominator."""
    return 1e-6 * k.alpha_x * k.alpha_y * max(abs(gains.lambda1), abs(gains.lambda2))


def solve_denominator(terms: JacobianTerms, gains: ControllerGains) -> float:
    """Determinant of the error-rate assignment system."""
    t = terms
    return (
        (t.b * t.c - t.a * t.d) * t.omega3 * gains.lambda2
        + (t.a * t.f - t.b * t.e) * t.omega2 * gains.lambda1
        - (t.c * t.f - t.d * t.e) * t.omega1 * gains.lambda1
    )


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
            below ``eps_den``.
    """
    t = terms
    k1e, k2e, k3e = gains.k1 * err.e_u, gains.k2 * err.e_v, gains.k3 * err.e_v2
    l1, l2 = gains.lambda1, gains.lambda2
    den = solve_denominator(terms, gains)
    if abs(den) <= eps_den:
        raise SingularConfigurationError(
            f"solve denominator {den:.3e} within guard {eps_den:.3e}"
        )
    num_v = -(
        (t.b * t.c - t.a * t.d) * (k2e - k3e)
        + (t.a * t.f - t.b * t.e) * k2e
        - (t.c * t.f - t.d * t.e) * k1e
    )
    num_wa = (
        (t.d * k1e - t.b * k2e - t.b * t.c * omega_r + t.a * t.d * omega_r)
        * t.omega3 * l2
        + (t.b * t.e * omega_r - t.a * t.f * omega_r - t.b * k3e + t.b * k2e - t.f * k1e)
        * t.omega2 * l1
        + (t.c * t.f * omega_r - t.d * t.e * omega_r + t.d * k3e - t.d * k2e + t.f * k2e)
        * t.omega1 * l1
    )
    num_wb = (
        (t.a * k2e - t.c * k1e) * t.omega3 * l2
        + (t.e * k1e - t.a * k2e + t.a * k3e) * t.omega2 * l1
        + (t.c * k2e - t.e * k2e - t.c * k3e) * t.omega1 * l1
    )
    return num_v / den, num_wa / den, num_wb / den


def robot_angular_strategy(alpha: float) -> float:
    """Deadband yaw-rate rule: zero while the pan magnitude stays below pi/6,
    proportional to the pan angle outside."""
    if -DEADBAND_HALF_WIDTH < alpha < DEADBAND_HALF_WIDTH:
        return 0.0
    return YAW_GAIN * alpha


def _clamp(value: float, limit: float) -> tuple[float, bool]:
    if value > limit:
        return limit, True
    if value < -limit:
        return -limit, True
    return value, False


class FollowController:
    """Stateful one-tick controller: errors -> coefficient block -> yaw
    strategy -> rate solve -> saturation.

    The only state is the hold-and-decay memory for degraded ticks:

    * singular solve: the previous rotation rates are reissued for the tick
      (a one-off numeric degeneracy) and the linear speed halves;
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
        mode: str = "re-derived",
    ) -> None:
        if mode not in JACOBIAN_MODES:
            raise ValueError(f"unknown jacobian mode {mode!r}; expected one of {JACOBIAN_MODES}")
        self.gains = gains
        self.intrinsics = intrinsics
        self.saturation = saturation or SaturationLimits()
        self.mode = mode
        self._eps_den = singularity_eps(intrinsics, gains)
        self._last = ZERO_COMMAND

    def _hold_and_decay(self, freeze_rotation: bool) -> ControlCommand:
        cmd = ControlCommand(
            v_r=0.5 * self._last.v_r,
            omega_r=0.0 if freeze_rotation else self._last.omega_r,
            omega_alpha=0.0 if freeze_rotation else self._last.omega_alpha,
            omega_beta=0.0 if freeze_rotation else self._last.omega_beta,
            hold=True,
        )
        self._last = cmd
        return cmd

    def step(
        self,
        box: BoxMeasurement | None,
        angles: PanTiltAngles,
        hold: bool = False,
        err: ImageErrors | None = None,
    ) -> ControlCommand:
        """Compute the command for one tick.

        ``box is None`` (nothing tracked yet) gives the zero command;
        ``hold=True`` or a singular solve gives the hold-and-decay command.
        ``err`` is ``compute_errors`` of ``box`` when the caller has it
        already; otherwise it is computed here.
        """
        if box is None:
            self._last = ZERO_COMMAND
            return ZERO_COMMAND
        if hold:
            return self._hold_and_decay(freeze_rotation=True)

        if err is None:
            err = compute_errors(box, self.intrinsics, self.gains.target_half_height)
        terms = jacobian_terms(err, box, angles, self.intrinsics, self.gains, self.mode)
        omega_r = robot_angular_strategy(angles.alpha)
        try:
            v_r, omega_alpha, omega_beta = control_law(
                err, terms, self.gains, omega_r, self._eps_den
            )
        except SingularConfigurationError:
            return self._hold_and_decay(freeze_rotation=False)

        lim = self.saturation
        v_r, sat_v = _clamp(v_r, lim.v_max)
        omega_r, sat_wr = _clamp(omega_r, lim.omega_r_max)
        omega_alpha, sat_wa = _clamp(omega_alpha, lim.omega_alpha_max)
        omega_beta, sat_wb = _clamp(omega_beta, lim.omega_beta_max)
        cmd = ControlCommand(
            v_r, omega_r, omega_alpha, omega_beta,
            SaturationFlags(sat_v, sat_wr, sat_wa, sat_wb),
        )
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
    import numpy as np  # only this report samples random states

    k = k or CameraIntrinsics()
    gains = gains or ControllerGains()
    rng = np.random.default_rng(seed)
    term_names = ("omega1", "omega2", "omega3", "a", "b", "c", "d", "e", "f")
    max_abs_diff = {name: 0.0 for name in term_names}
    sign_flips = {name: 0 for name in term_names}
    for _ in range(n_states):
        alpha = rng.uniform(-1.0, 1.0)
        beta = rng.uniform(-0.5, 0.5)
        u = rng.uniform(50.0, k.width - 50.0)
        v = rng.uniform(100.0, k.height - 10.0)
        v2 = v - rng.uniform(20.0, 200.0)
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
