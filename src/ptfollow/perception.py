"""Simulated detector/tracker front end with failure recovery.

Three stages stand in for a real perception stack:

1. A detection stability gate that only hands the first box to the tracker
   once three consecutive detections agree to within a pixel tolerance.
2. A tracker channel that reports each tick the ground-truth box, perturbed
   by Gaussian pixel noise, or that the target is lost (scripted occlusion
   windows, outside the search region, random dropouts).  Dropouts and noise
   are drawn from the run's seeded ``random.Random``.
3. A hysteretic failure-recovery state machine fed the score the pipeline
   gives that verdict: a low score enters the failure state, a high score
   leaves it, and while failed the search region grows by a constant step
   per tick up to full-image coverage.

While failed, the pipeline reports the last box seen with a hold flag so the
controller can stop chasing stale measurements.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from random import Random
from typing import NamedTuple, Optional

from .controller import BoxMeasurement
from .geometry import CameraIntrinsics, require_positive


@dataclass
class DetectionGate:
    """Stability gate over incoming detections.

    Initializes exactly when three consecutive detections drift less than
    ``pixel_tolerance`` between successive frames; any larger jump or a
    missed frame restarts the window.
    """

    pixel_tolerance: float = 10.0
    window: list[tuple[float, float]] = field(default_factory=list)

    def reset(self) -> None:
        self.window.clear()


def gate_update(
    gate: DetectionGate, detection: Optional[BoxMeasurement]
) -> Optional[BoxMeasurement]:
    """Feed one frame's detection into the gate.

    Returns the detection as the initial box once the stability criterion is
    met, else ``None``.  ``detection=None`` (missed frame) resets the window.
    """
    if detection is None:
        gate.reset()
        return None
    center = (detection.u, detection.v)
    if gate.window:
        last = gate.window[-1]
        if math.hypot(center[0] - last[0], center[1] - last[1]) >= gate.pixel_tolerance:
            gate.window.clear()
    gate.window.append(center)
    if len(gate.window) >= 3:
        gate.reset()
        return detection
    return None


@dataclass(frozen=True)
class NoiseModel:
    """Measurement-channel imperfections.

    ``occlusion_windows`` are half-open intervals ``[t_start, t_end)`` in
    seconds during which the target cannot be seen at all.
    """

    sigma_px: float = 0.0
    occlusion_windows: tuple[tuple[float, float], ...] = ()
    dropout_prob: float = 0.0
    score_visible: float = 0.95
    score_occluded: float = 0.1

    def __post_init__(self) -> None:
        if self.sigma_px < 0:
            raise ValueError("sigma_px: must be >= 0")
        if not 0.0 <= self.dropout_prob <= 1.0:
            raise ValueError("dropout_prob: must lie in [0, 1]")
        if not self.score_occluded < self.score_visible:
            raise ValueError("score_occluded: must be < score_visible")
        for i, (t0, t1) in enumerate(self.occlusion_windows):
            if t1 <= t0:
                raise ValueError(f"occlusion_windows[{i}]: [{t0}, {t1}) is empty")
        windows = sorted(self.occlusion_windows)
        for a, b in zip(windows, windows[1:]):
            if b[0] < a[1]:
                raise ValueError(f"occlusion_windows: {list(a)} and {list(b)} overlap")
        # in time order, for occluded_at; not dataclass fields, which the
        # config parser reads as scenario keys
        object.__setattr__(self, "_starts", tuple(t0 for t0, _ in windows))
        object.__setattr__(self, "_ends", tuple(t1 for _, t1 in windows))

    def occluded_at(self, t: float) -> bool:
        # the windows do not overlap, so only the last one starting at or
        # before t can hold it
        i = bisect_right(self._starts, t)
        return i > 0 and t < self._ends[i - 1]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Failure-recovery settings: hysteresis thresholds on the tracker score,
    the per-tick growth step of the search region multiplier, and the region's
    nominal half side in units of the box half height."""

    th_low: float = 0.4
    th_high: float = 0.8
    step_s: float = 0.5
    search_dilation: float = 2.0

    def __post_init__(self) -> None:
        if not self.th_low < self.th_high:
            raise ValueError("th_low: must be < th_high")
        require_positive(self, "step_s", "search_dilation")


def score_conflict(noise: NoiseModel, policy: RecoveryPolicy) -> Optional[str]:
    """Why the tracker scores defeat the recovery thresholds, or ``None``: a
    lost tick must enter the failure state and a seen tick must leave it."""
    if not noise.score_occluded <= policy.th_low:
        return (
            f"noise.score_occluded: {noise.score_occluded!r} must be <= recovery.th_low"
            f" {policy.th_low!r}, or a lost target never enters the failure state"
        )
    if not noise.score_visible >= policy.th_high:
        return (
            f"noise.score_visible: {noise.score_visible!r} must be >= recovery.th_high"
            f" {policy.th_high!r}, or a seen target never leaves the failure state"
        )
    return None


@dataclass(frozen=True)
class RecoveryState:
    """Failure-recovery run state: the failure flag and the current
    search-region multiplier (>= 1)."""

    failure_state: bool = False
    region_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.region_scale < 1.0:
            raise ValueError("region_scale: must be >= 1")


def recovery_step(
    state: RecoveryState,
    score: float,
    scale_cap: float = math.inf,
    policy: RecoveryPolicy = RecoveryPolicy(),
) -> RecoveryState:
    """One transition of the failure-recovery machine.

    Scores at or below ``th_low`` enter the failure state; scores at or above
    ``th_high`` leave it and reset the search region; scores in between keep
    the current state.  While failed, the region multiplier grows by
    ``step_s`` per tick, capped at ``scale_cap`` (full-image coverage).
    """
    failed = state.failure_state
    if score <= policy.th_low:
        failed = True
    elif score >= policy.th_high:
        failed = False
    if failed:
        scale = min(state.region_scale + policy.step_s, max(scale_cap, 1.0))
    else:
        scale = 1.0
    return RecoveryState(failure_state=failed, region_scale=scale)


def region_contains(
    last_box: BoxMeasurement,
    region_scale: float,
    center: tuple[float, float],
    dilation: float,
) -> bool:
    """Whether ``center`` is inside the square search region around the last box."""
    half = region_scale * dilation * last_box.half_height
    return (
        abs(center[0] - last_box.u) <= half and abs(center[1] - last_box.v) <= half
    )


def simulated_track(
    truth: Optional[BoxMeasurement],
    last_box: BoxMeasurement,
    region_scale: float,
    noise: NoiseModel,
    t: float,
    rng: Random,
    dilation: float = RecoveryPolicy.search_dilation,
) -> Optional[BoxMeasurement]:
    """One tracker update against the synthetic measurement channel.

    Returns ``None`` (target lost) whenever the target is occluded, absent,
    outside the search region around ``last_box``, or lost to a random
    dropout; otherwise returns the (possibly noise-perturbed) truth.
    """
    if truth is None or noise.occluded_at(t):
        return None
    if not region_contains(last_box, region_scale, (truth.u, truth.v), dilation):
        return None
    if noise.dropout_prob > 0.0 and rng.random() < noise.dropout_prob:
        return None
    if noise.sigma_px > 0.0:
        normal, sigma = rng.normalvariate, noise.sigma_px
        du, dv, dv2 = normal(0.0, sigma), normal(0.0, sigma), normal(0.0, sigma)
        v = truth.v + dv
        v2 = min(truth.v2 + dv2, v - 1.0)  # keep at least 1 px of half height
        return BoxMeasurement(u=truth.u + du, v=v, v2=v2)
    return truth


class PerceptionOutput(NamedTuple):
    """Per-tick pipeline result handed to the controller and the logger."""

    box: Optional[BoxMeasurement]
    hold: bool
    score: float
    region_scale: float
    failure_state: bool
    initialized: bool


# What every tick before the detection gate opens reports.
_GATING = PerceptionOutput(
    box=None, hold=False, score=0.0, region_scale=1.0, failure_state=False, initialized=False
)


class PerceptionPipeline:
    """Gate, tracker and recovery machine wired together for one run.

    Owns all perception state for a scenario; independent pipelines may run
    concurrently.  Detections fed to the gate are noiseless truth centers
    (detector internals are out of scope); occlusion suppresses them too.

    Raises ``ValueError`` if the tracker scores defeat the recovery
    thresholds (see :func:`score_conflict`).
    """

    def __init__(
        self, noise: NoiseModel, policy: RecoveryPolicy, intrinsics: CameraIntrinsics
    ) -> None:
        if conflict := score_conflict(noise, policy):
            raise ValueError(conflict)
        self.noise = noise
        self.policy = policy
        self.recovery = RecoveryState()
        self.intrinsics = intrinsics
        self.gate = DetectionGate()
        self._box: Optional[BoxMeasurement] = None  # last box seen; None until initialized

    def _scale_cap(self, box: BoxMeasurement) -> float:
        """Multiplier at which the search region covers the whole image."""
        nominal = self.policy.search_dilation * box.half_height
        return max(1.0, max(self.intrinsics.width, self.intrinsics.height) / nominal)

    def step(self, truth: Optional[BoxMeasurement], t: float, rng: Random) -> PerceptionOutput:
        """Advance the pipeline by one frame."""
        if self._box is None:
            detection = None if (truth is None or self.noise.occluded_at(t)) else truth
            self._box = gate_update(self.gate, detection)
            if self._box is None:
                return _GATING
            score = self.noise.score_visible
        else:
            seen = simulated_track(
                truth, self._box, self.recovery.region_scale,
                self.noise, t, rng, self.policy.search_dilation,
            )
            if seen is None:
                score = self.noise.score_occluded
            else:
                score = self.noise.score_visible
                self._box = seen
            self.recovery = recovery_step(
                self.recovery, score, self._scale_cap(self._box), self.policy
            )
        failed = self.recovery.failure_state
        # box, hold, score, region_scale, failure_state, initialized
        return PerceptionOutput(
            self._box, failed, score, self.recovery.region_scale, failed, True
        )
