"""Simulated detector/tracker front end with failure recovery.

Three stages stand in for a real perception stack:

1. A detection stability gate that only hands the first box to the tracker
   once three consecutive detections agree to within ``PIXEL_TOLERANCE``.
2. A tracker channel that reports each tick the ground-truth box, perturbed
   by Gaussian pixel noise, or that the target is lost (scripted occlusion
   windows, outside the search region, random dropouts, a noisy box outside
   the image).  Dropouts and noise are drawn from the run's seeded
   ``random.Random``.
3. A failure-recovery state machine: a lost tick enters the failure state
   and a seen tick leaves it, and while failed the search region grows by a
   constant step per tick up to full-image coverage.  The pipeline scores
   the verdict with the constants ``SEEN_SCORE`` and ``LOST_SCORE``, which
   lie outside the hysteresis band of :func:`recovery_step`.  The band, the
   step and the region's size are the constants of :class:`RecoveryPolicy`,
   not scenario keys.

While failed, the pipeline reports the last box seen with a hold flag so the
controller can stop chasing stale measurements.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from random import NV_MAGICCONST, Random
from typing import Callable, NamedTuple, Optional

from .controller import Box
from .geometry import CameraIntrinsics, ConfigError, check_fields

# Largest drift, in pixels, between successive detections the gate accepts.
PIXEL_TOLERANCE = 10.0

# The tracker score of a seen tick and of a lost one: at or above
# RecoveryPolicy.th_high, and at or below RecoveryPolicy.th_low.
SEEN_SCORE = 0.95
LOST_SCORE = 0.1


def gate_update(
    window: list[tuple[float, float]], detection: Optional[Box]
) -> Optional[Box]:
    """Feed one frame's detection into the stability gate, whose ``window``
    holds the centers of the consecutive agreeing detections so far.

    Returns the detection as the initial box once three consecutive
    detections drift less than ``PIXEL_TOLERANCE`` between successive frames,
    else ``None``.  A larger jump restarts the window, and a missed frame
    (``detection=None``) or an opened gate clears it, in place.
    """
    if detection is None:
        window.clear()
        return None
    center = (detection[0], detection[1])
    if window:
        last = window[-1]
        if math.hypot(center[0] - last[0], center[1] - last[1]) >= PIXEL_TOLERANCE:
            window.clear()
    window.append(center)
    if len(window) >= 3:
        window.clear()
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

    def __post_init__(self) -> None:
        check_fields(self)
        if self.sigma_px < 0:
            raise ConfigError("sigma_px: must be >= 0")
        if not 0.0 <= self.dropout_prob <= 1.0:
            raise ConfigError("dropout_prob: must lie in [0, 1]")
        for i, (t0, t1) in enumerate(self.occlusion_windows):
            if not t0 < t1:  # NaN too
                raise ConfigError(f"occlusion_windows[{i}]: [{t0}, {t1}) is empty")
        windows = sorted(self.occlusion_windows)
        for a, b in zip(windows, windows[1:]):
            if b[0] < a[1]:
                raise ConfigError(f"occlusion_windows: {list(a)} and {list(b)} overlap")
        # in time order, for the pipeline's occlusion test, which reads the
        # last window starting at or before t (they do not overlap); not
        # dataclass fields, which the config parser reads as scenario keys
        object.__setattr__(self, "_starts", tuple(t0 for t0, _ in windows))
        object.__setattr__(self, "_ends", tuple(t1 for _, t1 in windows))


class RecoveryPolicy:
    """Failure-recovery constants: the hysteresis thresholds on the tracker
    score (the pipeline's two scores lie outside the band), the per-tick
    growth step of the search region multiplier, and the region's nominal
    half side in units of the box half height."""

    th_low = 0.4
    th_high = 0.8
    step_s = 0.5
    search_dilation = 2.0


class _Recovery(NamedTuple):
    failure_state: bool = False
    region_scale: float = 1.0


class RecoveryState(_Recovery):
    """Failure-recovery run state: the failure flag and the current
    search-region multiplier (>= 1)."""

    __slots__ = ()  # no instance dict: fields and attributes stay read-only

    def __new__(cls, failure_state: bool = False, region_scale: float = 1.0) -> "RecoveryState":
        if not region_scale >= 1.0:  # NaN too
            raise ValueError("region_scale: must be >= 1")
        return tuple.__new__(cls, (failure_state, region_scale))

    @classmethod
    def _make(cls, iterable) -> "RecoveryState":  # so that _replace checks too
        return cls(*iterable)


def recovery_step(state: RecoveryState, score: float, scale_cap: float = math.inf) -> RecoveryState:
    """One transition of the failure-recovery machine, as a new state.

    Scores at or below ``th_low`` enter the failure state; scores at or above
    ``th_high`` leave it and reset the search region; scores in between keep
    the current state.  While failed, the region multiplier grows by
    ``step_s`` per tick, capped at ``scale_cap`` (full-image coverage).
    """
    failed = state.failure_state
    if score <= RecoveryPolicy.th_low:
        failed = True
    elif score >= RecoveryPolicy.th_high:
        failed = False
    if failed:
        scale = min(state.region_scale + RecoveryPolicy.step_s, max(scale_cap, 1.0))
    else:
        scale = 1.0
    return RecoveryState(failed, scale)


def normal(random: Callable[[], float], sigma: float) -> float:
    """``Random.normalvariate(0.0, sigma)`` of the generator whose ``random``
    method is given: the same Kinderman-Monahan loop, drawing the same
    uniforms, so value and stream position match it bit for bit."""
    while True:
        u1 = random()
        u2 = 1.0 - random()
        z = NV_MAGICCONST * (u1 - 0.5) / u2
        if z * z / 4.0 <= -math.log(u2):
            return 0.0 + z * sigma  # mu + z * sigma: adding mu = 0.0 turns -0.0 into 0.0


class PerceptionOutput(NamedTuple):
    """Per-tick pipeline result handed to the controller and the logger."""

    box: Optional[Box]
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
    """

    def __init__(self, noise: NoiseModel, intrinsics: CameraIntrinsics) -> None:
        self.noise = noise
        self.recovery = RecoveryState()
        self.intrinsics = intrinsics
        self.window: list[tuple[float, float]] = []  # the detection gate's, see gate_update
        self._box: Optional[Box] = None  # last box seen; None until initialized

    def step(self, truth: Optional[Box], t: float, rng: Random) -> PerceptionOutput:
        """Advance the pipeline by one frame.

        A tracked tick is the tracker update ``simulated_track`` (with its
        ``occluded_at``; both plain forms live in ``tests/oracles.py``) and
        :func:`recovery_step` fed ``LOST_SCORE`` or ``SEEN_SCORE``, run inline
        with each expression in its order, so every output and every draw from
        ``rng`` is theirs: a lost tick enters the failure state and a seen tick
        leaves it.  Their builtin ``min``/``max`` are comparisons keeping the
        builtins' first-argument-wins rule.  A noisy box inside the image is
        the plain triple ``(u, v, v2)`` (the image test implies
        :class:`~ptfollow.controller.BoxMeasurement`'s check); any other noisy
        box is a lost tick.
        """
        noise = self.noise
        seen = truth
        if truth is not None:
            i = bisect_right(noise._starts, t)  # the last window to start by t
            if i > 0 and t < noise._ends[i - 1]:
                seen = None  # occlusion suppresses the detection too
        box = self._box
        recovery = self.recovery
        if box is None:
            box = self._box = gate_update(self.window, seen)
            if box is None:
                return _GATING
            score = SEEN_SCORE
        else:
            if seen is not None:
                half = recovery.region_scale * RecoveryPolicy.search_dilation * (box[1] - box[2])
                if not (abs(seen[0] - box[0]) <= half and abs(seen[1] - box[1]) <= half):
                    seen = None  # outside the search region
                elif noise.dropout_prob > 0.0 and rng.random() < noise.dropout_prob:
                    seen = None
                elif noise.sigma_px > 0.0:
                    rand, sigma = rng.random, noise.sigma_px
                    du, dv, dv2 = normal(rand, sigma), normal(rand, sigma), normal(rand, sigma)
                    u = seen[0] + du
                    v = seen[1] + dv
                    v2 = seen[2] + dv2
                    top = v - 1.0  # keep at least 1 px of half height
                    if top < v2:
                        v2 = top
                    k = self.intrinsics
                    # render_measurement's image test, which implies v2 < v
                    if 0.0 <= u < k.width and 0.0 <= v2 < v < k.height:
                        seen = (u, v, v2)
                    else:
                        seen = None
            # an unchanged recovery state is kept, where recovery_step builds one
            if seen is None:
                score = LOST_SCORE
                # failed: the region grows, capped at the multiplier at which
                # it covers the whole image
                nominal = RecoveryPolicy.search_dilation * (box[1] - box[2])
                k = self.intrinsics
                width, height = k.width, k.height
                cap = (height if height > width else width) / nominal
                if not cap > 1.0:
                    cap = 1.0
                scale = recovery.region_scale + RecoveryPolicy.step_s
                if cap < scale:
                    scale = cap
                if not (recovery.failure_state and scale == recovery.region_scale):
                    recovery = self.recovery = RecoveryState(True, scale)
            else:
                score = SEEN_SCORE
                box = self._box = seen
                if recovery.failure_state or recovery.region_scale != 1.0:
                    recovery = self.recovery = RecoveryState(False, 1.0)
        failed, scale = recovery
        # box, hold, score, region_scale, failure_state, initialized
        return tuple.__new__(PerceptionOutput, (box, failed, score, scale, failed, True))
