"""Detection gate, simulated tracker channel, and failure recovery."""

import math
import random
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from ptfollow.controller import BoxMeasurement
from ptfollow.geometry import CameraIntrinsics
from ptfollow.perception import (
    DetectionGate,
    NoiseModel,
    PerceptionPipeline,
    RecoveryPolicy,
    RecoveryState,
    gate_update,
    recovery_step,
    region_contains,
    simulated_track,
)


def _box(u, v, h=100.0):
    return BoxMeasurement(u=u, v=v, v2=v - h)


class TestDetectionGate:
    def test_three_consistent_frames_initialize(self):
        gate = DetectionGate()
        assert gate_update(gate, _box(100, 100)) is None
        assert gate_update(gate, _box(105, 102)) is None
        out = gate_update(gate, _box(108, 104))
        assert out is not None and out.u == 108

    def test_large_jump_resets_window(self):
        gate = DetectionGate()
        assert gate_update(gate, _box(100, 100)) is None
        assert gate_update(gate, _box(150, 100)) is None  # 50 px jump resets
        assert gate_update(gate, _box(152, 101)) is None  # only 2 consistent frames
        assert gate_update(gate, _box(153, 101)) is not None

    def test_two_frames_insufficient(self):
        gate = DetectionGate()
        assert gate_update(gate, _box(100, 100)) is None
        assert gate_update(gate, _box(101, 100)) is None

    def test_missed_frame_resets(self):
        gate = DetectionGate()
        gate_update(gate, _box(100, 100))
        gate_update(gate, _box(101, 100))
        assert gate_update(gate, None) is None
        gate_update(gate, _box(102, 100))
        assert gate_update(gate, _box(103, 100)) is None  # window restarted

    def test_tolerance_is_strict(self):
        gate = DetectionGate(pixel_tolerance=10.0)
        gate_update(gate, _box(100, 100))
        assert gate_update(gate, _box(110, 100)) is None  # exactly 10 px: reset
        gate_update(gate, _box(111, 100))
        assert gate_update(gate, _box(112, 100)) is not None


class TestSimulatedTrack:
    def test_noiseless_visible_in_region_is_identity(self):
        rng = random.Random(0)
        noise = NoiseModel()
        truth = _box(330.0, 250.0)
        last = _box(320.0, 240.0)
        assert simulated_track(truth, last, 1.0, noise, 0.0, rng) == truth

    def test_occlusion_window_forces_held_box(self):
        rng = random.Random(0)
        noise = NoiseModel(occlusion_windows=((1.0, 2.0),))
        truth = _box(330.0, 250.0)
        last = _box(320.0, 240.0)
        assert simulated_track(truth, last, 1.0, noise, 1.5, rng) is None
        # outside the window tracking resumes
        assert simulated_track(truth, last, 1.0, noise, 2.0, rng) == truth

    def test_absent_truth_forces_held_box(self):
        rng = random.Random(0)
        noise = NoiseModel()
        last = _box(320.0, 240.0)
        assert simulated_track(None, last, 1.0, noise, 0.0, rng) is None

    def test_region_containment_scales(self):
        # last box half height 50 px, dilation 2: half side 100*scale;
        # a 250 px displacement is outside at scale 1, inside at scale 3
        rng = random.Random(0)
        noise = NoiseModel()
        last = _box(320.0, 240.0, h=50.0)
        truth = _box(320.0 + 250.0, 240.0, h=50.0)
        assert not region_contains(last, 1.0, (truth.u, truth.v), 2.0)
        assert region_contains(last, 3.0, (truth.u, truth.v), 2.0)
        assert simulated_track(truth, last, 1.0, noise, 0.0, rng) is None
        assert simulated_track(truth, last, 3.0, noise, 0.0, rng) == truth

    def test_dropout(self):
        rng = random.Random(0)
        noise = NoiseModel(dropout_prob=1.0)
        truth = _box(330.0, 250.0)
        last = _box(320.0, 240.0)
        assert simulated_track(truth, last, 1.0, noise, 0.0, rng) is None

    def test_noise_keeps_box_valid(self):
        rng = random.Random(1)
        noise = NoiseModel(sigma_px=80.0)
        truth = _box(320.0, 240.0, h=30.0)
        last = truth
        for _ in range(200):
            box = simulated_track(truth, last, 1.0, noise, 0.0, rng)
            assert box.v2 < box.v

    def test_noisy_box_is_plain_floats(self):
        rng = random.Random(1)
        truth = _box(320.0, 240.0)
        box = simulated_track(truth, truth, 1.0, NoiseModel(sigma_px=1.0), 0.0, rng)
        assert box != truth
        # numpy scalars would make every later per-tick operation slower
        assert [type(v) for v in (box.u, box.v, box.v2)] == [float] * 3

    def test_noise_and_dropout_statistics(self):
        # holds for any generator that draws what the model says
        n, sigma, dropout = 20000, 2.0, 0.1
        noise = NoiseModel(sigma_px=sigma, dropout_prob=dropout)
        rng = random.Random(5)
        truth = _box(320.0, 240.0)
        boxes = [simulated_track(truth, truth, 1.0, noise, 0.0, rng) for _ in range(n)]
        seen = [b for b in boxes if b is not None]
        lost = 1.0 - len(seen) / n
        assert abs(lost - dropout) < 4.0 * math.sqrt(dropout * (1.0 - dropout) / n)
        for name in ("u", "v", "v2"):
            offsets = [getattr(b, name) - getattr(truth, name) for b in seen]
            assert abs(statistics.fmean(offsets)) < 4.0 * sigma / math.sqrt(len(seen)), name
            assert statistics.stdev(offsets) == pytest.approx(sigma, rel=0.05), name

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(score_visible=0.5, score_occluded=0.6)
        with pytest.raises(ValueError):
            NoiseModel(occlusion_windows=((0.0, 2.0), (1.0, 3.0)))
        with pytest.raises(ValueError):
            NoiseModel(sigma_px=-1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        cuts=st.lists(st.floats(-100.0, 100.0), max_size=12, unique=True),
        gaps=st.lists(st.booleans(), min_size=6, max_size=6),
        order=st.randoms(use_true_random=False),
        times=st.lists(st.floats(-120.0, 120.0), max_size=20),
    )
    def test_occluded_at_equals_a_scan_of_every_window(self, cuts, gaps, order, times):
        # sorted distinct cut points paired into windows; a gap flag makes the
        # next window start where this one ends, so touching windows occur
        cuts = sorted(cuts)
        windows, i = [], 0
        while i + 1 < len(cuts):
            windows.append((cuts[i], cuts[i + 1]))
            i += 1 if gaps[len(windows) % len(gaps)] else 2
        order.shuffle(windows)  # given in any order
        noise = NoiseModel(occlusion_windows=tuple(windows))
        edges = [t for w in windows for t in w]
        probes = times + edges + [math.nextafter(t, d) for t in edges for d in (-math.inf, math.inf)]
        for t in probes + [math.nan, -math.inf, math.inf]:
            scan = any(t0 <= t < t1 for t0, t1 in windows)
            assert noise.occluded_at(t) == scan, (t, windows)


class TestRecoveryStep:
    def test_low_score_enters_failure(self):
        state = RecoveryState()
        out = recovery_step(state, 0.2)
        assert out.failure_state
        assert out.region_scale == 1.5  # grows immediately for the next tick

    def test_high_score_exits_and_resets(self):
        state = RecoveryState(failure_state=True, region_scale=3.0)
        out = recovery_step(state, 0.9)
        assert not out.failure_state
        assert out.region_scale == 1.0

    def test_mid_band_keeps_failure_and_grows(self):
        state = RecoveryState(failure_state=True, region_scale=2.0)
        out = recovery_step(state, 0.6)
        assert out.failure_state
        assert out.region_scale == 2.5

    def test_mid_band_keeps_normal(self):
        state = RecoveryState(failure_state=False, region_scale=1.0)
        out = recovery_step(state, 0.6)
        assert not out.failure_state
        assert out.region_scale == 1.0

    def test_hysteresis_never_flaps_in_band(self):
        rng = random.Random(2)
        state = RecoveryState(failure_state=True, region_scale=1.0)
        for _ in range(50):
            state = recovery_step(state, rng.uniform(0.41, 0.79), scale_cap=4.0)
            assert state.failure_state
        state = recovery_step(state, 0.8)
        assert not state.failure_state
        for _ in range(50):
            state = recovery_step(state, rng.uniform(0.41, 0.79))
            assert not state.failure_state

    def test_growth_monotone_and_capped(self):
        state = RecoveryState()
        scales = []
        for _ in range(20):
            state = recovery_step(state, 0.1, scale_cap=4.0)
            scales.append(state.region_scale)
        assert all(b >= a for a, b in zip(scales, scales[1:]))
        assert scales[-1] == 4.0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(th_low=0.8, th_high=0.4)


class TestPerceptionPipeline:
    def _pipeline(self, noise=None):
        return PerceptionPipeline(
            noise=noise or NoiseModel(),
            policy=RecoveryPolicy(),
            intrinsics=CameraIntrinsics(),
        )

    def test_initialization_takes_three_frames(self):
        pipe = self._pipeline()
        rng = random.Random(0)
        assert pipe.step(_box(320, 240), 0.00, rng).box is None
        assert pipe.step(_box(321, 240), 0.02, rng).box is None
        out = pipe.step(_box(322, 240), 0.04, rng)
        assert out.initialized and out.box is not None

    def test_transparent_channel_after_initialization(self):
        pipe = self._pipeline()
        rng = random.Random(0)
        for i in range(3):
            pipe.step(_box(320 + i, 240), 0.02 * i, rng)
        truth = _box(325.0, 241.5)
        out = pipe.step(truth, 0.08, rng)
        assert out.box == truth
        assert not out.hold and not out.failure_state

    def test_failure_reports_last_confident_box_with_hold(self):
        noise = NoiseModel(occlusion_windows=((0.1, 0.3),))
        pipe = self._pipeline(noise)
        rng = random.Random(0)
        for i in range(3):
            pipe.step(_box(320 + i, 240), 0.02 * i, rng)
        confident = _box(330.0, 240.0)
        pipe.step(confident, 0.06, rng)
        out = pipe.step(_box(331.0, 240.0), 0.1, rng)  # occluded tick
        assert out.failure_state and out.hold
        assert out.box == confident

    def test_permanent_occlusion_caps_scale_and_stays_failed(self):
        noise = NoiseModel(occlusion_windows=((0.05, 1e9),))
        pipe = self._pipeline(noise)
        rng = random.Random(0)
        for i in range(3):
            pipe.step(_box(320 + i, 240), 0.01 * i, rng)
        scales = []
        for i in range(400):
            out = pipe.step(_box(323, 240), 0.05 + 0.02 * i, rng)
            scales.append(out.region_scale)
            assert out.failure_state
        # half height 100, dilation 2 -> cap = 640 / 200 = 3.2
        assert scales[-1] == pytest.approx(3.2)
        assert max(scales) == scales[-1]

    def test_reacquisition_resets_scale(self):
        noise = NoiseModel(occlusion_windows=((0.1, 0.2),))
        pipe = self._pipeline(noise)
        rng = random.Random(0)
        for i in range(3):
            pipe.step(_box(320 + i, 240), 0.02 * i, rng)
        pipe.step(_box(322, 240), 0.1, rng)   # enters failure
        pipe.step(_box(322, 240), 0.12, rng)  # grows
        out = pipe.step(_box(322, 240), 0.2, rng)  # visible again, in region
        assert not out.failure_state
        assert out.region_scale == 1.0
        assert not out.hold

    def test_deterministic_for_equal_seeds(self):
        noise = NoiseModel(sigma_px=2.0, dropout_prob=0.1)
        outs = []
        for _ in range(2):
            pipe = self._pipeline(noise)
            rng = random.Random(99)
            seq = []
            for i in range(50):
                out = pipe.step(_box(320 + 0.3 * i, 240), 0.02 * i, rng)
                if out.box is not None:
                    seq.append((out.box.u, out.box.v, out.box.v2, out.score))
            outs.append(seq)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "noise, path",
        [
            (NoiseModel(score_occluded=0.5), "noise.score_occluded"),
            (NoiseModel(score_visible=0.7), "noise.score_visible"),
        ],
    )
    def test_scores_inside_threshold_band_rejected(self, noise, path):
        with pytest.raises(ValueError, match=f"^{path}:"):
            self._pipeline(noise)


DT = 0.02


@st.composite
def _runs(draw):
    """A pipeline setting and a truth stream: a random walk of the box that
    is sometimes absent and sometimes jumps out of the search region."""
    th_low = draw(st.floats(0.05, 0.5))
    th_high = draw(st.floats(th_low + 0.05, 0.95))
    windows, start = [], 0
    gaps_and_lengths = st.tuples(st.integers(0, 40), st.integers(1, 15))
    for gap, length in draw(st.lists(gaps_and_lengths, max_size=3)):
        start += gap
        windows.append((DT * start, DT * (start + length)))
        start += length
    noise = NoiseModel(
        sigma_px=draw(st.sampled_from([0.0, 0.5, 3.0, 30.0])),
        occlusion_windows=tuple(windows),
        dropout_prob=draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
        score_visible=draw(st.floats(th_high, 1.0)),
        score_occluded=draw(st.floats(0.0, th_low)),
    )
    policy = RecoveryPolicy(th_low=th_low, th_high=th_high)
    u, v, h = 320.0, 240.0, draw(st.floats(5.0, 150.0))
    truths = []
    for _ in range(draw(st.integers(1, 120))):
        step = draw(st.sampled_from([2.0, 8.0, 400.0]))
        u += draw(st.floats(-step, step))
        v += draw(st.floats(-step, step))
        truths.append(_box(u, v, h) if draw(st.integers(0, 9)) else None)
    return noise, policy, truths, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(_runs())
def test_pipeline_reports_one_verdict_per_tick(run):
    noise, policy, truths, seed = run
    pipe = PerceptionPipeline(noise=noise, policy=policy, intrinsics=CameraIntrinsics())
    rng = random.Random(seed)
    prev = None
    for i, truth in enumerate(truths):
        out = pipe.step(truth, DT * i, rng)
        assert out.hold == out.failure_state
        assert out.initialized == (out.box is not None)
        if not out.initialized:
            assert (out.score, out.region_scale, out.failure_state) == (0.0, 1.0, False)
            continue
        seen = out.score == noise.score_visible
        assert seen or out.score == noise.score_occluded
        assert out.failure_state == (not seen)
        if prev is None or out.box != prev.box:
            assert seen  # the box changes only on a seen tick
        if seen:
            assert out.region_scale == 1.0
        elif prev is not None and prev.failure_state:
            assert out.region_scale >= prev.region_scale
        prev = out
