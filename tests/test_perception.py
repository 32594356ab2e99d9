"""Detection gate, simulated tracker channel, and failure recovery."""

import numpy as np
import pytest

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


def _box(u, v, h=100.0, score=1.0):
    return BoxMeasurement(u=u, v=v, v2=v - h, score=score)


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
        rng = np.random.default_rng(0)
        noise = NoiseModel()
        truth = _box(330.0, 250.0)
        last = _box(320.0, 240.0)
        out = simulated_track(truth, last, 1.0, noise, 0.0, rng)
        assert out.box == truth
        assert out.score == noise.score_visible

    def test_occlusion_window_forces_held_box(self):
        rng = np.random.default_rng(0)
        noise = NoiseModel(occlusion_windows=((1.0, 2.0),))
        truth = _box(330.0, 250.0)
        last = _box(320.0, 240.0)
        out = simulated_track(truth, last, 1.0, noise, 1.5, rng)
        assert out.box == last
        assert out.score == noise.score_occluded
        # outside the window tracking resumes
        assert simulated_track(truth, last, 1.0, noise, 2.0, rng).score == noise.score_visible

    def test_absent_truth_forces_held_box(self):
        rng = np.random.default_rng(0)
        noise = NoiseModel()
        last = _box(320.0, 240.0)
        out = simulated_track(None, last, 1.0, noise, 0.0, rng)
        assert out.box == last and out.score == noise.score_occluded

    def test_region_containment_scales(self):
        # last box half height 50 px, dilation 2: half side 100*scale;
        # a 250 px displacement is outside at scale 1, inside at scale 3
        rng = np.random.default_rng(0)
        noise = NoiseModel()
        last = _box(320.0, 240.0, h=50.0)
        truth = _box(320.0 + 250.0, 240.0, h=50.0)
        assert not region_contains(last, 1.0, (truth.u, truth.v), 2.0)
        assert region_contains(last, 3.0, (truth.u, truth.v), 2.0)
        out1 = simulated_track(truth, last, 1.0, noise, 0.0, rng)
        out3 = simulated_track(truth, last, 3.0, noise, 0.0, rng)
        assert out1.score == noise.score_occluded
        assert out3.score == noise.score_visible

    def test_dropout(self):
        rng = np.random.default_rng(0)
        noise = NoiseModel(dropout_prob=1.0)
        truth = _box(330.0, 250.0)
        last = _box(320.0, 240.0)
        out = simulated_track(truth, last, 1.0, noise, 0.0, rng)
        assert out.score == noise.score_occluded

    def test_noise_keeps_box_valid(self):
        rng = np.random.default_rng(1)
        noise = NoiseModel(sigma_px=80.0)
        truth = _box(320.0, 240.0, h=30.0)
        last = truth
        for _ in range(200):
            out = simulated_track(truth, last, 1.0, noise, 0.0, rng)
            assert out.box.v2 < out.box.v

    def test_noisy_box_is_plain_floats(self):
        rng = np.random.default_rng(1)
        truth = _box(320.0, 240.0)
        out = simulated_track(truth, truth, 1.0, NoiseModel(sigma_px=1.0), 0.0, rng)
        assert out.box != truth
        # numpy scalars would make every later per-tick operation slower
        assert [type(v) for v in (out.box.u, out.box.v, out.box.v2)] == [float] * 3

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(score_visible=0.5, score_occluded=0.6)
        with pytest.raises(ValueError):
            NoiseModel(occlusion_windows=((0.0, 2.0), (1.0, 3.0)))
        with pytest.raises(ValueError):
            NoiseModel(sigma_px=-1.0)


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
        rng = np.random.default_rng(2)
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
        rng = np.random.default_rng(0)
        assert pipe.step(_box(320, 240), 0.00, rng).box is None
        assert pipe.step(_box(321, 240), 0.02, rng).box is None
        out = pipe.step(_box(322, 240), 0.04, rng)
        assert out.initialized and out.box is not None

    def test_transparent_channel_after_initialization(self):
        pipe = self._pipeline()
        rng = np.random.default_rng(0)
        for i in range(3):
            pipe.step(_box(320 + i, 240), 0.02 * i, rng)
        truth = _box(325.0, 241.5)
        out = pipe.step(truth, 0.08, rng)
        assert out.box == truth
        assert not out.hold and not out.failure_state

    def test_failure_reports_last_confident_box_with_hold(self):
        noise = NoiseModel(occlusion_windows=((0.1, 0.3),))
        pipe = self._pipeline(noise)
        rng = np.random.default_rng(0)
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
        rng = np.random.default_rng(0)
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
        rng = np.random.default_rng(0)
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
            rng = np.random.default_rng(99)
            seq = []
            for i in range(50):
                out = pipe.step(_box(320 + 0.3 * i, 240), 0.02 * i, rng)
                if out.box is not None:
                    seq.append((out.box.u, out.box.v, out.box.v2, out.score))
            outs.append(seq)
        assert outs[0] == outs[1]
