"""Detection gate, simulated tracker channel, and failure recovery."""

import math
import random
import statistics
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings, strategies as st

from oracles import occluded_at, pipeline_step_with_cap, simulated_track
from ptfollow.controller import BoxMeasurement
from ptfollow.geometry import CameraIntrinsics
from ptfollow.perception import (
    LOST_SCORE,
    SEEN_SCORE,
    NoiseModel,
    PerceptionOutput,
    PerceptionPipeline,
    RecoveryPolicy,
    RecoveryState,
    gate_update,
    normal,
    recovery_step,
)


def _box(u, v, h=100.0):
    return BoxMeasurement(u=u, v=v, v2=v - h)


class TestDetectionGate:
    def test_three_consistent_frames_initialize(self):
        gate = []
        assert gate_update(gate, _box(100, 100)) is None
        assert gate_update(gate, _box(105, 102)) is None
        out = gate_update(gate, _box(108, 104))
        assert out is not None and out.u == 108

    def test_large_jump_resets_window(self):
        gate = []
        assert gate_update(gate, _box(100, 100)) is None
        assert gate_update(gate, _box(150, 100)) is None  # 50 px jump resets
        assert gate_update(gate, _box(152, 101)) is None  # only 2 consistent frames
        assert gate_update(gate, _box(153, 101)) is not None

    def test_two_frames_insufficient(self):
        gate = []
        assert gate_update(gate, _box(100, 100)) is None
        assert gate_update(gate, _box(101, 100)) is None

    def test_missed_frame_resets(self):
        gate = []
        gate_update(gate, _box(100, 100))
        gate_update(gate, _box(101, 100))
        assert gate_update(gate, None) is None
        gate_update(gate, _box(102, 100))
        assert gate_update(gate, _box(103, 100)) is None  # window restarted

    def test_tolerance_is_strict(self):
        gate = []  # PIXEL_TOLERANCE is 10 px
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
        assert simulated_track(truth, last, 1.0, noise, 0.0, rng) is None
        assert simulated_track(truth, last, 3.0, noise, 0.0, rng) == truth

    def test_dropout(self):
        rng = random.Random(0)
        noise = NoiseModel(dropout_prob=1.0)
        truth = _box(330.0, 250.0)
        last = _box(320.0, 240.0)
        assert simulated_track(truth, last, 1.0, noise, 0.0, rng) is None

    def test_noise_keeps_box_valid(self):
        # a noisy box lies in the image with at least 1 px of half height,
        # or the tick is lost
        rng = random.Random(1)
        noise = NoiseModel(sigma_px=80.0)
        truth = _box(320.0, 240.0, h=30.0)
        k = CameraIntrinsics()
        boxes = [simulated_track(truth, truth, 1.0, noise, 0.0, rng) for _ in range(200)]
        seen = [box for box in boxes if box is not None]
        assert 0 < len(boxes) - len(seen) < 20
        for box in seen:
            assert 0.0 <= box.u < k.width and 0.0 <= box.v2 <= box.v - 1.0 and box.v < k.height

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
            NoiseModel(occlusion_windows=((0.0, 2.0), (1.0, 3.0)))
        with pytest.raises(ValueError):
            NoiseModel(sigma_px=-1.0)

    def test_nan_sigma_or_window_rejected(self):
        with pytest.raises(ValueError, match=r"^sigma_px: expected a finite number, got nan$"):
            NoiseModel(sigma_px=math.nan)
        for i, window in enumerate(((math.nan, 1.0), (0.0, math.nan))):
            with pytest.raises(
                ValueError, match=rf"^occlusion_windows\[0\]\[{i}\]: expected a finite number, got nan$"
            ):
                NoiseModel(occlusion_windows=(window,))

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
            assert occluded_at(noise, t) == scan, (t, windows)


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
            assert type(state.failure_state) is bool
            scales.append(state.region_scale)
        assert all(b >= a for a, b in zip(scales, scales[1:]))
        assert float.hex(scales[-1]) == float.hex(4.0)

    def test_scores_and_thresholds_are_constants(self):
        # the two scores lie outside the hysteresis band, so from any state a
        # lost tick enters the failure state and a seen tick leaves it
        assert LOST_SCORE <= RecoveryPolicy.th_low < RecoveryPolicy.th_high <= SEEN_SCORE
        for state in (RecoveryState(), RecoveryState(True, 2.0)):
            assert recovery_step(state, LOST_SCORE).failure_state
            assert not recovery_step(state, SEEN_SCORE).failure_state
        names = [f.name for f in fields(NoiseModel)]
        assert names == ["sigma_px", "occlusion_windows", "dropout_prob"]
        assert not is_dataclass(RecoveryPolicy)
        assert (RecoveryPolicy.step_s, RecoveryPolicy.search_dilation) == (0.5, 2.0)

    @pytest.mark.parametrize("scale", [math.nan, 0.5])
    def test_region_scale_below_one_or_nan_rejected(self, scale):
        with pytest.raises(ValueError, match="^region_scale: must be >= 1$"):
            RecoveryState(failure_state=True, region_scale=scale)
        with pytest.raises(ValueError, match="^region_scale: must be >= 1$"):
            RecoveryState(failure_state=True, region_scale=2.0)._replace(region_scale=scale)


class TestNormalDraw:
    """``normal`` writes out ``Random.normalvariate(0.0, sigma)``'s loop."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**64),
        sigma=st.sampled_from([5e-324, 1e-300, 1.0, 3.0, 1e308])
        | st.floats(0.0, exclude_min=True, allow_infinity=False),
        n=st.integers(1, 8),
    )
    def test_value_and_stream_position_equal_normalvariate(self, seed, sigma, n):
        fast, plain = random.Random(seed), random.Random(seed)
        got = [normal(fast.random, sigma) for _ in range(n)]
        want = [plain.normalvariate(0.0, sigma) for _ in range(n)]
        assert [float.hex(x) for x in got] == [float.hex(x) for x in want]
        assert fast.getstate() == plain.getstate()


class TestPerceptionPipeline:
    def _pipeline(self, noise=None):
        return PerceptionPipeline(noise=noise or NoiseModel(), intrinsics=CameraIntrinsics())

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

    def _tracked_with_draws(self, monkeypatch, draws):
        """The output of the first tracked tick of a truth at (320, 240) with
        half height 100, whose noise is ``draws``, and the oracle's box for
        the same draws."""
        pipe = self._pipeline(NoiseModel(sigma_px=1.0))
        rng = random.Random(0)
        for i in range(3):
            pipe.step(_box(320.0, 240.0), 0.02 * i, rng)
        held = pipe._box
        for module in ("ptfollow.perception", "oracles"):
            draw = iter(draws)
            monkeypatch.setattr(f"{module}.normal", lambda random, sigma, draw=draw: next(draw))
        out = pipe.step(_box(320.0, 240.0), 0.06, rng)
        want = simulated_track(held, held, 1.0, NoiseModel(sigma_px=1.0), 0.06, rng)
        return out, held, want

    # (du, dv, dv2): v so large that v - 1.0 == v, so the 1 px cap leaves
    # v2 == v; a NaN row; a NaN top row, which min(v2, v - 1.0) keeps; the
    # column left and right of the image; the row below it; the top row above
    @pytest.mark.parametrize(
        "draws",
        [
            (0.0, 2.0**60, 2.0**61), (0.0, math.nan, 0.0), (0.0, 0.0, math.nan),
            (-400.0, 0.0, 0.0), (320.0, 0.0, 0.0), (0.0, 240.0, 0.0), (0.0, 0.0, -141.0),
        ],
    )
    def test_noisy_box_outside_the_image_is_lost(self, monkeypatch, draws):
        # the step builds a noisy box only where render_measurement would
        # build the truth; any other noisy box is a lost tick, in the oracle too
        out, held, want = self._tracked_with_draws(monkeypatch, draws)
        assert out.box is held and out.hold and out.failure_state
        assert out.score == LOST_SCORE
        assert want is None

    @pytest.mark.parametrize("draws", [(-320.0, 0.0, 0.0), (0.0, 0.0, -140.0), (1.0, 1.0, 1.0)])
    def test_noisy_box_on_the_image_edge_is_seen(self, monkeypatch, draws):
        out, _, want = self._tracked_with_draws(monkeypatch, draws)
        du, dv, dv2 = draws
        assert out.box == want == (320.0 + du, 240.0 + dv, 140.0 + dv2)
        assert not out.hold and out.score == SEEN_SCORE

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
                    seq.append((*out.box, out.score))
            outs.append(seq)
        assert outs[0] == outs[1]


DT = 0.02


@st.composite
def _runs(draw):
    """A pipeline setting and a truth stream: a random walk of the box that
    is sometimes absent and sometimes jumps out of the search region."""
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
    )
    # 400 px: a box whose nominal search region already covers the image,
    # so a failed state keeps the scale 1
    u, v, h = 320.0, 240.0, draw(st.sampled_from([400.0]) | st.floats(5.0, 150.0))
    truths = []
    for _ in range(draw(st.integers(1, 120))):
        step = draw(st.sampled_from([2.0, 8.0, 400.0]))
        u += draw(st.floats(-step, step))
        v += draw(st.floats(-step, step))
        truths.append(_box(u, v, h) if draw(st.integers(0, 9)) else None)
    return noise, truths, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(_runs())
def test_pipeline_reports_one_verdict_per_tick(run):
    noise, truths, seed = run
    pipe = PerceptionPipeline(noise=noise, intrinsics=CameraIntrinsics())
    rng = random.Random(seed)
    prev = None
    for i, truth in enumerate(truths):
        out = pipe.step(truth, DT * i, rng)
        assert out.hold == out.failure_state
        assert out.initialized == (out.box is not None)
        if not out.initialized:
            assert (out.score, out.region_scale, out.failure_state) == (0.0, 1.0, False)
            continue
        seen = out.score == SEEN_SCORE
        assert seen or out.score == LOST_SCORE
        assert out.failure_state == (not seen)
        if prev is None or out.box != prev.box:
            assert seen  # the box changes only on a seen tick
        if seen:
            assert out.region_scale == 1.0
        elif prev is not None and prev.failure_state:
            assert out.region_scale >= prev.region_scale
        prev = out


# landscape and portrait, so that the cap's max(width, height) shows
_CAMERAS = st.sampled_from(
    [CameraIntrinsics(), CameraIntrinsics(width=240, height=720, u0=120.0, v0=360.0)]
)


@settings(max_examples=150, deadline=None)
@given(_runs(), _CAMERAS)
def test_cap_only_on_lost_ticks_changes_no_output(run, intrinsics):
    # the pipeline runs the tracker update and the recovery step inline and
    # skips the search-region cap on seen ticks, which reset the scale; the
    # plain composition, computing the cap on every tick, gives the same
    # outputs and leaves the generator at the same point.  Its noisy box is a
    # checked BoxMeasurement where the pipeline's is a plain triple, so the
    # boxes are compared as tuples.
    def whole(out):
        return repr(out._replace(box=out.box and tuple(out.box)))

    noise, truths, seed = run
    fast, full = (PerceptionPipeline(noise=noise, intrinsics=intrinsics) for _ in range(2))
    fast_rng, full_rng = random.Random(seed), random.Random(seed)
    for i, truth in enumerate(truths):
        got = fast.step(truth, DT * i, fast_rng)
        want = pipeline_step_with_cap(full, truth, DT * i, full_rng)
        assert type(got) is PerceptionOutput and whole(got) == whole(want), i
        assert fast_rng.getstate() == full_rng.getstate(), i
        assert repr(fast.recovery) == repr(full.recovery), i
