"""CSV log format, summary metrics, and closed-loop run properties."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ptfollow.controller
import ptfollow.runner
from ptfollow.config import ScenarioConfig, parse_config, preset_circle_sim
from ptfollow.controller import SaturationLimits
from ptfollow.perception import NoiseModel
from ptfollow.runlog import COLUMNS, SETTLE_PX, TimeSeriesLog, _pairwise_sum, summarize
from ptfollow.runner import run_scenario, summarize_run
from ptfollow.simworld import LineTrajectory
from summary_oracle import summarize as numpy_summarize


def _row(t, e=0.0, h=100.0, v_r=0.0, failure=0.0, score=0.95):
    values = dict.fromkeys(COLUMNS, 0.0)
    values.update(t=t, e_u=e, e_v=e, e_v2=e, h=h, V_r=v_r, score=score,
                  region_scale=1.0, failure_state=failure)
    return [values[c] for c in COLUMNS]


# floats the CSV must carry exactly: NaN, signed zeros, subnormals, infinities, the range's ends
_LOGGED = st.one_of(
    st.just(math.nan),
    st.floats(allow_nan=False),
    st.sampled_from((0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308)),
)
_LOGGED_ROW = st.tuples(*[_LOGGED] * (len(COLUMNS) - 1), st.sampled_from((0.0, 1.0)))


class TestTimeSeriesLog:
    @settings(max_examples=50, deadline=None)
    @given(rows=st.lists(_LOGGED_ROW, max_size=20))
    def test_csv_round_trip(self, tmp_path_factory, rows):
        log = TimeSeriesLog()
        for row in rows:
            log.append(list(row))
        path = tmp_path_factory.mktemp("csv") / "log.csv"
        log.write_csv(path)
        back = TimeSeriesLog.read_csv(path)
        assert len(back) == len(rows)
        for i, name in enumerate(COLUMNS):  # shortest repr round-trips bit for bit
            expected = np.array([row[i] for row in rows], dtype=float)
            assert back.column(name).tobytes() == expected.tobytes(), name

    def test_failure_column_written_as_int(self, tmp_path):
        log = TimeSeriesLog()
        log.append(_row(0.0, failure=1.0))
        path = tmp_path / "log.csv"
        log.write_csv(path)
        last_field = path.read_text().splitlines()[1].split(",")[-1]
        assert last_field == "1"

    @pytest.mark.parametrize("flag", ["0.5", "nan", "2"])
    def test_failure_column_read_only_as_0_or_1(self, tmp_path, flag):
        # 0.5 would count as failed but be written back as 0, nan would make
        # write_csv raise, and 2 would round-trip as a state no run writes
        log = TimeSeriesLog()
        log.append(_row(0.0))
        log.append(_row(0.02))
        path = tmp_path / "log.csv"
        log.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[2].endswith(",0")
        path.write_text("\n".join([*lines[:2], lines[2][:-1] + flag]) + "\n")
        with pytest.raises(ValueError, match=f"^line 3: failure_state '{flag}' is not 0 or 1"):
            TimeSeriesLog.read_csv(path)

    def _written(self, tmp_path):
        """A three-row log written as CSV: its path and its lines."""
        log = TimeSeriesLog()
        for i in range(3):
            log.append(_row(i * 0.02))
        path = tmp_path / "log.csv"
        log.write_csv(path)
        return path, path.read_text().splitlines()

    def test_empty_file_is_a_value_error(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="^line 1: empty file"):
            TimeSeriesLog.read_csv(path)

    def test_wrong_header_names_line_1(self, tmp_path):
        path, lines = self._written(tmp_path)
        path.write_text("\n".join([lines[0].replace("e_u", "e_x"), *lines[1:]]) + "\n")
        with pytest.raises(ValueError, match="^line 1: unexpected CSV header"):
            TimeSeriesLog.read_csv(path)

    def test_non_numeric_field_names_its_line(self, tmp_path):
        path, lines = self._written(tmp_path)
        fields = lines[3].split(",")
        fields[2] = "x"
        path.write_text("\n".join([*lines[:3], ",".join(fields)]) + "\n")
        with pytest.raises(ValueError, match="^line 4: could not convert string to float: 'x'"):
            TimeSeriesLog.read_csv(path)

    @pytest.mark.parametrize("n", [1, len(COLUMNS) - 1, len(COLUMNS) + 1])
    def test_wrong_row_length_names_its_line(self, tmp_path, n):
        path, lines = self._written(tmp_path)
        fields = (lines[2].split(",") + ["0"])[:n]
        path.write_text("\n".join([lines[0], lines[1], ",".join(fields), lines[3]]) + "\n")
        with pytest.raises(ValueError, match=f"^line 3: expected {len(COLUMNS)} values, got {n}$"):
            TimeSeriesLog.read_csv(path)

    def test_row_length_checked(self):
        log = TimeSeriesLog()
        log.append(_row(0.0, e=3.5))
        for wrong in ([0.0, 1.0], _row(0.02)[1:], _row(0.02) + [0.0], []):
            with pytest.raises(ValueError):
                log.append(wrong)
        assert len(log) == 1
        assert [log.column(name).tolist() for name in COLUMNS] == [[v] for v in _row(0.0, e=3.5)]

    def test_append_takes_a_list_and_keeps_no_part_of_a_bad_row(self):
        log = TimeSeriesLog()
        log.append(_row(0.0))
        log.append(_row(0.02))
        before = log._values.tobytes()
        # a list is taken without a copy; fromlist must still undo a bad one,
        # and rejects a row of the right length that is not a list
        for bad in (_row(0.04)[:-1] + ["x"], [None] + _row(0.04)[1:], tuple(_row(0.04))):
            with pytest.raises(TypeError):
                log.append(bad)
        assert log._values.tobytes() == before
        assert len(log) == 2 and log.series("t").tolist() == [0.0, 0.02]

    def test_appended_list_is_not_kept(self):
        log = TimeSeriesLog()
        row = _row(0.0, e=3.5)
        log.append(row)
        row[0] = 9.0
        assert log.series("t").tolist() == [0.0]

    def test_log_holds_at_most_200_bytes_per_tick(self):
        ticks = 2000
        tracemalloc.start()
        try:
            log = TimeSeriesLog()
            before = tracemalloc.get_traced_memory()[0]
            for i in range(ticks):  # distinct float objects, as a run logs them
                log.append([i + k / 32 for k in range(len(COLUMNS))])
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(log) == ticks
        assert held / ticks <= 200


class TestSummarize:
    def test_constant_zero_error_log(self):
        log = TimeSeriesLog()
        for i in range(100):
            log.append(_row(i * 0.02))
        s = summarize(log, target_half_height=100.0, saturation=SaturationLimits())
        assert s.settling_time_e_u == 0.0
        assert s.rms_e_u == 0.0 and s.rms_e_v == 0.0 and s.rms_e_v2 == 0.0
        assert s.mean_abs_height_error == 0.0
        assert s.failure_episodes == 0
        assert s.saturation_duty_cycle == 0.0

    def test_single_failure_episode_and_latency(self):
        log = TimeSeriesLog()
        for i in range(100):
            log.append(_row(i * 0.02, failure=1.0 if 30 <= i < 45 else 0.0))
        s = summarize(log, target_half_height=100.0, saturation=SaturationLimits())
        assert s.failure_episodes == 1
        assert s.reacquisition_latencies == (15,)

    def test_open_ended_failure_episode_has_no_latency(self):
        log = TimeSeriesLog()
        for i in range(50):
            log.append(_row(i * 0.02, failure=1.0 if i >= 40 else 0.0))
        s = summarize(log, target_half_height=100.0, saturation=SaturationLimits())
        assert s.failure_episodes == 1
        assert s.reacquisition_latencies == ()

    def test_settling_time(self):
        log = TimeSeriesLog()
        for i in range(100):
            e = 50.0 if i < 20 else 1.0
            log.append(_row(i * 0.02, e=e))
        s = summarize(log, target_half_height=100.0, saturation=SaturationLimits())
        assert s.settling_time_e_u == pytest.approx(20 * 0.02)

    def test_never_settles_is_nan(self):
        log = TimeSeriesLog()
        for i in range(10):
            log.append(_row(i * 0.02, e=50.0))
        s = summarize(log, target_half_height=100.0, saturation=SaturationLimits())
        assert math.isnan(s.settling_time_e_u)

    def test_empty_log(self):
        s = summarize(TimeSeriesLog(), target_half_height=100.0, saturation=SaturationLimits())
        assert math.isnan(s.settling_time_e_u)
        assert math.isnan(s.rms_e_u)
        assert s.failure_episodes == 0
        assert s.saturation_duty_cycle == 0.0

    def test_saturation_duty_from_columns(self):
        # each channel at its given limit on one tick, all below the default limits
        limits = SaturationLimits(v_max=0.5, omega_alpha_max=0.6, omega_beta_max=0.7, omega_r_max=0.8)
        ticks = [("V_r", -0.5), ("omega_alpha", 0.6), ("omega_beta", -0.7), ("omega_r", 0.8)]
        log = TimeSeriesLog()
        for i, (column, value) in enumerate([*ticks, ("V_r", 0.49)]):
            row = _row(i * 0.02)
            row[COLUMNS.index(column)] = value
            log.append(row)
        s = summarize(log, target_half_height=100.0, saturation=limits)
        assert s.saturation_duty_cycle == 4 / 5

    def test_summary_pure_function_of_csv(self, tmp_path):
        cfg = replace(preset_circle_sim(), duration=8.0)
        log = run_scenario(cfg)
        in_memory = summarize_run(cfg, log)
        path = tmp_path / "run.csv"
        log.write_csv(path)
        from_file = summarize(
            TimeSeriesLog.read_csv(path),
            target_half_height=cfg.gains.target_half_height,
            saturation=cfg.saturation,
        )
        assert in_memory == from_file


class TestRunScenario:
    def test_tick_count(self):
        cfg = replace(preset_circle_sim(), duration=2.0)
        assert len(run_scenario(cfg)) == 100

    def test_zero_duration_gives_empty_log(self):
        cfg = replace(preset_circle_sim(), duration=0.0)
        log = run_scenario(cfg)
        assert len(log) == 0

    def test_determinism_bit_identical(self, tmp_path):
        cfg = replace(
            preset_circle_sim(),
            duration=5.0,
            noise=NoiseModel(sigma_px=1.5, dropout_prob=0.05),
        )
        paths = []
        for i in range(2):
            log = run_scenario(cfg)
            p = tmp_path / f"run{i}.csv"
            log.write_csv(p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_errors_computed_once_per_tick_with_a_box(self, monkeypatch):
        # the runner computes each tracked tick's errors once and hands them
        # to the controller, which then computes none itself
        calls = {"runner": 0, "controller": 0}

        def counted(where, fn):
            def wrapper(*args, **kwargs):
                calls[where] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            ptfollow.runner, "compute_errors", counted("runner", ptfollow.runner.compute_errors)
        )
        monkeypatch.setattr(
            ptfollow.controller, "compute_errors",
            counted("controller", ptfollow.controller.compute_errors),
        )
        cfg = replace(
            preset_circle_sim(), duration=6.0,
            noise=NoiseModel(sigma_px=1.0, dropout_prob=0.1, occlusion_windows=((2.0, 2.5),)),
        )
        log = run_scenario(cfg)
        with_box = sum(not math.isnan(h) for h in log.series("h"))
        assert 0 < with_box < len(log)  # gating ticks carry no box
        assert sum(log.series("failure_state")) > 0  # held ticks carry one
        assert calls == {"runner": with_box, "controller": 0}

    def test_different_seeds_differ_with_noise(self, tmp_path):
        base = replace(
            preset_circle_sim(), duration=5.0, noise=NoiseModel(sigma_px=1.5)
        )
        log_a = run_scenario(base)
        log_b = run_scenario(replace(base, seed=123))
        assert not np.array_equal(log_a.column("e_u"), log_b.column("e_u"))

    def test_stationary_target_errors_decay(self):
        # no noise, fixed target: every channel drops below 1 px within 5/K s
        # of initialization and decays monotonically after the first tick
        cfg = ScenarioConfig(
            name="stationary",
            trajectory=LineTrajectory(start=(5.5, 0.3), velocity=(0.0, 0.0)),
            duration=14.0,
            robot_start=(0.0, 0.0, 0.0),
        )
        log = run_scenario(cfg)
        t = log.column("t")
        init_ticks = np.nonzero(~np.isnan(log.column("e_u")))[0]
        assert len(init_ticks) > 0
        first = init_ticks[0]
        deadline = t[first] + 5.0 / cfg.gains.k1
        for channel in ("e_u", "e_v", "e_v2"):
            e = np.abs(log.column(channel))
            settled = t >= deadline
            assert np.nanmax(e[settled]) < 1.0, channel
            tail = e[first + 1:]
            diffs = np.diff(tail)
            assert np.all(diffs <= 1e-9), channel


def _bits(value):
    """A summary field in a form that compares bit for bit, NaN equal to NaN."""
    if isinstance(value, float):
        return "nan" if math.isnan(value) else value.hex()
    return value


def assert_same_summary(log, target_half_height, saturation):
    ours = summarize(log, target_half_height, saturation).to_dict()
    reference = numpy_summarize(log, target_half_height, saturation).to_dict()
    assert {k: _bits(v) for k, v in ours.items()} == {
        k: _bits(v) for k, v in reference.items()
    }
    assert [type(v) for v in ours.values()] == [type(v) for v in reference.values()]


SAT = SaturationLimits()
H_REF = 100.0


def _channel(*edges):
    """Per-tick values of one column: NaN gaps, arbitrary floats, and the
    values at which a metric's comparison flips."""
    return st.one_of(
        st.just(math.nan),
        st.floats(-1e3, 1e3),
        st.sampled_from(edges + (0.0, -0.0)),
    )


def _saturating(limit):
    cap = limit * (1.0 - 1e-12)  # the summary's saturation threshold
    return _channel(cap, -cap, math.nextafter(cap, 0.0), limit, -limit)


_ERROR = _channel(SETTLE_PX, -SETTLE_PX, math.nextafter(SETTLE_PX, 0.0))
_ROW = st.tuples(
    _ERROR, _ERROR, _ERROR,
    _channel(H_REF, math.nextafter(H_REF, 0.0), 1e300),
    _saturating(SAT.v_max),
    _saturating(SAT.omega_r_max),
    _saturating(SAT.omega_alpha_max),
    _saturating(SAT.omega_beta_max),
    st.sampled_from((0.0, 1.0)),  # failure runs may start at tick 0 or never end
)


@st.composite
def _logs(draw):
    # steady-state halves below and above numpy's 128-value summation block
    n = draw(st.one_of(st.integers(0, 40), st.integers(257, 400)))
    pattern = draw(st.lists(_ROW, min_size=1, max_size=40))  # tiled to n rows
    rows = [pattern[i % len(pattern)] for i in range(n)]
    blank_steady = draw(st.booleans())
    log = TimeSeriesLog()
    for i, (e_u, e_v, e_v2, h, v_r, w_r, w_a, w_b, failure) in enumerate(rows):
        if blank_steady and i >= n // 2:  # no tracked box in the steady half
            e_u = e_v = e_v2 = h = math.nan
        values = dict.fromkeys(COLUMNS, 0.0)
        values.update(
            t=i * 0.02, e_u=e_u, e_v=e_v, e_v2=e_v2, h=h, V_r=v_r, omega_r=w_r,
            omega_alpha=w_a, omega_beta=w_b, failure_state=failure,
        )
        log.append([values[c] for c in COLUMNS])
    return log


@settings(max_examples=100, deadline=None)
@given(_logs())
def test_summary_equals_numpy_reference(log):
    assert_same_summary(log, H_REF, SAT)


def test_summary_equals_numpy_reference_on_a_noisy_run():
    cfg = parse_config({
        "trajectory": {"kind": "waypoints", "points": [[4.5, 0.0], [20.0, 3.0]], "speed": 0.5},
        "noise": {"sigma_px": 1.0, "dropout_prob": 0.05, "occlusion_windows": [[20.0, 22.0]]},
        "duration": 60.0,
    })
    assert_same_summary(run_scenario(cfg), cfg.gains.target_half_height, cfg.saturation)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 127, 128, 129, 136, 1000, 8193, 20001])
def test_pairwise_sum_equals_numpy_sum(n):
    rng = np.random.default_rng(n)
    values = rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-6.0, 6.0, n)
    assert _pairwise_sum(values.tolist(), 0, n) == float(np.sum(values))
