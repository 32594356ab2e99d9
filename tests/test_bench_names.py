"""The benchmark's per-layer names still resolve against the library.

``perfbench/tracing.py`` wraps the functions named in its ``SPANS`` table and
reads a few fields of their arguments and results (``PICKS``).  A rename or a
removed field in ``src/`` turns those per-layer metrics into ``missing``
without failing anything else, so these tests load that module (without
writing bytecode next to it) and trace one short run.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

import ptfollow.runner
from ptfollow.config import parse_config, preset_circle_sim
from ptfollow.perception import NoiseModel
from ptfollow.runlog import TimeSeriesLog
from test_goldens import NOISY_WALK

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


tracing = _load_tracing()


def test_traced_run_derives_every_metric(tmp_path):
    cfg = dataclasses.replace(
        preset_circle_sim(), duration=1.0,
        noise=NoiseModel(sigma_px=1.0, dropout_prob=0.2, occlusion_windows=((0.3, 0.5),)),
    )
    with tracing.Tracer() as tracer:
        log = ptfollow.runner.run_scenario(cfg)
        summary = ptfollow.runner.summarize_run(cfg, log)
        log.write_csv(tmp_path / "timeseries.csv")
    assert tracer.missing == {}  # every SPANS name resolved
    values, missing = tracer.metrics(len(log), cfg.recovery.th_high)
    assert missing == []
    # the picked fields of PerceptionOutput and ControlCommand were read
    assert values["perception.step_calls"] == values["controller.step_calls"] == len(log)
    assert values["perception.failure_episodes"] == summary.failure_episodes > 0
    assert values["perception.hold_ticks"] == sum(log.column("failure_state"))
    assert values["runlog.csv_bytes"] == (tmp_path / "timeseries.csv").stat().st_size


@pytest.mark.parametrize(
    "make_config",
    [preset_circle_sim, lambda: parse_config(NOISY_WALK, name="noisy-walk")],
    ids=["circle-sim", "noisy-walk"],
)
def test_one_log_append_per_tick(monkeypatch, make_config):
    # the benchmark's loop timing (ticks_per_s, and wall_s through
    # perfbench/cli_child.py) ends one block at each TimeSeriesLog.append
    # call, so a tick must make exactly one
    cfg = make_config()
    calls = []
    append = TimeSeriesLog.append

    def counted(self, row):
        calls.append(None)
        return append(self, row)

    monkeypatch.setattr(TimeSeriesLog, "append", counted)
    log = ptfollow.runner.run_scenario(cfg)
    assert len(calls) == len(log) == cfg.n_ticks > 0
