"""Golden run summaries and output bytes: the safety net for refactors of
the closed loop.

Discrete fields (tick count, failure episodes, re-acquisition latencies) must
match exactly; float fields to a relative 1e-12, with NaN for a channel that
never settles.  The byte pins at the end hold the whole CSV and summary.json.
The per-tick path is plain float arithmetic, so these values do not depend on
the BLAS kernel numpy picks for the host CPU.

Every preset starts with the whole box in the image and asks for a half
height the image can hold, so the loop is well conditioned: a 1e-6 m bump of
a preset's start moves no summary value by more than 1e-6 px
(``test_start_bump_moves_no_summary_value``).  A pin that moves therefore
means a change in the loop, not chaos amplifying a last bit.
"""

import dataclasses
import hashlib
import math
from pathlib import Path

import pytest

from ptfollow.cli import CSV_NAME, SUMMARY_NAME, run
from ptfollow.config import PRESETS, load_config, parse_config
from ptfollow.geometry import BodyModel
from ptfollow.runner import run_scenario, summarize_run

NAN = math.nan

# A 30 s cut of the benchmark's noisy walk: pixel noise, dropouts and one
# occlusion exercise the RNG, recovery and hold paths.
NOISY_WALK = {
    "trajectory": {
        "kind": "waypoints", "points": [[4.5, 0.0], [20.0, 3.0]], "speed": 0.5, "delay": 5.0,
    },
    "noise": {"sigma_px": 1.0, "dropout_prob": 0.02, "occlusion_windows": [[20.0, 22.0]]},
    "duration": 30.0,
    "seed": 3,
}

GOLDENS = {
    "circle-sim": (3000, {
        "settling_time_e_u": NAN,
        "settling_time_e_v": 2.38,
        "settling_time_e_v2": NAN,
        "rms_e_u": 28.232752702051048,
        "rms_e_v": 1.3381586816521627,
        "rms_e_v2": 5.838574748442818,
        "mean_abs_height_error": 5.251145103758532,
        "failure_episodes": 0,
        "reacquisition_latencies": [],
        "saturation_duty_cycle": 0.0,
    }),
    "indoor": (1500, {
        "settling_time_e_u": 0.04,
        "settling_time_e_v": 3.3200000000000003,
        "settling_time_e_v2": NAN,
        "rms_e_u": 0.0,
        "rms_e_v": 3.644746589664768,
        "rms_e_v2": 15.083396884942939,
        "mean_abs_height_error": 15.083396278967976,
        "failure_episodes": 0,
        "reacquisition_latencies": [],
        "saturation_duty_cycle": 0.0,
    }),
    "outdoor": (1500, {
        "settling_time_e_u": NAN,
        "settling_time_e_v": 3.04,
        "settling_time_e_v2": NAN,
        "rms_e_u": 2.8381477338332965,
        "rms_e_v": 2.481214295438337,
        "rms_e_v2": 10.871890578058768,
        "mean_abs_height_error": 10.871858358394865,
        "failure_episodes": 0,
        "reacquisition_latencies": [],
        "saturation_duty_cycle": 0.0,
    }),
    "noisy-walk": (1500, {
        "settling_time_e_u": NAN,
        "settling_time_e_v": 29.64,
        "settling_time_e_v2": NAN,
        "rms_e_u": 11.276939005422118,
        "rms_e_v": 4.2190552658213045,
        "rms_e_v2": 17.04214847726883,
        "mean_abs_height_error": 16.74050528648331,
        "failure_episodes": 27,
        "reacquisition_latencies": [
            1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 100,
            1, 1, 1, 1, 1, 1, 1, 1, 1,
        ],
        "saturation_duty_cycle": 0.009333333333333334,
    }),
}


def _config(name):
    return parse_config(NOISY_WALK, name=name) if name == "noisy-walk" else PRESETS[name]()


@pytest.mark.parametrize("name", GOLDENS)
def test_summary_matches_golden(name):
    config = _config(name)
    log = run_scenario(config)
    summary = summarize_run(config, log).to_dict()
    ticks, golden = GOLDENS[name]
    assert len(log) == ticks
    assert summary.keys() == golden.keys()
    for key, want in golden.items():
        if isinstance(want, float):
            assert summary[key] == pytest.approx(want, rel=1e-12, abs=0.0, nan_ok=True), key
        else:
            assert summary[key] == want, key


# sha256 of the CSV and summary.json the CLI writes, (csv, summary).  These
# pin every bit of every tick, where the summary pins above allow 1e-12.
BYTE_GOLDENS = {
    "circle-sim": (
        "9c5e85522c8071082b96e10ede968f567207ae5ead8f9b275db37ca710337c78",
        "c6fd063e80c9e7f3bd30422e8862fc163e843eda1d5f636a19d77cf8d5f6f139",
    ),
    "indoor": (
        "9a2e96a0f8a3a992e46ee450bd22a9de79688f65bd29b79c6d2bdf25004139c9",
        "377823d901323150d13d458e39b53d019764a497145b52dec89fe43d01c0698a",
    ),
    "outdoor": (
        "6f1ab51db68c91f0ac3033553613e1a161f869eb9891763b28b47a74f4383383",
        "bbc418448c09a833d7786a762bb26ee58099c2877b432a521d568129989ae87a",
    ),
    "noisy-walk": (
        "415434d4bf4f06c84995d680304be548fd5859f088b8851bc6a0727b2ea7bc67",
        "81dd48c1e7b868b7d3b5e3191f5aebf391f6f1c11ce2e2412f842e88da5ad114",
    ),
}


@pytest.mark.parametrize("name", BYTE_GOLDENS)
def test_output_bytes_match_golden(name, tmp_path):
    run(_config(name), tmp_path)
    digests = tuple(
        hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
        for file in (CSV_NAME, SUMMARY_NAME)
    )
    assert digests == BYTE_GOLDENS[name]


NOISY_WALK_FILE = Path(__file__).resolve().parent.parent / "perfbench/scenarios/noisy-walk.yaml"


def _wrong_sign_ticks(config):
    """The ticks of a run whose V_r and e_v2 share a sign, with ``|e_v2|``
    over 5 px: each moves the box away from its reference height."""
    log = run_scenario(config)
    return [
        (t, v_r, e_v2)
        for t, v_r, e_v2 in zip(*map(log.series, ("t", "V_r", "e_v2")))
        if v_r * e_v2 > 0.0 and abs(e_v2) > 5.0
    ]


def _shipped(name):
    return load_config(NOISY_WALK_FILE) if name == "noisy-walk.yaml" else PRESETS[name]()


@pytest.mark.parametrize("name", [*PRESETS, "noisy-walk.yaml"])
def test_forward_speed_never_drives_the_half_height_error_up(name):
    assert _wrong_sign_ticks(_shipped(name)) == []


# True person heights around the 1.4 m at which the body centre passes the
# 0.7 m camera, and above; the gains keep the lambda magnitudes of the 1.8 m
# model.  A 3x3 solve that spends V_r on the row error too drives the wrong
# way for hundreds of ticks at 1.38-1.42 m (circle-sim 907 and 938 ticks).
TRUE_HEIGHTS = (1.35, 1.38, 1.42, 1.44, 1.62, 1.98, 2.16)


@pytest.mark.parametrize("height", TRUE_HEIGHTS)
@pytest.mark.parametrize("name", ["circle-sim", "noisy-walk.yaml"])
def test_forward_speed_never_drives_the_wrong_way_for_another_true_height(name, height):
    config = dataclasses.replace(_shipped(name), body=BodyModel(head_height=height))
    assert _wrong_sign_ticks(config) == []


# The summary values a bump of the start may move, and by how much, in px.
SMOOTH_FIELDS = ("rms_e_u", "rms_e_v", "rms_e_v2", "mean_abs_height_error")
BUMP_BOUND_PX = 1e-6


@pytest.mark.parametrize("name", PRESETS)
def test_start_bump_moves_no_summary_value(name):
    config = PRESETS[name]()
    base = summarize_run(config, run_scenario(config))
    x, y, theta = config.robot_start
    for bump in (1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6):
        bumped = dataclasses.replace(config, robot_start=(x + bump, y, theta))
        summary = summarize_run(bumped, run_scenario(bumped))
        for field in SMOOTH_FIELDS:
            moved = abs(getattr(summary, field) - getattr(base, field))
            assert moved <= BUMP_BOUND_PX, (bump, field, moved)
