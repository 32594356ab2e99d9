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
        "settling_time_e_v": 2.36,
        "settling_time_e_v2": 59.94,
        "rms_e_u": 28.318002066513447,
        "rms_e_v": 1.3483116778607482,
        "rms_e_v2": 5.931524605720965,
        "mean_abs_height_error": 5.306963792842327,
        "failure_episodes": 0,
        "reacquisition_latencies": [],
        "saturation_duty_cycle": 0.0,
    }),
    "indoor": (1500, {
        "settling_time_e_u": 0.04,
        "settling_time_e_v": 3.3000000000000003,
        "settling_time_e_v2": NAN,
        "rms_e_u": 0.0,
        "rms_e_v": 3.645287881175488,
        "rms_e_v2": 15.080890481997697,
        "mean_abs_height_error": 15.080890478514554,
        "failure_episodes": 0,
        "reacquisition_latencies": [],
        "saturation_duty_cycle": 0.0,
    }),
    "outdoor": (1500, {
        "settling_time_e_u": NAN,
        "settling_time_e_v": 3.04,
        "settling_time_e_v2": NAN,
        "rms_e_u": 2.8368943638685282,
        "rms_e_v": 2.4817513947679806,
        "rms_e_v2": 10.868901493926291,
        "mean_abs_height_error": 10.868888081888866,
        "failure_episodes": 0,
        "reacquisition_latencies": [],
        "saturation_duty_cycle": 0.0,
    }),
    "noisy-walk": (1500, {
        "settling_time_e_u": NAN,
        "settling_time_e_v": 29.64,
        "settling_time_e_v2": NAN,
        "rms_e_u": 11.249975265336227,
        "rms_e_v": 4.218671646746857,
        "rms_e_v2": 17.077432968583707,
        "mean_abs_height_error": 16.77603813678321,
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
        "a77ee773011589910811965f690472601a94128a3e0242adcb350a2ea12d6e16",
        "2a348607ab56cc5345ebe02180ca4c25b595513e5076d7a8190dbc03d1939067",
    ),
    "indoor": (
        "720f1b99615451a3062839d3b0cfbdff0db35a4557e71854f009a85354507c57",
        "c6adcce9fc9a97d6bbb4ac058ddc001268db086526bf842ba3932b5d52bd5c84",
    ),
    "outdoor": (
        "00369646cae2c2de7abe8fc6cf7e37baf254c21e552c071314079959c72c00a9",
        "0d0518ca4f5554b0229f7a17f52fc086899373effaa2f669751c8f1f3c21ba7c",
    ),
    "noisy-walk": (
        "eea8ba2ca63cc56cc86eec0e11e8f0951e8e245593e836ba11494fba814b7489",
        "94365bddc3b36d571cd6e998b09d91e49ef278fa0e63e4f5bf278bec7714eec1",
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


@pytest.mark.parametrize("name", [*PRESETS, "noisy-walk.yaml"])
def test_forward_speed_never_drives_the_half_height_error_up(name):
    # V_r and e_v2 of one sign move the box away from its reference height
    config = load_config(NOISY_WALK_FILE) if name == "noisy-walk.yaml" else PRESETS[name]()
    log = run_scenario(config)
    wrong = [
        (t, v_r, e_v2)
        for t, v_r, e_v2 in zip(*map(log.series, ("t", "V_r", "e_v2")))
        if v_r * e_v2 > 0.0 and abs(e_v2) > 5.0
    ]
    assert wrong == []


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
