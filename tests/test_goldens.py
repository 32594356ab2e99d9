"""Golden run summaries: the safety net for refactors of the closed loop.

Discrete fields (tick count, failure episodes, re-acquisition latencies) must
match exactly; float fields to a relative 1e-12, with NaN for a channel that
never settles.  The per-tick path is plain float arithmetic, so these values do
not depend on the BLAS kernel numpy picks for the host CPU.

``indoor`` stays in on purpose: its near-singular rate solve (ROADMAP item 4)
makes ``rms_e_v`` jump between about 60.56 and 78.78 px on a last-bit change
anywhere in the loop, so this pin is what shows such a change.
"""

import math

import pytest

from ptfollow.config import PRESETS, parse_config
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
        "settling_time_e_v": 10.06,
        "settling_time_e_v2": NAN,
        "rms_e_u": 29.246301435422808,
        "rms_e_v": 1.3228594388727617,
        "rms_e_v2": 5.81899740495589,
        "mean_abs_height_error": 5.144306763880415,
        "failure_episodes": 1,
        "reacquisition_latencies": [166],
        "saturation_duty_cycle": 0.0003333333333333333,
    }),
    "indoor": (1500, {
        "settling_time_e_u": 0.04,
        "settling_time_e_v": NAN,
        "settling_time_e_v2": NAN,
        "rms_e_u": 0.0,
        "rms_e_v": 60.55724402189351,
        "rms_e_v2": 63.16437217728159,
        "mean_abs_height_error": 62.65176139960867,
        "failure_episodes": 0,
        "reacquisition_latencies": [],
        "saturation_duty_cycle": 0.172,
    }),
    "outdoor": (1500, {
        "settling_time_e_u": NAN,
        "settling_time_e_v": NAN,
        "settling_time_e_v2": NAN,
        "rms_e_u": 40.40990673890907,
        "rms_e_v": 13.651768892322199,
        "rms_e_v2": 50.85636511640029,
        "mean_abs_height_error": 50.84147819476055,
        "failure_episodes": 0,
        "reacquisition_latencies": [],
        "saturation_duty_cycle": 0.01,
    }),
    "noisy-walk": (1500, {
        "settling_time_e_u": NAN,
        "settling_time_e_v": 29.64,
        "settling_time_e_v2": NAN,
        "rms_e_u": 11.249975265336225,
        "rms_e_v": 4.2186716467468575,
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
