"""Golden run summaries and output bytes: the safety net for refactors of
the closed loop.

Discrete fields (tick count, failure episodes, re-acquisition latencies) must
match exactly; float fields to a relative 1e-12, with NaN for a channel that
never settles.  The byte pins at the end hold the whole CSV and summary.json.
The per-tick path is plain float arithmetic, so these values do not depend on
the BLAS kernel numpy picks for the host CPU.

``indoor`` stays in on purpose: its near-singular rate solve (ROADMAP item 4)
makes ``rms_e_v`` jump between about 60.56 and 78.78 px on a last-bit change
anywhere in the loop, so this pin is what shows such a change.
"""

import dataclasses
import hashlib
import math

import pytest

from ptfollow.cli import CSV_NAME, SUMMARY_NAME, run
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


# sha256 of the CSV and summary.json the CLI writes, (csv, summary).  These
# pin every bit of every tick, where the summary pins above allow 1e-12; the
# as-printed run is the only closed-loop check of that coefficient block.
BYTE_GOLDENS = {
    "circle-sim": (
        "4cbec1f6a9db8f1b6ba1c97b5af41176634fb4025fbf2af06d036f0e3b8e8bf3",
        "548963d4b0e72b3bb94c40d3b5f8a91d22c62a1997737b3b5fac83045b96430f",
    ),
    "indoor": (
        "e93f567f400fe0377b7644f5829008d0d71922ed43915d9d864724058831f5a5",
        "0acf540e53982bb1a55ecbf07a96df7debf90bbc7af3f711d22d4509aaae26c0",
    ),
    "outdoor": (
        "22409f53d9aabed291e55a959ecf347274b93b6c68d405621877c01e80678c73",
        "4868e89c641e2af5a6abfeaae4c7d0971e69ad043bb72a5f9d2865cd8c1ff20a",
    ),
    "noisy-walk": (
        "eea8ba2ca63cc56cc86eec0e11e8f0951e8e245593e836ba11494fba814b7489",
        "fba6a53b21ff22150708371b30cf7f9fe91d244ca6558df0bc76339b13955dca",
    ),
    "circle-sim-as-printed": (
        "8c7e2b6aa5962e7bfe84bfc537c6acba64aeaaf36639abc3ac6168b693cfb677",
        "2518d81228fe6ff06ad7f997fa5420f464c44dd1d9c1a622c007214251335edf",
    ),
}


def _byte_config(name):
    if name == "circle-sim-as-printed":
        return dataclasses.replace(PRESETS["circle-sim"](), mode="as-printed")
    return _config(name)


@pytest.mark.parametrize("name", BYTE_GOLDENS)
def test_output_bytes_match_golden(name, tmp_path):
    run(_byte_config(name), tmp_path)
    digests = tuple(
        hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
        for file in (CSV_NAME, SUMMARY_NAME)
    )
    assert digests == BYTE_GOLDENS[name]
