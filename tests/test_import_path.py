"""What a run imports, and what it writes, in a fresh interpreter: no run
loads numpy, even one that draws tracker noise, none loads yaml (scenario
files are read by ``ptfollow.scenario_text``; PyYAML is a test oracle only),
and a preset run does not load ``csv`` (only reading a log back needs it).
Fresh interpreters are needed because the test process itself has all three
loaded, and to show that a noisy run writes the same bytes in every
process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ptfollow

SRC = Path(ptfollow.__file__).resolve().parent.parent
NOISY_WALK = Path(__file__).resolve().parent.parent / "perfbench" / "scenarios" / "noisy-walk.yaml"

PROBE = """\
import json, sys
import ptfollow, ptfollow.cli
code = ptfollow.cli.main(sys.argv[1:])
loaded = {name: name in sys.modules for name in ("numpy", "yaml", "csv")}
print(json.dumps({"code": code, **loaded}))
"""


def _loaded(tmp_path, *scenario_args, **env):
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *scenario_args, "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(SRC), **env}, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result.pop("code") == 0
    return result


def test_preset_run_loads_neither_numpy_nor_yaml(tmp_path):
    loaded = _loaded(tmp_path, "--scenario", "circle-sim")
    assert loaded == {"numpy": False, "yaml": False, "csv": False}
    assert (tmp_path / "out" / "timeseries.csv").is_file()


@pytest.mark.parametrize(
    "noise",
    [
        pytest.param("", id="none"),
        pytest.param("noise: {occlusion_windows: [[0.2, 0.4]]}\n", id="occlusion"),
        pytest.param("noise: {sigma_px: 1.0}\n", id="sigma"),
        pytest.param("noise: {dropout_prob: 0.1}\n", id="dropout"),
        pytest.param(None, id="noisy-walk.yaml"),  # the benchmark's file, as it is
    ],
)
def test_scenario_file_loads_neither_yaml_nor_numpy(tmp_path, noise):
    scenario = NOISY_WALK
    if noise is not None:
        scenario = tmp_path / "s.yaml"
        scenario.write_text("duration: 1.0\n" + noise)
    loaded = _loaded(tmp_path, "--scenario", str(scenario))
    assert (loaded["numpy"], loaded["yaml"]) == (False, False)


def test_noisy_run_writes_the_same_bytes_in_every_process(tmp_path):
    # str and bytes hashes change with PYTHONHASHSEED, so a generator seeded
    # through hash() would draw different noise in these two interpreters
    scenario = tmp_path / "s.yaml"
    scenario.write_text("duration: 2.0\nnoise: {sigma_px: 1.0, dropout_prob: 0.1}\n")
    csvs = []
    for hash_seed in ("1", "2"):
        run_dir = tmp_path / f"hash{hash_seed}"
        _loaded(run_dir, "--scenario", str(scenario), PYTHONHASHSEED=hash_seed)
        csvs.append((run_dir / "out" / "timeseries.csv").read_bytes())
    assert csvs[0] == csvs[1]
