"""What a run imports: numpy only for runs that draw noise, yaml only for
scenario files.  Each case runs in a fresh interpreter, because the test
process itself has both loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ptfollow

SRC = Path(ptfollow.__file__).resolve().parent.parent

PROBE = """\
import json, sys
import ptfollow, ptfollow.cli
code = ptfollow.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules, "yaml": "yaml" in sys.modules}))
"""


def _loaded(tmp_path, *scenario_args):
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *scenario_args, "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result.pop("code") == 0
    return result


def test_preset_run_loads_neither_numpy_nor_yaml(tmp_path):
    assert _loaded(tmp_path, "--scenario", "circle-sim") == {"numpy": False, "yaml": False}
    assert (tmp_path / "out" / "timeseries.csv").is_file()


@pytest.mark.parametrize(
    "noise, numpy_loaded",
    [
        ("", False),
        ("noise: {occlusion_windows: [[0.2, 0.4]]}\n", False),
        ("noise: {sigma_px: 1.0}\n", True),
        ("noise: {dropout_prob: 0.1}\n", True),
    ],
)
def test_scenario_file_loads_yaml_and_numpy_only_for_noise(tmp_path, noise, numpy_loaded):
    scenario = tmp_path / "s.yaml"
    scenario.write_text("duration: 1.0\n" + noise)
    assert _loaded(tmp_path, "--scenario", str(scenario)) == {
        "numpy": numpy_loaded, "yaml": True,
    }
