"""``tools/ab_pairs.py`` on its smallest budget: the committed tree against
itself, two alternating pairs of a short circle-cli run (about 3 s each).
Both sides are the same bytes, so every output digest must match."""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_head_against_head_reports_identical_outputs(tmp_path):
    out = tmp_path / "ab.json"
    command = [sys.executable, str(REPO / "tools" / "ab_pairs.py"), "--base", "HEAD",
               "--change", "HEAD", "--workload", "circle-cli", "--seed", "1",
               "--seconds", "2", "--pairs", "2", "--json", str(out)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(out.read_text())
    assert (result["all_correct"], result["digests_identical"]) == (True, True)
    assert [p["first"] for p in result["pairs"]] == ["base", "change"]
    for pair in result["pairs"]:
        digests = [pair[side]["digests"] for side in ("base", "change")]
        assert digests[0] == digests[1]
        assert set(digests[0]) == {"summary.json", "timeseries.csv"}
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert "outputs identical on the two sides; all runs correct" in done.stdout
