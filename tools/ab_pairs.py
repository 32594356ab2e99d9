"""Alternating A/B pairs of the benchmark between two commits.

Run from a git checkout:

    python3 tools/ab_pairs.py --base a40c0bf --change HEAD --workload noisy-walk \\
        --seed 3131 --seconds 50 --pairs 10 --json AB.json

Each side is its commit's tree, unpacked with ``git archive <ref> | tar -x``
into a temporary directory: no ``.git`` metadata is touched and nothing is
fetched.  Pair k runs ``perfbench/run.py --trace 0`` once on each side, at the
same workload, seed and length; the base side runs first in even pairs and
second in odd ones.  For each end-to-end metric of ``BENCHMARK.json`` the
script prints each side's q1, median and q3 over the pairs, the pairs the
change won (ties count for neither side), and the verdict of a gain claim: the
change must win at least 9 of 10 pairs and its median must be better than the
base median by more than the base side's q1-q3 distance.  It also prints, per
pair and side, the 1-minute load average before the run and the sha256 of
``summary.json`` and ``timeseries.csv``, so that byte-identical outputs are
checked, not assumed.  ``--json`` writes all of it to one file.  The exit code
is 1 if any run fails or reports incorrect outputs, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def unpack(ref: str, dest: Path) -> str:
    """Extract the tree of commit ``ref`` into ``dest``; returns the commit id."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{ref}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", commit], stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise SystemExit(f"ab_pairs: git archive {ref} failed")
    return commit


def run_side(tree: Path, args) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its metrics, digests and checks."""
    load = os.getloadavg()[0]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # each tree its own src
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    digests = dict(line.split()[1:3] for line in lines if line.startswith("digest "))
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}}
    return {
        "load_1min": load,
        "exit_code": done.returncode,
        "correct": done.returncode == 0 and result["correct"] is True,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "digests": digests,
        "stderr": done.stderr[-2000:],
    }


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's quartiles, the pairs the change won and the verdict."""
    out = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        values = {side: [p[side]["metrics"].get(name, float("nan")) for p in pairs] for side in SIDES}
        wins = sum(sign * (c - b) > 0 for b, c in zip(values["base"], values["change"]))
        q = {side: quartiles(values[side]) for side in SIDES}
        gap = sign * (q["change"][1] - q["base"][1])  # > 0: the change is better
        base_iqr = q["base"][2] - q["base"][0]
        out[name] = {
            "better": direction,
            "base": q["base"],
            "change": q["change"],
            "change_wins": wins,
            "pairs": len(pairs),
            "median_gap_better": gap,
            "base_iqr": base_iqr,
            "gain": wins >= 0.9 * len(pairs) and gap > base_iqr,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref of the base side")
    parser.add_argument("--change", default="HEAD", help="git ref of the changed side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", type=Path, help="write the pairs and the summary here")
    args = parser.parse_args(argv)

    # stopped by a signal, still kill the running side and remove the trees
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        commits = {side: unpack(getattr(args, side), trees[side]) for side in SIDES}
        pairs = []
        for k in range(args.pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_side(trees[side], args)
            pairs.append(pair)
            print(f"pair {k}: " + "; ".join(
                f"{side} load {pair[side]['load_1min']:.2f} correct {pair[side]['correct']}"
                f" setup_s {pair[side]['metrics'].get('setup_s', float('nan')):.4g}"
                for side in order))
    summary = summarize(pairs, better)
    identical = all(p["base"]["digests"] == p["change"]["digests"] for p in pairs)
    correct = all(p[side]["correct"] for p in pairs for side in SIDES)

    print(f"base {args.base} ({commits['base']}) against change {args.change}"
          f" ({commits['change']}): {args.workload} seed {args.seed}, {args.seconds:g} s"
          f" per run, {args.pairs} alternating pairs")
    for name, m in summary.items():
        base, change = (" ".join(f"{v:.6g}" for v in m[side]) for side in SIDES)
        print(f"metric {name} ({m['better']} is better): base q1/median/q3 {base};"
              f" change {change}; change won {m['change_wins']}/{m['pairs']};"
              f" median gap {m['median_gap_better']:.6g} against base IQR {m['base_iqr']:.6g}:"
              f" {'gain' if m['gain'] else 'no gain'}")
    for k, pair in enumerate(pairs):
        for side in SIDES:
            digests = " ".join(f"{n} {d}" for n, d in sorted(pair[side]["digests"].items()))
            print(f"sha256 pair {k} {side}: {digests}")
    print(f"outputs {'identical' if identical else 'DIFFER'} on the two sides;"
          f" {'all runs correct' if correct else 'SOME RUNS FAILED'}")
    if args.json is not None:
        args.json.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "base": {"ref": args.base, "commit": commits["base"]},
            "change": {"ref": args.change, "commit": commits["change"]},
            "metrics": summary, "digests_identical": identical, "all_correct": correct,
            "pairs": pairs,
        }, indent=2) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
