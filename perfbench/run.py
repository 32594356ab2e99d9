"""ptfollow benchmark: CLI wall time, loop throughput and per-layer stage cost.

Run from the root of a checkout:

    python3 perfbench/run.py --workload circle-cli --seed 1 --seconds 50 --trace 0

The program is run from the checkout's ``src`` directory, from outside the
package: the ``ptfollow`` CLI in child processes and untraced in-process
calls give the end-to-end metrics (``--trace 0``); a separate traced
in-process run gives the per-layer metrics (``--trace 1``).  Load comes from
this one process, one run at a time (closed loop, one client).  Every run's
outputs are checked; the last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import yaml

import tracing
from cli_child import hook_append

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

CHILD_TIMEOUT_S = 120.0
# Each in-process sample repeats its call until it has run this long.
MIN_SAMPLE_S = 0.25
# CLI wall time and in-process loop time per round of the end-to-end
# measurement.
CLI_ROUND_S = 1.0
LOOP_ROUND_S = 1.0
# Runs the installed ``ptfollow`` console script's code, with clock stamps.
CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import ptfollow
t1 = time.perf_counter()
ptfollow.resolve_scenario(sys.argv[1])
t2 = time.perf_counter()
print(t1 - t0, t2 - t1, len(sys.modules))
"""

SUMMARY_KEYS = (
    "settling_time_e_u",
    "settling_time_e_v",
    "settling_time_e_v2",
    "rms_e_u",
    "rms_e_v",
    "rms_e_v2",
    "mean_abs_height_error",
    "failure_episodes",
    "reacquisition_latencies",
    "saturation_duty_cycle",
)
SUMMARY_NAME = "summary.json"
CSV_NAME = "timeseries.csv"


@dataclasses.dataclass(frozen=True)
class Workload:
    scenario: str  # preset name, or a scenario file relative to the checkout root
    csv: bool  # whether the timed CLI runs write the CSV


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "circle-cli": Workload("circle-sim", csv=True),
    "noisy-walk": Workload("perfbench/scenarios/noisy-walk.yaml", csv=False),
}

END_TO_END = {
    "wall_s": "s",
    "ticks_per_s": "1/s",
    "setup_s": "s",
    "output_s": "s",
    "peak_rss_mb": "MB",
}


# Other work on a shared host slows this one by up to 1.8x, in phases that
# last seconds to minutes, so the median of a repeated timing moves with the
# share of a run spent in them; the fastest sample moves much less.  Repeated
# timings report their fastest sample (wall_s, ticks_per_s and output_s: see
# fastest_total).  setup_s and its parts report the median over fresh
# processes; counts repeat exactly, so their median is their value.
FASTEST = {metric: min for *_, metric, _ in tracing.SPANS}


def reported(name: str, values: list[float]) -> float:
    return FASTEST.get(name, statistics.median)(values)


def per_layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class Tally:
    """Checked runs and the problems found in them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(cli_args: list[str], out_dir: Path) -> tuple[int, list[int], float]:
    """Run the ptfollow CLI once; returns the exit code, the nanoseconds
    between successive clock stamps from spawn to exit and the child's peak
    RSS in MB (see cli_child.py)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp_file = out_dir / "stamps.bin"
    stamp_file.unlink(missing_ok=True)
    with open(out_dir / "stdout.txt", "wb") as so, open(out_dir / "stderr.txt", "wb") as se:
        t0 = time.perf_counter_ns()
        proc = subprocess.Popen(
            [sys.executable, str(CLI_CHILD), str(stamp_file), *cli_args, "--out", str(out_dir)],
            cwd=ROOT, env=child_env(), stdout=so, stderr=se,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status = os.waitpid(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = time.perf_counter_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak_kb, *inner = array("q", read(stamp_file)) or [0]
    stamps = [t0, *inner, t1]
    return proc.returncode, [b - a for a, b in zip(stamps, stamps[1:])], peak_kb * 1024 / 1e6


def run_setup(scenario: str) -> tuple[float, float, int]:
    """Fresh process: seconds to import ptfollow, seconds to resolve the
    scenario, and the number of modules loaded."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, scenario],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    import_s, resolve_s, modules = done.stdout.split()
    return float(import_s), float(resolve_s), int(modules)


def _blank(x) -> bool:
    return x is None or (isinstance(x, float) and math.isnan(x))


def same_values(a, b) -> bool:
    """Equality of parsed summaries, with NaN (or null) equal to NaN."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            same_values(a[k], b[k]) for k in a
        )
    if isinstance(a, (list, tuple)):
        return isinstance(b, (list, tuple)) and len(a) == len(b) and all(
            map(same_values, a, b)
        )
    return (_blank(a) and _blank(b)) or a == b


def read(path: Path) -> bytes:
    """File contents, or empty if the file was not written."""
    return path.read_bytes() if path.is_file() else b""


def parse_summary(data: bytes):
    """Parsed summary.json (bare NaN accepted), or None if it does not parse."""
    try:
        return json.loads(data)
    except ValueError:
        return None


def same_log(pf, a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(a.column(c), b.column(c), equal_nan=True) for c in pf.runlog.COLUMNS
    )


def check_full_output(pf, cfg, out_dir: Path, code: int) -> list[str]:
    """Checks on one CLI run that wrote both files."""
    if code != 0:
        return [f"exit code {code}"]
    problems = []
    csv_path, summary_path = out_dir / CSV_NAME, out_dir / SUMMARY_NAME
    if not csv_path.is_file():
        return ["no CSV written"]
    with open(csv_path) as fh:
        header = fh.readline().rstrip("\n")
        rows = sum(1 for _ in fh)
    if header != ",".join(pf.runlog.COLUMNS):
        problems.append(f"CSV header {header!r} differs from runlog.COLUMNS")
    if rows != cfg.n_ticks:
        problems.append(f"CSV has {rows} rows, expected {cfg.n_ticks}")
    summary = parse_summary(read(summary_path))
    if not isinstance(summary, dict):
        return problems + ["summary.json does not parse as a JSON object"]
    absent = [k for k in SUMMARY_KEYS if k not in summary]
    if absent:
        problems.append(f"summary.json lacks {absent}")
    again = pf.summarize_run(cfg, pf.TimeSeriesLog.read_csv(csv_path)).to_dict()
    if not same_values(again, summary):
        problems.append("re-summarizing the CSV does not reproduce summary.json")
    return problems


def repeat(call, min_s: float = MIN_SAMPLE_S) -> tuple[list[float], object]:
    """Call until ``min_s`` seconds have been spent, at least once; returns
    the seconds of each call and the last result."""
    times: list[float] = []
    while sum(times) < min_s:
        t0 = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - t0)
    return times, result


def run_chunked(pf, cfg) -> tuple[object, list[int]]:
    """One ``run_scenario`` call, untraced but for a clock stamp after every
    ``TimeSeriesLog.append`` (one per tick).

    Returns the log and the nanoseconds between successive stamps, the first
    taken before the call and the last after it.  Without the hook, or if
    ``append`` is never called, the run is one block.
    """
    stamps: list[int] = []
    clock = time.perf_counter_ns
    undo = hook_append(pf.TimeSeriesLog, stamps)
    try:
        stamps.append(clock())
        log = pf.runner.run_scenario(cfg)
        stamps.append(clock())
    finally:
        if undo is not None:
            undo()
    return log, [b - a for a, b in zip(stamps, stamps[1:])]


def fastest_total(runs: list[list[int]]) -> float:
    """Seconds of one run at the fastest time seen for each of its blocks.

    Short blocks catch the moments when the shared host runs at full speed,
    which whole runs of a second or more rarely do; summing the fastest time
    of each block over the repeated runs gives a steady run time.  Runs of
    one seed stamp alike; should one differ in its number of blocks, only the
    runs with the most common number are used.
    """
    shapes = Counter(len(r) for r in runs)
    n_blocks = max(shapes, key=lambda n: (shapes[n], n))
    return sum(map(min, zip(*(r for r in runs if len(r) == n_blocks)))) / 1e9


def measure_end_to_end(pf, wl, cfg, cli_args, ref, seconds, out, tally) -> tuple[dict, dict]:
    samples = defaultdict(list)
    runs: list[list[int]] = []
    cli_runs: list[list[int]] = []
    output_runs: list[list[int]] = []
    cli_dir, own_dir = out / "cli", out / "inproc"
    own_dir.mkdir(parents=True, exist_ok=True)
    runner = pf.runner
    ref_summary = parse_summary(ref[SUMMARY_NAME])

    def write_outputs(log):
        """The CLI's output steps; returns the summary and the nanoseconds
        each step took."""
        clock = time.perf_counter_ns
        stamps = [clock()]
        summary = runner.summarize_run(cfg, log)
        stamps.append(clock())
        with open(own_dir / SUMMARY_NAME, "w") as fh:
            json.dump(summary.to_dict(), fh, indent=2)
            fh.write("\n")
        stamps.append(clock())
        if wl.csv:
            log.write_csv(own_dir / CSV_NAME)
            stamps.append(clock())
        return summary, [b - a for a, b in zip(stamps, stamps[1:])]

    deadline = time.perf_counter() + seconds
    while True:
        spent = 0.0
        while spent < CLI_ROUND_S:
            code, blocks, rss = run_cli(cli_args, cli_dir)
            problems = [] if code == 0 else [f"exit code {code}"]
            if code == 0:
                names = [SUMMARY_NAME] + ([CSV_NAME] if wl.csv else [])
                problems += [f"{n} differs from the reference run" for n in names
                             if read(cli_dir / n) != ref[n]]
            tally.record("timed CLI run", problems)
            cli_runs.append(blocks)
            samples["wall_s"].append(sum(blocks) / 1e9)
            samples["peak_rss_mb"].append(rss)
            spent += sum(blocks) / 1e9

        import_s, resolve_s, _ = run_setup(wl.scenario)
        samples["setup_s"].append(import_s + resolve_s)

        spent = 0.0
        while spent < LOOP_ROUND_S:
            log, blocks = run_chunked(pf, cfg)
            runs.append(blocks)
            samples["ticks_per_s"].append(len(log) / (sum(blocks) / 1e9))
            spent += sum(blocks) / 1e9
        spent = 0.0
        while spent < MIN_SAMPLE_S:
            summary, blocks = write_outputs(log)
            output_runs.append(blocks)
            samples["output_s"].append(sum(blocks) / 1e9)
            spent += sum(blocks) / 1e9

        problems = []
        if len(log) != cfg.n_ticks:
            problems.append(f"{len(log)} ticks, expected {cfg.n_ticks}")
        if not same_values(summary.to_dict(), ref_summary):
            problems.append("in-process summary differs from the CLI's summary.json")
        if wl.csv and read(own_dir / CSV_NAME) != ref[CSV_NAME]:
            problems.append("in-process CSV differs from the CLI's CSV")
        tally.record("in-process run", problems)
        if time.perf_counter() >= deadline:
            return samples, {
                "wall_s": fastest_total(cli_runs),
                "ticks_per_s": cfg.n_ticks / fastest_total(runs),
                "output_s": fastest_total(output_runs),
            }


def measure_per_layer(pf, wl, cfg, ref, seconds, out, tally) -> tuple[dict, list[str]]:
    samples = defaultdict(list)
    untraced, traced = [], []
    tracer = tracing.Tracer()
    runner = pf.runner
    th_high = getattr(getattr(cfg, "recovery", None), "th_high", None)
    first_counts = None
    missing: list[str] = []
    ref_summary = parse_summary(ref[SUMMARY_NAME])

    def traced_run():
        tracer.clear()
        with tracer:
            log = runner.run_scenario(cfg)
            summary = runner.summarize_run(cfg, log)
            if wl.csv:
                log.write_csv(out / CSV_NAME)
        return log, summary

    deadline = time.perf_counter() + seconds
    while True:
        import_s, resolve_s, modules = run_setup(wl.scenario)
        samples["cli.import_s"].append(import_s)
        samples["config.resolve_s"].append(resolve_s)
        samples["cli.modules_loaded"].append(modules)

        times, plain = repeat(lambda: runner.run_scenario(cfg))
        untraced += [t / len(plain) for t in times]

        busy = 0.0
        while busy < MIN_SAMPLE_S:
            log, summary = traced_run()
            busy += tracer.loop_s()
            traced.append(tracer.loop_s() / len(log))
            values, missing = tracer.metrics(len(log), th_high)
            for name, value in values.items():
                samples[name].append(value)

            counts = {k: values[k] for k in tracing.COUNTS if k in values}
            problems = []
            if first_counts is None:
                first_counts = counts
            elif counts != first_counts:
                changed = sorted(k for k in counts if counts[k] != first_counts.get(k))
                problems.append(f"per-layer counts differ between runs: {changed}")
            if not same_log(pf, log, plain):
                problems.append("traced log differs from the untraced log")
            if not same_values(summary.to_dict(), ref_summary):
                problems.append("traced summary differs from the CLI's summary.json")
            tally.record("traced run", problems)
        if time.perf_counter() >= deadline:
            break

    tracer.write_spans(out / "spans.csv")
    samples["trace.overhead_frac"].append(min(traced) / min(untraced) - 1.0)
    missing += [f"{path} (not wrapped)" for path in tracer.missing.values()]
    return samples, missing


def verify_reference(pf, cfg, cli_args, out, tally) -> dict:
    """Two untimed CLI runs that write both files: check them and return the
    first run's file contents as the reference."""
    full_args = [a for a in cli_args if a != "--summary-only"]
    contents = []
    for i in (1, 2):
        out_dir = out / f"ref{i}"
        code, _, _ = run_cli(full_args, out_dir)
        problems = check_full_output(pf, cfg, out_dir, code)
        files = {n: read(out_dir / n) for n in (SUMMARY_NAME, CSV_NAME)}
        if contents and files != contents[0]:
            problems.append("outputs differ from an earlier run with the same seed")
        contents.append(files)
        tally.record("reference CLI run", problems)
    return contents[0]


def describe(name: str, value: float, kind: str, values: list[float], unit: str) -> str:
    line = f"{name} {value:.6g} {unit} ({kind}; n={len(values)}"
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
        line += f"; quartiles {q1:.6g} {q2:.6g} {q3:.6g}"
    return line + ")"


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "pyyaml": yaml.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ptfollow" / "__init__.py").is_file():
        print(f"perfbench: no ptfollow sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import ptfollow as pf
    import ptfollow.runlog
    import ptfollow.runner

    if Path(pf.__file__).resolve().parent != SRC / "ptfollow":
        print(f"perfbench: imported ptfollow from {pf.__file__}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cfg = dataclasses.replace(pf.resolve_scenario(wl.scenario), seed=args.seed)
    cli_args = ["--scenario", wl.scenario, "--seed", str(args.seed)]
    if not wl.csv:
        cli_args.append("--summary-only")

    tally = Tally()
    ref = verify_reference(pf, cfg, cli_args, out, tally)
    digests = {n: hashlib.sha256(data).hexdigest() for n, data in ref.items()}
    if args.trace:
        samples, missing = measure_per_layer(pf, wl, cfg, ref, args.seconds, out, tally)
        units = {name: per_layer_unit(name) for name in samples}
        composite = {}
    else:
        samples, composite = measure_end_to_end(
            pf, wl, cfg, cli_args, ref, args.seconds, out, tally
        )
        missing = []
        units = END_TO_END
    values = {name: reported(name, samples[name]) for name in units} | composite
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    env = environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + " ".join(f"{k} {v}" for k, v in env.items()))
    for name, digest in digests.items():
        print(f"digest {name} {digest}")
    for name, unit in units.items():
        kind = ("sum of fastest blocks" if name in composite
                else "fastest" if name in FASTEST else "median")
        print("metric " + describe(name, values[name], kind, samples[name], unit))
    print(f"metric failed_frac {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} checked runs)")
    for name in missing:
        print(f"missing {name}")
    for problem in tally.problems:
        print(f"problem {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    (out / "result.json").write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed, "env": env,
         "digests": digests, "missing": missing, "problems": tally.problems,
         "samples": samples},
        indent=2,
    ) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
