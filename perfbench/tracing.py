"""Traced runs: wrap the functions each ptfollow module exposes to the loop.

Every wrapped name sits in ``SPANS``.  A wrapper records one span per call
(id, layer, parent span id, start ns, end ns) in memory; per-layer self
times and counts are derived after the run from the spans and from a few
values picked from each call's arguments and result.  A name that cannot be resolved (removed or
renamed by a later change) is reported as missing and left unwrapped.
"""

from __future__ import annotations

import bisect
import importlib
import itertools
import os
import time
from collections import Counter, defaultdict

# layer, module, attribute path, time metric, what the time is divided by.
# The runner module's own bindings are wrapped, so only the loop's calls are
# counted (``FollowController.step`` also computes errors internally).
SPANS = (
    ("runner.run_scenario", "ptfollow.runner", "run_scenario", "runner.loop_self_us", "tick"),
    ("simworld.target", "ptfollow.runner", "target_position", "simworld.target_us", "call"),
    ("simworld.render", "ptfollow.runner", "render_measurement", "simworld.render_us", "call"),
    ("geometry.world_to_camera", "ptfollow.simworld", "world_to_camera",
     "geometry.world_to_camera_us", "call"),
    ("perception.step", "ptfollow.perception", "PerceptionPipeline.step",
     "perception.step_us", "call"),
    ("controller.step", "ptfollow.controller", "FollowController.step",
     "controller.step_us", "call"),
    ("controller.errors", "ptfollow.runner", "compute_errors", "controller.errors_us", "call"),
    ("runlog.append", "ptfollow.runlog", "TimeSeriesLog.append", "runlog.append_us", "call"),
    ("simworld.integrate", "ptfollow.runner", "integrate", "simworld.integrate_us", "call"),
    ("runlog.summarize", "ptfollow.runner", "summarize_run", "runlog.summarize_s", "call"),
    ("runlog.write_csv", "ptfollow.runlog", "TimeSeriesLog.write_csv", "runlog.write_csv_s", "call"),
)

# Span that ends each tick; a span's tick is the number of these finished
# before it started.
TICK_END = "simworld.integrate"

# Counts that must repeat exactly between runs of one seed.
COUNTS = (
    "runner.ticks",
    "simworld.render_none",
    "perception.gating_ticks",
    "perception.hold_ticks",
    "perception.failure_episodes",
    "controller.solve_ticks",
    "controller.singular_ticks",
    "controller.saturated_ticks",
    "runlog.csv_bytes",
) + tuple(f"{layer}_calls" for layer, *_ in SPANS[1:])


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Context manager that wraps every resolvable ``SPANS`` entry."""

    def __init__(self) -> None:
        self.layers = [layer for layer, *_ in SPANS]
        self.missing: dict[str, str] = {}
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.recorded: dict[str, list] = {layer: [] for layer, *_ in DERIVED}
        self._stack = [0]
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object, bool]] = []

    def _wrap(self, fn, index: int, pick, record):
        spans_append = self.spans.append
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans_append((sid, index, parent, t0, t1))
            if pick is not None:
                try:
                    record(pick(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError):
                    record(UNREADABLE)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        self.missing = {}
        for index, (layer, module, path, *_) in enumerate(SPANS):
            try:
                owner, attr, fn = _resolve(module, path)
            except (ImportError, AttributeError):
                self.missing[layer] = f"{module}.{path}"
                continue
            pick = PICKS.get(layer)
            record = self.recorded[layer].append if pick else None
            self._patches.append((owner, attr, fn, attr in vars(owner)))
            setattr(owner, attr, self._wrap(fn, index, pick, record))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn, own in reversed(self._patches):
            if own:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def clear(self) -> None:
        self.spans.clear()
        for calls in self.recorded.values():
            calls.clear()

    def loop_s(self) -> float:
        """Duration of the traced ``run_scenario`` calls, seconds."""
        return sum(t1 - t0 for _, i, _, t0, t1 in self.spans if i == 0) / 1e9

    def metrics(self, n_ticks: int, th_high: float) -> tuple[dict, list[str]]:
        """Per-layer times and counts of the spans recorded since ``clear``.

        Returns the metric values and the names that could not be derived.
        """
        child_ns: dict[int, int] = defaultdict(int)
        for sid, _, parent, t0, t1 in self.spans:
            child_ns[parent] += t1 - t0
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        for sid, index, _, t0, t1 in self.spans:
            self_ns[index] += t1 - t0 - child_ns.get(sid, 0)
            calls[index] += 1

        out: dict[str, float] = {"runner.ticks": n_ticks}
        missing = []
        for index, (layer, _, _, metric, per) in enumerate(SPANS):
            if layer in self.missing:
                missing += [metric] if index == 0 else [metric, f"{layer}_calls"]
                continue
            scale = 1e3 if metric.endswith("_us") else 1e9
            divisor = n_ticks if per == "tick" else calls[index]
            out[metric] = self_ns[index] / divisor / scale if divisor else 0.0
            if index:
                out[f"{layer}_calls"] = calls[index]

        for layer, derive, names in DERIVED:
            picked = self.recorded[layer]
            try:
                if layer in self.missing or UNREADABLE in picked:
                    raise LookupError(layer)
                out.update(derive(picked, th_high))
            except (LookupError, TypeError):
                missing += names
        return out, missing

    def write_spans(self, path: os.PathLike) -> None:
        """Write the recorded spans as CSV: id, layer, parent, tick, start, end."""
        tick_index = self.layers.index(TICK_END)
        ends = sorted(t1 for _, i, _, _, t1 in self.spans if i == tick_index)
        with open(path, "w") as fh:
            fh.write("id,layer,parent,tick,start_ns,end_ns\n")
            for sid, index, parent, t0, t1 in sorted(self.spans):
                tick = bisect.bisect_left(ends, t0)
                fh.write(f"{sid},{self.layers[index]},{parent},{tick},{t0},{t1}\n")


# Per call, the few values the counts need, picked when the call returns so
# that no program object outlives its tick.
PICKS = {
    "simworld.render": lambda args, kwargs, box: box is None,
    "perception.step": lambda args, kwargs, out: (
        out.initialized, out.hold, out.failure_state, out.score
    ),
    "controller.step": lambda args, kwargs, cmd: (
        (args[1] if len(args) > 1 else kwargs["box"]) is None
        or bool(args[3] if len(args) > 3 else kwargs.get("hold", False)),
        cmd.hold,
        cmd.saturated.any,
    ),
    "runlog.write_csv": lambda args, kwargs, _: os.fspath(args[1]),
}
UNREADABLE = object()


def _render_counts(calls, th_high):
    return {"simworld.render_none": sum(calls)}


def _perception_counts(calls, th_high):
    initialized = [c for c in calls if c[0]]
    fresh = sum(score >= th_high and not hold for _, hold, _, score in initialized)
    flags = [failed for _, _, failed, _ in calls]
    return {
        "perception.gating_ticks": len(calls) - len(initialized),
        "perception.hold_ticks": sum(hold for _, hold, _, _ in calls),
        "perception.failure_episodes": sum(
            cur and not prev for prev, cur in zip([False] + flags, flags)
        ),
        "perception.fresh_box_ratio": fresh / len(initialized) if initialized else 0.0,
    }


def _controller_counts(calls, th_high):
    solved = [(hold, saturated) for skipped, hold, saturated in calls if not skipped]
    return {
        "controller.solve_ticks": len(solved),
        "controller.singular_ticks": sum(hold for hold, _ in solved),
        "controller.saturated_ticks": sum(sat for _, sat in solved),
    }


def _csv_counts(calls, th_high):
    return {"runlog.csv_bytes": sum(os.path.getsize(path) for path in calls)}


# Counts derived from one layer's picked values, with the names they give.
DERIVED = (
    ("simworld.render", _render_counts, ["simworld.render_none"]),
    ("perception.step", _perception_counts, [
        "perception.gating_ticks", "perception.hold_ticks",
        "perception.failure_episodes", "perception.fresh_box_ratio",
    ]),
    ("controller.step", _controller_counts, [
        "controller.solve_ticks", "controller.singular_ticks", "controller.saturated_ticks",
    ]),
    ("runlog.write_csv", _csv_counts, ["runlog.csv_bytes"]),
)
