"""Time-series logging and run metrics.

One CSV row per control tick, fixed column order, floats written as their
shortest round-trip decimal so identical runs produce byte-identical files.
The summary is a pure function of the logged columns (plus the configured
reference values), so recomputing it from a written CSV reproduces the
in-memory result.  It is plain Python whose sums follow numpy's float64
summation order, so its values equal those of the numpy computation bit for
bit (``tests/summary_oracle.py`` keeps that as the reference).
"""

from __future__ import annotations

import math
from array import array
from functools import reduce
from operator import add
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

    from .controller import SaturationLimits

COLUMNS = (
    "t",
    "e_u",
    "e_v",
    "e_v2",
    "h",
    "V_r",
    "omega_r",
    "omega_alpha",
    "omega_beta",
    "alpha",
    "beta",
    "robot_x",
    "robot_y",
    "theta",
    "target_x",
    "target_y",
    "score",
    "region_scale",
    "failure_state",  # last: written as an integer, every other column as a float
)

# A channel has settled once its error magnitude stays below this, in pixels.
SETTLE_PX = 5.0


class TimeSeriesLog:
    """Per-tick records of one scenario run: the rows of ``COLUMNS`` back to
    back in one float array."""

    def __init__(self) -> None:
        self._values = array("d")

    def append(self, row: list) -> None:
        if len(row) != len(COLUMNS):
            raise ValueError(f"expected {len(COLUMNS)} values per row, got {len(row)}")
        # fromlist reads the list once and keeps no reference to it; it resizes
        # once and undoes the row if a value is not a float
        self._values.fromlist(row)

    def __len__(self) -> int:
        return len(self._values) // len(COLUMNS)

    def series(self, name: str) -> array:
        """Column ``name``, one float per tick."""
        return self._values[COLUMNS.index(name) :: len(COLUMNS)]

    def column(self, name: str) -> np.ndarray:
        import numpy as np  # for analysis and tests; the run and its summary do without

        return np.array(self.series(name))

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(COLUMNS) + "\n")
            for *row, flag in zip(*map(self.series, COLUMNS)):
                fh.write(f"{','.join(map(repr, row))},{int(flag)}\n")

    @classmethod
    def read_csv(cls, path: str | Path) -> "TimeSeriesLog":
        """Read a log written by :meth:`write_csv`.

        Raises:
            ValueError: naming the line at fault, for a missing or wrong
                header, a row of the wrong length, a field that is not a
                float, or a ``failure_state`` other than ``0`` or ``1``.
        """
        import csv  # only reading a log back needs it; a run writes its CSV by hand

        log = cls()
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError("line 1: empty file, expected the CSV header")
            if tuple(header) != COLUMNS:
                raise ValueError(f"line 1: unexpected CSV header {header}")
            for row in reader:
                line = reader.line_num
                if len(row) != len(COLUMNS):
                    raise ValueError(f"line {line}: expected {len(COLUMNS)} values, got {len(row)}")
                try:
                    values = [float(v) for v in row]
                except ValueError as exc:
                    raise ValueError(f"line {line}: {exc}") from None
                if row[-1] not in ("0", "1"):
                    raise ValueError(f"line {line}: failure_state {row[-1]!r} is not 0 or 1")
                log.append(values)
        return log


class RunSummary(NamedTuple):
    """Aggregate metrics of one run.

    Settling time is the first instant after which the channel's error
    magnitude stays below ``SETTLE_PX`` for the rest of the run (NaN
    if it never does).  RMS values and the mean half-height deviation are
    taken over the steady-state window, the final half of the run.
    """

    settling_time_e_u: float
    settling_time_e_v: float
    settling_time_e_v2: float
    rms_e_u: float
    rms_e_v: float
    rms_e_v2: float
    mean_abs_height_error: float
    failure_episodes: int
    reacquisition_latencies: tuple[int, ...]
    saturation_duty_cycle: float

    def to_dict(self) -> dict:
        out = self._asdict()
        out["reacquisition_latencies"] = list(self.reacquisition_latencies)
        return out


# numpy's pairwise-summation block size (PW_BLOCKSIZE).
_BLOCK = 128


def _pairwise_sum(values: list[float], lo: int, hi: int) -> float:
    """Sum of ``values[lo:hi]`` in the order of numpy's float64 ``add.reduce``,
    so that it equals ``np.sum`` bit for bit.

    That order is pairwise: above ``_BLOCK`` values the range splits at half
    its length rounded down to a multiple of 8; a block of 8 or more values
    sums into eight interleaved accumulators combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and then adds the remainder; fewer
    than 8 values add one by one onto 0.0.  ``math.fsum`` and a running total
    differ from it in the last bit.
    """
    n = hi - lo
    if n > _BLOCK:
        mid = lo + n // 2 - n // 2 % 8
        return _pairwise_sum(values, lo, mid) + _pairwise_sum(values, mid, hi)
    total = 0.0
    if n >= 8:
        whole = hi - n % 8
        r = [reduce(add, values[j:whole:8]) for j in range(lo, lo + 8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        lo = whole
    for value in values[lo:hi]:
        total += value
    return total


def _mean(values: list[float]) -> float:
    """``np.mean(values)`` bit for bit; NaN if there are none."""
    return _pairwise_sum(values, 0, len(values)) / len(values) if values else math.nan


def _steady(log: TimeSeriesLog, name: str) -> list[float]:
    """Non-NaN values of column ``name`` in the steady-state window, the final
    half of the run."""
    return [v for v in log.series(name)[len(log) // 2 :] if not math.isnan(v)]


def _settling_time(log: TimeSeriesLog, name: str) -> float:
    """First time after which |e| stays below SETTLE_PX (NaN rows never settle)."""
    t, e = log.series("t"), log.series(name)
    i = len(e) - 1
    while i >= 0 and abs(e[i]) < SETTLE_PX:
        i -= 1
    # i is the last failing row (-1 if none); settled from the next one on
    return t[i + 1] if i + 1 < len(t) else math.nan


def _rms(log: TimeSeriesLog, name: str) -> float:
    return math.sqrt(_mean([e * e for e in _steady(log, name)]))


def summarize(
    log: TimeSeriesLog, target_half_height: float, saturation: SaturationLimits
) -> RunSummary:
    """Compute run metrics from a log.

    ``target_half_height`` and ``saturation`` carry the configured reference
    values the metrics are measured against.
    """
    episodes, latencies, start = 0, [], None
    for i, failed in enumerate(log.series("failure_state")):
        if failed:
            if start is None:
                episodes, start = episodes + 1, i
        elif start is not None:
            latencies.append(i - start)
            start = None

    s = saturation
    cv, cw, ca, cb = (
        c * (1.0 - 1e-12) for c in (s.v_max, s.omega_r_max, s.omega_alpha_max, s.omega_beta_max)
    )
    saturated = sum(
        1
        for v, w, a, b in zip(*map(log.series, ("V_r", "omega_r", "omega_alpha", "omega_beta")))
        if abs(v) >= cv or abs(w) >= cw or abs(a) >= ca or abs(b) >= cb
    )

    return RunSummary(
        settling_time_e_u=_settling_time(log, "e_u"),
        settling_time_e_v=_settling_time(log, "e_v"),
        settling_time_e_v2=_settling_time(log, "e_v2"),
        rms_e_u=_rms(log, "e_u"),
        rms_e_v=_rms(log, "e_v"),
        rms_e_v2=_rms(log, "e_v2"),
        mean_abs_height_error=_mean([abs(h - target_half_height) for h in _steady(log, "h")]),
        failure_episodes=episodes,
        reacquisition_latencies=tuple(latencies),
        saturation_duty_cycle=saturated / len(log) if len(log) else 0.0,
    )
