"""Time-series logging and run metrics.

One CSV row per control tick, fixed column order, floats written as their
shortest round-trip decimal so identical runs produce byte-identical files.
The summary is a pure function of the logged columns (plus the configured
reference values), so recomputing it from a written CSV reproduces the
in-memory result.  Each mean is the correctly rounded sum (``math.fsum``)
over the count, so it does not depend on the order of the values
(``tests/summary_oracle.py`` computes the same from exact rational sums).
"""

from __future__ import annotations

import math
from array import array
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
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

    def column(self, name: str):
        """Column ``name`` as a numpy array; needs numpy, from the ``dev`` extra."""
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


def _mean(values: list[float]) -> float:
    """The correctly rounded sum of ``values`` (each >= 0) over their count;
    NaN if there are none."""
    if not values:
        return math.nan
    try:
        total = math.fsum(values)
    except OverflowError:  # finite values >= 0 whose sum rounds beyond the float range
        total = math.inf
    return total / len(values)


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
