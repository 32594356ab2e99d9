"""Reference for :func:`ptfollow.runlog.summarize`, which the tests compare
it against bit for bit.

The library computes the run summary in plain Python; this is the numpy
computation it replaced, except that each mean is the exact rational sum of
its values (``fractions.Fraction``) rounded once to a float and divided by the
count.  That is the correctly rounded mean the library takes from
``math.fsum``, reached without it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ptfollow.controller import SaturationLimits
from ptfollow.runlog import SETTLE_PX, RunSummary, TimeSeriesLog


def _settling_time(t: np.ndarray, e: np.ndarray, threshold: float) -> float:
    """First time after which |e| stays below threshold (NaN rows never settle)."""
    below = np.abs(e) < threshold
    below &= ~np.isnan(e)
    # last index where the condition fails; settled from the next sample on
    failing = np.nonzero(~below)[0]
    if len(failing) == 0:
        return float(t[0])
    last_fail = failing[-1]
    if last_fail + 1 >= len(t):
        return math.nan
    return float(t[last_fail + 1])


def _mean(values: np.ndarray) -> float:
    """The exact sum of ``values`` (each >= 0), rounded to a float, over their
    count."""
    try:
        total = float(sum(map(Fraction, values.tolist()), Fraction(0)))
    except OverflowError:  # an infinite value, or a sum that rounds beyond the float range
        total = math.inf
    return total / len(values)


def _rms(values: np.ndarray) -> float:
    values = values[~np.isnan(values)]
    if len(values) == 0:
        return math.nan
    return float(np.sqrt(_mean(values**2)))


def summarize(
    log: TimeSeriesLog,
    target_half_height: float,
    saturation: SaturationLimits | None = None,
) -> RunSummary:
    """Compute run metrics from a log.

    ``target_half_height`` and ``saturation`` carry the configured reference
    values the metrics are measured against.
    """
    saturation = saturation or SaturationLimits()
    if len(log) == 0:
        return RunSummary(
            settling_time_e_u=math.nan,
            settling_time_e_v=math.nan,
            settling_time_e_v2=math.nan,
            rms_e_u=math.nan,
            rms_e_v=math.nan,
            rms_e_v2=math.nan,
            mean_abs_height_error=math.nan,
            failure_episodes=0,
            reacquisition_latencies=(),
            saturation_duty_cycle=0.0,
        )

    t = log.column("t")
    steady = slice(len(log) // 2, len(log))

    h = log.column("h")[steady]
    h = h[~np.isnan(h)]
    mean_h_err = _mean(np.abs(h - target_half_height)) if len(h) else math.nan

    failure = log.column("failure_state").astype(bool)
    rising = np.nonzero(failure[1:] & ~failure[:-1])[0] + 1
    if len(failure) and failure[0]:
        rising = np.concatenate(([0], rising))
    episodes = len(rising)
    latencies = []
    for start in rising:
        rest = np.nonzero(~failure[start:])[0]
        if len(rest):
            latencies.append(int(rest[0]))

    def _saturated(col: str, limit: float) -> np.ndarray:
        return np.abs(log.column(col)) >= limit * (1.0 - 1e-12)

    any_sat = (
        _saturated("V_r", saturation.v_max)
        | _saturated("omega_r", saturation.omega_r_max)
        | _saturated("omega_alpha", saturation.omega_alpha_max)
        | _saturated("omega_beta", saturation.omega_beta_max)
    )

    return RunSummary(
        settling_time_e_u=_settling_time(t, log.column("e_u"), SETTLE_PX),
        settling_time_e_v=_settling_time(t, log.column("e_v"), SETTLE_PX),
        settling_time_e_v2=_settling_time(t, log.column("e_v2"), SETTLE_PX),
        rms_e_u=_rms(log.column("e_u")[steady]),
        rms_e_v=_rms(log.column("e_v")[steady]),
        rms_e_v2=_rms(log.column("e_v2")[steady]),
        mean_abs_height_error=mean_h_err,
        failure_episodes=episodes,
        reacquisition_latencies=tuple(latencies),
        saturation_duty_cycle=float(np.mean(any_sat)),
    )
