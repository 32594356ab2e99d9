"""Monocular pan-tilt person-following controller and simulator.

A depth-sensor-free follower: the controller keeps the tracked person box
centered in the image and its half height at a reference value, recovering
depth from the person's known height.  A deterministic kinematic simulator
closes the loop, including a simulated tracker with scripted occlusions and
a failure-recovery state machine.

The package exports the public API; every other name lives in its module
(``geometry``, ``controller``, ``perception``, ``simworld``, ``runlog``,
``runner``, ``config``, ``scenario_text``, ``cli``).
"""

from .config import (
    PRESETS,
    ConfigError,
    ScenarioConfig,
    load_config,
    parse_config,
    resolve_scenario,
)
from .controller import jacobian_discrepancy_report
from .runlog import TimeSeriesLog
from .runner import run_scenario, summarize_run

__version__ = "0.1.0"
