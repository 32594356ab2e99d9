"""The functions the closed loop calls on every tick call no builtin
``min`` or ``max``.

On CPython 3.11.7 (2-core Xeon, timeit, quiet host), a two-argument
``max(a, b)`` takes about 125 ns and the same choice written as
``b if b > a else a`` about 15 ns; the loop used to make about six such
calls per noisy-walk tick.  One call put back costs about 1 % of a 10 us
tick, far inside the benchmark's bounds, so this test names it instead.
The comparison forms keep the builtins' first-argument-wins rule
(``max(a, b)`` is ``b if b > a else a``, ``min(a, b)`` is
``b if b < a else a``); the tests beside each function check their bits
against the builtin form.

The controller and perception steps also read no config section on a tick:
each unpacks one tuple of the values it needs, bound when it is built, where
it used to read about 15 (controller) and 9 (perception) attributes of frozen
sections per tick.  ``PER_TICK`` is checked against the functions a profiled
run calls, so a stage that comes back as a call shows here.
"""

import ast
import inspect
import sys
import textwrap

import pytest

from oracles import clamp_joints
from ptfollow.config import PRESETS, parse_config
from ptfollow.controller import FollowController
from ptfollow.perception import PerceptionPipeline, RecoveryState, gate_update, normal
from ptfollow.runlog import TimeSeriesLog
from ptfollow.runner import run_scenario
from ptfollow.simworld import CircleTrajectory, LineTrajectory, WaypointTrajectory
from test_goldens import NOISY_WALK

# every function of the package a tick calls, and the loop itself, which
# renders and integrates inline (render_measurement and integrate are the
# plain forms tests/test_simworld.py checks it against)
PER_TICK = (
    run_scenario,
    FollowController.step,
    FollowController._hold_and_decay,
    PerceptionPipeline.step,
    gate_update,
    normal,
    RecoveryState.__new__,
    TimeSeriesLog.append,
    CircleTrajectory.position,
    LineTrajectory.position,
    WaypointTrajectory.position,
)


def _builtin_min_max_calls(fn):
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("min", "max")
    ]


@pytest.mark.parametrize("fn", PER_TICK, ids=lambda fn: fn.__qualname__)
def test_per_tick_function_calls_no_builtin_min_or_max(fn):
    assert _builtin_min_max_calls(fn) == []


def test_guard_sees_a_call():
    # the reference clamp keeps the builtins, so the walk must find them there
    assert len(_builtin_min_max_calls(clamp_joints)) == 4


def test_per_tick_names_every_function_a_tick_calls():
    # the package's Python functions called from the first perception step
    # on, over runs that reach each trajectory kind, the gate, the noise, the
    # hold and the recovery machine
    called, ticking = set(), []

    def profile(frame, event, arg):
        if event == "call":
            if ticking or frame.f_code is PerceptionPipeline.step.__code__:
                ticking.append(True)
                called.add(frame.f_code)

    for config in [*(build() for build in PRESETS.values()), parse_config(NOISY_WALK)]:
        ticking.clear()
        sys.setprofile(profile)
        try:
            run_scenario(config)
        finally:
            sys.setprofile(None)
    package = {code for code in called if "ptfollow" in code.co_filename}
    names = sorted(code.co_qualname for code in package)
    assert package == {fn.__code__ for fn in PER_TICK[1:]}, names


# The two stages built from config sections read what a tick needs of them
# from values bound at construction, never an attribute of a section.
SECTIONS = ("gains", "intrinsics", "saturation", "noise")  # as attributes of self
SECTION_NAMES = ("noise", "RecoveryPolicy")  # a section bound to a name
BOUND_AT_CONSTRUCTION = (FollowController.step, PerceptionPipeline.step)


def _section_reads(source):
    tree = ast.parse(textwrap.dedent(source))
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and (
            (node.value.id == "self" and node.attr in SECTIONS)
            or node.value.id in SECTION_NAMES
        )
    ]


@pytest.mark.parametrize("fn", BOUND_AT_CONSTRUCTION, ids=lambda fn: fn.__qualname__)
def test_step_reads_no_config_section(fn):
    assert _section_reads(inspect.getsource(fn)) == []


def test_guard_sees_a_section_read():
    # lines of the two steps when they read their sections on every tick
    per_tick_reads = """
k, gains = self.intrinsics, self.gains
cmd = saturate(num_v / den, omega_r, num_wa / den, num_wb / den, self.saturation)
noise = self.noise
i = bisect_right(noise._starts, t)
half = recovery.region_scale * RecoveryPolicy.search_dilation * (box[1] - box[2])
"""
    assert len(_section_reads(per_tick_reads)) == 6
