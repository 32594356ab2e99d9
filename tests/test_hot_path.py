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
"""

import ast
import inspect
import textwrap

import pytest

from oracles import clamp_joints
from ptfollow.controller import FollowController, compute_errors, saturate
from ptfollow.perception import PerceptionPipeline
from ptfollow.runlog import TimeSeriesLog
from ptfollow.runner import run_scenario
from ptfollow.simworld import (
    CircleTrajectory,
    LineTrajectory,
    WaypointTrajectory,
    integrate,
    render_measurement,
)

PER_TICK = (
    run_scenario,
    render_measurement,
    integrate,
    compute_errors,
    saturate,
    FollowController.step,
    PerceptionPipeline.step,
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
