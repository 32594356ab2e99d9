"""The package ships the loop and its API, and no code that only tests call.

Every function and method defined in ``src/ptfollow`` is entered by a CLI
run of a preset or of a noisy scenario file, is imported by ``tests/test_acceptance.py``, is exported by
``ptfollow``, or is read by ``perfbench/`` (as an attribute, or by its
qualified name in a string).  A plain form that only tests call lives in
``tests/oracles.py``; ``ALLOWED`` gives each exception its reason.
"""

import ast
import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path

import ptfollow
from ptfollow import cli
from test_goldens import NOISY_WALK

PACKAGE = Path(ptfollow.__file__).resolve().parent
REPO = PACKAGE.parent.parent
ALLOWED = {
    "controller.BoxMeasurement.__new__": "checked constructor; the loop checks inline",
    "controller.BoxMeasurement._make": "so that _replace checks the box too",
    "perception.RecoveryState._make": "so that _replace checks the state too",
    "controller.BoxMeasurement.half_height": "for readers; the loop reads the rows",
    "geometry._instance": "validator factory, runs at import",
    "geometry._floats": "validator factory, runs at import",
}


def _defined():
    for info in pkgutil.iter_modules([str(PACKAGE)]):
        module = importlib.import_module(f"ptfollow.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) == module.__name__:
                for fn in vars(obj).values() if inspect.isclass(obj) else [obj]:
                    fn = getattr(fn, "__func__", getattr(fn, "fget", fn))  # class/static/property
                    code = getattr(fn, "__code__", None)
                    if code is not None and Path(code.co_filename).parent == PACKAGE:
                        yield f"{info.name}.{fn.__qualname__}", fn


def _entered(tmp_path):
    scenario = tmp_path / "noisy.yaml"
    scenario.write_text(json.dumps(NOISY_WALK))  # JSON is YAML
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    for i, name in enumerate(("circle-sim", "indoor", "outdoor", str(scenario))):
        args = ["--scenario", name]
        sys.setprofile(record)
        try:
            assert cli.main([*args, "--out", str(tmp_path / str(i))]) == 0, args
        finally:
            sys.setprofile(None)
    return entered


def test_every_package_function_serves_the_loop_or_the_api(tmp_path):
    entered = _entered(tmp_path)
    tree = ast.parse((REPO / "tests" / "test_acceptance.py").read_text())
    public = list(vars(ptfollow).values()) + [
        getattr(importlib.import_module(node.module), alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.startswith("ptfollow")
        for alias in node.names
    ]
    read = set()
    for path in (REPO / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            read.add(getattr(node, "attr", None))
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unused = {
        name
        for name, fn in _defined()
        if fn.__code__ not in entered
        and not any(fn is obj for obj in public)
        and not {fn.__name__, fn.__qualname__} & read
    }
    moved = sorted(unused - set(ALLOWED))
    assert not moved, f"no run, import or benchmark reads {moved}: move each to tests/oracles.py"
    assert sorted(set(ALLOWED) - unused) == [], "allowed, but no longer needs to be"
