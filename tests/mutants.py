"""Mutation checks that can be re-run: ``python tests/mutants.py``.

Each entry of ``MUTANTS`` is a small fault put into one file of
``src/ptfollow``, with the tests that must fail on it.  For each entry the
script copies ``src/`` to a temporary directory, replaces the one occurrence
of the old text with the new, runs only the named tests against the copy and
reports the mutant killed (a named test failed, or the copy no longer
imports) or survived.  Before the mutants it runs every named test on an
unchanged copy, which must pass.  It exits 1 if that check fails, if a
mutant survives, or if an old text is not found exactly once in its file
(the code has moved on: update the entry).

Pytest does not collect this file (its name does not start with ``test_``).
A change that says "each mutation failed a test" adds its mutants here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
CONFIG_TESTS = "tests/test_config_cli.py::"


class Mutant(NamedTuple):
    file: str  # under src/ptfollow
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids; at least one must fail


MUTANTS = [
    # positive fields (PositiveFloat, PositiveInt)
    Mutant(
        "geometry.py",
        "    if not number > 0:",
        "    if not number >= 0:",
        (CONFIG_TESTS + "test_value_not_above_zero_rejected_naming_its_field[gains.k1-0]",),
    ),
    Mutant(
        "controller.py",
        "    k1: PositiveFloat = 0.5",
        "    k1: float = 0.5",
        (CONFIG_TESTS + "test_fields_annotated_positive_are_exactly_these",),
    ),
    Mutant(
        "geometry.py",
        '    "PositiveInt": partial(_positive, _integer),',
        '    "PositiveInt": _integer,',
        (CONFIG_TESTS + "test_value_not_above_zero_rejected_naming_its_field[intrinsics.width--1]",),
    ),
    # too deep a scenario file, and the discrepancy report's arguments
    Mutant(
        "config.py",
        "    except RecursionError:",
        "    except NotImplementedError:",
        (CONFIG_TESTS + "TestParseConfig::test_deep_nesting_is_a_config_error[sequence]",),
    ),
    Mutant(
        "controller.py",
        "not isinstance(seed, int) or seed < 0:",
        "not isinstance(seed, int):",
        ("tests/test_controller.py::TestJacobianTerms::test_discrepancy_report_rejects_a_bad_seed[-1]",),
    ),
    Mutant(
        "controller.py",
        "k.width > 100 and k.height > 110",
        "k.width > 100 and k.height >= 110",
        (
            "tests/test_controller.py::TestJacobianTerms::"
            "test_discrepancy_report_rejects_a_camera_below_its_window[640-110]",
        ),
    ),
    # one field validator for code-built and file configs
    Mutant(
        "perception.py",
        "    search_dilation: PositiveFloat = 2.0\n\n"
        "    def __post_init__(self) -> None:\n        check_fields(self)\n",
        "    search_dilation: PositiveFloat = 2.0\n\n"
        "    def __post_init__(self) -> None:\n        pass\n",
        (CONFIG_TESTS + "test_value_not_above_zero_rejected_naming_its_field[recovery.step_s-0]",),
    ),
    Mutant(
        "geometry.py",
        "if not isinstance(value, (tuple, list)) or len(value) != len(names):",
        "if not isinstance(value, (tuple, list)):",
        (CONFIG_TESTS + "TestParseConfig::test_code_built_start_not_a_triple_rejected",),
    ),
    Mutant(
        "geometry.py",
        "        if value is None and kind != f.type:",
        "        if value is None:",
        (CONFIG_TESTS + "test_section_of_another_class_in_code_is_a_config_error",),
    ),
    Mutant(
        "geometry.py",
        '_integer = _instance(int, "an integer")',
        "_integer = _number",
        (CONFIG_TESTS + "test_non_finite_value_in_code_rejected_naming_its_field[width-float]",),
    ),
    Mutant(
        "geometry.py",
        "        check = FIELD_CHECKS.get(kind)",
        "        check = FIELD_CHECKS.get(f.type)",
        (CONFIG_TESTS + "TestParseConfig::test_full_round_trip",),
    ),
]


def run_tests(src: Path, tests) -> int:
    """pytest's exit code for ``tests`` run against the package in ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    command += ["-o", f"pythonpath={src}", *tests]
    done = subprocess.run(command, cwd=REPO, env=env, capture_output=True, text=True)
    return done.returncode


def copy_src(tmp: Path) -> Path:
    src = tmp / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main() -> int:
    start = time.perf_counter()
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        named = sorted({test for mutant in MUTANTS for test in mutant.tests})
        code = run_tests(copy_src(Path(tmp)), named)
        if code != 0:
            print(f"unchanged copy: the named tests exit {code}, not 0")
            return 1
        for mutant in MUTANTS:
            label = f"{mutant.file}: {mutant.old.strip()!r} -> {mutant.new.strip()!r}"
            src = copy_src(Path(tmp))
            path = src / "ptfollow" / mutant.file
            text = path.read_text()
            if text.count(mutant.old) != 1:
                print(f"STALE     {label}: old text found {text.count(mutant.old)} times")
                bad += 1
                continue
            path.write_text(text.replace(mutant.old, mutant.new))
            code = run_tests(src, mutant.tests)
            if code in (1, 2):  # a test failed, or collection did (the copy does not import)
                print(f"killed    {label} (pytest exit {code})")
            else:
                print(f"SURVIVED  {label} (pytest exit {code})")
                bad += 1
    print(f"{len(MUTANTS)} mutants, {bad} not killed, {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
