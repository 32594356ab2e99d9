"""Mutation checks that can be re-run: ``python tests/mutants.py``.

Each entry of ``MUTANTS`` is a small fault put into one file of
``src/ptfollow``, with the tests that must fail on it.  For each entry the
script copies ``src/`` to a temporary directory, replaces the one occurrence
of the old text with the new, runs only the named tests against the copy and
reports the mutant killed (a named test failed, or the copy no longer
imports) or survived.  The tests run under the ``mutants`` hypothesis profile
of ``tests/conftest.py``: each property draws at most ``MUTANT_EXAMPLES``
examples, in a fixed order, so a mutant a property kills is killed within that
budget on every run.  Before the mutants it runs every named test on an
unchanged copy, which must pass.  It exits 1 if that check fails, if a
mutant survives, or if an old text is not found exactly once in its file
(the code has moved on: update the entry); ``tests/test_mutants.py`` checks
that, and that each named test exists, on every test run.

A mutant with an ``equivalent`` reason changes no behaviour any valid run
can reach; it is applied and reported, and its survival is expected.  If a
named test kills it, the reason no longer holds and the script exits 1.

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
PERCEPTION_TESTS = "tests/test_perception.py::"
PIPELINE_TESTS = PERCEPTION_TESTS + "TestPerceptionPipeline::"
RUNLOG_TESTS = "tests/test_runlog.py::"
WORLD_TESTS = "tests/test_simworld.py::"
WORLD_STEP_TESTS = WORLD_TESTS + "TestRunnerWorldStep::test_inline_step_equals_the_plain_forms"
CIRCLE_RULE_TESTS = (
    CONFIG_TESTS + "test_circle_angle_past_the_float_range_rejected_naming_both_fields"
)


class Mutant(NamedTuple):
    file: str  # under src/ptfollow
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids; at least one must fail
    equivalent: str = ""  # why no reachable state tells it apart; then none may fail


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
        (CONFIG_TESTS + "TestParseConfig::test_deep_nesting_is_a_config_error[block]",),
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
    # the fused tick's fourth pass: comparisons for builtin min/max, the noisy
    # box built only inside the image and without its constructor's frame, the
    # row appended uncopied
    Mutant(
        "perception.py",
        "                    if 0.0 <= u < width and 0.0 <= v2 < v < height:\n",
        "                    if True:\n",
        (PIPELINE_TESTS + "test_noisy_box_outside_the_image_is_lost",),
    ),
    Mutant(  # a NaN center row let through
        "perception.py",
        "0.0 <= v2 < v < height",
        "0.0 <= v2 < height",
        (PIPELINE_TESTS + "test_noisy_box_outside_the_image_is_lost",),
    ),
    Mutant(  # a column left of the image let through
        "perception.py",
        "                    if 0.0 <= u < width and",
        "                    if u < width and",
        (PIPELINE_TESTS + "test_noisy_box_outside_the_image_is_lost",),
    ),
    Mutant(  # the 1 px cap as min(v - 1.0, v2), which drops a NaN top row
        "perception.py",
        "                    if top < v2:\n",
        "                    if not v2 < top:\n",
        (PIPELINE_TESTS + "test_noisy_box_outside_the_image_is_lost",),
    ),
    Mutant(
        "perception.py",
        "            width, height, height if height > width else width,",
        "            width, height, width,",
        (PERCEPTION_TESTS + "test_cap_only_on_lost_ticks_changes_no_output",),
    ),
    Mutant(
        "perception.py",
        "                if not cap > 1.0:\n",
        "                if False:\n",
        (PERCEPTION_TESTS + "test_cap_only_on_lost_ticks_changes_no_output",),
    ),
    Mutant(  # max(cap, 1.0) flipped for NaN
        "perception.py",
        "                if not cap > 1.0:\n",
        "                if 1.0 > cap:\n",
        (PERCEPTION_TESTS + "test_cap_only_on_lost_ticks_changes_no_output",),
        equivalent="the cap is never NaN: the image sides are > 0 and the last box's half"
        " height is finite and > 0 (its check), so the cap is finite or +inf",
    ),
    Mutant(  # min(scale, cap) flipped for NaN
        "perception.py",
        "                if cap < scale:\n",
        "                if not scale <= cap:\n",
        (PERCEPTION_TESTS + "test_cap_only_on_lost_ticks_changes_no_output",),
        equivalent="the scale is never NaN: RecoveryState rejects a NaN region_scale and"
        " RecoveryPolicy.step_s is the constant 0.5",
    ),
    Mutant(
        "runlog.py",
        '        if len(row) != len(COLUMNS):\n            raise ValueError(f"expected',
        '        if False:\n            raise ValueError(f"expected',
        (RUNLOG_TESTS + "TestTimeSeriesLog::test_row_length_checked",),
    ),
    Mutant(
        "runlog.py",
        "        self._values.fromlist(row)",
        "        self._values.extend(row)",
        (RUNLOG_TESTS + "TestTimeSeriesLog::test_append_takes_a_list_and_keeps_no_part_of_a_bad_row",),
    ),
    Mutant(  # max(alpha, -alpha_max) with its arguments swapped
        "simworld.py",
        "    if -alpha_max > alpha:\n",
        "    if not alpha > -alpha_max:\n",
        (WORLD_TESTS + "TestIntegrate::test_clamp_edges_equal_min_max",),
    ),
    Mutant(  # min(beta, beta_max) with its arguments swapped
        "simworld.py",
        "    if beta_max < beta:\n",
        "    if not beta < beta_max:\n",
        (WORLD_TESTS + "TestIntegrate::test_clamp_edges_equal_min_max",),
    ),
    Mutant(  # a NaN or -0.0 elapsed time let through
        "simworld.py",
        "        dt = dt if dt > 0.0 else 0.0",
        "        dt = dt if not dt < 0.0 else 0.0",
        (WORLD_TESTS + "TestTrajectories::test_line_equals_builtin_max",),
    ),
    Mutant(  # a -0.0 elapsed time let through
        "simworld.py",
        "(elapsed if elapsed > 0.0 else 0.0)",
        "(elapsed if elapsed >= 0.0 else 0.0)",
        (WORLD_TESTS + "TestTrajectories::test_waypoints_equal_a_per_call_scan",),
    ),
    Mutant(  # a builtin min back in a per-tick function
        "runner.py",
        "        if beta_max < beta:\n            beta = beta_max\n",
        "        beta = min(beta, beta_max)\n",
        ("tests/test_hot_path.py::test_per_tick_function_calls_no_builtin_min_or_max",),
    ),
    Mutant(  # a wrong minor
        "controller.py",
        "        m_bc, m_af, m_cf = b * c - a * d, a * f - b * e, c * f - d * e",
        "        m_bc, m_af, m_cf = b * c - a * d, a * f - b * e, c * f - d * b",
        ("tests/test_controller.py::TestFusedStep",),
    ),
    Mutant(  # two minors swapped in the determinant
        "controller.py",
        "        den = m_bc * o3 * l2 + m_af * o2 * l1 - m_cf * o1 * l1",
        "        den = m_bc * o3 * l2 + m_cf * o2 * l1 - m_af * o1 * l1",
        ("tests/test_controller.py::TestFusedStep",),
    ),
    # the run log as a leaf module; section rules raise ConfigError; the
    # flow-nesting bound of scenario files
    Mutant(  # summarize measuring against the default limits, not the given ones
        "runlog.py",
        "for c in (s.v_max, s.omega_r_max, s.omega_alpha_max, s.omega_beta_max)",
        "for c in (1.2, 1.0, 1.5, 1.5)",
        (RUNLOG_TESTS + "TestSummarize::test_saturation_duty_from_columns",),
    ),
    # feasible scenes: the head-top row inside the image, a reference the image
    # can hold; the summary's correctly rounded mean
    Mutant(
        "simworld.py",
        "0.0 <= v2 < v < k.height",
        "v2 < v < k.height",
        (WORLD_TESTS + "TestRenderMeasurement::test_head_top_above_image_gives_none",),
    ),
    Mutant(
        "config.py",
        "if self.gains.target_half_height >= self.intrinsics.v0:",
        "if self.gains.target_half_height > self.intrinsics.v0:",
        (
            CONFIG_TESTS
            + "test_reference_the_image_cannot_hold_rejected_naming_both_fields[240.0-240.0]",
        ),
    ),
    Mutant(
        "runlog.py",
        "        total = math.fsum(values)",
        "        total = sum(values)",
        (RUNLOG_TESTS + "test_mean_is_the_correctly_rounded_sum_over_the_count",),
    ),
    Mutant(
        "runlog.py",
        "from array import array\n",
        "import csv\nfrom array import array\n",
        ("tests/test_import_path.py::test_preset_run_loads_neither_numpy_nor_yaml",),
    ),
    Mutant(
        "perception.py",
        'raise ConfigError("sigma_px: must be >= 0")',
        'raise ValueError("sigma_px: must be >= 0")',
        (CONFIG_TESTS + "test_section_rule_in_code_is_a_config_error[sigma_px]",),
    ),
    Mutant(
        "config.py",
        "            if self.flow_level >= MAX_FLOW_DEPTH:",
        "            if self.flow_level > MAX_FLOW_DEPTH:",
        (CONFIG_TESTS + "TestParseConfig::test_deep_nesting_is_a_config_error[one-line]",),
    ),
    Mutant(
        "config.py",
        "            if self.flow_level >= MAX_FLOW_DEPTH:",
        "            if self.flow_level >= MAX_FLOW_DEPTH - 1:",
        (CONFIG_TESTS + "TestParseConfig::test_flow_nesting_up_to_the_bound_is_read",),
    ),
    # configs the loop cannot follow; YAML 1.2 exponent floats
    Mutant(
        "config.py",
        "            if k * self.dt >= 2.0:",
        "            if k * self.dt > 2.0:",
        (
            CONFIG_TESTS
            + "test_gain_the_time_step_cannot_follow_rejected_naming_both_fields[k1-4.0-0.5]",
        ),
    ),
    Mutant(
        "config.py",
        "        if self.joints.alpha_max < DEADBAND_HALF_WIDTH:",
        "        if self.joints.alpha_max <= DEADBAND_HALF_WIDTH:",
        (CONFIG_TESTS + "test_pan_limit_at_the_yaw_deadband_accepted[0.5235987755982988]",),
    ),
    Mutant(
        "config.py",
        "    Loader.add_implicit_resolver(\n",
        "    (lambda *args: None)(\n",
        (CONFIG_TESTS + "test_exponent_floats_are_read_as_in_yaml_1_2",),
    ),
    Mutant(
        "config.py",
        "[eE][-+]?[0-9]+$",
        "[eE][-+][0-9]+$",
        (CONFIG_TESTS + "test_exponent_floats_are_read_as_in_yaml_1_2",),
    ),
    # a path the system cannot read; a circle angle past the float range
    Mutant(
        "config.py",
        "    except OSError as exc:",
        "    except FileNotFoundError as exc:",
        (CONFIG_TESTS + "TestCli::test_path_the_system_cannot_read_is_config_error",),
    ),
    Mutant(
        "config.py",
        "abs(traj.rate) * self.duration + abs(traj.phase)",
        "abs(traj.rate) * self.duration",
        (CIRCLE_RULE_TESTS + "[1e+308-1e+308-1.0]",),
    ),
    Mutant(
        "config.py",
        "abs(traj.rate) * self.duration + abs(traj.phase)",
        "traj.rate * self.duration + abs(traj.phase)",
        (CIRCLE_RULE_TESTS + "[-1e+308--1e+308-1.0]",),
    ),
    # the step's inline clamps and its constants bound at construction; a NaN
    # denominator held in the step and in control_law; the joint-limit check
    # reading the loop's plain pair
    Mutant(  # a clamp sign
        "controller.py",
        "                omega_beta = wbm if omega_beta > 0.0 else -wbm",
        "                omega_beta = wbm if omega_beta > 0.0 else wbm",
        ("tests/test_controller.py::TestInlineSaturation",),
    ),
    Mutant(
        "controller.py",
        "k.alpha_x / k.alpha_y, k.alpha_y * k.alpha_y,",
        "k.alpha_x / k.alpha_y, k.alpha_x * k.alpha_y,",
        ("tests/test_controller.py::TestFusedStep::test_step_equals_the_plain_composition",),
    ),
    Mutant(
        "controller.py",
        "        if not self._eps_den < abs(den) < inf:  # a NaN or infinite denominator too",
        "        if abs(den) <= self._eps_den:",
        (
            "tests/test_controller.py::TestFusedStep::test_nan_denominator_holds_in_both_forms",
            CONFIG_TESTS + "test_float_maximum_focal_length_runs_to_finite_commands_and_pose",
        ),
    ),
    Mutant(
        "controller.py",
        "    if not eps_den < abs(den) < math.inf:  # a NaN or infinite denominator too",
        "    if abs(den) <= eps_den:",
        ("tests/test_controller.py::TestFusedStep::test_nan_denominator_holds_in_both_forms",),
    ),
    # an infinite solve denominator let through, in the step and in its plain form
    Mutant(
        "controller.py",
        "        if not self._eps_den < abs(den) < inf:",
        "        if not self._eps_den < abs(den):",
        (
            "tests/test_controller.py::TestFusedStep::test_infinite_denominator_holds_in_both_forms",
            CONFIG_TESTS + "test_overflowing_focal_length_runs_to_finite_commands_and_pose",
        ),
    ),
    Mutant(
        "controller.py",
        "    if not eps_den < abs(den) < math.inf:",
        "    if not eps_den < abs(den):",
        ("tests/test_controller.py::TestFusedStep::test_infinite_denominator_holds_in_both_forms",),
    ),
    Mutant(
        "geometry.py",
        '''        for name, value, limit in zip(("alpha", "beta"), angles, (self.alpha_max, self.beta_max)):\n''',
        '''        for name, limit in (("alpha", self.alpha_max), ("beta", self.beta_max)):\n'''
        "            value = getattr(angles, name)\n",
        ("tests/test_geometry.py::TestRotation::test_joint_limits_check_reads_the_pair_by_position",),
    ),
    # the runner's inline world step: the heading wrap, a pan clamp, the
    # heading's sine and cosine, the head-top row's image test
    Mutant(
        "runner.py",
        "            theta += two_pi\n",
        "            theta -= two_pi\n",
        (WORLD_STEP_TESTS + "[turn-past-pi]",),
    ),
    Mutant(  # the lower pan stop tested on the upper side
        "runner.py",
        "        if -alpha_max > alpha:\n",
        "        if -alpha_max > -alpha:\n",
        (WORLD_STEP_TESTS + "[turn-past-pi]",),
    ),
    Mutant(
        "runner.py",
        "        y += v_r * st * dt\n",
        "        y += v_r * ct * dt\n",
        (WORLD_STEP_TESTS + "[circle-sim]",),
    ),
    Mutant(
        "runner.py",
        "0.0 <= v2 < v < height",
        "v2 < v < height",
        (WORLD_STEP_TESTS + "[approach]",),
    ),
    # a walk past the float range: a circle's extent, a waypoint segment, a line
    Mutant(
        "simworld.py",
        " and math.isfinite(abs(cy) + r)",
        "",
        (CONFIG_TESTS + "test_circle_past_the_float_range_rejected_naming_its_radius[center1-1e+308]",),
    ),
    Mutant(
        "simworld.py",
        "            if not math.isfinite(seg):",
        "            if seg != seg:",
        (
            CONFIG_TESTS
            + "test_waypoint_segment_past_the_float_range_rejected_naming_its_point[points0-1-inf]",
        ),
    ),
    Mutant(
        "config.py",
        "            walk = self.duration + max(0.0, -traj.delay)",
        "            walk = self.duration",
        (
            CONFIG_TESTS
            + "test_line_past_the_float_range_rejected_naming_its_velocity[start2-velocity2--2.0-0.5]",
        ),
    ),
]


def run_tests(src: Path, tests) -> int:
    """pytest's exit code for ``tests`` run against the package in ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    command += ["--hypothesis-profile", "mutants"]
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
            killed = code in (1, 2)  # a test failed, or collection did (the copy does not import)
            if mutant.equivalent:
                verdict = "KILLED, recorded as equivalent" if killed else "equivalent"
                print(f"{verdict} {label} (pytest exit {code}): {mutant.equivalent}")
                bad += killed
            elif killed:
                print(f"killed    {label} (pytest exit {code})")
            else:
                print(f"SURVIVED  {label} (pytest exit {code})")
                bad += 1
    print(f"{len(MUTANTS)} mutants, {bad} wrong, {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
