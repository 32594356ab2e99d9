"""Scenario configuration: presets, YAML loading, strict validation.

A scenario file is one YAML mapping whose keys are the field names of
:class:`ScenarioConfig`; each section's keys are the field names of its
dataclass (``trajectory`` the class its ``kind`` picks from
:data:`TRAJECTORIES`).  The tracker scores, the failure-recovery numbers
of :class:`perception.RecoveryPolicy` and the loop's coefficient block
``ScenarioConfig.mode`` are constants, not keys.  :func:`load_config` reads
the file with :mod:`ptfollow.scenario_text`, a strict reader of the YAML
subset scenario files use (it rejects any other form, and a key given twice
in one mapping), imported only then, so a preset run never loads it.  This
module only walks the mappings: it rejects unknown keys, dispatches on
``trajectory.kind`` and prefixes the section to an error.  Each value is
checked by the dataclass that holds it, so a config built in code and one read
from a file meet the same rules: ``geometry.check_fields`` checks every field
by its annotation (one validator per annotation, ``geometry.FIELD_CHECKS``;
numbers must be finite, and a ``PositiveFloat`` or ``PositiveInt`` > 0), then
the dataclass checks its other rules, such as ``0 <= u0 < width``.  An omitted
key keeps the dataclass default, and ``null`` is a value exactly where code
takes ``None``: ``body.body_center_height``, ``gains.lambda1`` and
``gains.lambda2``, each then derived from the body model as when the key is
omitted.  Every error reads ``<key path>: <reason>``.  Two exceptions:
``robot_start`` and ``initial_angles`` are mappings of named numbers
(``{x, y, theta}`` and the fields of :class:`PanTiltAngles`), and the derived
values follow the body model: ``body.body_center_height`` is half of
``head_height``, and :class:`ScenarioConfig` alone resolves the lambdas
against its ``body`` (see :func:`signed_lambdas`), for a config built in code
as for one read from a file.

Three presets ship built in:

``circle-sim``
    The person walks a 0.4 m circle around (0.5, 0.5) at 1 rad/s, the robot
    starts 4.5 m behind it facing it, half-height reference 100 px.
``indoor``
    Close-following configuration: half-height reference 200 px with the
    published inverse-offset constants (5 and 0.91), the person 2.5 m ahead.
``outdoor``
    Same constants with half-height reference 120 px.

The published references, 500 and 300 px, are scaled by 0.4 to fit the
480-row image: a zero-error box has its head top at row ``v0 - H``, which
must be in the image (``ScenarioConfig`` rejects ``H >= v0``).  Every preset
starts with the whole box in view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any

from .controller import DEADBAND_HALF_WIDTH, ControllerGains, SaturationLimits
from .geometry import FIELD_CHECKS, BodyModel, CameraIntrinsics, ConfigError, JointLimitError
from .geometry import JointLimits, PanTiltAngles, PositiveFloat, check_fields
from .perception import NoiseModel, RecoveryPolicy
from .simworld import (
    CircleTrajectory,
    LineTrajectory,
    TargetTrajectory,
    WaypointTrajectory,
)


# Longest run accepted, in ticks: 5.5 hours of simulated time at the default
# 20 ms tick, 66x the longest shipped scenario (15000 ticks).  The in-memory log
# holds 19 float64 values per tick, 152 B, so the cap keeps it at about 156 MB
# (with the array's growth margin) and the loop under a minute; without it a
# tiny ``dt`` (``--dt 1e-9`` is 6e10 ticks) runs for weeks until memory runs out.
MAX_TICKS = 1_000_000

# Deepest a scenario file may nest flow collections ([...], {...}) and, apart
# from them, block collections (by indentation); ``scenario_text`` reads each
# level by recursion, so the two bounds keep it well inside Python's limit.
MAX_FLOW_DEPTH = 100
MAX_BLOCK_DEPTH = 100


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a run needs; fully validated on construction."""

    mode = "re-derived"  # the loop's coefficient block: a constant, not a field
    recovery = RecoveryPolicy  # the failure-recovery constants, not a section

    name: str = "custom"
    intrinsics: CameraIntrinsics = field(default_factory=CameraIntrinsics)
    body: BodyModel = field(default_factory=BodyModel)
    gains: ControllerGains = field(default_factory=ControllerGains)
    saturation: SaturationLimits = field(default_factory=SaturationLimits)
    joints: JointLimits = field(default_factory=JointLimits)
    trajectory: TargetTrajectory = field(default_factory=CircleTrajectory)
    noise: NoiseModel = field(default_factory=NoiseModel)
    robot_start: tuple[float, float, float] = (0.0, 0.0, 0.0)
    initial_angles: PanTiltAngles = PanTiltAngles()
    dt: PositiveFloat = 0.02
    duration: float = 60.0
    seed: int = 0  # not a float: random.Random seeds NaN from a per-process hash

    def __post_init__(self) -> None:
        check_fields(self)
        # the one place the lambdas are resolved: None derives them from the
        # body, a value is a magnitude that takes the body's sign
        l1, l2 = signed_lambdas(self.body, self.gains.lambda1, self.gains.lambda2)
        object.__setattr__(self, "gains", replace(self.gains, lambda1=l1, lambda2=l2))
        if not (self.duration >= 0 and math.isfinite(self.duration / self.dt)):
            raise ConfigError(
                f"duration: must be a finite number >= 0 and a finite number of dt steps,"
                f" got {self.duration!r} at dt {self.dt!r}"
            )
        # math.cos of an angle rate * t + phase past the float range raises
        traj = self.trajectory
        if isinstance(traj, CircleTrajectory) and not math.isfinite(
            abs(traj.rate) * self.duration + abs(traj.phase)
        ):
            raise ConfigError(
                f"trajectory.rate: |rate| * duration + |phase| must be finite, got rate"
                f" {traj.rate!r} and phase {traj.phase!r} at duration {self.duration!r}"
            )
        # a line walks for at most duration - delay seconds (a negative delay
        # extrapolates back from the start), each axis within this bound
        if isinstance(traj, LineTrajectory):
            walk = self.duration + max(0.0, -traj.delay)
            if not all(
                math.isfinite(abs(s) + abs(v) * walk) for s, v in zip(traj.start, traj.velocity)
            ):
                raise ConfigError(
                    f"trajectory.velocity: |start| + |velocity| * (duration + max(0, -delay))"
                    f" must be finite on each axis, got start {list(traj.start)}, velocity"
                    f" {list(traj.velocity)} and delay {traj.delay!r} at duration"
                    f" {self.duration!r}"
                )
        if self.n_ticks > MAX_TICKS:
            raise ConfigError(
                f"duration: {self.duration!r} s at dt {self.dt!r} s is {self.n_ticks} ticks,"
                f" above the cap of {MAX_TICKS} ticks (duration / dt)"
            )
        # a zero-error box has its head top at row v0 - target_half_height
        if self.gains.target_half_height >= self.intrinsics.v0:
            raise ConfigError(
                f"gains.target_half_height: must be below intrinsics.v0"
                f" ({self.intrinsics.v0!r} px), got {self.gains.target_half_height!r}"
            )
        # an Euler step of de/dt = -k e maps e to (1 - k dt) e, which
        # overshoots past zero for k dt > 1 and diverges for k dt > 2
        for name in ("k1", "k2", "k3"):
            k = getattr(self.gains, name)
            if k * self.dt >= 2.0:
                raise ConfigError(
                    f"gains.{name}: {name} * dt must be below 2, got {k!r} at dt {self.dt!r}"
                )
        # the base turns only while the pan is past the deadband, so a pan
        # limit inside it leaves the base still and the person walks out of view
        if self.joints.alpha_max < DEADBAND_HALF_WIDTH:
            raise ConfigError(
                f"joints.alpha_max: must be at least controller.DEADBAND_HALF_WIDTH"
                f" ({DEADBAND_HALF_WIDTH!r} rad), got {self.joints.alpha_max!r}"
            )
        try:
            self.joints.check(self.initial_angles)
        except JointLimitError as exc:
            raise ConfigError(f"initial_angles.{exc}") from None
        if self.seed < 0:
            raise ConfigError(f"seed: must be an integer >= 0, got {self.seed!r}")

    @property
    def n_ticks(self) -> int:
        return int(round(self.duration / self.dt))


def signed_lambdas(
    body: BodyModel, lambda1: float | None, lambda2: float | None
) -> tuple[float, float]:
    """Resolve the inverse-offset gains for a body model.

    ``None`` derives the exact value from the body geometry.  Explicit values
    are treated as magnitudes (the usual way they are quoted) and get the
    sign the geometry dictates: negative for points above the camera.
    """
    if body.offset_body == 0.0:  # lambda1 would be 1 / 0
        raise ConfigError("body.camera_height: must differ from body_center_height")
    exact1, exact2 = body.lambda1, body.lambda2
    out1 = exact1 if lambda1 is None else math.copysign(abs(lambda1), exact1)
    out2 = exact2 if lambda2 is None else math.copysign(abs(lambda2), exact2)
    return out1, out2


def _mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path or '<root>'}: expected a mapping, got {value!r}")
    return dict(value)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _keys(value: Any, path: str, names) -> dict:
    """The items of the mapping ``value`` whose keys are in ``names``; any
    other key is an error."""
    given = _mapping(value, path)
    items = {name: given.pop(name) for name in names if name in given}
    if given:
        raise ConfigError(f"unknown key '{_join(path, next(iter(given)))}'")
    return items


def _build(cls: type, value: Any, path: str) -> Any:
    """``cls`` built from the mapping ``value``, whose keys are the names of its
    fields; the field a dataclass check names gets the section path."""
    kwargs = _keys(value, path, [f.name for f in fields(cls)])
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from exc


TRAJECTORIES = {
    "circle": CircleTrajectory,
    "line": LineTrajectory,
    "waypoints": WaypointTrajectory,
}


def _trajectory(value: Any) -> TargetTrajectory:
    given = _mapping(value, "trajectory")
    kind = given.pop("kind", None)
    cls = TRAJECTORIES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"trajectory.kind: expected one of {list(TRAJECTORIES)}, got {kind!r}")
    return _build(cls, given, "trajectory")


def parse_config(data: dict, name: str | None = None) -> ScenarioConfig:
    """Build a validated :class:`ScenarioConfig` from a nested mapping.

    ``name`` is used unless the mapping sets its own.  Only the mapping walk
    is done here; each value is checked by the dataclass that holds it.
    """
    root = _mapping(data, "")
    values: dict[str, Any] = {} if name is None else {"name": name}
    for f in fields(ScenarioConfig):
        if f.name not in root:
            continue
        value = root.pop(f.name)
        check = FIELD_CHECKS.get(f.type)
        names = getattr(check, "names", None)
        if f.name == "trajectory":
            values[f.name] = _trajectory(value)
        elif check is None:  # a section, as check_fields tells one
            values[f.name] = _build(f.default_factory, value, f.name)
        elif names is not None:  # a mapping of named numbers, such as {x, y, theta}
            given = _keys(value, f.name, names)
            values[f.name] = tuple(given.get(n, d) for n, d in zip(names, f.default))
        else:
            values[f.name] = value
    _keys(root, "", ())  # any key left is unknown
    return ScenarioConfig(**values)


def preset_circle_sim() -> ScenarioConfig:
    return parse_config(
        {
            "trajectory": {"kind": "circle", "center": [0.5, 0.5], "radius": 0.4, "rate": 1.0},
            "gains": {"target_half_height": 100.0},
            # 4.5 m behind the person's start (0.1, 0.5), facing it: the whole
            # box is in view and at the reference height from the first tick
            "robot_start": {"x": -4.4, "y": 0.5, "theta": 0.0},
        },
        name="circle-sim",
    )


def preset_indoor() -> ScenarioConfig:
    return parse_config(
        {
            "trajectory": {"kind": "line", "start": [2.5, 0.0], "velocity": [0.1, 0.0]},
            "gains": {"lambda1": 5.0, "lambda2": 0.91, "target_half_height": 200.0},
            "duration": 30.0,
        },
        name="indoor",
    )


def preset_outdoor() -> ScenarioConfig:
    return parse_config(
        {
            "trajectory": {"kind": "line", "start": [3.0, 0.0], "velocity": [0.2, 0.05]},
            "gains": {"lambda1": 5.0, "lambda2": 0.91, "target_half_height": 120.0},
            "duration": 30.0,
        },
        name="outdoor",
    )


PRESETS = {
    "circle-sim": preset_circle_sim,
    "indoor": preset_indoor,
    "outdoor": preset_outdoor,
}


def load_config(path: str | Path) -> ScenarioConfig:
    """Load and validate a scenario file.

    Raises:
        ConfigError: missing file, a path the system cannot read (a name
            too long or a directory, say), text outside the YAML subset that
            :mod:`ptfollow.scenario_text` reads (undecodable bytes and too
            deep a nesting too), a key given twice in one mapping, unknown
            keys, or any violated field invariant (the message names the
            field).
    """
    from .scenario_text import read  # only scenario files need it; presets do not

    path = Path(path)
    try:
        if not path.is_file():  # a directory, a FIFO or a device is never read
            if path.exists():
                raise ConfigError(f"{path}: cannot read scenario file: not a regular file")
            raise ConfigError(f"scenario file not found: {path}")
        raw = path.read_bytes()
    except OSError as exc:  # a name too long, say, or a file not readable
        raise ConfigError(f"{path}: cannot read scenario file: {exc.strerror}") from exc
    data = read(raw, str(path))
    return parse_config({} if data is None else data, name=path.stem)


def resolve_scenario(arg: str) -> ScenarioConfig:
    """Interpret a CLI scenario argument as a preset name or a file path."""
    if arg in PRESETS:
        return PRESETS[arg]()
    return load_config(arg)
