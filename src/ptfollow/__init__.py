"""Monocular pan-tilt person-following controller and simulator.

A depth-sensor-free follower: the controller keeps the tracked person box
centered in the image and its half height at a reference value, recovering
depth from the person's known height.  A deterministic kinematic simulator
closes the loop, including a simulated tracker with scripted occlusions and
a hysteretic failure-recovery state machine.
"""

from .config import (
    PRESETS,
    ConfigError,
    ScenarioConfig,
    load_config,
    parse_config,
    resolve_scenario,
    signed_lambdas,
)
from .controller import (
    BoxMeasurement,
    ControlCommand,
    ControllerGains,
    FollowController,
    ImageErrors,
    JacobianTerms,
    SaturationFlags,
    SaturationLimits,
    SingularConfigurationError,
    compute_errors,
    control_law,
    jacobian_discrepancy_report,
    jacobian_terms,
    predicted_error_rates,
    robot_angular_strategy,
)
from .geometry import (
    BehindCameraError,
    BodyModel,
    CameraIntrinsics,
    CameraPoint,
    JointLimitError,
    JointLimits,
    PanTiltAngles,
    project,
    world_to_camera,
)
from .perception import (
    DetectionGate,
    NoiseModel,
    PerceptionOutput,
    PerceptionPipeline,
    RecoveryPolicy,
    RecoveryState,
    gate_update,
    recovery_step,
    simulated_track,
)
from .runlog import RunSummary, TimeSeriesLog, summarize
from .runner import run_scenario, summarize_run
from .simworld import (
    CircleTrajectory,
    LineTrajectory,
    SimState,
    TargetTrajectory,
    WaypointTrajectory,
    integrate,
    render_measurement,
    target_position,
)

__version__ = "0.1.0"
