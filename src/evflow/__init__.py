"""Planar vehicle velocity from downward-facing event-camera optical flow.

Event streams are accumulated into per-polarity count histograms, dense
optical flow between consecutive histograms feeds a RANSAC-guarded 2D
rigid-motion least-squares fit, and the pixel-space solution is converted
to metric velocity at the rear axle.  A contrast-threshold event-camera
simulator over procedural ground textures supplies ground truth for
end-to-end verification.
"""

from .errors import (ConfigError, DegenerateConsensusError, EvaluationError,
                     EventBoundsError, EventOrderError, EvflowError,
                     InputFormatError, InsufficientDataError, OutputError)
from .events import (AccumulationConfig, CameraModel, EventFrame, EVENT_DTYPE,
                     accumulate, iter_frames, make_events, max_exposure_for_blur,
                     relative_motion_blur, to_intensity, validate_events)
from .flow import FlowField, FlowParams, PolyExpansion, compute_flow, \
    polynomial_expansion, subsample_flow
from .rigid import (AxisMapping, CameraVelocity, EstimateQuality, RansacParams,
                    RigidMotion2D, estimate_rigid, ransac_estimate,
                    reconstruct_flow, to_camera_velocity)
from .vehicle import (Extrinsics, ImuSeries, VelocityEstimate,
                      substitute_imu_yaw, transform_to_axle)
from .synth import (CheckerTexture, DotTexture, NoiseTexture, SimConfig,
                    SimState, Trajectory, generate_events, inject_outliers,
                    render_plane, sample_texture)
from .config import RunConfig, Scenario
from .pipeline import (PairResult, PipelineResult, StageTimings, process_frame_pair,
                       run_pipeline)
from .evaluate import ChannelMetrics, EvalReport, evaluate

__version__ = "0.1.0"
