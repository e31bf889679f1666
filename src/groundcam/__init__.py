"""Monocular ground-plane localization toolkit.

Calibrates a fixed forward-looking camera, maps detector bounding boxes to
ground-contact pixels, back-projects them onto the carpet, and scores the
resulting positions against ground truth.
"""

from .evaluation import (
    EvalPair,
    bucket_by_distance,
    build_report,
    compare_sources,
    error_stats,
    rmse,
)
from .extrinsics import (
    FieldGeometry,
    PnpCorrespondence,
    field_landmarks,
    reprojection_report,
    solve_pnp,
)
from .geometry import (
    CameraIntrinsics,
    CameraPose,
    Distortion,
    EulerAngles,
    PixelPoint,
    WorldPoint,
    camera_center,
    euler_from_pose,
    pose_from_euler,
    project,
    undistort,
)
from .intrinsics import (
    CalibrationSolution,
    PlanarView,
    calibrate_intrinsics,
    estimate_homography,
    extrinsics_from_homography,
    refine_calibration,
    zhang_closed_form,
)
from .optim import (
    LeastSquaresProblem,
    LmResult,
    levenberg_marquardt,
    linear_least_squares,
    numeric_jacobian,
)
from .pipeline import (
    Detection,
    FrameConvention,
    LocalizedObject,
    UnlocalizableDetection,
    bearing,
    ingest_detections,
    localize_batch,
)
from .regression import (
    BoundingBox,
    GroundRegressor,
    RegressionSample,
    bottom_center_regressor,
    fit,
)
from .scene import SceneConfig, SyntheticScene, generate_scene

__version__ = "0.1.0"

__all__ = [
    "BoundingBox",
    "CalibrationSolution",
    "CameraIntrinsics",
    "CameraPose",
    "Detection",
    "Distortion",
    "EulerAngles",
    "EvalPair",
    "FieldGeometry",
    "FrameConvention",
    "GroundRegressor",
    "LeastSquaresProblem",
    "LmResult",
    "LocalizedObject",
    "PixelPoint",
    "PlanarView",
    "PnpCorrespondence",
    "RegressionSample",
    "SceneConfig",
    "SyntheticScene",
    "UnlocalizableDetection",
    "WorldPoint",
    "bearing",
    "bottom_center_regressor",
    "bucket_by_distance",
    "build_report",
    "calibrate_intrinsics",
    "camera_center",
    "compare_sources",
    "error_stats",
    "estimate_homography",
    "euler_from_pose",
    "extrinsics_from_homography",
    "field_landmarks",
    "fit",
    "generate_scene",
    "ingest_detections",
    "levenberg_marquardt",
    "linear_least_squares",
    "localize_batch",
    "numeric_jacobian",
    "pose_from_euler",
    "project",
    "refine_calibration",
    "reprojection_report",
    "rmse",
    "solve_pnp",
    "undistort",
    "zhang_closed_form",
]
