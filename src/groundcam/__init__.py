"""Monocular ground-plane localization toolkit.

Calibrates a fixed forward-looking camera, maps detector bounding boxes to
ground-contact pixels, back-projects them onto the carpet, and scores the
resulting positions against ground truth.

The public names below are imported from their module on first access, so a
process loads only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name under the module that defines it.
_EXPORTS = {
    "evaluation": (
        "EvalPair", "bucket_by_distance", "build_report", "compare_sources",
        "error_stats", "rmse",
    ),
    "extrinsics": (
        "FieldGeometry", "PnpCorrespondence", "field_landmarks", "reprojection_report",
        "solve_pnp",
    ),
    "geometry": (
        "CameraIntrinsics", "CameraPose", "Distortion", "EulerAngles", "PixelPoint",
        "WorldPoint", "camera_center", "euler_from_pose", "pose_from_euler", "project",
        "undistort",
    ),
    "intrinsics": (
        "CalibrationSolution", "PlanarView", "calibrate_intrinsics",
        "estimate_homography", "extrinsics_from_homography", "refine_calibration",
        "zhang_closed_form",
    ),
    "optim": (
        "LeastSquaresProblem", "LmResult", "levenberg_marquardt",
        "linear_least_squares", "numeric_jacobian",
    ),
    "pipeline": (
        "Detection", "FrameConvention", "LocalizedObject", "UnlocalizableDetection",
        "bearing", "ingest_detections", "localize_batch",
    ),
    "regression": (
        "BoundingBox", "GroundRegressor", "RegressionSample", "bottom_center_regressor",
        "fit",
    ),
    "scene": ("SceneConfig", "SyntheticScene", "generate_scene"),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
