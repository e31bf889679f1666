"""Detection-to-position pipeline.

A detection box becomes a ground-contact pixel through the class regressor,
the pixel is undistorted and back-projected onto the carpet, and the result
is reported either in the field frame or relative to the camera. Bearings
follow the convention theta = atan2(x, y): forward is +y, positive angles
swing toward +x (the camera's right), range (-180, 180].
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

from .geometry import (
    CameraIntrinsics,
    CameraPose,
    NonConvergence,
    PixelPoint,
    PointNotOnGround,
    RayParallelToPlane,
    WorldPoint,
    back_project_to_plane,
    camera_center,
    undistort,
)
from .regression import KNOWN_CLASSES, BoundingBox, GroundRegressor, UnknownClass, predict


class PipelineError(ValueError):
    """Base class for pipeline failure modes."""


class UndefinedBearing(PipelineError):
    """Bearing requested for the exact frame origin."""


class FrameConvention(str, enum.Enum):
    """Output frame for positions: the shared field frame or camera relative."""

    FIELD = "field"
    CAMERA = "camera"


@dataclass(frozen=True, slots=True)
class Detection:
    """One detector output tied to a frame identifier."""

    frame_id: str
    label: str
    score: float
    bbox: BoundingBox

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")


@dataclass(frozen=True, slots=True)
class LocalizedObject:
    frame_id: str
    label: str
    x_mm: float
    y_mm: float
    theta_deg: float
    ground_pixel: PixelPoint

    def __post_init__(self) -> None:
        if not -180.0 < self.theta_deg <= 180.0:
            raise ValueError(f"theta {self.theta_deg} outside (-180, 180]")


@dataclass(frozen=True, slots=True)
class UnlocalizableDetection:
    """A detection the pipeline could not place, with the reason attached."""

    frame_id: str
    label: str
    reason: str
    ground_pixel: PixelPoint | None = None


@dataclass(frozen=True)
class IngestResult:
    detections: tuple[Detection, ...]
    diagnostics: tuple[str, ...]


def bearing(x: float, y: float) -> float:
    """Bearing of (lateral x, forward y) in degrees, (-180, 180].

    Raises UndefinedBearing at the exact origin.
    """
    if x == 0.0 and y == 0.0:
        raise UndefinedBearing("bearing undefined at the frame origin")
    theta = math.degrees(math.atan2(x, y))
    if theta <= -180.0:
        theta += 360.0
    return theta


def frame_convert(p: WorldPoint, pose: CameraPose) -> tuple[float, float]:
    """Field-frame point to camera-relative ground coordinates.

    Translates by the camera center's ground projection and rotates by the
    camera's yaw, so +y points along the camera's forward ground direction
    and +x to its right. The z coordinate is discarded.
    """
    center = camera_center(pose)
    forward = pose.rotation[2, :]
    yaw = math.atan2(forward[0], forward[1])
    dx = p.x - center.x
    dy = p.y - center.y
    cos_yaw, sin_yaw = math.cos(yaw), math.sin(yaw)
    x_rel = dx * cos_yaw - dy * sin_yaw
    y_rel = dx * sin_yaw + dy * cos_yaw
    return x_rel, y_rel


_REASON_SLUGS = {
    UnknownClass: "unknown-class",
    NonConvergence: "undistort-nonconvergence",
    RayParallelToPlane: "ray-parallel-to-plane",
    PointNotOnGround: "point-not-on-ground",
    UndefinedBearing: "undefined-bearing",
}


def localize(
    detection: Detection,
    regressor: GroundRegressor,
    k: CameraIntrinsics,
    pose: CameraPose,
    convention: FrameConvention = FrameConvention.FIELD,
) -> LocalizedObject | UnlocalizableDetection:
    """Place one detection on the carpet, or explain why it cannot be placed.

    Never raises for the expected failure modes (unknown class, horizon or
    above-horizon pixels, undistortion failure, origin bearing); those come
    back as UnlocalizableDetection with a reason slug.
    """
    ground_pixel: PixelPoint | None = None
    try:
        ground_pixel = predict(regressor, detection.label, detection.bbox)
        ideal = undistort(ground_pixel, k)
        spot = back_project_to_plane(ideal, k, pose, plane_z=0.0)
        if convention is FrameConvention.CAMERA:
            x, y = frame_convert(spot, pose)
        else:
            x, y = spot.x, spot.y
        theta = bearing(x, y)
    except tuple(_REASON_SLUGS) as exc:
        slug = next(s for cls, s in _REASON_SLUGS.items() if isinstance(exc, cls))
        return UnlocalizableDetection(
            frame_id=detection.frame_id,
            label=detection.label,
            reason=slug,
            ground_pixel=ground_pixel,
        )
    return LocalizedObject(
        frame_id=detection.frame_id,
        label=detection.label,
        x_mm=x,
        y_mm=y,
        theta_deg=theta,
        ground_pixel=ground_pixel,
    )


def localize_batch(
    detections: list[Detection],
    regressor: GroundRegressor,
    k: CameraIntrinsics,
    pose: CameraPose,
    convention: FrameConvention = FrameConvention.FIELD,
) -> list[LocalizedObject | UnlocalizableDetection]:
    """Localize a batch, preserving input order."""
    return [localize(d, regressor, k, pose, convention) for d in detections]


def ingest_detections(
    lines,
    min_score: float = 0.5,
) -> IngestResult:
    """Parse detection JSONL lines, dropping low scores.

    Malformed lines are skipped and reported as diagnostics with their line
    numbers; blank lines are skipped silently. Input order is preserved.
    """
    detections: list[Detection] = []
    diagnostics: list[str] = []
    for number, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            obj = json.loads(text)
            bbox = BoundingBox(*(float(v) for v in obj["bbox"]))
            detection = Detection(
                frame_id=str(obj["frame"]),
                label=str(obj["class"]),
                score=float(obj["score"]),
                bbox=bbox,
            )
        except (KeyError, TypeError, ValueError) as exc:
            diagnostics.append(f"line {number}: {exc}")
            continue
        if detection.label not in KNOWN_CLASSES:
            diagnostics.append(
                f"line {number}: unknown class {detection.label!r}"
            )
            continue
        if detection.score < min_score:
            continue
        detections.append(detection)
    return IngestResult(
        detections=tuple(detections), diagnostics=tuple(diagnostics)
    )
