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
    ground_map,
)
from .regression import KNOWN_CLASSES, BoundingBox, GroundRegressor


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


_REASON_SLUGS = {
    NonConvergence: "undistort-nonconvergence",
    RayParallelToPlane: "ray-parallel-to-plane",
    PointNotOnGround: "point-not-on-ground",
    UndefinedBearing: "undefined-bearing",
}


def localize_batch(
    detections: list[Detection],
    regressor: GroundRegressor,
    k: CameraIntrinsics,
    pose: CameraPose,
    convention: FrameConvention = FrameConvention.FIELD,
) -> list[LocalizedObject | UnlocalizableDetection]:
    """Place each detection on the carpet, or explain why it cannot be placed.

    The pose's ground map is built once; each detection then goes through
    its class's regressor and GroundMap.locate on plain floats, so a result
    does not depend on the batch it came in. Input order is preserved.
    Never raises for the expected failure modes (unknown class, horizon or
    above-horizon pixels, undistortion failure, origin bearing); those come
    back as UnlocalizableDetection with a reason slug.
    """
    ground = ground_map(k, pose)
    to_camera = convention is FrameConvention.CAMERA
    models = regressor.classes
    results: list[LocalizedObject | UnlocalizableDetection] = []
    for d in detections:
        model = models.get(d.label)
        if model is None:
            results.append(UnlocalizableDetection(d.frame_id, d.label, "unknown-class"))
            continue
        ground_pixel = PixelPoint(*model.ground_pixel(d.bbox))
        try:
            x, y = ground.locate(ground_pixel.u, ground_pixel.v)
            if to_camera:
                x, y = ground.camera_frame(x, y)
            theta = bearing(x, y)
        except tuple(_REASON_SLUGS) as exc:
            slug = next(s for cls, s in _REASON_SLUGS.items() if isinstance(exc, cls))
            results.append(
                UnlocalizableDetection(d.frame_id, d.label, slug, ground_pixel)
            )
            continue
        results.append(
            LocalizedObject(d.frame_id, d.label, x, y, theta, ground_pixel)
        )
    return results


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
