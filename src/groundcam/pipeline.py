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
from typing import NamedTuple

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


class _Detection(NamedTuple):
    frame_id: str
    label: str
    score: float
    bbox: BoundingBox


class Detection(_Detection):
    """One detector output tied to a frame identifier.

    The score is checked to lie in [0, 1] on construction; _make and
    _replace skip the check.
    """

    __slots__ = ()

    def __new__(
        cls, frame_id: str, label: str, score: float, bbox: BoundingBox
    ) -> Detection:
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {score}")
        return tuple.__new__(cls, (frame_id, label, score, bbox))


class _LocalizedObject(NamedTuple):
    frame_id: str
    label: str
    x_mm: float
    y_mm: float
    theta_deg: float
    ground_pixel: PixelPoint


class LocalizedObject(_LocalizedObject):
    """A detection placed on the carpet, with its bearing.

    theta_deg is checked to lie in (-180, 180] on construction; _make and
    _replace skip the check.
    """

    __slots__ = ()

    def __new__(
        cls,
        frame_id: str,
        label: str,
        x_mm: float,
        y_mm: float,
        theta_deg: float,
        ground_pixel: PixelPoint,
    ) -> LocalizedObject:
        if not -180.0 < theta_deg <= 180.0:
            raise ValueError(f"theta {theta_deg} outside (-180, 180]")
        return tuple.__new__(
            cls, (frame_id, label, x_mm, y_mm, theta_deg, ground_pixel)
        )


class UnlocalizableDetection(NamedTuple):
    """A detection the pipeline could not place, with the reason attached.

    Nothing is checked on construction, so _make and _replace build the
    same records the constructor does.
    """

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


def json_number(value, what: str) -> float:
    """A number json.loads returned, as a float; anything else, a bool
    included, raises ValueError naming what."""
    if type(value) is not float and type(value) is not int:
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} must be a float-sized number") from None


def json_numbers(value, count: int, what: str) -> list[float]:
    """A JSON array of count numbers, as floats; anything else raises
    ValueError naming what."""
    if type(value) is not list or len(value) != count:
        raise ValueError(f"{what} must be an array of {count} numbers, got {value!r}")
    return [json_number(v, what) for v in value]


def json_string(value, what: str) -> str:
    """A string json.loads returned; anything else raises ValueError naming what."""
    if type(value) is not str:
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


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


_decode = json.JSONDecoder().raw_decode


def _frame_id(value) -> str:
    """A frame id json.loads returned: a string as is, an integer (not a
    bool) as its decimal text; anything else raises ValueError."""
    if type(value) is str:
        return value
    if type(value) is int:
        return str(value)
    raise ValueError(f"frame must be a string or an integer, got {value!r}")


def ingest_detections(
    lines,
    min_score: float = 0.5,
) -> IngestResult:
    """Parse detection JSONL lines, dropping low scores.

    Malformed lines, including a frame that is not a string or an integer, a
    class that is not a string, a bbox that is not an array of 4 numbers or a
    score that is not a number, are skipped and reported as diagnostics with
    their line numbers; blank lines are skipped silently. Input order is
    preserved.
    """
    detections: list[Detection] = []
    diagnostics: list[str] = []
    for number, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            obj, end = _decode(text)
            if end != len(text):
                # Trailing data: json.loads reports it at json's own offset.
                obj = json.loads(text)
            bbox = BoundingBox(*json_numbers(obj["bbox"], 4, "bbox"))
            frame_id = _frame_id(obj["frame"])
            label = json_string(obj["class"], "class")
            detection = Detection(
                frame_id, label, json_number(obj["score"], "score"), bbox
            )
        except (KeyError, TypeError, ValueError) as exc:
            diagnostics.append(f"line {number}: {exc}")
            continue
        if label not in KNOWN_CLASSES:
            diagnostics.append(f"line {number}: unknown class {label!r}")
            continue
        if detection.score < min_score:
            continue
        detections.append(detection)
    return IngestResult(
        detections=tuple(detections), diagnostics=tuple(diagnostics)
    )
