"""Synthetic scene generation for end-to-end validation.

A scene bundles everything the command-line pipeline consumes, all derived
from one known ground-truth calibration: chessboard views for intrinsic
calibration, landmark correspondences for pose solving, regression samples,
detection boxes, and the true positions to score against. With zero noise
the whole chain closes to numerical precision, which is the toolkit's main
correctness oracle.

Detection boxes are built around the true projected ground pixel so that the
exact generating map is the box's bottom center: half-width comes from the
object's perspective size at its center depth and the top edge from the
projected object-top row. Those two extents vary nonlinearly across the
field, which keeps the regression design matrix full rank while the ground
pixel stays exactly affine in the box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import files
from .extrinsics import FieldGeometry, field_landmarks
from .geometry import (
    CameraIntrinsics,
    CameraPose,
    GeometryError,
    PixelPoint,
    WorldPoint,
    ground_map,
    project,
    project_points,
    rotation_from_axis_angle,
)
from .intrinsics import PlanarView
from .pipeline import (
    Detection,
    FrameConvention,
    bearing,
    json_number,
    json_numbers,
    json_string,
)
from .regression import (
    KNOWN_CLASSES,
    BoundingBox,
    GroundRegressor,
    RegressionSample,
    bottom_center_regressor,
)
from .reference import (
    IMAGE_HEIGHT_PX,
    IMAGE_WIDTH_PX,
    reference_intrinsics,
    reference_pose,
)


class ConfigInvalid(ValueError):
    """Scene configuration cannot produce a valid scene."""


DEFAULT_LANDMARKS = (
    "goal_bottom_left_corner",
    "goal_bottom_right_corner",
    "goal_bottom_center",
    "penalty_front_left_corner",
    "penalty_front_right_corner",
)


def _default_geometry() -> FieldGeometry:
    # Small desk-scale field whose five default landmarks all sit inside the
    # reference camera's forward half space.
    return FieldGeometry(
        field_length=2000.0,
        field_width=1500.0,
        goal_width=800.0,
        goal_depth=180.0,
        goal_height=155.0,
        penalty_depth=500.0,
        penalty_width=1000.0,
    )


@dataclass(frozen=True)
class SceneConfig:
    """Everything the generator needs besides the seed."""

    intrinsics: CameraIntrinsics = field(default_factory=reference_intrinsics)
    pose: CameraPose = field(default_factory=reference_pose)
    image_width_px: int = IMAGE_WIDTH_PX
    image_height_px: int = IMAGE_HEIGHT_PX
    noise_px: float = 0.0
    grid_columns: int = 3
    grid_rows: int = 10
    grid_spacing_mm: float = 250.0
    grid_origin_mm: tuple[float, float] = (0.0, 0.0)
    object_label: str = "ball"
    object_radius_mm: float = 21.35
    object_height_mm: float = 42.7
    num_views: int = 20
    pattern_cols: int = 9
    pattern_rows: int = 6
    square_size_mm: float = 25.0
    geometry: FieldGeometry = field(default_factory=_default_geometry)
    landmark_names: tuple[str, ...] = DEFAULT_LANDMARKS
    frame: FrameConvention = FrameConvention.CAMERA

    def __post_init__(self) -> None:
        if self.noise_px < 0 or not math.isfinite(self.noise_px):
            raise ConfigInvalid(f"noise_px must be >= 0, got {self.noise_px}")
        if self.grid_columns < 1 or self.grid_rows < 1:
            raise ConfigInvalid("grid must have at least one column and row")
        if self.grid_spacing_mm <= 0:
            raise ConfigInvalid("grid spacing must be positive")
        if self.object_label not in KNOWN_CLASSES:
            raise ConfigInvalid(f"unsupported object class {self.object_label!r}")
        if self.object_radius_mm <= 0 or self.object_height_mm <= 0:
            raise ConfigInvalid("object dimensions must be positive")
        if self.num_views < 0 or self.pattern_cols < 2 or self.pattern_rows < 2:
            raise ConfigInvalid("pattern configuration out of range")
        if self.square_size_mm <= 0:
            raise ConfigInvalid("square size must be positive")
        if self.image_width_px < 2 or self.image_height_px < 2:
            raise ConfigInvalid("image dimensions out of range")
        catalog = field_landmarks(self.geometry)
        for name in self.landmark_names:
            if name not in catalog:
                raise ConfigInvalid(f"unknown landmark name {name!r}")

    @property
    def grid_points(self) -> list[WorldPoint]:
        """Field-frame ground contact points, column-major then row-major."""
        x0, y0 = self.grid_origin_mm
        points = []
        for j in range(self.grid_rows):
            for i in range(self.grid_columns):
                x = x0 + (i - (self.grid_columns - 1) / 2.0) * self.grid_spacing_mm
                y = y0 + j * self.grid_spacing_mm
                points.append(WorldPoint(x, y, 0.0))
        return points


def _integer(value) -> int:
    """A JSON integer; anything else, a bool or 3.0 included, raises ValueError."""
    if type(value) is not int:
        raise ValueError(f"value must be an integer, got {value!r}")
    return value


def _number(value) -> float:
    return json_number(value, "value")


def _pair(value) -> tuple[float, float]:
    x, y = json_numbers(value, 2, "value")
    return x, y


def _string(value) -> str:
    return json_string(value, "value")


def _strings(value) -> tuple[str, ...]:
    """A JSON array of strings; anything else raises ValueError."""
    if type(value) is not list:
        raise ValueError(f"value must be an array of strings, got {value!r}")
    return tuple(map(_string, value))


# The configuration document: (section, key, SceneConfig field, converter
# from JSON). Section None is the top level. The calibration, which fills
# two fields, and the ignored seed are handled apart.
_SCHEMA = (
    (None, "image_width_px", "image_width_px", _integer),
    (None, "image_height_px", "image_height_px", _integer),
    (None, "noise_px", "noise_px", _number),
    ("grid", "columns", "grid_columns", _integer),
    ("grid", "rows", "grid_rows", _integer),
    ("grid", "spacing_mm", "grid_spacing_mm", _number),
    ("grid", "origin_mm", "grid_origin_mm", _pair),
    ("object", "class", "object_label", _string),
    ("object", "radius_mm", "object_radius_mm", _number),
    ("object", "height_mm", "object_height_mm", _number),
    ("pattern", "views", "num_views", _integer),
    ("pattern", "cols", "pattern_cols", _integer),
    ("pattern", "rows", "pattern_rows", _integer),
    ("pattern", "square_size_mm", "square_size_mm", _number),
    (None, "field_geometry", "geometry", files.field_geometry_from_dict),
    (None, "landmarks", "landmark_names", _strings),
    (None, "frame", "frame", FrameConvention),
)
_SECTIONS = {
    section: {key for s, key, _, _ in _SCHEMA if s == section}
    for section, _, _, _ in _SCHEMA
    if section is not None
}


def _to_json(value):
    if isinstance(value, FieldGeometry):
        return files.field_geometry_to_dict(value)
    if isinstance(value, FrameConvention):
        return value.value
    return list(value) if isinstance(value, tuple) else value


def config_from_dict(obj: dict) -> SceneConfig:
    """Build a configuration from a JSON document, strictly validated.

    A "seed" key is tolerated and ignored so a generated config.json can be
    fed straight back in; the command line owns the seed.
    """
    if not isinstance(obj, dict):
        raise ConfigInvalid("configuration must be a JSON object")
    known = {"seed", "calibration", *_SECTIONS}
    known.update(key for section, key, _, _ in _SCHEMA if section is None)
    unknown = set(obj) - known
    if unknown:
        raise ConfigInvalid(f"unknown configuration keys: {sorted(unknown)}")
    for section, keys in _SECTIONS.items():
        doc = obj.get(section, {})
        if not isinstance(doc, dict):
            raise ConfigInvalid(f"{section} must be a JSON object")
        if set(doc) - keys:
            raise ConfigInvalid(f"unknown {section} keys: {sorted(set(doc) - keys)}")
    kwargs: dict = {}
    where = "calibration"
    try:
        if "calibration" in obj:
            k, pose = files.calibration_from_dict(obj["calibration"])
            if pose is None:
                raise ConfigInvalid("calibration has no pose")
            kwargs.update(intrinsics=k, pose=pose)
        for section, key, name, convert in _SCHEMA:
            doc = obj if section is None else obj.get(section, {})
            if key in doc:
                where = key if section is None else f"{section}.{key}"
                kwargs[name] = convert(doc[key])
    except ConfigInvalid:
        raise
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"bad configuration value {where}: {exc}") from exc
    return SceneConfig(**kwargs)


def config_to_dict(config: SceneConfig, seed: int) -> dict:
    doc = {
        "seed": seed,
        "calibration": files.calibration_to_dict(config.intrinsics, config.pose),
    }
    for section, key, name, _ in _SCHEMA:
        target = doc if section is None else doc.setdefault(section, {})
        target[key] = _to_json(getattr(config, name))
    return doc


@dataclass(frozen=True)
class SyntheticScene:
    """Generated data plus the paths it was written to."""

    config: SceneConfig
    seed: int
    out_dir: Path
    paths: dict[str, Path]
    views: tuple[PlanarView, ...]
    landmark_pixels: dict[str, PixelPoint]
    samples: tuple[RegressionSample, ...]
    detections: tuple[Detection, ...]
    truth: tuple[tuple[str, float, float, float], ...]
    regressor: GroundRegressor


def _pattern_grid(config: SceneConfig) -> np.ndarray:
    s = config.square_size_mm
    pts = [
        (i * s, j * s)
        for j in range(config.pattern_rows)
        for i in range(config.pattern_cols)
    ]
    return np.array(pts)


def _sample_views(
    config: SceneConfig, rng: np.random.Generator
) -> list[PlanarView]:
    pattern = _pattern_grid(config)
    world = np.column_stack([pattern, np.zeros(len(pattern))])
    board_center = np.append(pattern.mean(axis=0), 0.0)
    margin = 8.0
    views = []
    for index in range(config.num_views):
        placed = False
        for _ in range(500):
            rvec = rng.normal(0.0, 0.3, size=3)
            target = np.array(
                [
                    rng.uniform(-40.0, 40.0),
                    rng.uniform(-30.0, 30.0),
                    rng.uniform(350.0, 650.0),
                ]
            )
            rotation = rotation_from_axis_angle(rvec)
            translation = target - rotation @ board_center
            pose = CameraPose(rotation, translation)
            depths = world @ pose.rotation.T[:, 2] + pose.translation[2]
            if depths.min() < 100.0:
                continue
            pixels = project_points(world, config.intrinsics, pose)
            if (
                pixels[:, 0].min() < margin
                or pixels[:, 0].max() > config.image_width_px - margin
                or pixels[:, 1].min() < margin
                or pixels[:, 1].max() > config.image_height_px - margin
            ):
                continue
            noisy = pixels + rng.normal(0.0, config.noise_px, size=pixels.shape) \
                if config.noise_px > 0 else pixels
            views.append(
                PlanarView(
                    view_id=f"view{index:03d}", pixels=noisy, pattern=pattern
                )
            )
            placed = True
            break
        if not placed:
            raise ConfigInvalid(
                "could not place the calibration pattern fully in view; "
                "check the pattern and image dimensions"
            )
    return views


def _landmark_pixels(
    config: SceneConfig, rng: np.random.Generator
) -> dict[str, PixelPoint]:
    catalog = field_landmarks(config.geometry)
    out: dict[str, PixelPoint] = {}
    for name in config.landmark_names:
        try:
            px = project(catalog[name], config.intrinsics, config.pose)
        except GeometryError as exc:
            raise ConfigInvalid(
                f"landmark {name!r} is not visible from the configured pose: {exc}"
            ) from exc
        if config.noise_px > 0:
            px = PixelPoint(
                px.u + rng.normal(0.0, config.noise_px),
                px.v + rng.normal(0.0, config.noise_px),
            )
        out[name] = px
    return out


def _object_box(
    config: SceneConfig, contact: WorldPoint
) -> tuple[PixelPoint, BoundingBox]:
    """True ground pixel and the box whose bottom center lands exactly on it."""
    k, pose = config.intrinsics, config.pose
    ground = project(contact, k, pose)
    center = WorldPoint(contact.x, contact.y, config.object_height_mm / 2.0)
    center_cam = pose.rotation @ center.array + pose.translation
    if center_cam[2] <= 0:
        raise ConfigInvalid(
            f"object at ({contact.x}, {contact.y}) is behind the camera"
        )
    half_width = k.alpha_x * config.object_radius_mm / center_cam[2]
    top = project(
        WorldPoint(contact.x, contact.y, config.object_height_mm), k, pose
    )
    if top.v >= ground.v:
        raise ConfigInvalid(
            f"object at ({contact.x}, {contact.y}) projects upside down"
        )
    bbox = BoundingBox(
        xmin=ground.u - half_width,
        ymin=top.v,
        xmax=ground.u + half_width,
        ymax=ground.v,
    )
    return ground, bbox


def _noisy_box(
    bbox: BoundingBox, noise: float, rng: np.random.Generator
) -> BoundingBox:
    if noise <= 0:
        return bbox
    for _ in range(100):
        jitter = rng.normal(0.0, noise, size=4)
        try:
            return BoundingBox(
                bbox.xmin + jitter[0],
                bbox.ymin + jitter[1],
                bbox.xmax + jitter[2],
                bbox.ymax + jitter[3],
            )
        except ValueError:
            continue
    raise ConfigInvalid("noise level collapses detection boxes")


def generate_scene(
    config: SceneConfig, seed: int, out_dir: Path
) -> SyntheticScene:
    """Generate and write a scene; identical (config, seed) gives identical bytes."""
    rng = np.random.default_rng(seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    views = _sample_views(config, rng)
    landmark_pixels = _landmark_pixels(config, rng)

    samples: list[RegressionSample] = []
    detections: list[Detection] = []
    truth: list[tuple[str, float, float, float]] = []
    frame_width = max(3, len(str(max(len(config.grid_points) - 1, 1))))
    ground_plane = ground_map(config.intrinsics, config.pose)
    for index, contact in enumerate(config.grid_points):
        ground, bbox = _object_box(config, contact)
        frame_id = f"p{index:0{frame_width}d}"

        if config.noise_px > 0:
            annotated = PixelPoint(
                ground.u + rng.normal(0.0, config.noise_px),
                ground.v + rng.normal(0.0, config.noise_px),
            )
        else:
            annotated = ground
        samples.append(
            RegressionSample(
                label=config.object_label,
                bbox=_noisy_box(bbox, config.noise_px, rng),
                ground_pixel=annotated,
            )
        )
        detections.append(
            Detection(
                frame_id=frame_id,
                label=config.object_label,
                score=1.0,
                bbox=_noisy_box(bbox, config.noise_px, rng),
            )
        )
        if config.frame is FrameConvention.CAMERA:
            x, y = ground_plane.camera_frame(contact.x, contact.y)
        else:
            x, y = contact.x, contact.y
        try:
            theta = bearing(x, y)
        except ValueError as exc:
            raise ConfigInvalid(
                f"grid point ({contact.x}, {contact.y}) sits on the "
                f"{config.frame.value}-frame origin and has no bearing"
            ) from exc
        truth.append((frame_id, x, y, theta))

    regressor = bottom_center_regressor((config.object_label,))

    paths = {
        "config": out_dir / "config.json",
        "calibration": out_dir / "calibration.json",
        "views": out_dir / "views.json",
        "landmarks": out_dir / "landmarks.json",
        "samples": out_dir / "regression.jsonl",
        "model": out_dir / "model.json",
        "detections": out_dir / "detections.jsonl",
        "truth": out_dir / "truth.csv",
    }
    documents = {
        "config": config_to_dict(config, seed),
        "calibration": files.calibration_to_dict(config.intrinsics, config.pose),
        "views": files.views_to_dict(views, config.square_size_mm),
        "landmarks": files.landmarks_to_dict(config.geometry, landmark_pixels),
        "model": files.model_to_dict(regressor),
    }
    for name, doc in documents.items():
        files.write_json(paths[name], doc)
    files.save_samples(paths["samples"], samples)
    with open(paths["detections"], "w") as f:
        for d in detections:
            f.write(files.detection_line(d.frame_id, d.label, d.score, d.bbox) + "\n")
    files.save_truth_csv(paths["truth"], truth)

    return SyntheticScene(
        config=config,
        seed=seed,
        out_dir=out_dir,
        paths=paths,
        views=tuple(views),
        landmark_pixels=landmark_pixels,
        samples=tuple(samples),
        detections=tuple(detections),
        truth=tuple(truth),
        regressor=regressor,
    )
