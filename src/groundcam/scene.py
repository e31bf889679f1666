"""Synthetic scene generation for end-to-end validation.

A scene bundles everything the command-line pipeline consumes, all derived
from one known ground-truth calibration: chessboard views for intrinsic
calibration, ground marks for pose solving, regression samples,
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
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import files
from .evaluation import save_truth_csv
from .extrinsics import FieldGeometry, PnpCorrespondence, landmarks_to_dict
from .geometry import (
    CameraIntrinsics,
    CameraPose,
    NonConvergence,
    PixelPoint,
    PointBehindCamera,
    PointNotOnGround,
    RayParallelToPlane,
    WorldPoint,
    ground_map,
)
from .intrinsics import PlanarView, views_to_dict
from .pipeline import (
    Detection,
    FrameConvention,
    bearing,
    json_number,
    json_numbers,
    json_string,
)
from .projection import project, project_points, rotation_from_axis_angle
from .regression import (
    KNOWN_CLASSES,
    BoundingBox,
    ClassModel,
    RegressionSample,
    bottom_center_regressor,
)
from .reference import (
    IMAGE_HEIGHT_PX,
    IMAGE_WIDTH_PX,
    reference_intrinsics,
    reference_pose,
)


# The most grid points (columns x rows) and board points (views x cols x
# rows) a configuration may ask for. On a 2-CPU Xeon a grid point costs
# about 0.2 ms and a board point about 20 us and 2 kB of memory, so the
# largest scene generates in under half a minute and a few hundred MB.
MAX_GRID_POINTS = 100_000
MAX_BOARD_POINTS = 100_000

# The pixels synth marks on the ground, as fractions of the image width and
# height: every column on every row, 16 in all.
MARK_COLUMNS = (0.05, 0.35, 0.65, 0.95)
MARK_ROWS = (0.25, 0.5, 0.75, 0.95)

# The small desk-scale field landmarks.json names, since its reader requires
# one; synth marks no named landmark, so no mark depends on it.
DEFAULT_GEOMETRY = FieldGeometry(
    field_length=2000.0,
    field_width=1500.0,
    goal_width=800.0,
    goal_depth=180.0,
    goal_height=155.0,
    penalty_depth=500.0,
    penalty_width=1000.0,
)


class SceneConfig(NamedTuple):
    """Everything the generator needs besides the seed, unchecked:
    config_from_dict checks a configuration document."""

    intrinsics: CameraIntrinsics = reference_intrinsics()
    pose: CameraPose = reference_pose()
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
    frame: FrameConvention = FrameConvention.CAMERA

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
    (None, "frame", "frame", FrameConvention),
)
_SECTIONS = {
    section: {key for s, key, _, _ in _SCHEMA if s == section}
    for section, _, _, _ in _SCHEMA
    if section is not None
}


def _to_json(value):
    if isinstance(value, FrameConvention):
        return value.value
    return list(value) if isinstance(value, tuple) else value


def config_from_dict(obj: dict) -> SceneConfig:
    """Build a configuration from a JSON document, strictly validated.

    A "seed" key is tolerated and ignored so a generated config.json can be
    fed straight back in; the command line owns the seed.
    """
    if not isinstance(obj, dict):
        raise ValueError("configuration must be a JSON object")
    known = {"seed", "calibration", *_SECTIONS}
    known.update(key for section, key, _, _ in _SCHEMA if section is None)
    unknown = set(obj) - known
    if unknown:
        raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
    for section, keys in _SECTIONS.items():
        doc = obj.get(section, {})
        if not isinstance(doc, dict):
            raise ValueError(f"{section} must be a JSON object")
        if set(doc) - keys:
            raise ValueError(f"unknown {section} keys: {sorted(set(doc) - keys)}")
    kwargs: dict = {}
    if "calibration" in obj:
        with files._malformed("bad configuration value calibration"):
            k, pose = files.calibration_from_dict(obj["calibration"])
        if pose is None:
            raise ValueError("calibration has no pose")
        kwargs.update(intrinsics=k, pose=pose)
    for section, key, name, convert in _SCHEMA:
        doc = obj if section is None else obj.get(section, {})
        if key in doc:
            where = key if section is None else f"{section}.{key}"
            with files._malformed(f"bad configuration value {where}"):
                kwargs[name] = convert(doc[key])
    config = SceneConfig(**kwargs)
    if config.noise_px < 0 or not math.isfinite(config.noise_px):
        raise ValueError(f"noise_px must be >= 0, got {config.noise_px}")
    for name in (
        "grid_spacing_mm",
        "grid_origin_mm",
        "object_radius_mm",
        "object_height_mm",
        "square_size_mm",
    ):
        if not np.all(np.isfinite(getattr(config, name))):
            raise ValueError(f"{name} must be finite, got {getattr(config, name)}")
    if config.grid_columns < 1 or config.grid_rows < 1:
        raise ValueError("grid must have at least one column and row")
    if config.grid_spacing_mm <= 0:
        raise ValueError("grid spacing must be positive")
    if config.object_label not in KNOWN_CLASSES:
        raise ValueError(f"unsupported object class {config.object_label!r}")
    if config.object_radius_mm <= 0 or config.object_height_mm <= 0:
        raise ValueError("object dimensions must be positive")
    if config.num_views < 0 or config.pattern_cols < 2 or config.pattern_rows < 2:
        raise ValueError("pattern configuration out of range")
    if config.square_size_mm <= 0:
        raise ValueError("square size must be positive")
    if config.image_width_px < 2 or config.image_height_px < 2:
        raise ValueError("image dimensions out of range")
    count = config.grid_columns * config.grid_rows
    if count > MAX_GRID_POINTS:
        raise ValueError(
            f"grid.columns x grid.rows must be at most {MAX_GRID_POINTS}, got {count}"
        )
    count = config.num_views * config.pattern_cols * config.pattern_rows
    if count > MAX_BOARD_POINTS:
        raise ValueError(
            "pattern.views x pattern.cols x pattern.rows must be at most "
            f"{MAX_BOARD_POINTS}, got {count}"
        )
    # The grid's first and last points bound the others; only they are computed.
    x0, y0 = config.grid_origin_mm
    half = (config.grid_columns - 1) / 2.0 * config.grid_spacing_mm
    far = y0 + (config.grid_rows - 1) * config.grid_spacing_mm
    if not all(map(math.isfinite, (x0 - half, x0 + half, far))):
        raise ValueError("grid coordinates must be finite")
    return config


def config_to_dict(config: SceneConfig, seed: int) -> dict:
    doc = {
        "seed": seed,
        "calibration": files.calibration_to_dict(config.intrinsics, config.pose),
    }
    for section, key, name, _ in _SCHEMA:
        target = doc if section is None else doc.setdefault(section, {})
        target[key] = _to_json(getattr(config, name))
    return doc


class SyntheticScene(NamedTuple):
    """Generated data plus the paths it was written to."""

    config: SceneConfig
    paths: dict[str, Path]
    views: tuple[PlanarView, ...]
    marks: tuple[PnpCorrespondence, ...]
    samples: tuple[RegressionSample, ...]
    detections: tuple[Detection, ...]
    truth: tuple[tuple[str, float, float, float], ...]
    regressor: dict[str, ClassModel]


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
            raise ValueError(
                "could not place the calibration pattern fully in view; "
                "check the pattern and image dimensions"
            )
    return views


def _marks(
    config: SceneConfig, rng: np.random.Generator
) -> list[PnpCorrespondence]:
    """The ground point seen at each MARK_COLUMNS x MARK_ROWS pixel, marked
    at its exact projection plus noise; a pixel that sees no ground, or
    where the lens cannot be inverted, is skipped."""
    camera = ground_map(config.intrinsics, config.pose)
    marks, rows = [], []
    for row in MARK_ROWS:
        for column in MARK_COLUMNS:
            try:
                x, y = camera.locate(
                    column * config.image_width_px, row * config.image_height_px
                )
            except (PointNotOnGround, RayParallelToPlane, NonConvergence):
                continue
            world = WorldPoint(x, y, 0.0)
            px = project(world, config.intrinsics, config.pose)
            if config.noise_px > 0:
                px = PixelPoint(
                    px.u + rng.normal(0.0, config.noise_px),
                    px.v + rng.normal(0.0, config.noise_px),
                )
            marks.append(PnpCorrespondence(px, world))
            rows.append(row)
    # A pixel row sees one ground line, so two marks on each of two rows are
    # the fewest that hold four with no three on a line.
    if sum(rows.count(row) >= 2 for row in set(rows)) < 2:
        raise ValueError(
            f"the camera sees the ground at {len(marks)} of "
            f"{len(MARK_COLUMNS) * len(MARK_ROWS)} mark pixels; a pose needs "
            "2 on each of 2 rows"
        )
    return marks


def _object_box(
    config: SceneConfig, contact: WorldPoint
) -> tuple[PixelPoint, BoundingBox]:
    """True ground pixel and the box whose bottom center lands exactly on it;
    a ground pixel outside the image raises ValueError naming both."""
    k, pose = config.intrinsics, config.pose
    try:
        ground = project(contact, k, pose)
        top = project(
            WorldPoint(contact.x, contact.y, config.object_height_mm), k, pose
        )
    except PointBehindCamera as exc:
        raise ValueError(
            f"object at ({contact.x}, {contact.y}) is behind the camera"
        ) from exc
    # Depth is affine in height, so the center lies in front as both ends do.
    center = WorldPoint(contact.x, contact.y, config.object_height_mm / 2.0)
    center_cam = pose.rotation @ np.array(center) + pose.translation
    half_width = k.alpha_x * config.object_radius_mm / center_cam[2]
    if top.v >= ground.v:
        raise ValueError(
            f"object at ({contact.x}, {contact.y}) projects upside down"
        )
    width, height = config.image_width_px, config.image_height_px
    if not (0 <= ground.u <= width and 0 <= ground.v <= height):
        raise ValueError(
            f"grid point ({contact.x}, {contact.y}) touches the ground at pixel "
            f"({ground.u:.1f}, {ground.v:.1f}), outside the {width} x {height} image"
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
    raise ValueError("noise level collapses detection boxes")


# Every generated pose, pixel and box is checked finite where it is built, so
# numpy's overflow warnings on the way (from config numbers near float range)
# are only noise on stderr.
@np.errstate(over="ignore", invalid="ignore")
def generate_scene(
    config: SceneConfig, seed: int, out_dir: Path
) -> SyntheticScene:
    """Generate and write a scene; identical (config, seed) gives identical bytes."""
    rng = np.random.default_rng(seed)
    out_dir = Path(out_dir)

    views = _sample_views(config, rng)

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
            raise ValueError(
                f"grid point ({contact.x}, {contact.y}) sits on the "
                f"{config.frame.value}-frame origin and has no bearing"
            ) from exc
        truth.append((frame_id, x, y, theta))

    # Drawn after the grid's noise, so the grid's files do not depend on it.
    marks = _marks(config, rng)
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
        "views": views_to_dict(views, config.square_size_mm),
        "landmarks": landmarks_to_dict(DEFAULT_GEOMETRY, {}, marks),
        "model": files.model_to_dict(regressor),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, doc in documents.items():
        files.write_json(paths[name], doc)
    files.save_samples(paths["samples"], samples)
    with open(paths["detections"], "w") as f:
        for d in detections:
            f.write(files.detection_line(d.frame_id, d.label, d.score, d.bbox) + "\n")
    save_truth_csv(paths["truth"], truth)

    return SyntheticScene(
        config=config,
        paths=paths,
        views=tuple(views),
        marks=tuple(marks),
        samples=tuple(samples),
        detections=tuple(detections),
        truth=tuple(truth),
        regressor=regressor,
    )
