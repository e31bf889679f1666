"""Camera pose from hand-marked field landmarks.

The landmark catalog is generated from a field geometry description: origin
at field center, z up, +x toward the goal the camera defends during
calibration, left/right named as seen from the field center looking at that
goal. Landmark pixels are undistorted internally; the pose is initialized
from a planar homography when every world z coincides (the common
all-on-carpet case) or from a normalized 3x4 DLT for six or more points in
general position, then refined by `refine_calibration` with every intrinsic
held. The landmarks document's codec lives here too, beside the catalog it
names.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import files
from .geometry import CameraIntrinsics, CameraPose, Distortion, NonConvergence, PixelPoint
from .intrinsics import (
    extrinsics_from_homography,
    homography_from_points,
    normalized_dlt,
    refine_calibration,
)
from .pipeline import json_number, json_numbers, json_string
from .projection import (
    WorldPoint,
    camera_center,
    nearest_rotation,
    project_points,
    undistort,
)

COPLANAR_Z_TOL_MM = 1e-9
RESIDUAL_FLAG_FLOOR_PX = 1e-6
# The rows of K^-1 P have equal norms for a perspective camera, and the third
# vanishes for an affine one. From the normalized DLT on six off-plane marks
# and synth's camera, the third row's norm over the smaller of the other two
# read at most 1e-5 for exact affine images at 1e-5 to 10 px per mm, and at
# least 0.77 for perspective images with 20 px noise (200 draws) or taken
# from 100 times as far away.
AFFINE_ROW_RATIO = 1e-2


class FieldGeometry(NamedTuple):
    """Field dimensions in millimeters; all symmetric about the center."""

    field_length: float
    field_width: float
    goal_width: float
    goal_depth: float
    goal_height: float
    penalty_depth: float
    penalty_width: float

    @classmethod
    def division_b(cls) -> FieldGeometry:
        """Standard small-league division B dimensions."""
        return cls(
            field_length=9000.0,
            field_width=6000.0,
            goal_width=1000.0,
            goal_depth=180.0,
            goal_height=155.0,
            penalty_depth=1000.0,
            penalty_width=2000.0,
        )


class PnpCorrespondence(NamedTuple):
    """A marked pixel paired with its known world point."""

    pixel: PixelPoint
    world: WorldPoint
    name: str = ""


class ReprojectionReport(NamedTuple):
    """Per-point residual norms of a solved pose, with suspected mismarks flagged.

    norms is (n,) in pixels. A point is flagged when its norm exceeds three
    times the median norm (with a 1e-6 px floor so exact synthetic data never
    flags).
    """

    names: tuple[str, ...]
    norms: np.ndarray
    rmse_px: float
    flagged: tuple[int, ...]


def field_landmarks(geometry: FieldGeometry) -> dict[str, WorldPoint]:
    """World point of each calibration landmark by name; every z is 0 or the
    goal height.

    The +x ("near") goal carries the plain names; the mirrored -x copies are
    prefixed far_. Mirroring maps (x, y, z) to (-x, -y, z).
    """
    half_len = geometry.field_length / 2.0
    half_wid = geometry.field_width / 2.0
    half_goal = geometry.goal_width / 2.0
    half_pen = geometry.penalty_width / 2.0
    pen_x = half_len - geometry.penalty_depth
    gh = geometry.goal_height

    near = {
        "field_corner_left": (half_len, half_wid, 0.0),
        "field_corner_right": (half_len, -half_wid, 0.0),
        "goal_bottom_left_corner": (half_len, half_goal, 0.0),
        "goal_bottom_right_corner": (half_len, -half_goal, 0.0),
        "goal_bottom_center": (half_len, 0.0, 0.0),
        "goal_top_left_corner": (half_len, half_goal, gh),
        "goal_top_right_corner": (half_len, -half_goal, gh),
        "penalty_front_left_corner": (pen_x, half_pen, 0.0),
        "penalty_front_right_corner": (pen_x, -half_pen, 0.0),
        "penalty_goal_line_left_corner": (half_len, half_pen, 0.0),
        "penalty_goal_line_right_corner": (half_len, -half_pen, 0.0),
    }
    catalog = {name: WorldPoint(x, y, z) for name, (x, y, z) in near.items()}
    for name, (x, y, z) in near.items():
        catalog[f"far_{name}"] = WorldPoint(-x, -y, z)
    return catalog


def field_geometry_to_dict(g: FieldGeometry) -> dict:
    """Every FieldGeometry field under its name plus an _mm suffix."""
    return {f"{name}_mm": value for name, value in zip(g._fields, g)}


def field_geometry_from_dict(obj: dict) -> FieldGeometry:
    """Inverse of field_geometry_to_dict; raises ValueError for a dimension
    that is not a positive number or an area the field cannot hold."""
    g = FieldGeometry(
        *(json_number(obj[f"{name}_mm"], f"{name}_mm") for name in FieldGeometry._fields)
    )
    for name, value in zip(g._fields, g):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive, got {value}")
    if g.goal_width > g.field_width:
        raise ValueError("goal wider than the field")
    if g.penalty_width > g.field_width:
        raise ValueError("penalty area wider than the field")
    if g.penalty_depth > g.field_length / 2:
        raise ValueError("penalty area deeper than the half field")
    return g


def landmarks_to_dict(
    geometry: FieldGeometry,
    named: dict[str, PixelPoint],
    extra: list[PnpCorrespondence] | None = None,
) -> dict:
    return {
        "field_geometry": field_geometry_to_dict(geometry),
        "points": [
            {"name": name, "pixel": [px.u, px.v]} for name, px in named.items()
        ],
        "extra": [
            {
                "pixel": [c.pixel.u, c.pixel.v],
                "world": [c.world.x, c.world.y, c.world.z],
            }
            for c in (extra or [])
        ],
    }


def landmarks_from_dict(obj: dict) -> list[PnpCorrespondence]:
    """Each named pixel with its field_landmarks world point, then the extra
    points; an unknown or repeated name or a non-finite world point raises ValueError."""
    catalog = field_landmarks(field_geometry_from_dict(obj["field_geometry"]))
    named = {}
    for p in obj.get("points", []):
        name = json_string(p["name"], "name")
        if name not in catalog:
            raise ValueError(f"unknown landmark name: {name!r}")
        if name in named:
            raise ValueError(f"landmark {name!r} is marked twice")
        pixel = PixelPoint(*json_numbers(p["pixel"], 2, "pixel"))
        named[name] = PnpCorrespondence(pixel, catalog[name], name)
    extra = []
    for e in obj.get("extra", []):
        pixel = PixelPoint(*json_numbers(e["pixel"], 2, "pixel"))
        world = WorldPoint(*json_numbers(e["world"], 3, "world"))
        if not all(map(math.isfinite, world)):
            raise ValueError("world coordinates must be finite")
        extra.append(PnpCorrespondence(pixel, world))
    return [*named.values(), *extra]


def load_landmarks(path: Path) -> list[PnpCorrespondence]:
    return files._load_json(path, landmarks_from_dict)


def _pose_from_dlt(
    world: np.ndarray, pixels: np.ndarray, k: CameraIntrinsics
) -> CameraPose:
    p = normalized_dlt(world, pixels, "projection-matrix system is rank deficient")
    m = np.linalg.inv(k.matrix) @ p
    centroid = np.append(world.mean(axis=0), 1.0)
    if (m @ centroid)[2] < 0:
        m = -m
    norms = np.linalg.norm(m[:, :3], axis=1)
    if norms[2] <= AFFINE_ROW_RATIO * min(norms[0], norms[1]):
        raise ValueError("projection matrix has a vanishing rotation row")
    m = m / norms[2]
    r = nearest_rotation(m[:, :3])
    return CameraPose(r, m[:, 3])


# The solve fails on any non-finite residual, Jacobian or step, so numpy's
# overflow warnings on the way (from intrinsics far out of range, say) are
# only noise on stderr.
@np.errstate(over="ignore", invalid="ignore")
def solve_pnp(
    correspondences: list[PnpCorrespondence], k: CameraIntrinsics
) -> tuple[CameraPose, ReprojectionReport]:
    """Camera pose from marked landmarks, and its reprojection_report.

    Pixels are undistorted before solving, and the initial pose is refined
    by refine_calibration with every intrinsic held. Raises ValueError
    below four correspondences, for a mark the lens model cannot be inverted
    at (naming it, or "point <i>" for an unnamed one), for collinear world
    points, and when the layout fits neither the planar nor the
    general-position initializer, and when the solved camera center is not
    above the ground (z > 0), as for a mirror image of coplanar marks.
    There is no outlier rejection; suspect marks are flagged in the returned
    report instead.
    """
    n = len(correspondences)
    if n < 4:
        raise ValueError(f"need at least 4 correspondences, got {n}")
    world = np.array([[c.world.x, c.world.y, c.world.z] for c in correspondences])
    ideal = np.empty((n, 2))
    for i, c in enumerate(correspondences):
        try:
            ideal[i] = undistort(c.pixel, k)
        except NonConvergence as exc:
            raise ValueError(f"{c.name or f'point {i}'}: {exc}") from None
    k_ideal = k.with_distortion(Distortion())

    centered = world - world.mean(axis=0)
    spread = np.linalg.svd(centered, compute_uv=False)
    if spread[1] < 1e-10 * max(spread[0], 1.0):
        raise ValueError("world points are collinear")

    z_values = world[:, 2]
    if np.max(np.abs(z_values - z_values[0])) <= COPLANAR_Z_TOL_MM:
        h = homography_from_points(world[:, :2], ideal)
        pose0 = extrinsics_from_homography(k_ideal, h, plane_z=float(z_values[0]))
    elif n >= 6 and spread[2] > 1e-10 * spread[0]:
        pose0 = _pose_from_dlt(world, ideal, k_ideal)
    else:
        raise ValueError(
            "points span neither a constant-z plane nor (with >= 6 points) "
            "general position"
        )

    pose = refine_calibration([world], [ideal], k_ideal, [pose0], free=()).poses[0]
    height = camera_center(pose).z
    if not height > 0:
        raise ValueError(f"camera center at z = {height:.3f} mm, not above the ground")
    return pose, reprojection_report(pose, k, correspondences)


def reprojection_report(
    pose: CameraPose,
    k: CameraIntrinsics,
    correspondences: list[PnpCorrespondence],
) -> ReprojectionReport:
    """Residuals of marked pixels against full-model reprojections.

    The aggregate is the root mean square of the stacked u and v residuals;
    the per-point norms used for mismark flagging stay Euclidean.
    """
    world = np.array([[c.world.x, c.world.y, c.world.z] for c in correspondences])
    marked = np.array([[c.pixel.u, c.pixel.v] for c in correspondences])
    predicted = project_points(world, k, pose, clamp_depth=True)
    residuals = predicted - marked
    norms = np.linalg.norm(residuals, axis=1)
    rmse = math.sqrt(float(np.mean(residuals**2)))
    threshold = max(3.0 * float(np.median(norms)), RESIDUAL_FLAG_FLOOR_PX)
    flagged = tuple(int(i) for i in np.nonzero(norms > threshold)[0])
    names = tuple(c.name for c in correspondences)
    norms.setflags(write=False)
    return ReprojectionReport(
        names=names,
        norms=norms,
        rmse_px=rmse,
        flagged=flagged,
    )
