"""Camera pose from hand-marked field landmarks.

The landmark catalog is generated from a field geometry description: origin
at field center, z up, +x toward the goal the camera defends during
calibration, left/right named as seen from the field center looking at that
goal. Landmark pixels are undistorted internally; the pose is initialized
from a planar homography when every world z coincides (the common
all-on-carpet case) or from a 3x4 DLT for six or more points in general
position, then refined over the six pose parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .geometry import (
    CameraIntrinsics,
    CameraPose,
    Distortion,
    PixelPoint,
    WorldPoint,
    axis_angle_from_rotation,
    intrinsic_vector,
    nearest_rotation,
    project_points,
    project_views,
    rotation_from_axis_angle,
    undistort,
)
from .intrinsics import (
    DegenerateConfiguration,
    extrinsics_from_homography,
    homography_from_points,
)
from .optim import LeastSquaresProblem, levenberg_marquardt

COPLANAR_Z_TOL_MM = 1e-9
RESIDUAL_FLAG_FLOOR_PX = 1e-6


class PnpError(ValueError):
    """Base class for pose-solving failure modes."""


class InsufficientPoints(PnpError):
    """Fewer correspondences than the minimal configuration."""


class NoInitialization(PnpError):
    """Points span neither a constant-z plane nor general position."""


@dataclass(frozen=True, slots=True)
class FieldGeometry:
    """Field dimensions in millimeters; all symmetric about the center."""

    field_length: float
    field_width: float
    goal_width: float
    goal_depth: float
    goal_height: float
    penalty_depth: float
    penalty_width: float

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{f.name} must be positive, got {value}")
        if self.goal_width > self.field_width:
            raise ValueError("goal wider than the field")
        if self.penalty_width > self.field_width:
            raise ValueError("penalty area wider than the field")
        if self.penalty_depth > self.field_length / 2:
            raise ValueError("penalty area deeper than the half field")

    @classmethod
    def division_b(cls) -> "FieldGeometry":
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


@dataclass(frozen=True, slots=True)
class PnpCorrespondence:
    """A marked pixel paired with its known world point."""

    pixel: PixelPoint
    world: WorldPoint
    name: str = ""


@dataclass(frozen=True, eq=False)
class ReprojectionReport:
    """Per-point residuals of a solved pose, with suspected mismarks flagged.

    residuals is (n, 2) in pixels, norms (n,). A point is flagged when its
    norm exceeds three times the median norm (with a 1e-6 px floor so exact
    synthetic data never flags).
    """

    names: tuple[str, ...]
    residuals: np.ndarray
    norms: np.ndarray
    rmse_px: float | None
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


def _pose_from_dlt(
    world: np.ndarray, pixels: np.ndarray, k: CameraIntrinsics
) -> CameraPose:
    n = world.shape[0]
    rows = np.zeros((2 * n, 12))
    wh = np.column_stack([world, np.ones(n)])
    rows[0::2, 0:4] = wh
    rows[0::2, 8:12] = -pixels[:, 0:1] * wh
    rows[1::2, 4:8] = wh
    rows[1::2, 8:12] = -pixels[:, 1:2] * wh
    _, s, vt = np.linalg.svd(rows)
    if s[10] < 1e-10 * s[0]:
        raise NoInitialization("projection-matrix system is rank deficient")
    p = vt[-1].reshape(3, 4)
    m = np.linalg.inv(k.matrix) @ p
    centroid = np.append(world.mean(axis=0), 1.0)
    if (m @ centroid)[2] < 0:
        m = -m
    scale = np.linalg.norm(m[2, :3])
    if scale < 1e-15:
        raise NoInitialization("projection matrix has a vanishing rotation row")
    m = m / scale
    r = nearest_rotation(m[:, :3])
    return CameraPose(r, m[:, 3])


def pose_problem(
    world: np.ndarray, pixels: np.ndarray, k: CameraIntrinsics
) -> LeastSquaresProblem:
    """Reprojection error of world points (n, 3) against pixels (n, 2) over
    x = (axis-angle rotation, translation), intrinsics held fixed, with the
    closed-form Jacobian of project_views."""
    n = world.shape[0]
    intrinsics = intrinsic_vector(k)
    stacked = world[None]

    def residual(x: np.ndarray) -> np.ndarray:
        projected, _, _ = project_views(intrinsics, x[None, :3], x[None, 3:], stacked)
        return (projected[0] - pixels).ravel()

    def jacobian(x: np.ndarray) -> np.ndarray:
        _, _, d_pose = project_views(
            intrinsics, x[None, :3], x[None, 3:], stacked, with_jacobian=True
        )
        return d_pose[0].reshape(2 * n, 6)

    return LeastSquaresProblem(
        residual=residual, n_params=6, n_residuals=2 * n, jacobian=jacobian
    )


def solve_pnp(
    correspondences: list[PnpCorrespondence], k: CameraIntrinsics
) -> tuple[CameraPose, ReprojectionReport]:
    """Camera pose from marked landmarks, and its reprojection_report.

    Pixels are undistorted before solving, and the initial pose is refined
    over pose_problem. Raises InsufficientPoints below four correspondences,
    DegenerateConfiguration for collinear world points, and NoInitialization
    when the layout fits neither the planar nor the general-position
    initializer. There is no outlier rejection; suspect marks are flagged in
    the returned report instead.
    """
    n = len(correspondences)
    if n < 4:
        raise InsufficientPoints(f"need at least 4 correspondences, got {n}")
    world = np.array([[c.world.x, c.world.y, c.world.z] for c in correspondences])
    undistorted = [undistort(c.pixel, k) for c in correspondences]
    ideal = np.array([[p.u, p.v] for p in undistorted])
    k_ideal = k.with_distortion(Distortion())

    centered = world - world.mean(axis=0)
    spread = np.linalg.svd(centered, compute_uv=False)
    if spread[1] < 1e-10 * max(spread[0], 1.0):
        raise DegenerateConfiguration("world points are collinear")

    z_values = world[:, 2]
    if np.max(np.abs(z_values - z_values[0])) <= COPLANAR_Z_TOL_MM:
        h = homography_from_points(world[:, :2], ideal)
        pose0 = extrinsics_from_homography(k_ideal, h, plane_z=float(z_values[0]))
    elif n >= 6 and spread[2] > 1e-10 * spread[0]:
        pose0 = _pose_from_dlt(world, ideal, k_ideal)
    else:
        raise NoInitialization(
            "points span neither a constant-z plane nor (with >= 6 points) "
            "general position"
        )

    x0 = np.concatenate(
        [axis_angle_from_rotation(pose0.rotation), pose0.translation]
    )
    problem = pose_problem(world, ideal, k_ideal)
    result = levenberg_marquardt(problem, x0)
    pose = CameraPose(rotation_from_axis_angle(result.x[:3]), result.x[3:])
    return pose, reprojection_report(pose, k, correspondences)


def reprojection_report(
    pose: CameraPose,
    k: CameraIntrinsics,
    correspondences: list[PnpCorrespondence],
) -> ReprojectionReport:
    """Residuals of marked pixels against full-model reprojections.

    The aggregate is the root mean square of the stacked u and v residuals;
    the per-point norms used for mismark flagging stay Euclidean. An empty
    correspondence list yields an empty report with rmse None.
    """
    if not correspondences:
        return ReprojectionReport(
            names=(),
            residuals=np.zeros((0, 2)),
            norms=np.zeros(0),
            rmse_px=None,
            flagged=(),
        )
    world = np.array([[c.world.x, c.world.y, c.world.z] for c in correspondences])
    marked = np.array([[c.pixel.u, c.pixel.v] for c in correspondences])
    predicted = project_points(world, k, pose, clamp_depth=True)
    residuals = predicted - marked
    norms = np.linalg.norm(residuals, axis=1)
    rmse = math.sqrt(float(np.mean(residuals**2)))
    threshold = max(3.0 * float(np.median(norms)), RESIDUAL_FLAG_FLOOR_PX)
    flagged = tuple(int(i) for i in np.nonzero(norms > threshold)[0])
    names = tuple(c.name for c in correspondences)
    residuals.setflags(write=False)
    norms.setflags(write=False)
    return ReprojectionReport(
        names=names,
        residuals=residuals,
        norms=norms,
        rmse_px=rmse,
        flagged=flagged,
    )
