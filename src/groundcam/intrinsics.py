"""Planar-target intrinsic calibration.

Pipeline: normalized DLT homographies per view, closed-form recovery of the
calibration matrix from absolute-conic constraints, per-view extrinsics from
each homography, then a joint Levenberg-Marquardt refinement of intrinsics,
lens coefficients, and all view poses against total reprojection error, with
every view projected at once and a closed-form Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    CameraIntrinsics,
    CameraPose,
    Distortion,
    axis_angle_from_rotation,
    intrinsic_vector,
    nearest_rotation,
    project_views,
    rotation_from_axis_angle,
)
from .optim import LeastSquaresProblem, levenberg_marquardt


class CalibrationError(ValueError):
    """Base class for calibration failure modes."""


class DegenerateConfiguration(CalibrationError):
    """Point layout does not determine a unique homography."""


class InsufficientViews(CalibrationError):
    """Too few planar views for the closed-form intrinsic solution."""


class NonPositiveDefinite(CalibrationError):
    """Absolute-conic solution is not a valid camera (degenerate motions)."""


@dataclass(frozen=True, eq=False)
class PlanarView:
    """One photographed planar target: pixels (n, 2) against pattern xy (n, 2).

    Pattern coordinates are millimeters on the target plane (z = 0 implied).
    """

    view_id: str
    pixels: np.ndarray
    pattern: np.ndarray

    def __post_init__(self) -> None:
        px = np.array(self.pixels, dtype=float)
        pt = np.array(self.pattern, dtype=float)
        if px.ndim != 2 or px.shape[1] != 2 or px.shape != pt.shape:
            raise ValueError("pixels and pattern must both be (n, 2) arrays")
        if px.shape[0] < 4:
            raise ValueError("a planar view needs at least 4 correspondences")
        if not (np.all(np.isfinite(px)) and np.all(np.isfinite(pt))):
            raise ValueError("correspondences must be finite")
        if len(np.unique(pt, axis=0)) != pt.shape[0]:
            raise ValueError("pattern points must be distinct")
        px.setflags(write=False)
        pt.setflags(write=False)
        object.__setattr__(self, "pixels", px)
        object.__setattr__(self, "pattern", pt)

    def __len__(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True, eq=False)
class CalibrationSolution:
    """Intrinsics plus one target-to-camera pose per view and the pixel RMSE."""

    intrinsics: CameraIntrinsics
    poses: tuple[CameraPose, ...]
    rmse_px: float


def _normalization(points: np.ndarray) -> np.ndarray:
    """Similarity moving the centroid to the origin and mean distance to sqrt(2)."""
    centroid = points.mean(axis=0)
    distances = np.linalg.norm(points - centroid, axis=1)
    mean = distances.mean()
    scale = math.sqrt(2.0) / mean if mean > 0 else 1.0
    return np.array(
        [
            [scale, 0.0, -scale * centroid[0]],
            [0.0, scale, -scale * centroid[1]],
            [0.0, 0.0, 1.0],
        ]
    )


def homography_from_points(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """DLT homography mapping src (n, 2) to dst (n, 2), normalized, H33 = 1.

    Raises DegenerateConfiguration for fewer than 4 points or a layout whose
    constraint system keeps more than a one-dimensional null space (all points
    collinear, coincident, or otherwise rank deficient).
    """
    src = np.asarray(src, dtype=float).reshape(-1, 2)
    dst = np.asarray(dst, dtype=float).reshape(-1, 2)
    if src.shape[0] != dst.shape[0]:
        raise ValueError("correspondence counts differ")
    n = src.shape[0]
    if n < 4:
        raise DegenerateConfiguration(f"need at least 4 correspondences, got {n}")
    t_src = _normalization(src)
    t_dst = _normalization(dst)
    sh = np.column_stack([src, np.ones(n)]) @ t_src.T
    dh = np.column_stack([dst, np.ones(n)]) @ t_dst.T

    rows = np.zeros((2 * n, 9))
    rows[0::2, 0:3] = sh
    rows[0::2, 6:9] = -dh[:, 0:1] * sh
    rows[1::2, 3:6] = sh
    rows[1::2, 6:9] = -dh[:, 1:2] * sh
    _, s, vt = np.linalg.svd(rows)
    if s[7] < 1e-10 * s[0]:
        raise DegenerateConfiguration(
            "points do not determine a unique homography "
            f"(singular values {s[7]:.3g} and {s[8]:.3g} of {s[0]:.3g})"
        )
    h_norm = vt[-1].reshape(3, 3)
    h = np.linalg.inv(t_dst) @ h_norm @ t_src
    if abs(h[2, 2]) < 1e-12:
        raise DegenerateConfiguration("homography maps the origin to infinity")
    return h / h[2, 2]


def estimate_homography(view: PlanarView) -> np.ndarray:
    """Homography taking pattern xy coordinates to pixels for one view."""
    return homography_from_points(view.pattern, view.pixels)


def _vij(h: np.ndarray, i: int, j: int) -> np.ndarray:
    return np.array(
        [
            h[0, i] * h[0, j],
            h[0, i] * h[1, j] + h[1, i] * h[0, j],
            h[1, i] * h[1, j],
            h[2, i] * h[0, j] + h[0, i] * h[2, j],
            h[2, i] * h[1, j] + h[1, i] * h[2, j],
            h[2, i] * h[2, j],
        ]
    )


def zhang_closed_form(
    homographies: list[np.ndarray], assume_zero_skew: bool = False
) -> CameraIntrinsics:
    """Closed-form intrinsics from planar homographies, zero lens model.

    Each homography contributes the two absolute-conic constraints
    v12.b = 0 and (v11 - v22).b = 0. Needs three views in general
    orientation, or two when skew is pinned to zero. Raises
    NonPositiveDefinite when the constraints do not describe a physical
    camera (for example all views frontoparallel or pure translations).
    """
    needed = 2 if assume_zero_skew else 3
    if len(homographies) < needed:
        raise InsufficientViews(
            f"need at least {needed} views, got {len(homographies)}"
        )
    rows = []
    for h in homographies:
        h = np.asarray(h, dtype=float)
        if h.shape != (3, 3):
            raise ValueError(f"homography must be 3x3, got {h.shape}")
        rows.append(_vij(h, 0, 1))
        rows.append(_vij(h, 0, 0) - _vij(h, 1, 1))
    if assume_zero_skew:
        rows.append(np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0]))
    v = np.vstack(rows)
    _, s, vt = np.linalg.svd(v)
    if s[4] < 1e-10 * s[0]:
        raise NonPositiveDefinite(
            "view orientations are degenerate; the conic constraints keep "
            "a multi-dimensional null space"
        )
    b = vt[-1]
    b11, b12, b22, b13, b23, b33 = b
    if b11 < 0:
        b11, b12, b22, b13, b23, b33 = -b11, -b12, -b22, -b13, -b23, -b33
    denom = b11 * b22 - b12 * b12
    if b11 <= 0 or denom <= 0:
        raise NonPositiveDefinite("conic solution is not positive definite")
    v0 = (b12 * b13 - b11 * b23) / denom
    lam = b33 - (b13 * b13 + v0 * (b12 * b13 - b11 * b23)) / b11
    if lam <= 0:
        raise NonPositiveDefinite("conic solution yields a non-positive scale")
    alpha_x = math.sqrt(lam / b11)
    alpha_y = math.sqrt(lam * b11 / denom)
    gamma = -b12 * alpha_x * alpha_x * alpha_y / lam
    u0 = gamma * v0 / alpha_y - b13 * alpha_x * alpha_x / lam
    if assume_zero_skew:
        gamma = 0.0
    return CameraIntrinsics(alpha_x, alpha_y, u0, v0, gamma)


def extrinsics_from_homography(
    k: CameraIntrinsics, h: np.ndarray, plane_z: float = 0.0
) -> CameraPose:
    """Pose of the plane z = plane_z from its homography.

    r1, r2 come from the scaled Kinv columns, r3 = r1 x r2, projected to the
    nearest rotation; the sign is chosen so the plane sits in front of the
    camera. The homography absorbs the plane offset, H ~ K [r1 r2 (t + z0 r3)],
    so the translation is corrected by -plane_z * r3.
    """
    h = np.asarray(h, dtype=float)
    kinv = np.linalg.inv(k.matrix)
    a1 = kinv @ h[:, 0]
    a2 = kinv @ h[:, 1]
    a3 = kinv @ h[:, 2]
    scale = 1.0 / np.linalg.norm(a1)
    r1, r2, t = scale * a1, scale * a2, scale * a3
    if t[2] < 0:
        r1, r2, t = -r1, -r2, -t
    r = nearest_rotation(np.column_stack([r1, r2, np.cross(r1, r2)]))
    return CameraPose(r, t - plane_z * r[:, 2])


def _layout(
    k: CameraIntrinsics, fix_skew: bool, fix_k3: bool
) -> tuple[np.ndarray, list[int]]:
    """k's intrinsic vector with the pinned entries zeroed, and the indices of
    the entries the refinement adjusts, in parameter order."""
    base = intrinsic_vector(k)
    pinned = ([2] if fix_skew else []) + ([7] if fix_k3 else [])
    base[pinned] = 0.0
    return base, [i for i in range(10) if i not in pinned]


def _split(
    x: np.ndarray, base: np.ndarray, free: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parameter vector to (intrinsic vector, rvecs, tvecs)."""
    full = base.copy()
    full[free] = x[: len(free)]
    poses = x[len(free) :].reshape(-1, 6)
    return full, poses[:, :3], poses[:, 3:]


def _stack_views(views: list[PlanarView]) -> tuple[np.ndarray, np.ndarray]:
    """Pattern points as (n_views, n_max, 3) at z = 0, zero-padded, and the
    (n_views, n_max) mask of real entries."""
    n_max = max(len(v) for v in views)
    world = np.zeros((len(views), n_max, 3))
    valid = np.zeros((len(views), n_max), dtype=bool)
    for i, view in enumerate(views):
        world[i, : len(view), :2] = view.pattern
        valid[i, : len(view)] = True
    return world, valid


def calibration_problem(
    views: list[PlanarView],
    k: CameraIntrinsics,
    poses: list[CameraPose],
    fix_skew: bool = True,
    fix_k3: bool = True,
) -> tuple[LeastSquaresProblem, np.ndarray]:
    """The joint refinement as a least-squares problem, and its start vector
    at intrinsics k and one target-to-camera pose per view.

    Parameter order: alpha_x, alpha_y, (gamma), u0, v0, k1, k2, (k3), p1, p2,
    then per view an axis-angle rotation and translation. Every view is
    projected in one stacked evaluation, and the Jacobian is the closed form
    of project_views.
    """
    if len(views) != len(poses):
        raise ValueError("one initial pose per view is required")
    world, valid = _stack_views(views)
    observed = np.vstack([v.pixels for v in views])
    n_points = observed.shape[0]
    counts = [len(v) for v in views]
    base, free = _layout(k, fix_skew, fix_k3)
    n_shared = len(free)
    x0 = np.concatenate(
        [base[free]]
        + [
            np.concatenate([axis_angle_from_rotation(p.rotation), p.translation])
            for p in poses
        ]
    )
    n_params = x0.shape[0]

    def residual(x: np.ndarray) -> np.ndarray:
        pixels, _, _ = project_views(*_split(x, base, free), world)
        return (pixels[valid] - observed).ravel()

    def jacobian(x: np.ndarray) -> np.ndarray:
        _, d_intrinsics, d_pose = project_views(
            *_split(x, base, free), world, with_jacobian=True
        )
        jac = np.zeros((n_points, 2, n_params))
        jac[:, :, :n_shared] = d_intrinsics[valid][:, :, free]
        row = 0
        for v, n in enumerate(counts):
            col = n_shared + 6 * v
            jac[row : row + n, :, col : col + 6] = d_pose[v, :n]
            row += n
        return jac.reshape(2 * n_points, n_params)

    problem = LeastSquaresProblem(
        residual=residual,
        n_params=n_params,
        n_residuals=2 * n_points,
        jacobian=jacobian,
    )
    return problem, x0


def refine_calibration(
    views: list[PlanarView],
    k: CameraIntrinsics,
    poses: list[CameraPose],
    fix_skew: bool = True,
    fix_k3: bool = True,
) -> CalibrationSolution:
    """Jointly refine intrinsics k, lens model, and the per-view poses.

    Solves calibration_problem by Levenberg-Marquardt. The returned RMSE is
    the final cost's, with u and v errors as separate scalars, so a fit to
    noise of standard deviation sigma settles near sigma. It never exceeds
    the RMSE at (k, poses) because only cost-decreasing steps are accepted.
    With fix_skew the output gamma is exactly 0, with fix_k3 the output k3 is
    exactly 0.
    """
    problem, x0 = calibration_problem(views, k, poses, fix_skew, fix_k3)
    result = levenberg_marquardt(problem, x0)
    base, free = _layout(k, fix_skew, fix_k3)
    full, rvecs, tvecs = _split(result.x, base, free)
    return CalibrationSolution(
        intrinsics=CameraIntrinsics(
            full[0], full[1], full[3], full[4], full[2], Distortion(*full[5:])
        ),
        poses=tuple(
            CameraPose(rotation_from_axis_angle(r), t) for r, t in zip(rvecs, tvecs)
        ),
        rmse_px=math.sqrt(result.cost / sum(len(v) for v in views)),
    )


def calibrate_intrinsics(
    views: list[PlanarView],
    fix_skew: bool = True,
    fix_k3: bool = True,
) -> CalibrationSolution:
    """Full pipeline: homographies, closed form, per-view extrinsics, refinement.

    Raises InsufficientViews (from zhang_closed_form) below three views, or
    two with fix_skew.
    """
    homographies = [estimate_homography(v) for v in views]
    k0 = zhang_closed_form(homographies, assume_zero_skew=fix_skew)
    poses = [extrinsics_from_homography(k0, h) for h in homographies]
    return refine_calibration(views, k0, poses, fix_skew=fix_skew, fix_k3=fix_k3)
