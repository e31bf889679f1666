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
    MIN_PROJECTION_DEPTH_MM,
    CameraIntrinsics,
    CameraPose,
    Distortion,
    axis_angle_from_rotation,
    distort_normalized,
    nearest_rotation,
    project_points,
    rotation_from_axis_angle,
)
from .optim import (
    LeastSquaresProblem,
    LmOptions,
    levenberg_marquardt,
)


# Rotation angle (radians) below which the pose Jacobian takes its
# small-angle limit.
SMALL_ANGLE_RAD = 1e-8


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


def intrinsic_vector(k: CameraIntrinsics) -> np.ndarray:
    """(alpha_x, alpha_y, gamma, u0, v0, k1, k2, k3, p1, p2), the order
    project_views takes and its intrinsic Jacobian columns follow."""
    d = k.distortion
    return np.array(
        [k.alpha_x, k.alpha_y, k.gamma, k.u0, k.v0, d.k1, d.k2, d.k3, d.p1, d.p2]
    )


def _right_jacobian(rvec: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(r r^T + (R^T - I)[r]x) / |r|^2, so that d(R P)/d rvec = -R [P]x times it.

    Gallego & Yezzi (2015). Below SMALL_ANGLE_RAD the rounding error of
    R^T - I, divided by |r|, would exceed the O(|r|) error of the bracket's
    limit, the identity, so the limit is used instead.
    """
    angle2 = float(rvec @ rvec)
    if angle2 < SMALL_ANGLE_RAD**2:
        return np.eye(3)
    skew = np.array(
        [
            [0.0, -rvec[2], rvec[1]],
            [rvec[2], 0.0, -rvec[0]],
            [-rvec[1], rvec[0], 0.0],
        ]
    )
    return (np.outer(rvec, rvec) + (r.T - np.eye(3)) @ skew) / angle2


def project_views(
    intrinsics: np.ndarray,
    rvecs: np.ndarray,
    tvecs: np.ndarray,
    world: np.ndarray,
    with_jacobian: bool = False,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Project world points (n_views, n_pts, 3) through one pose per view.

    intrinsics is the 10-vector of intrinsic_vector; rvecs and tvecs are
    (n_views, 3) axis-angle rotations and translations. Depth is clamped as
    project_points(clamp_depth=True) clamps it, and the Jacobian is that of
    the clamped map. Returns the pixels (n_views, n_pts, 2) and, with
    with_jacobian, their derivatives with respect to the intrinsics
    (n_views, n_pts, 2, 10) and to each view's (rvec, t) (n_views, n_pts, 2, 6);
    otherwise both are None.
    """
    ax, ay, g, u0, v0, k1, k2, k3, p1, p2 = intrinsics
    rotations = np.array([rotation_from_axis_angle(r) for r in rvecs])
    pc = world @ rotations.transpose(0, 2, 1) + tvecs[:, None, :]
    z = pc[..., 2]
    clamped = np.abs(z) < MIN_PROJECTION_DEPTH_MM
    z = np.where(clamped, np.where(z < 0, -1.0, 1.0) * MIN_PROJECTION_DEPTH_MM, z)
    x = pc[..., 0] / z
    y = pc[..., 1] / z
    xd, yd = distort_normalized(x, y, Distortion(k1, k2, k3, p1, p2))
    pixels = np.stack([ax * xd + g * yd + u0, ay * yd + v0], axis=-1)
    if not with_jacobian:
        return pixels, None, None

    # Intrinsics: u = ax xd + g yd + u0, v = ay yd + v0, with xd, yd linear
    # in the lens coefficients (k1, k2, k3, p1, p2).
    r2 = x * x + y * y
    r4 = r2 * r2
    xy2 = 2.0 * x * y
    lens_x = np.stack([x * r2, x * r4, x * r4 * r2, xy2, r2 + 2.0 * x * x], axis=-1)
    lens_y = np.stack([y * r2, y * r4, y * r4 * r2, r2 + 2.0 * y * y, xy2], axis=-1)
    d_intrinsics = np.zeros(x.shape + (2, 10))
    d_intrinsics[..., 0, 0] = xd
    d_intrinsics[..., 0, 2] = yd
    d_intrinsics[..., 0, 3] = 1.0
    d_intrinsics[..., 0, 5:] = ax * lens_x + g * lens_y
    d_intrinsics[..., 1, 1] = yd
    d_intrinsics[..., 1, 4] = 1.0
    d_intrinsics[..., 1, 5:] = ay * lens_y

    # Pose: chain rule through the normalized coordinates (x, y) = (X, Y) / Z.
    radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
    d_radial = k1 + r2 * (2.0 * k2 + 3.0 * k3 * r2)
    dxd_dx = radial + 2.0 * x * x * d_radial + 2.0 * p1 * y + 6.0 * p2 * x
    dxd_dy = xy2 * d_radial + 2.0 * p1 * x + 2.0 * p2 * y  # equals dyd/dx
    dyd_dy = radial + 2.0 * y * y * d_radial + 6.0 * p1 * y + 2.0 * p2 * x
    d_pixel_dxy = np.empty(x.shape + (2, 2))
    d_pixel_dxy[..., 0, 0] = ax * dxd_dx + g * dxd_dy
    d_pixel_dxy[..., 0, 1] = ax * dxd_dy + g * dyd_dy
    d_pixel_dxy[..., 1, 0] = ay * dxd_dy
    d_pixel_dxy[..., 1, 1] = ay * dyd_dy
    inv_z = 1.0 / z
    # A clamped depth is constant, so Z drops out of the chain there.
    depth_scale = np.where(clamped, 0.0, -inv_z)
    d_pc = np.empty(x.shape + (2, 3))
    d_pc[..., :2] = d_pixel_dxy * inv_z[..., None, None]
    d_pc[..., 2] = (
        d_pixel_dxy[..., 0] * x[..., None] + d_pixel_dxy[..., 1] * y[..., None]
    ) * depth_scale[..., None]
    # A row a times d(R P)/d rvec = -R [P]x J is (P x (a R)) J.
    right = np.array([_right_jacobian(rv, r) for rv, r in zip(rvecs, rotations)])
    a_r = d_pc @ rotations[:, None]
    d_pose = np.empty(x.shape + (2, 6))
    d_pose[..., :3] = np.cross(world[:, :, None, :], a_r) @ right[:, None]
    d_pose[..., 3:] = d_pc
    return pixels, d_intrinsics, d_pose


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


def reprojection_rmse(
    views: list[PlanarView], k: CameraIntrinsics, poses: list[CameraPose]
) -> float:
    """Root mean square of the stacked pixel residuals across every view.

    The u and v errors enter as separate scalars, so a fit to noise of
    standard deviation sigma settles near sigma rather than sigma*sqrt(2).
    """
    total = 0.0
    count = 0
    for view, pose in zip(views, poses):
        world = np.column_stack([view.pattern, np.zeros(len(view))])
        predicted = project_points(world, k, pose, clamp_depth=True)
        total += float(np.sum((predicted - view.pixels) ** 2))
        count += 2 * len(view)
    return math.sqrt(total / count)


def calibration_problem(
    views: list[PlanarView],
    init: CalibrationSolution,
    fix_skew: bool = True,
    fix_k3: bool = True,
) -> tuple[LeastSquaresProblem, np.ndarray]:
    """The joint refinement as a least-squares problem, and its start vector.

    Parameter order: alpha_x, alpha_y, (gamma), u0, v0, k1, k2, (k3), p1, p2,
    then per view an axis-angle rotation and translation. Every view is
    projected in one stacked evaluation, and the Jacobian is the closed form
    of project_views.
    """
    if len(views) != len(init.poses):
        raise ValueError("one initial pose per view is required")
    world, valid = _stack_views(views)
    observed = np.vstack([v.pixels for v in views])
    n_points = observed.shape[0]
    counts = [len(v) for v in views]
    base, free = _layout(init.intrinsics, fix_skew, fix_k3)
    n_shared = len(free)
    x0 = np.concatenate(
        [base[free]]
        + [
            np.concatenate([axis_angle_from_rotation(p.rotation), p.translation])
            for p in init.poses
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
    init: CalibrationSolution,
    fix_skew: bool = True,
    fix_k3: bool = True,
    options: LmOptions = LmOptions(),
) -> CalibrationSolution:
    """Jointly refine intrinsics, lens model, and all view poses.

    Solves calibration_problem by Levenberg-Marquardt. The returned RMSE never
    exceeds the initialization's because only cost-decreasing steps are
    accepted. With fix_skew the output gamma is exactly 0, with fix_k3 the
    output k3 is exactly 0.
    """
    problem, x0 = calibration_problem(views, init, fix_skew, fix_k3)
    result = levenberg_marquardt(problem, x0, options)
    base, free = _layout(init.intrinsics, fix_skew, fix_k3)
    full, rvecs, tvecs = _split(result.x, base, free)
    k = CameraIntrinsics(
        full[0], full[1], full[3], full[4], full[2], Distortion(*full[5:])
    )
    poses = tuple(
        CameraPose(rotation_from_axis_angle(r), t) for r, t in zip(rvecs, tvecs)
    )
    n_points = sum(len(v) for v in views)
    return CalibrationSolution(
        intrinsics=k, poses=poses, rmse_px=math.sqrt(result.cost / n_points)
    )


def calibrate_intrinsics(
    views: list[PlanarView],
    fix_skew: bool = True,
    fix_k3: bool = True,
    options: LmOptions = LmOptions(),
) -> CalibrationSolution:
    """Full pipeline: homographies, closed form, per-view extrinsics, refinement."""
    needed = 2 if fix_skew else 3
    if len(views) < needed:
        raise InsufficientViews(f"need at least {needed} views, got {len(views)}")
    homographies = [estimate_homography(v) for v in views]
    k0 = zhang_closed_form(homographies, assume_zero_skew=fix_skew)
    poses = [extrinsics_from_homography(k0, h) for h in homographies]
    init = CalibrationSolution(
        intrinsics=k0,
        poses=tuple(poses),
        rmse_px=reprojection_rmse(views, k0, poses),
    )
    return refine_calibration(views, init, fix_skew=fix_skew, fix_k3=fix_k3, options=options)
