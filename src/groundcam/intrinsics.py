"""Planar-target intrinsic calibration.

Pipeline: normalized DLT homographies per view, closed-form recovery of the
calibration matrix from absolute-conic constraints, per-view extrinsics from
each homography, then a joint Levenberg-Marquardt refinement of intrinsics,
lens coefficients, and all view poses against total reprojection error, with
every view projected at once and a closed-form Jacobian. The refinement holds
any chosen intrinsics at given values; landmark PnP runs it with all of them
held. The views document's codec lives here too, beside PlanarView.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import files
from .geometry import CameraIntrinsics, CameraPose
from .optim import LeastSquaresProblem, levenberg_marquardt
from .pipeline import json_numbers, json_string
from .projection import (
    INTRINSIC_PARAMETERS,
    axis_angle_from_rotation,
    intrinsic_vector,
    intrinsics_from_vector,
    nearest_rotation,
    project_views,
    rotation_from_axis_angle,
)


class PlanarView(NamedTuple):
    """One photographed planar target: pixels (n, 2) against pattern xy (n, 2).

    Pattern coordinates are millimeters on the target plane (z = 0 implied).
    """

    view_id: str
    pixels: np.ndarray
    pattern: np.ndarray


def views_to_dict(views: list[PlanarView], square_size_mm: float) -> dict:
    return {
        "square_size_mm": square_size_mm,
        "views": [
            {
                "id": v.view_id,
                "points": [
                    {"pixel": pixel, "pattern": pattern}
                    for pixel, pattern in zip(v.pixels.tolist(), v.pattern.tolist())
                ],
            }
            for v in views
        ],
    }


def views_from_dict(obj: dict) -> list[PlanarView]:
    """Inverse of views_to_dict, with read-only arrays. square_size_mm is not
    read: the pattern coordinates already carry the scale. A view of fewer
    than 4 points, with a point that is not finite, or with a repeated
    pattern point raises ValueError naming its id."""
    views = []
    for entry in obj["views"]:
        view_id = json_string(entry["id"], "id")
        pixels = np.array([json_numbers(p["pixel"], 2, "pixel") for p in entry["points"]])
        pattern = np.array([json_numbers(p["pattern"], 2, "pattern") for p in entry["points"]])
        if len(pixels) < 4:
            raise ValueError(f"{view_id}: a planar view needs at least 4 correspondences")
        if not (np.all(np.isfinite(pixels)) and np.all(np.isfinite(pattern))):
            raise ValueError(f"{view_id}: correspondences must be finite")
        if len(set(map(tuple, pattern.tolist()))) != len(pattern):
            raise ValueError(f"{view_id}: pattern points must be distinct")
        pixels.setflags(write=False)
        pattern.setflags(write=False)
        views.append(PlanarView(view_id, pixels, pattern))
    return views


def load_planar_views(path: Path) -> list[PlanarView]:
    return files._load_json(path, views_from_dict)


class CalibrationSolution(NamedTuple):
    """Intrinsics plus one target-to-camera pose per view and the pixel RMSE."""

    intrinsics: CameraIntrinsics
    poses: tuple[CameraPose, ...]
    rmse_px: float


def _normalization(points: np.ndarray) -> np.ndarray:
    """Similarity on points (n, d), as a (d + 1) x (d + 1) matrix, moving
    their centroid to the origin and their mean distance to sqrt(d)."""
    d = points.shape[1]
    centroid = points.mean(axis=0)
    mean = np.linalg.norm(points - centroid, axis=1).mean()
    scale = math.sqrt(d) / mean if mean > 0 else 1.0
    t = np.diag([*[scale] * d, 1.0])
    t[:d, d] = -scale * centroid
    return t


def dlt_rows(src_h: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The 2n x 3m DLT system whose null vector is the row-major 3 x m matrix
    P with dst ~ P src_h, for homogeneous sources src_h (n, m) and pixel
    coordinates dst (n, >= 2)."""
    n, m = src_h.shape
    rows = np.zeros((2 * n, 3 * m))
    rows[0::2, 0:m] = src_h
    rows[0::2, 2 * m :] = -dst[:, 0:1] * src_h
    rows[1::2, m : 2 * m] = src_h
    rows[1::2, 2 * m :] = -dst[:, 1:2] * src_h
    return rows


def normalized_dlt(src: np.ndarray, dst: np.ndarray, deficient: str) -> np.ndarray:
    """The 3 x (d + 1) matrix P with dst ~ P [src, 1] for points src (n, d)
    and pixels dst (n, 2), by DLT on Hartley-normalized coordinates. When
    the system keeps more than a one-dimensional null space, raises
    ValueError with deficient formatted with its two smallest singular
    values and its largest, one value per unknown (zeros past its rows)."""
    n, d = src.shape
    t_src = _normalization(src)
    t_dst = _normalization(dst)
    sh = np.column_stack([src, np.ones(n)]) @ t_src.T
    dh = np.column_stack([dst, np.ones(n)]) @ t_dst.T
    rows = dlt_rows(sh, dh)
    _, s, vt = np.linalg.svd(rows, full_matrices=rows.shape[0] < rows.shape[1])
    s = s.tolist() + [0.0] * (rows.shape[1] - s.size)
    if s[-2] < 1e-10 * s[0]:
        raise ValueError(deficient.format(s[-2], s[-1], s[0]))
    return np.linalg.inv(t_dst) @ vt[-1].reshape(3, d + 1) @ t_src


def homography_from_points(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """DLT homography mapping src (n, 2) to dst (n, 2), float arrays of one
    length, normalized, H33 = 1.

    Raises ValueError for a layout whose constraint system keeps more than a
    one-dimensional null space (fewer than 4 points, all collinear,
    coincident, or otherwise rank deficient).
    """
    h = normalized_dlt(
        src,
        dst,
        "points do not determine a unique homography "
        "(singular values {:.3g} and {:.3g} of {:.3g})",
    )
    if abs(h[2, 2]) < 1e-12:
        raise ValueError("homography maps the origin to infinity")
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
    orientation, or two when skew is pinned to zero; each homography is a
    3 x 3 array. Raises ValueError with fewer views, or when the constraints
    do not describe a physical camera (for example all views frontoparallel
    or pure translations).
    """
    needed = 2 if assume_zero_skew else 3
    if len(homographies) < needed:
        raise ValueError(
            f"need at least {needed} views, got {len(homographies)}"
        )
    rows = []
    for h in homographies:
        rows.append(_vij(h, 0, 1))
        rows.append(_vij(h, 0, 0) - _vij(h, 1, 1))
    if assume_zero_skew:
        rows.append(np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0]))
    v = np.vstack(rows)
    _, s, vt = np.linalg.svd(v)
    if s[4] < 1e-10 * s[0]:
        raise ValueError(
            "view orientations are degenerate; the conic constraints keep "
            "a multi-dimensional null space"
        )
    b = vt[-1]
    b11, b12, b22, b13, b23, b33 = b
    if b11 < 0:
        b11, b12, b22, b13, b23, b33 = -b11, -b12, -b22, -b13, -b23, -b33
    denom = b11 * b22 - b12 * b12
    if b11 <= 0 or denom <= 0:
        raise ValueError("conic solution is not positive definite")
    v0 = (b12 * b13 - b11 * b23) / denom
    lam = b33 - (b13 * b13 + v0 * (b12 * b13 - b11 * b23)) / b11
    if lam <= 0:
        raise ValueError("conic solution yields a non-positive scale")
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
    """Pose of the plane z = plane_z from its homography, a 3 x 3 array.

    r1, r2 come from the scaled Kinv columns, r3 = r1 x r2, projected to the
    nearest rotation; the sign is chosen so the plane sits in front of the
    camera. The homography absorbs the plane offset, H ~ K [r1 r2 (t + z0 r3)],
    so the translation is corrected by -plane_z * r3.
    """
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


def _split(
    x: np.ndarray, base: np.ndarray, free: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parameter vector to (intrinsic vector, rvecs, tvecs)."""
    full = base.copy()
    full[free] = x[: len(free)]
    poses = x[len(free) :].reshape(-1, 6)
    return full, poses[:, :3], poses[:, 3:]


def _stack_views(world: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """World points as (n_views, n_max, 3), zero-padded, and the
    (n_views, n_max) mask of real entries."""
    n_max = max(len(w) for w in world)
    stacked = np.zeros((len(world), n_max, 3))
    valid = np.zeros((len(world), n_max), dtype=bool)
    for i, w in enumerate(world):
        stacked[i, : len(w)] = w
        valid[i, : len(w)] = True
    return stacked, valid


def calibration_problem(
    world: list[np.ndarray],
    pixels: list[np.ndarray],
    k: CameraIntrinsics,
    poses: list[CameraPose],
    free: tuple[int, ...],
) -> tuple[LeastSquaresProblem, np.ndarray]:
    """Reprojection of per-view world points (n_i, 3) against pixels (n_i, 2)
    as a least-squares problem, and its start vector at intrinsics k and one
    world-to-camera pose per view; the three lists hold one entry per view.

    Parameters: the intrinsic_vector entries whose indices are in free, in
    free's order, then per view an axis-angle rotation and translation. The
    other intrinsics stay at k's values. Every view is projected in one
    stacked evaluation, and the Jacobian is the closed form of project_views.
    """
    stacked, valid = _stack_views(world)
    observed = np.vstack(pixels)
    n_points = observed.shape[0]
    counts = [len(p) for p in pixels]
    base = np.array(intrinsic_vector(k))
    free = list(free)
    n_shared = len(free)
    x0 = np.concatenate(
        [base[free]]
        + [
            np.concatenate([axis_angle_from_rotation(p.rotation), p.translation])
            for p in poses
        ]
    )

    def residual(x: np.ndarray) -> np.ndarray:
        projected, _, _ = project_views(*_split(x, base, free), stacked)
        return (projected[valid] - observed).ravel()

    def jacobian(x: np.ndarray) -> np.ndarray:
        _, d_intrinsics, d_pose = project_views(
            *_split(x, base, free), stacked, with_jacobian=True
        )
        jac = np.zeros((n_points, 2, len(x)))
        jac[:, :, :n_shared] = d_intrinsics[valid][:, :, free]
        row = 0
        for v, n in enumerate(counts):
            col = n_shared + 6 * v
            jac[row : row + n, :, col : col + 6] = d_pose[v, :n]
            row += n
        return jac.reshape(2 * n_points, len(x))

    return LeastSquaresProblem(residual=residual, jacobian=jacobian), x0


def refine_calibration(
    world: list[np.ndarray],
    pixels: list[np.ndarray],
    k: CameraIntrinsics,
    poses: list[CameraPose],
    free: tuple[int, ...],
) -> CalibrationSolution:
    """Refine the intrinsics in free, the lens model's included, and the
    per-view poses against reprojection error.

    Solves calibration_problem by Levenberg-Marquardt. The returned RMSE is
    the final cost's, with u and v errors as separate scalars, so a fit to
    noise of standard deviation sigma settles near sigma. It never exceeds
    the RMSE at (k, poses) because only cost-decreasing steps are accepted.
    Every intrinsic outside free is returned equal to k's; with free=() this
    is resection (PnP) with k known.
    """
    problem, x0 = calibration_problem(world, pixels, k, poses, free)
    result = levenberg_marquardt(problem, x0)
    full, rvecs, tvecs = _split(result.x, np.array(intrinsic_vector(k)), list(free))
    return CalibrationSolution(
        intrinsics=intrinsics_from_vector(full),
        poses=tuple(
            CameraPose(rotation_from_axis_angle(r), t) for r, t in zip(rvecs, tvecs)
        ),
        rmse_px=math.sqrt(result.cost / sum(len(p) for p in pixels)),
    )


# A degenerate view fails its homography's rank test and a diverging solve
# its finiteness checks, so numpy's overflow warnings on the way (from a
# pixel near float range, say) are only noise on stderr.
@np.errstate(over="ignore", invalid="ignore")
def calibrate_intrinsics(
    views: list[PlanarView],
    fix_skew: bool = True,
    fix_k3: bool = True,
) -> CalibrationSolution:
    """Full pipeline: homographies, closed form, per-view extrinsics, refinement.

    Each pattern lies at z = 0. fix_skew and fix_k3 hold gamma and k3 at the
    closed form's values, which are exactly 0: zhang_closed_form returns
    gamma = 0.0 when it assumes zero skew, and always a zero lens model.
    Raises ValueError (from zhang_closed_form) below three views, or two
    with fix_skew, and one naming the view whose homography is undetermined.
    """
    homographies = []
    for v in views:
        try:
            homographies.append(estimate_homography(v))
        except ValueError as exc:
            raise ValueError(f"{v.view_id}: {exc}") from None
    k0 = zhang_closed_form(homographies, assume_zero_skew=fix_skew)
    poses = [extrinsics_from_homography(k0, h) for h in homographies]
    world = [np.column_stack([v.pattern, np.zeros(len(v.pixels))]) for v in views]
    pinned = (("gamma",) if fix_skew else ()) + (("k3",) if fix_k3 else ())
    free = tuple(
        i for i, name in enumerate(INTRINSIC_PARAMETERS) if name not in pinned
    )
    return refine_calibration(world, [v.pixels for v in views], k0, poses, free)
