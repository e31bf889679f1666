"""Camera pose from hand-marked field landmarks, on plain floats.

The landmark catalog is generated from a field geometry description: origin
at field center, z up, +x toward the goal the camera defends during
calibration, left/right named as seen from the field center looking at that
goal. Landmark pixels are undistorted internally; the pose is initialized
from a planar homography when every world z coincides (the common
all-on-carpet case) or from a normalized 3x4 DLT for six or more points in
general position, then refined by groundcam.lm's Levenberg-Marquardt rule
with every intrinsic held. One one-sided Jacobi SVD serves both DLTs, the
nearest rotation and the collinearity test, so a calibrate-extrinsics
process loads no numpy. The landmarks document's codec lives here too,
beside the catalog it names.
"""

from __future__ import annotations

import math
from operator import mul
from pathlib import Path
from typing import NamedTuple

from . import files
from .geometry import (
    MIN_DEPTH_MM,
    CameraIntrinsics,
    CameraPose,
    NonConvergence,
    PixelPoint,
    WorldPoint,
    camera_center,
    distort_normalized,
    undistort_normalized,
)
from .lm import minimize
from .pipeline import json_number, json_numbers, json_string

COPLANAR_Z_TOL_MM = 1e-9
RESIDUAL_FLAG_FLOOR_PX = 1e-6
# The rows of K^-1 P have equal norms for a perspective camera, and the third
# vanishes for an affine one. From the normalized DLT on six off-plane marks
# and synth's camera, the third row's norm over the smaller of the other two
# read at most 1e-5 for exact affine images at 1e-5 to 10 px per mm, and at
# least 0.77 for perspective images with 20 px noise (200 draws) or taken
# from 100 times as far away.
AFFINE_ROW_RATIO = 1e-2
# A cap the Jacobi SVD's sweeps stay far below: they converge quadratically,
# in 7 sweeps on the benchmark's 16 x 9 homography systems.
JACOBI_MAX_SWEEPS = 60


class FieldGeometry(NamedTuple):
    """Field dimensions in millimeters; all symmetric about the center."""

    field_length: float
    field_width: float
    goal_width: float
    goal_depth: float
    goal_height: float
    penalty_depth: float
    penalty_width: float


class PnpCorrespondence(NamedTuple):
    """A marked pixel paired with its known world point."""

    pixel: PixelPoint
    world: WorldPoint
    name: str = ""


class ReprojectionReport(NamedTuple):
    """Per-point residual norms of a solved pose, with suspected mismarks flagged.

    norms holds one norm per point, in pixels. A point is flagged when its
    norm exceeds three times the median norm (with a 1e-6 px floor so exact
    synthetic data never flags).
    """

    names: tuple[str, ...]
    norms: tuple[float, ...]
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
    geometry: FieldGeometry | None,
    named: dict[str, PixelPoint],
    extra: list[PnpCorrespondence] | None = None,
) -> dict:
    """The landmarks document; field_geometry only when geometry is given."""
    return {
        **({} if geometry is None else {"field_geometry": field_geometry_to_dict(geometry)}),
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
    points. field_geometry is read whenever it is present and required only
    when points names a landmark; an unknown or repeated name or a
    non-finite world point raises ValueError."""
    points = obj.get("points", [])
    catalog = {}
    if points or "field_geometry" in obj:
        catalog = field_landmarks(field_geometry_from_dict(obj["field_geometry"]))
    named = {}
    for p in points:
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


def _dot(a, b) -> float:
    return sum(map(mul, a, b))


def _cross(a, b) -> list[float]:
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _mean(values) -> float:
    """The mean of a sequence of floats, each divided first, so a sum past
    float range does not overflow it."""
    return sum(v / len(values) for v in values)


def _rotate(a: list[float], b: list[float], c: float, s: float):
    return [c * x - s * y for x, y in zip(a, b)], [s * x + c * y for x, y in zip(a, b)]


def svd(rows) -> tuple[list[float], list[list[float]], list[list[float]]]:
    """Singular value decomposition A = U S V^T of the m x n matrix rows.

    One-sided (Hestenes) Jacobi: plane rotations of A's columns, accumulated
    in V, until every pair is orthogonal to rounding; the small singular
    values the rank tests read keep their relative accuracy (Demmel and
    Veselic 1992). Returns (s, b, vt), largest singular value first: n
    singular values, exactly 0 past min(m, n), so a rank test prints those as 0;
    the columns of A V, each its singular value times its left singular
    vector; and the rows of V^T, those past the rank spanning the null space.
    """
    n = len(rows[0])
    cols = [list(column) for column in zip(*rows)]
    vs = [[float(i == j) for i in range(n)] for j in range(n)]
    eps = 2.0**-52
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                a, b = cols[p], cols[q]
                alpha, beta, gamma = _dot(a, a), _dot(b, b), _dot(a, b)
                # A pair orthogonal to rounding stays, and so does a NaN.
                if not abs(gamma) > eps * math.sqrt(alpha * beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                cols[p], cols[q] = _rotate(a, b, c, c * t)
                vs[p], vs[q] = _rotate(vs[p], vs[q], c, c * t)
        if not rotated:
            break
    norms = [math.hypot(*column) for column in cols]
    order = sorted(range(n), key=lambda j: -norms[j])
    s = [norms[j] if i < len(rows) else 0.0 for i, j in enumerate(order)]
    return s, [cols[j] for j in order], [vs[j] for j in order]


def _nearest_rotation(m) -> list[list[float]]:
    """The rows of the rotation closest to the 3 x 3 matrix m (rows) in the
    Frobenius sense: U diag(1, 1, det(U V^T)) V^T, its third column of U
    taken as the cross product of the first two."""
    s, b, vt = svd(m)
    if not s[1] > 0.0:
        raise ValueError("the start's rotation is undetermined")
    u0, u1 = ([v / norm for v in column] for column, norm in zip(b[:2], s))
    u2 = _cross(u0, u1)
    sign = math.copysign(1.0, _dot(vt[0], _cross(vt[1], vt[2])))
    return [
        [u0[i] * v0 + u1[i] * v1 + sign * u2[i] * v2 for v0, v1, v2 in zip(*vt)]
        for i in range(3)
    ]


def _k_inverse(k: CameraIntrinsics, h) -> list[float]:
    """K^-1 times the homogeneous 3-vector h."""
    y = (h[1] - k.v0 * h[2]) / k.alpha_y
    return [(h[0] - k.u0 * h[2] - k.gamma * y) / k.alpha_x, y, h[2]]


def _normalization(points) -> tuple[list[float], float]:
    """The centroid of points (tuples of d floats) and the scale taking their
    mean distance from it to sqrt(d) (Hartley)."""
    centroid = [_mean(axis) for axis in zip(*points)]
    mean = _mean([math.dist(p, centroid) for p in points])
    return centroid, math.sqrt(len(centroid)) / mean if 0.0 < mean < math.inf else 1.0


def _normalized_dlt(src, dst, deficient: str) -> list[list[float]]:
    """The rows of the 3 x (d + 1) matrix P with dst ~ P [src, 1] for points
    src (tuples of d floats) and pixels dst, by DLT on Hartley-normalized
    coordinates. When the system keeps more than a one-dimensional null
    space, raises ValueError with deficient formatted with its two smallest
    singular values and its largest, one value per unknown."""
    c_src, s_src = _normalization(src)
    (cu, cv), s_dst = _normalization(dst)
    rows = []
    for p, (u, v) in zip(src, dst):
        h = [s_src * (a - c) for a, c in zip(p, c_src)] + [1.0]
        zero = [0.0] * len(h)
        x, y = s_dst * (u - cu), s_dst * (v - cv)
        rows.append(h + zero + [-x * e for e in h])
        rows.append(zero + h + [-y * e for e in h])
    s, _, vt = svd(rows)
    if s[-2] < 1e-10 * s[0]:
        raise ValueError(deficient.format(s[-2], s[-1], s[0]))
    w = len(src[0]) + 1
    q = [vt[-1][i * w : (i + 1) * w] for i in range(3)]
    # P = T_dst^-1 Q T_src: Q's columns scaled, the last one shifted, and
    # the first two rows moved back to the pixel frame.
    q = [[s_src * e for e in row[:-1]] + [row[-1] - s_src * _dot(row, c_src)] for row in q]
    return [[e / s_dst + c * z for e, z in zip(q[i], q[2])] for i, c in ((0, cu), (1, cv))] + [
        q[2]
    ]


def _pose_from_homography(
    k: CameraIntrinsics, h, centroid: list[float], plane_z: float
) -> CameraPose:
    """Pose of the plane z = plane_z from its homography h (rows).

    r1, r2 come from the scaled K^-1 columns, r3 = r1 x r2, projected to the
    nearest rotation; the sign puts the marks' centroid in front of the
    camera, wherever the field origin lies. The homography absorbs the plane
    offset, H ~ K [r1 r2 (t + z0 r3)], so the translation is corrected by
    -plane_z * r3.
    """
    a1, a2, a3 = (_k_inverse(k, column) for column in zip(*h))
    scale = math.hypot(*a1)
    if not scale > 0.0:
        raise ValueError("the homography's first column vanishes")
    depth = centroid[0] * a1[2] + centroid[1] * a2[2] + a3[2]
    sign = math.copysign(1.0 / scale, depth)
    r1, r2, t = ([sign * v for v in a] for a in (a1, a2, a3))
    r = _nearest_rotation([list(row) for row in zip(r1, r2, _cross(r1, r2))])
    return CameraPose(r, [ti - plane_z * row[2] for ti, row in zip(t, r)])


def _pose_from_dlt(world, pixels, k: CameraIntrinsics) -> CameraPose:
    """Pose from the 3x4 projection matrix of six or more points in general
    position: K^-1 P, signed to put the points' centroid in front and scaled
    to a unit third rotation row, then its rotation part snapped."""
    p = _normalized_dlt(world, pixels, "projection-matrix system is rank deficient")
    m = [list(row) for row in zip(*(_k_inverse(k, column) for column in zip(*p)))]
    centroid = [_mean(axis) for axis in zip(*world)] + [1.0]
    norms = [math.hypot(*row[:3]) for row in m]
    if not norms[2] > AFFINE_ROW_RATIO * min(norms[0], norms[1]):
        raise ValueError("projection matrix has a vanishing rotation row")
    scale = math.copysign(1.0 / norms[2], _dot(m[2], centroid))
    m = [[scale * v for v in row] for row in m]
    return CameraPose(_nearest_rotation([row[:3] for row in m]), [row[3] for row in m])


def _camera_point(r, t, p) -> tuple[list[float], float, float, float, bool]:
    """R p, and the normalized coordinates (x, y) and depth z of R p + t, the
    depth magnitude floored at 1e-9 mm with its sign kept; the last entry
    tells whether the floor applied."""
    q = [row[0] * p[0] + row[1] * p[1] + row[2] * p[2] for row in r]
    z = q[2] + t[2]
    clamped = abs(z) < MIN_DEPTH_MM
    if clamped:
        z = -MIN_DEPTH_MM if z < 0 else MIN_DEPTH_MM
    return q, (q[0] + t[0]) / z, (q[1] + t[1]) / z, z, clamped


def _residuals(world, pixels, k: CameraIntrinsics, r, t) -> list[float]:
    """Pinhole reprojection minus pixels, u and v of each point in turn."""
    out = []
    for p, (u, v) in zip(world, pixels):
        _, x, y, _, _ = _camera_point(r, t, p)
        out += [k.alpha_x * x + k.gamma * y + k.u0 - u, k.alpha_y * y + k.v0 - v]
    return out


def _jacobian(world, k: CameraIntrinsics, r, t) -> list[list[float]]:
    """d _residuals / d (w, t) for the pose exp([w]x) R, t + dt at w = dt = 0.

    A row a of d pixel / d (R p + t) gives a for t and (R p) x a for w; a
    floored depth is constant, so it drops out of the chain there.
    """
    jac = []
    for p in world:
        q, x, y, z, clamped = _camera_point(r, t, p)
        depth = 0.0 if clamped else -1.0 / z
        for a in (
            [k.alpha_x / z, k.gamma / z, (k.alpha_x * x + k.gamma * y) * depth],
            [0.0, k.alpha_y / z, k.alpha_y * y * depth],
        ):
            jac.append(_cross(q, a) + a)
    return jac


def _rotation(w) -> list[list[float]]:
    """Rodrigues: the rows of the rotation by |w| radians about w."""
    angle = math.hypot(*w)
    if angle == 0.0:
        return [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    x, y, z = (v / angle for v in w)
    s, c = math.sin(angle), 1.0 - math.cos(angle)
    return [
        [1.0 + c * (x * x - 1.0), c * x * y - s * z, c * x * z + s * y],
        [c * x * y + s * z, 1.0 + c * (y * y - 1.0), c * y * z - s * x],
        [c * x * z - s * y, c * y * z + s * x, 1.0 + c * (z * z - 1.0)],
    ]


def _solve(a, b) -> list[float] | None:
    """x with a x = b by Gaussian elimination with partial pivoting, or None
    when a pivot is exactly zero (where numpy's solve raises) or x is not
    finite."""
    n = len(b)
    rows = [list(row) + [v] for row, v in zip(a, b)]
    for i in range(n):
        pivot = max(range(i, n), key=lambda j: abs(rows[j][i]))
        rows[i], rows[pivot] = rows[pivot], rows[i]
        if rows[i][i] == 0.0:
            return None
        for row in rows[i + 1 :]:
            f = row[i] / rows[i][i]
            row[i:] = [e - f * g for e, g in zip(row[i:], rows[i][i:])]
    x = [0.0] * n
    for i in reversed(range(n)):
        x[i] = (rows[i][n] - _dot(rows[i][i + 1 : n], x[i + 1 :])) / rows[i][i]
    return x if all(map(math.isfinite, x)) else None


def _refine(world, pixels, k: CameraIntrinsics, pose: CameraPose) -> CameraPose:
    """The pose minimizing the pinhole reprojection error of pixels, from
    pose, by groundcam.lm's rule; a step rotates by exp([w]x) on the left and
    translates by dt."""

    def cost_of(res: list[float]) -> float | None:
        return 0.5 * _dot(res, res) if all(map(math.isfinite, res)) else None

    def linearize(point):
        r, t, res = point
        jac = _jacobian(world, k, r, t)
        if not all(math.isfinite(v) for row in jac for v in row):
            return None
        columns = list(zip(*jac))
        descent = [-_dot(column, res) for column in columns]  # -J^T r
        jtj = [[_dot(a, b) for b in columns] for a in columns]

        def solve(lam: float):
            damped = [
                [v + lam * v if i == j else v for j, v in enumerate(row)]
                for i, row in enumerate(jtj)
            ]
            delta = _solve(damped, descent)
            norm = math.inf if delta is None else math.hypot(*delta)
            return (delta, norm) if math.isfinite(norm) else None

        return max(map(abs, descent)), solve

    def trial(point, delta):
        r = [[_dot(row, column) for column in zip(*point[0])] for row in _rotation(delta[:3])]
        t = [a + b for a, b in zip(point[1], delta[3:])]
        res = _residuals(world, pixels, k, r, t)
        cost = cost_of(res)
        return (r, t, res), math.inf if cost is None else cost

    r, t = [list(row) for row in pose.r], list(pose.t)
    res = _residuals(world, pixels, k, r, t)
    (r, t, _), _, _, _ = minimize((r, t, res), cost_of(res), linearize, trial)
    return CameraPose(r, t)


def _ideal_pixel(c: PnpCorrespondence, index: int, k: CameraIntrinsics) -> PixelPoint:
    """c's pixel with the lens model undone; a ValueError names the mark."""
    if k.distortion.is_zero:
        return c.pixel
    x, y = k.normalized_from_pixel(*c.pixel)
    try:
        x, y = undistort_normalized(x, y, k.distortion, c.pixel)
    except NonConvergence as exc:
        raise ValueError(f"{c.name or f'point {index}'}: {exc}") from None
    return PixelPoint(*k.pixel_from_normalized(x, y))


def solve_pnp(
    correspondences: list[PnpCorrespondence], k: CameraIntrinsics
) -> tuple[CameraPose, ReprojectionReport]:
    """Camera pose from marked landmarks, and its reprojection_report.

    Pixels are undistorted before solving, and the initial pose is refined
    with every intrinsic held. Raises ValueError below four correspondences,
    for a mark the lens model cannot be inverted at (naming it, or
    "point <i>" for an unnamed one), for collinear world points, and when
    the layout fits neither the planar nor the general-position initializer,
    and when the solved camera center is not above the ground (z > 0), as
    for a mirror image of coplanar marks. There is no outlier rejection;
    suspect marks are flagged in the returned report instead.
    """
    n = len(correspondences)
    if n < 4:
        raise ValueError(f"need at least 4 correspondences, got {n}")
    world = [tuple(c.world) for c in correspondences]
    ideal = [_ideal_pixel(c, i, k) for i, c in enumerate(correspondences)]

    centroid = [_mean(axis) for axis in zip(*world)]
    spread = svd([[a - b for a, b in zip(p, centroid)] for p in world])[0]
    if spread[1] < 1e-10 * max(spread[0], 1.0):
        raise ValueError("world points are collinear")

    z0 = world[0][2]
    if max(abs(p[2] - z0) for p in world) <= COPLANAR_Z_TOL_MM:
        h = _normalized_dlt(
            [p[:2] for p in world],
            ideal,
            "points do not determine a unique homography "
            "(singular values {:.3g} and {:.3g} of {:.3g})",
        )
        pose0 = _pose_from_homography(k, h, centroid, z0)
    elif n >= 6 and spread[2] > 1e-10 * spread[0]:
        pose0 = _pose_from_dlt(world, ideal, k)
    else:
        raise ValueError(
            "points span neither a constant-z plane nor (with >= 6 points) "
            "general position"
        )

    pose = _refine(world, ideal, k, pose0)
    height = camera_center(pose).z
    if not height > 0:
        raise ValueError(f"camera center at z = {height:.3f} mm, not above the ground")
    return pose, reprojection_report(pose, k, correspondences)


def reprojection_report(
    pose: CameraPose,
    k: CameraIntrinsics,
    correspondences: list[PnpCorrespondence],
) -> ReprojectionReport:
    """Residuals of marked pixels against full-model reprojections, the depth
    floored as in the refinement.

    The aggregate is the root mean square of the stacked u and v residuals;
    the per-point norms used for mismark flagging stay Euclidean. Raises
    ValueError when the residuals overflow float range.
    """
    norms, squares = [], 0.0
    for c in correspondences:
        _, x, y, _, _ = _camera_point(pose.r, pose.t, c.world)
        xd, yd = distort_normalized(x, y, k.distortion)
        du = k.alpha_x * xd + k.gamma * yd + k.u0 - c.pixel.u
        dv = k.alpha_y * yd + k.v0 - c.pixel.v
        norms.append(math.sqrt(du * du + dv * dv))
        squares += du * du + dv * dv
    rmse = math.sqrt(squares / (2 * len(norms)))
    if not math.isfinite(rmse):
        raise ValueError("reprojection residuals overflow float range")
    middle = sorted(norms)[len(norms) // 2 - 1 : len(norms) // 2 + 1]
    median = middle[-1] if len(norms) % 2 else (middle[0] + middle[1]) / 2.0
    threshold = max(3.0 * median, RESIDUAL_FLAG_FLOOR_PX)
    return ReprojectionReport(
        names=tuple(c.name for c in correspondences),
        norms=tuple(norms),
        rmse_px=rmse,
        flagged=tuple(i for i, norm in enumerate(norms) if norm > threshold),
    )
