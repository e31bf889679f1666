"""The numpy camera model: rotations, Euler angles and world-to-pixel projection.

Calibration and the synthetic scene generator project world points through
a camera and parametrize its rotation; localization only maps pixels to the
ground (geometry), so its process never loads this module or numpy.

Euler angles (omega, phi, kappa) are degrees at the API boundary and compose
as R = Rz(kappa) @ Ry(phi) @ Rx(omega). Every type is immutable after
construction and every function is pure.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .geometry import (
    CameraIntrinsics,
    CameraPose,
    Distortion,
    PixelPoint,
    PointBehindCamera,
    _readonly,
    distort_normalized,
    undistort_normalized,
)

MIN_PROJECTION_DEPTH_MM = 1e-9
# Rotation angle (radians) below which the pose Jacobian takes its
# small-angle limit.
SMALL_ANGLE_RAD = 1e-8


class WorldPoint(NamedTuple):
    """Point in the field frame, millimeters, unchecked: every builder passes
    checked floats, and landmarks_from_dict checks a landmarks file's points."""

    x: float
    y: float
    z: float = 0.0

    @property
    def array(self) -> np.ndarray:
        return _readonly(self, (3,))


class EulerAngles(NamedTuple):
    """Rotation as (omega, phi, kappa) degrees; euler_from_pose returns each
    in (-180, 180]."""

    omega: float
    phi: float
    kappa: float


def _axis_rotation(axis: int, a: float) -> np.ndarray:
    """Rotation by a radians about coordinate axis 0, 1 or 2 (x, y or z)."""
    c, s = math.cos(a), math.sin(a)
    i, j = ((1, 2), (2, 0), (0, 1))[axis]
    m = np.eye(3)
    m[i, i] = m[j, j] = c
    m[i, j], m[j, i] = -s, s
    return m


def nearest_rotation(m: np.ndarray) -> np.ndarray:
    """Orthonormal matrix closest to m in the Frobenius sense, det +1."""
    u, _, vt = np.linalg.svd(m)
    r = u @ vt
    if np.linalg.det(r) < 0:
        r = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return r


def rotation_from_axis_angle(rvec: np.ndarray) -> np.ndarray:
    """Rodrigues map from a 3-vector whose norm is the angle in radians."""
    rvec = np.asarray(rvec, dtype=float).reshape(3)
    angle = np.linalg.norm(rvec)
    if angle < 1e-12:
        return np.eye(3)
    k = rvec / angle
    kx = np.array(
        [[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]]
    )
    return np.eye(3) + math.sin(angle) * kx + (1.0 - math.cos(angle)) * (kx @ kx)


def axis_angle_from_rotation(r: np.ndarray) -> np.ndarray:
    """Inverse Rodrigues map; returns the zero vector for the identity."""
    r = np.asarray(r, dtype=float)
    cos_a = max(-1.0, min(1.0, (np.trace(r) - 1.0) / 2.0))
    angle = math.acos(cos_a)
    # v = 2 sin(angle) axis, accurate to rounding at every angle.
    v = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    if angle < 1e-12:
        # acos returns 0 for every angle below about 1.5e-8, where sin(angle)
        # equals the angle to rounding.
        return v / 2.0
    if angle > 0.75 * math.pi:
        # Near pi, acos and the division by sin lose precision. The symmetric
        # part minus cos(angle) I is (1 - cos(angle)) axis axis^T: its largest
        # column gives the axis up to sign, and v gives the sign and the sine.
        s = (r + r.T) / 2.0 - cos_a * np.eye(3)
        axis = s[:, int(np.argmax(np.diag(s)))]
        axis = axis / np.linalg.norm(axis)
        if axis @ v < 0.0:
            axis = -axis
        return axis * math.atan2(np.linalg.norm(v) / 2.0, cos_a)
    return v / (2.0 * math.sin(angle)) * angle


def camera_to_pixels(
    pc: np.ndarray, intrinsics: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The camera model: camera-frame points (..., 3) to pixels (..., 2).

    intrinsics is the 10-vector of intrinsic_vector. The depth magnitude is
    floored at 1e-9 mm, sign preserved, then the normalized coordinates go
    through distort_normalized and K. Returns the pixels and, for the
    Jacobian of project_views, (x, y, xd, yd, z, clamped): the normalized
    and distorted coordinates, the floored depth and where it was floored.
    """
    ax, ay, g, u0, v0 = intrinsics[:5]
    z = pc[..., 2]
    clamped = np.abs(z) < MIN_PROJECTION_DEPTH_MM
    z = np.where(clamped, np.where(z < 0, -1.0, 1.0) * MIN_PROJECTION_DEPTH_MM, z)
    x = pc[..., 0] / z
    y = pc[..., 1] / z
    xd, yd = distort_normalized(x, y, Distortion(*intrinsics[5:]))
    pixels = np.stack([ax * xd + g * yd + u0, ay * yd + v0], axis=-1)
    return pixels, (x, y, xd, yd, z, clamped)


# The entries of intrinsic_vector, in order: the order camera_to_pixels takes
# and the intrinsic Jacobian columns follow.
INTRINSIC_PARAMETERS = (
    "alpha_x", "alpha_y", "gamma", "u0", "v0", "k1", "k2", "k3", "p1", "p2",
)


def intrinsic_vector(k: CameraIntrinsics) -> tuple[float, ...]:
    """k's INTRINSIC_PARAMETERS, in order."""
    d = k.distortion
    return (k.alpha_x, k.alpha_y, k.gamma, k.u0, k.v0, d.k1, d.k2, d.k3, d.p1, d.p2)


def intrinsics_from_vector(v) -> CameraIntrinsics:
    """The intrinsics whose intrinsic_vector is v."""
    alpha_x, alpha_y, gamma, u0, v0, k1, k2, k3, p1, p2 = v
    return CameraIntrinsics(
        alpha_x, alpha_y, u0, v0, gamma, Distortion(k1, k2, k3, p1, p2)
    )


def project(p: WorldPoint, k: CameraIntrinsics, pose: CameraPose) -> PixelPoint:
    """Project a world point to a pixel, applying the lens model.

    Raises PointBehindCamera when the camera-frame depth is <= 1e-9 mm.
    """
    return PixelPoint(*project_points(p.array[None], k, pose)[0])


def project_points(
    points: np.ndarray,
    k: CameraIntrinsics,
    pose: CameraPose,
    clamp_depth: bool = False,
) -> np.ndarray:
    """Vectorized projection of an (n, 3) array of world points to (n, 2) pixels.

    With clamp_depth the depth magnitude is floored at 1e-9 mm, sign preserved,
    so optimizer trial poses produce large finite residuals instead of raising.
    Without it a point at or behind the camera raises PointBehindCamera.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    pc = pts @ pose.rotation.T + pose.translation
    if not clamp_depth:
        bad = np.nonzero(pc[:, 2] <= MIN_PROJECTION_DEPTH_MM)[0]
        if bad.size:
            raise PointBehindCamera(f"points at indices {bad.tolist()} are behind the camera")
    return camera_to_pixels(pc, intrinsic_vector(k))[0]


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
    rotations = np.array([rotation_from_axis_angle(r) for r in rvecs])
    pc = world @ rotations.transpose(0, 2, 1) + tvecs[:, None, :]
    pixels, (x, y, xd, yd, z, clamped) = camera_to_pixels(pc, intrinsics)
    if not with_jacobian:
        return pixels, None, None
    ax, ay, g, _, _, k1, k2, k3, p1, p2 = intrinsics

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


def undistort(px: PixelPoint, k: CameraIntrinsics) -> PixelPoint:
    """Invert the lens model for one observed pixel (undistort_normalized).

    With an all-zero lens model the input is returned unchanged.
    """
    if k.distortion.is_zero:
        return px
    x, y = k.normalized_from_pixel(px.u, px.v)
    x, y = undistort_normalized(x, y, k.distortion, (px.u, px.v))
    return PixelPoint(*k.pixel_from_normalized(x, y))


def camera_center(pose: CameraPose) -> WorldPoint:
    """Camera center in world coordinates, -R.T @ t, as numpy computes it."""
    return WorldPoint(*(-pose.rotation.T @ pose.translation).tolist())


def pose_from_euler(e: EulerAngles, center: WorldPoint) -> CameraPose:
    """Build the world-to-camera pose from Euler angles and the camera center."""
    r = (
        _axis_rotation(2, math.radians(e.kappa))
        @ _axis_rotation(1, math.radians(e.phi))
        @ _axis_rotation(0, math.radians(e.omega))
    )
    t = -r @ center.array
    return CameraPose(r, t)


def euler_from_pose(pose: CameraPose) -> tuple[EulerAngles, WorldPoint]:
    """Recover (omega, phi, kappa) degrees and the camera center from a pose.

    Raises ValueError when |cos phi| < 1e-9; omega and kappa are then not
    separable.
    """
    (r00, _, _), (r10, _, _), (r20, r21, r22) = pose.r
    sin_phi = -r20
    cos_phi = math.sqrt(max(0.0, 1.0 - sin_phi * sin_phi))
    if cos_phi < 1e-9:
        raise ValueError("phi is within 1e-9 of +-90 degrees")
    phi = math.asin(max(-1.0, min(1.0, sin_phi)))
    omega = math.atan2(r21, r22)
    kappa = math.atan2(r10, r00)

    def to_range(deg: float) -> float:
        return 180.0 if deg <= -180.0 else deg

    angles = EulerAngles(
        to_range(math.degrees(omega)),
        to_range(math.degrees(phi)),
        to_range(math.degrees(kappa)),
    )
    return angles, camera_center(pose)
