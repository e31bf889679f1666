"""Pinhole camera geometry: projection, lens distortion, ground-plane back-projection.

Coordinate conventions used throughout the package:

* World (field) frame: right handed, millimeters, z up; z = 0 is the carpet.
* Camera frame: x right, y down, z forward along the optical axis.
* Image frame: u rightward, v downward, pixels, origin at the top-left corner.
* ``CameraPose`` holds the world-to-camera rotation R and translation t, so a
  world point p has camera coordinates R @ p + t and the camera center in
  world coordinates is -R.T @ t.
* Euler angles (omega, phi, kappa) are degrees at the API boundary and
  compose as R = Rz(kappa) @ Ry(phi) @ Rx(omega).

Every type is immutable after construction and every function is pure, so the
whole module is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

Vec = np.ndarray
Mat = np.ndarray

MIN_PROJECTION_DEPTH_MM = 1e-9
RAY_NORMAL_EPS = 1e-12
ROTATION_TOL = 1e-9
# Rotation angle (radians) below which the pose Jacobian takes its
# small-angle limit.
SMALL_ANGLE_RAD = 1e-8
UNDISTORT_MAX_ITERATIONS = 20
UNDISTORT_STEP_TOL = 1e-12
UNDISTORT_RESIDUAL_TOL = 1e-8


class GeometryError(ValueError):
    """Base class for geometric failure modes."""


class PointBehindCamera(GeometryError):
    """World point has non-positive depth in the camera frame."""


class RayParallelToPlane(GeometryError):
    """Viewing ray never meets the requested horizontal plane."""


class PointNotOnGround(GeometryError):
    """Plane intersection lies behind the camera (pixel above the horizon)."""


class NonConvergence(GeometryError):
    """Iterative undistortion failed to invert the lens model."""


class GimbalLock(GeometryError):
    """Euler angles are not uniquely recoverable (|cos phi| ~ 0)."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, slots=True)
class Distortion:
    """Brown-Conrady lens coefficients: radial k1..k3, tangential p1, p2."""

    k1: float = 0.0
    k2: float = 0.0
    k3: float = 0.0
    p1: float = 0.0
    p2: float = 0.0

    def __post_init__(self) -> None:
        for name in ("k1", "k2", "k3", "p1", "p2"):
            object.__setattr__(self, name, float(getattr(self, name)))
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"distortion coefficient {name} must be finite")

    @property
    def is_zero(self) -> bool:
        return self.k1 == self.k2 == self.k3 == self.p1 == self.p2 == 0.0


@dataclass(frozen=True, slots=True)
class CameraIntrinsics:
    """Focal lengths and principal point in pixels, plus the lens model.

    gamma is the skew term; it multiplies the normalized y coordinate in the
    pixel-u equation and is 0 for square-pixel sensors.
    """

    alpha_x: float
    alpha_y: float
    u0: float
    v0: float
    gamma: float = 0.0
    distortion: Distortion = field(default_factory=Distortion)

    def __post_init__(self) -> None:
        for name in ("alpha_x", "alpha_y", "u0", "v0", "gamma"):
            object.__setattr__(self, name, float(getattr(self, name)))
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"intrinsic parameter {name} must be finite")
        if not (self.alpha_x > 0 and self.alpha_y > 0):
            raise ValueError("focal lengths must be positive")

    @property
    def matrix(self) -> Mat:
        """3x3 calibration matrix K."""
        return np.array(
            [
                [self.alpha_x, self.gamma, self.u0],
                [0.0, self.alpha_y, self.v0],
                [0.0, 0.0, 1.0],
            ]
        )

    def normalized_from_pixel(self, u: float, v: float) -> tuple[float, float]:
        """Invert K for one pixel, ignoring distortion."""
        y = (v - self.v0) / self.alpha_y
        x = (u - self.u0 - self.gamma * y) / self.alpha_x
        return x, y

    def pixel_from_normalized(self, x: float, y: float) -> tuple[float, float]:
        return (
            self.alpha_x * x + self.gamma * y + self.u0,
            self.alpha_y * y + self.v0,
        )

    def with_distortion(self, distortion: Distortion) -> "CameraIntrinsics":
        return CameraIntrinsics(
            self.alpha_x, self.alpha_y, self.u0, self.v0, self.gamma, distortion
        )


@dataclass(frozen=True, slots=True)
class WorldPoint:
    """Point in the field frame, millimeters."""

    x: float
    y: float
    z: float = 0.0

    def __post_init__(self) -> None:
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not all(map(math.isfinite, (self.x, self.y, self.z))):
            raise ValueError("world coordinates must be finite")

    @property
    def array(self) -> Vec:
        return np.array([self.x, self.y, self.z])


class _PixelPoint(NamedTuple):
    u: float
    v: float


class PixelPoint(_PixelPoint):
    """Image location in pixels; may fall outside the sensor bounds.

    The coordinates are coerced to float and checked finite on construction;
    _make and _replace skip the coercion and the check.
    """

    __slots__ = ()

    def __new__(cls, u: float, v: float) -> PixelPoint:
        u = float(u)
        v = float(v)
        if not (math.isfinite(u) and math.isfinite(v)):
            raise ValueError("pixel coordinates must be finite")
        return tuple.__new__(cls, (u, v))

    @property
    def array(self) -> Vec:
        return np.array([self.u, self.v])


@dataclass(frozen=True, slots=True)
class EulerAngles:
    """Rotation as (omega, phi, kappa) degrees, each in (-180, 180]."""

    omega: float
    phi: float
    kappa: float

    def __post_init__(self) -> None:
        for name in ("omega", "phi", "kappa"):
            object.__setattr__(self, name, float(getattr(self, name)))
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"angle {name} must be finite")
            if not -180.0 < value <= 180.0:
                raise ValueError(f"angle {name}={value} outside (-180, 180]")


@dataclass(frozen=True, eq=False)
class CameraPose:
    """World-to-camera rigid transform: rotation (3,3) and translation (3,)."""

    rotation: Mat
    translation: Vec

    def __post_init__(self) -> None:
        r = np.array(self.rotation, dtype=float)
        t = np.array(self.translation, dtype=float).reshape(3)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
            raise ValueError("pose entries must be finite")
        if np.max(np.abs(r.T @ r - np.eye(3))) > ROTATION_TOL:
            raise ValueError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(r) - 1.0) > ROTATION_TOL:
            raise ValueError("rotation determinant must be +1")
        object.__setattr__(self, "rotation", _readonly(r))
        object.__setattr__(self, "translation", _readonly(t))


def _rot_x(a: float) -> Mat:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _rot_y(a: float) -> Mat:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _rot_z(a: float) -> Mat:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def nearest_rotation(m: Mat) -> Mat:
    """Orthonormal matrix closest to m in the Frobenius sense, det +1."""
    u, _, vt = np.linalg.svd(m)
    r = u @ vt
    if np.linalg.det(r) < 0:
        r = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return r


def rotation_from_axis_angle(rvec: Vec) -> Mat:
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


def axis_angle_from_rotation(r: Mat) -> Vec:
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


def distort_normalized(x: float, y: float, d: Distortion) -> tuple[float, float]:
    """Apply the Brown-Conrady model to one normalized image coordinate."""
    r2 = x * x + y * y
    radial = 1.0 + r2 * (d.k1 + r2 * (d.k2 + r2 * d.k3))
    xd = x * radial + 2.0 * d.p1 * x * y + d.p2 * (r2 + 2.0 * x * x)
    yd = y * radial + d.p1 * (r2 + 2.0 * y * y) + 2.0 * d.p2 * x * y
    return xd, yd


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


def intrinsic_vector(k: CameraIntrinsics) -> np.ndarray:
    """(alpha_x, alpha_y, gamma, u0, v0, k1, k2, k3, p1, p2), the order
    camera_to_pixels takes and the intrinsic Jacobian columns follow."""
    d = k.distortion
    return np.array(
        [k.alpha_x, k.alpha_y, k.gamma, k.u0, k.v0, d.k1, d.k2, d.k3, d.p1, d.p2]
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


def undistort_normalized(
    xd: float, yd: float, d: Distortion, pixel: tuple[float, float] | None = None
) -> tuple[float, float]:
    """Invert distort_normalized by fixed-point iteration.

    Runs at most 20 iterations, stopping early when the step drops below
    1e-12. With an all-zero lens model (xd, yd) is returned unchanged.
    Raises NonConvergence when the radial factor collapses or when the
    forward-distorted result still misses (xd, yd) by more than 1e-8; the
    message names pixel, the observed (u, v), when one is given.
    """
    if d.is_zero:
        return xd, yd
    k1, k2, k3, p1, p2 = d.k1, d.k2, d.k3, d.p1, d.p2
    two_p1, two_p2 = 2.0 * p1, 2.0 * p2
    tol = UNDISTORT_STEP_TOL
    x, y = xd, yd
    # The step inverts distort_normalized's formula, split into its radial
    # and tangential parts; distort_normalized keeps its own form, because
    # writing it as x * radial + tx instead changes results in the last bit.
    for _ in range(UNDISTORT_MAX_ITERATIONS):
        r2 = x * x + y * y
        radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
        if radial <= 1e-8:
            raise NonConvergence(
                f"radial factor collapsed at r2={r2:.6g} while undistorting"
            )
        tx = two_p1 * x * y + p2 * (r2 + 2.0 * x * x)
        ty = p1 * (r2 + 2.0 * y * y) + two_p2 * x * y
        x_next = (xd - tx) / radial
        y_next = (yd - ty) / radial
        step_x, step_y = x_next - x, y_next - y
        x, y = x_next, y_next
        if -tol < step_x < tol and -tol < step_y < tol:
            break
    fx, fy = distort_normalized(x, y, d)
    if max(abs(fx - xd), abs(fy - yd)) > UNDISTORT_RESIDUAL_TOL:
        u, v = (xd, yd) if pixel is None else pixel
        raise NonConvergence(
            f"undistortion of ({u:.3f}, {v:.3f}) did not reach 1e-8 "
            f"in {UNDISTORT_MAX_ITERATIONS} iterations"
        )
    return x, y


def undistort(px: PixelPoint, k: CameraIntrinsics) -> PixelPoint:
    """Invert the lens model for one observed pixel (undistort_normalized).

    With an all-zero lens model the input is returned unchanged.
    """
    if k.distortion.is_zero:
        return px
    x, y = k.normalized_from_pixel(px.u, px.v)
    x, y = undistort_normalized(x, y, k.distortion, (px.u, px.v))
    return PixelPoint(*k.pixel_from_normalized(x, y))


class GroundMap(NamedTuple):
    """One camera pose's pixel-to-ground map, held as plain floats.

    ground_map builds it once per pose; locate then takes each pixel through
    K^-1, undistort_normalized and the plane hit without a numpy call, so a
    batch of any size costs the same per pixel.
    """

    k: CameraIntrinsics
    rt: tuple[float, ...]  # R^T row-major: the world ray of (x, y) is R^T (x, y, 1)
    center: tuple[float, float, float]  # -R^T t
    cos_yaw: float
    sin_yaw: float

    def locate(self, u: float, v: float) -> tuple[float, float]:
        """Ground point (x, y) on z = 0 seen at the observed pixel (u, v).

        Raises NonConvergence when the lens model cannot be inverted there,
        otherwise whatever hit raises.
        """
        x, y = self.k.normalized_from_pixel(u, v)
        return self.hit(*undistort_normalized(x, y, self.k.distortion, (u, v)))

    def hit(self, x: float, y: float) -> tuple[float, float]:
        """Where the ray through ideal normalized (x, y) meets z = 0.

        Raises RayParallelToPlane when the ray's vertical component vanishes,
        PointNotOnGround when the intersection lies at or behind the camera
        (on or above the horizon), and ValueError, as WorldPoint does, when
        the intersection is not finite.
        """
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = self.rt
        dx = r00 * x + r01 * y + r02
        dy = r10 * x + r11 * y + r12
        dz = r20 * x + r21 * y + r22
        if abs(dz) < RAY_NORMAL_EPS:
            raise RayParallelToPlane(
                f"normalized ({x:.6g}, {y:.6g}) views along the plane z=0"
            )
        cx, cy, cz = self.center
        s = (0.0 - cz) / dz
        if s <= 0.0:
            raise PointNotOnGround(
                f"normalized ({x:.6g}, {y:.6g}) meets plane z=0 at "
                f"non-positive ray parameter {s:.6g}"
            )
        gx = cx + s * dx
        gy = cy + s * dy
        if not (math.isfinite(gx) and math.isfinite(gy)):
            raise ValueError("world coordinates must be finite")
        return gx, gy

    def camera_frame(self, x: float, y: float) -> tuple[float, float]:
        """Field ground point (x, y) relative to the camera.

        Translates by the camera center's ground projection and rotates by
        the camera's yaw, so +y points along the camera's forward ground
        direction and +x to its right.
        """
        dx = x - self.center[0]
        dy = y - self.center[1]
        c, s = self.cos_yaw, self.sin_yaw
        return dx * c - dy * s, dx * s + dy * c


def camera_center(pose: CameraPose) -> WorldPoint:
    """Camera center in world coordinates, -R.T @ t."""
    return WorldPoint(*(-pose.rotation.T @ pose.translation).tolist())


def ground_map(k: CameraIntrinsics, pose: CameraPose) -> GroundMap:
    """The ground map of camera k at pose onto the ground plane z = 0.

    The camera center is camera_center(pose) and the yaw is
    atan2(R[2, 0], R[2, 1]), the heading of the optical axis on the ground.
    """
    r = pose.rotation
    yaw = math.atan2(r[2, 0], r[2, 1])
    c = camera_center(pose)
    return GroundMap(
        k,
        tuple(r.T.ravel().tolist()),
        (c.x, c.y, c.z),
        math.cos(yaw),
        math.sin(yaw),
    )


def pose_from_euler(e: EulerAngles, center: WorldPoint) -> CameraPose:
    """Build the world-to-camera pose from Euler angles and the camera center."""
    r = (
        _rot_z(math.radians(e.kappa))
        @ _rot_y(math.radians(e.phi))
        @ _rot_x(math.radians(e.omega))
    )
    t = -r @ center.array
    return CameraPose(r, t)


def euler_from_pose(pose: CameraPose) -> tuple[EulerAngles, WorldPoint]:
    """Recover (omega, phi, kappa) degrees and the camera center from a pose.

    Raises GimbalLock when |cos phi| < 1e-9; omega and kappa are then not
    separable.
    """
    r = pose.rotation
    sin_phi = -r[2, 0]
    cos_phi = math.sqrt(max(0.0, 1.0 - sin_phi * sin_phi))
    if cos_phi < 1e-9:
        raise GimbalLock("phi is within 1e-9 of +-90 degrees")
    phi = math.asin(max(-1.0, min(1.0, sin_phi)))
    omega = math.atan2(r[2, 1], r[2, 2])
    kappa = math.atan2(r[1, 0], r[0, 0])

    def to_range(deg: float) -> float:
        return 180.0 if deg <= -180.0 else deg

    angles = EulerAngles(
        to_range(math.degrees(omega)),
        to_range(math.degrees(phi)),
        to_range(math.degrees(kappa)),
    )
    return angles, camera_center(pose)
