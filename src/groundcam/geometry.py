"""Pinhole camera geometry: projection, lens distortion, ground-plane back-projection.

Coordinate conventions used throughout the package:

* World (field) frame: right handed, millimeters, z up; z = 0 is the carpet.
* Camera frame: x right, y down, z forward along the optical axis.
* Image frame: u rightward, v downward, pixels, origin at the top-left corner.
* ``CameraPose`` holds the world-to-camera rotation R and translation t, so a
  world point p has camera coordinates R @ p + t and the camera center in
  world coordinates is -R.T @ t.
* The pixel-to-ground path (CameraPose, GroundMap, undistort) runs on plain
  floats; numpy is imported only inside the functions that do array math.
* Euler angles (omega, phi, kappa) are degrees at the API boundary and
  compose as R = Rz(kappa) @ Ry(phi) @ Rx(omega).

Every type is immutable after construction and every function is pure, so the
whole module is safe to share across threads.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

MIN_PROJECTION_DEPTH_MM = 1e-9
RAY_NORMAL_EPS = 1e-12
ROTATION_TOL = 1e-9
# Rotation angle (radians) below which the pose Jacobian takes its
# small-angle limit.
SMALL_ANGLE_RAD = 1e-8
UNDISTORT_MAX_ITERATIONS = 20
UNDISTORT_STEP_TOL = 1e-12
UNDISTORT_RESIDUAL_TOL = 1e-8


class PointBehindCamera(ValueError):
    """World point has non-positive depth in the camera frame."""


class RayParallelToPlane(ValueError):
    """Viewing ray never meets the requested horizontal plane within float range."""


class PointNotOnGround(ValueError):
    """Plane intersection lies behind the camera (pixel above the horizon)."""


class NonConvergence(ValueError):
    """Iterative undistortion failed to invert the lens model."""


def float_entries(a) -> tuple[tuple[int, ...], list[float]]:
    """The shape numpy gives the nested sequence or array a, and its entries
    as floats, row-major; a ragged sequence raises ValueError."""
    a = a.tolist() if hasattr(a, "tolist") else a
    if not isinstance(a, (list, tuple)):
        return (), [float(a)]
    parts = [float_entries(item) for item in a]
    if len({shape for shape, _ in parts}) > 1:
        raise ValueError(f"ragged nested sequence {a!r}")
    return (len(a), *(parts[0][0] if parts else ())), [v for _, e in parts for v in e]


def _readonly(values: tuple, shape: tuple[int, ...]) -> np.ndarray:
    """The float tuple (or tuple of rows) values as a read-only array of shape."""
    import numpy as np

    a = np.array(values).reshape(shape)
    a.setflags(write=False)
    return a


class _Frozen:
    """Base of the immutable __slots__ records: value equality, hash, repr
    and pickling over the slots in order. Assignment raises AttributeError,
    so __init__ sets each slot through object.__setattr__."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({values})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Distortion(_Frozen):
    """Brown-Conrady lens coefficients: radial k1..k3, tangential p1, p2."""

    __slots__ = ("k1", "k2", "k3", "p1", "p2")

    def __init__(
        self,
        k1: float = 0.0,
        k2: float = 0.0,
        k3: float = 0.0,
        p1: float = 0.0,
        p2: float = 0.0,
    ) -> None:
        for name, value in zip(self.__slots__, (k1, k2, k3, p1, p2)):
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"distortion coefficient {name} must be finite")
            object.__setattr__(self, name, value)

    @property
    def is_zero(self) -> bool:
        return self.k1 == self.k2 == self.k3 == self.p1 == self.p2 == 0.0


class CameraIntrinsics(_Frozen):
    """Focal lengths and principal point in pixels, plus the lens model.

    gamma is the skew term; it multiplies the normalized y coordinate in the
    pixel-u equation and is 0 for square-pixel sensors.
    """

    __slots__ = ("alpha_x", "alpha_y", "u0", "v0", "gamma", "distortion")

    def __init__(
        self,
        alpha_x: float,
        alpha_y: float,
        u0: float,
        v0: float,
        gamma: float = 0.0,
        distortion: Distortion = Distortion(),
    ) -> None:
        for name, value in zip(self.__slots__, (alpha_x, alpha_y, u0, v0, gamma)):
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"intrinsic parameter {name} must be finite")
            object.__setattr__(self, name, value)
        if not (self.alpha_x > 0 and self.alpha_y > 0):
            raise ValueError("focal lengths must be positive")
        object.__setattr__(self, "distortion", distortion)

    @property
    def matrix(self) -> np.ndarray:
        """3x3 calibration matrix K, read-only."""
        ax, ay, g = self.alpha_x, self.alpha_y, self.gamma
        return _readonly((ax, g, self.u0, 0.0, ay, self.v0, 0.0, 0.0, 1.0), (3, 3))

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


class _WorldPoint(NamedTuple):
    x: float
    y: float
    z: float = 0.0


class WorldPoint(_WorldPoint):
    """Point in the field frame, millimeters.

    The coordinates are coerced to float and checked finite on construction;
    _make and _replace skip the coercion and the check.
    """

    __slots__ = ()

    def __new__(cls, x: float, y: float, z: float = 0.0) -> WorldPoint:
        x = float(x)
        y = float(y)
        z = float(z)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise ValueError("world coordinates must be finite")
        return tuple.__new__(cls, (x, y, z))

    @property
    def array(self) -> np.ndarray:
        return _readonly(self, (3,))


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


class _EulerAngles(NamedTuple):
    omega: float
    phi: float
    kappa: float


class EulerAngles(_EulerAngles):
    """Rotation as (omega, phi, kappa) degrees, each in (-180, 180].

    The angles are coerced to float and checked on construction; _make and
    _replace skip the coercion and the checks.
    """

    __slots__ = ()

    def __new__(cls, omega: float, phi: float, kappa: float) -> EulerAngles:
        angles = []
        for name, value in zip(cls._fields, (omega, phi, kappa)):
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"angle {name} must be finite")
            if not -180.0 < value <= 180.0:
                raise ValueError(f"angle {name}={value} outside (-180, 180]")
            angles.append(value)
        return tuple.__new__(cls, angles)


class _CameraPose(NamedTuple):
    r: tuple[tuple[float, float, float], ...]  # the rows of R
    t: tuple[float, float, float]


class CameraPose(_CameraPose):
    """World-to-camera rigid transform: rotation R (3x3) and translation t (3,).

    Held as floats, the rows of R in r; rotation and translation build
    read-only arrays on each access. R must be orthonormal within 1e-9 with
    determinant +1, checked in pure Python; _make and _replace skip checks.
    """

    __slots__ = ()

    def __new__(cls, rotation, translation) -> CameraPose:
        shape, r = float_entries(rotation)
        t = float_entries(translation)[1]
        if len(t) != 3:
            raise ValueError(f"translation must have 3 entries, got {len(t)}")
        if shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {shape}")
        if not all(map(math.isfinite, r + t)):
            raise ValueError("pose entries must be finite")
        rows = (tuple(r[0:3]), tuple(r[3:6]), tuple(r[6:9]))
        cols = tuple(zip(*rows))
        # R^T R row-major, whose diagonal is entries 0, 4 and 8.
        gram = [sum(a * b for a, b in zip(p, q)) for p in cols for q in cols]
        if max(abs(g - (n % 4 == 0)) for n, g in enumerate(gram)) > ROTATION_TOL:
            raise ValueError("rotation is not orthonormal within 1e-9")
        a, b, c, d, e, f, g, h, i = r
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        if abs(det - 1.0) > ROTATION_TOL:
            raise ValueError("rotation determinant must be +1")
        return tuple.__new__(cls, (rows, tuple(t)))

    @property
    def rotation(self) -> np.ndarray:
        return _readonly(self.r, (3, 3))

    @property
    def translation(self) -> np.ndarray:
        return _readonly(self.t, (3,))


def _axis_rotation(axis: int, a: float) -> np.ndarray:
    """Rotation by a radians about coordinate axis 0, 1 or 2 (x, y or z)."""
    import numpy as np

    c, s = math.cos(a), math.sin(a)
    i, j = ((1, 2), (2, 0), (0, 1))[axis]
    m = np.eye(3)
    m[i, i] = m[j, j] = c
    m[i, j], m[j, i] = -s, s
    return m


def nearest_rotation(m: np.ndarray) -> np.ndarray:
    """Orthonormal matrix closest to m in the Frobenius sense, det +1."""
    import numpy as np

    u, _, vt = np.linalg.svd(m)
    r = u @ vt
    if np.linalg.det(r) < 0:
        r = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return r


def rotation_from_axis_angle(rvec: np.ndarray) -> np.ndarray:
    """Rodrigues map from a 3-vector whose norm is the angle in radians."""
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    # Each axis must pass, so a NaN residual (an iterate that overflowed)
    # fails the test instead of slipping through max().
    residual_tol = UNDISTORT_RESIDUAL_TOL
    if not (abs(fx - xd) <= residual_tol and abs(fy - yd) <= residual_tol):
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

        Raises RayParallelToPlane when the ray's vertical component vanishes
        or the intersection lies beyond float range, and PointNotOnGround
        when it lies at or behind the camera (on or above the horizon).
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
            raise RayParallelToPlane(
                f"normalized ({x:.6g}, {y:.6g}) meets plane z=0 beyond float range"
            )
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
    """Camera center in world coordinates, -R.T @ t, as numpy computes it."""
    return WorldPoint(*(-pose.rotation.T @ pose.translation).tolist())


def ground_map(k: CameraIntrinsics, pose: CameraPose) -> GroundMap:
    """The ground map of camera k at pose onto the ground plane z = 0.

    The yaw is atan2(R[2, 0], R[2, 1]), the heading of the optical axis on
    the ground. The center -R^T t is summed on plain floats, so it can
    differ from camera_center(pose) in the last bit: numpy's matrix product
    uses fused multiply-adds, which no Python summation order reproduces.
    Positions located from either center agree within 1e-9 mm.
    """
    c0, c1, c2 = zip(*pose.r)  # the rows of R^T
    tx, ty, tz = pose.t
    center = tuple(-(a * tx + b * ty + c * tz) for a, b, c in (c0, c1, c2))
    yaw = math.atan2(pose.r[2][0], pose.r[2][1])
    return GroundMap(k, c0 + c1 + c2, center, math.cos(yaw), math.sin(yaw))


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
