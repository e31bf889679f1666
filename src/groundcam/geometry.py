"""Pinhole camera geometry on floats: lens distortion and ground-plane back-projection.

Coordinate conventions used throughout the package:

* World (field) frame: right handed, millimeters, z up; z = 0 is the carpet.
* Camera frame: x right, y down, z forward along the optical axis.
* Image frame: u rightward, v downward, pixels, origin at the top-left corner.
* ``CameraPose`` holds the world-to-camera rotation R and translation t, so a
  world point p has camera coordinates R @ p + t and the camera center in
  world coordinates is -R.T @ t.
* Everything here runs on plain floats; numpy is imported only inside the
  properties that return arrays. Every type is immutable after construction
  and every function is pure, so the module is safe to share across threads.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

RAY_NORMAL_EPS = 1e-12
ROTATION_TOL = 1e-9
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


class WorldPoint(NamedTuple):
    """Point in the field frame, millimeters, unchecked (landmarks_from_dict checks a file's)."""

    x: float
    y: float
    z: float = 0.0


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


def camera_center(pose: CameraPose) -> WorldPoint:
    """The camera center in world coordinates, -R^T t, summed on plain floats."""
    tx, ty, tz = pose.t
    return WorldPoint(*(-(a * tx + b * ty + c * tz) for a, b, c in zip(*pose.r)))


def distort_normalized(x: float, y: float, d: Distortion) -> tuple[float, float]:
    """Apply the Brown-Conrady model to one normalized image coordinate."""
    r2 = x * x + y * y
    radial = 1.0 + r2 * (d.k1 + r2 * (d.k2 + r2 * d.k3))
    xd = x * radial + 2.0 * d.p1 * x * y + d.p2 * (r2 + 2.0 * x * x)
    yd = y * radial + d.p1 * (r2 + 2.0 * y * y) + 2.0 * d.p2 * x * y
    return xd, yd


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


class GroundMap(NamedTuple):
    """One camera pose's pixel-to-ground map, held as plain floats.

    ground_map builds it once per pose; locate then takes each pixel through
    K^-1, undistort_normalized and the plane hit without a numpy call, so a
    batch of any size costs the same per pixel.
    """

    k: CameraIntrinsics
    rt: tuple[float, ...]  # R^T row-major: the world ray of (x, y) is R^T (x, y, 1)
    center: WorldPoint  # camera_center
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


def ground_map(k: CameraIntrinsics, pose: CameraPose) -> GroundMap:
    """The ground map of camera k at pose onto z = 0; its yaw is atan2(R[2, 0],
    R[2, 1]), the heading of the optical axis on the ground."""
    c0, c1, c2 = zip(*pose.r)  # the rows of R^T
    yaw = math.atan2(pose.r[2][0], pose.r[2][1])
    return GroundMap(k, c0 + c1 + c2, camera_center(pose), math.cos(yaw), math.sin(yaw))
