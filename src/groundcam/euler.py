"""Euler angles of a camera pose, on plain floats.

A calibration document reports its pose's angles beside the rotation, so
the commands that write a pose load this module and not the numpy camera
model. Angles (omega, phi, kappa) are degrees and compose as
R = Rz(kappa) @ Ry(phi) @ Rx(omega).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .geometry import CameraPose, WorldPoint, camera_center


class EulerAngles(NamedTuple):
    """Rotation as (omega, phi, kappa) degrees; euler_from_pose returns each
    in (-180, 180]."""

    omega: float
    phi: float
    kappa: float


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
