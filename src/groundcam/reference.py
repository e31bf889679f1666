"""Reference calibration of the camera rig the shipped evaluation data comes from.

The values were measured on a robot-mounted 640x480 webcam sitting 171.4 mm
above the carpet, pitched about 17 degrees down. They serve as the default
ground truth for the synthetic scene generator and as a self-consistency
fixture: no raw image survives to validate them against, so tests exercise
them as round trips.
"""

from .geometry import CameraIntrinsics, CameraPose
from .projection import EulerAngles, WorldPoint, pose_from_euler

REFERENCE_ALPHA_X = 642.41
REFERENCE_ALPHA_Y = 642.54
REFERENCE_U0 = 322.80
REFERENCE_V0 = 239.76

REFERENCE_EULER_DEG = (106.94, -0.43, -0.38)
REFERENCE_CAMERA_CENTER_MM = (-5.38, -509.79, 171.40)

IMAGE_WIDTH_PX = 640
IMAGE_HEIGHT_PX = 480


def reference_intrinsics() -> CameraIntrinsics:
    """Measured intrinsics; zero skew and an unrecorded (zero) lens model."""
    return CameraIntrinsics(
        alpha_x=REFERENCE_ALPHA_X,
        alpha_y=REFERENCE_ALPHA_Y,
        u0=REFERENCE_U0,
        v0=REFERENCE_V0,
    )


def reference_pose() -> CameraPose:
    """Measured extrinsics, rebuilt from the recorded Euler angles and center."""
    return pose_from_euler(
        EulerAngles(*REFERENCE_EULER_DEG), WorldPoint(*REFERENCE_CAMERA_CENTER_MM)
    )
