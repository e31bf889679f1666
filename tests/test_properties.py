"""Property tests: the lens inverse and the ground map undo their forward maps.

Skipped when hypothesis is not installed.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from groundcam.geometry import (  # noqa: E402
    Distortion,
    WorldPoint,
    distort_normalized,
    ground_map,
    project,
    undistort_normalized,
)
from groundcam.reference import (  # noqa: E402
    IMAGE_HEIGHT_PX,
    IMAGE_WIDTH_PX,
    reference_intrinsics,
    reference_pose,
)

REF_K = reference_intrinsics()
# Normalized extent of the reference image: |x| <= 0.51, |y| <= 0.38.
X_MAX = max(REF_K.u0, IMAGE_WIDTH_PX - REF_K.u0) / REF_K.alpha_x
Y_MAX = max(REF_K.v0, IMAGE_HEIGHT_PX - REF_K.v0) / REF_K.alpha_y

lenses = st.builds(
    Distortion,
    k1=st.floats(-0.35, 0.35),
    k2=st.floats(-0.05, 0.05),
    p1=st.floats(-1e-3, 1e-3),
    p2=st.floats(-1e-3, 1e-3),
)


@settings(max_examples=300, deadline=None)
@given(x=st.floats(-X_MAX, X_MAX), y=st.floats(-Y_MAX, Y_MAX), lens=lenses)
def test_undistort_inverts_distort_inside_the_image(x, y, lens):
    xd, yd = distort_normalized(x, y, lens)
    ux, uy = undistort_normalized(xd, yd, lens)
    assert abs(ux - x) <= 1e-9
    assert abs(uy - y) <= 1e-9


@settings(max_examples=300, deadline=None)
@given(
    forward=st.floats(0.0, 3000.0),
    across=st.floats(-1.0, 1.0),
    lens=st.builds(Distortion, k1=st.floats(-0.2, 0.2), k2=st.floats(-0.05, 0.05)),
)
def test_ground_map_inverts_projection_of_ground_points(forward, across, lens):
    # Ground points ahead of the reference camera, spread across its view.
    pose = reference_pose()
    k = REF_K.with_distortion(lens)
    p = WorldPoint(across * (forward + 500.0) * 0.45, forward, 0.0)
    px = project(p, k, pose)
    assume(0.0 <= px.u < IMAGE_WIDTH_PX and 0.0 <= px.v < IMAGE_HEIGHT_PX)
    x, y = ground_map(k, pose).locate(px.u, px.v)
    assert abs(x - p.x) <= 1e-6
    assert abs(y - p.y) <= 1e-6
