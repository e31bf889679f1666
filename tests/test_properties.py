"""Property tests: the lens inverse, the ground map and the rotation
parameterizations undo their forward maps, bearings stay in (-180, 180],
ingest parses any line as json.loads does, and the regressor fit is the
exact least-squares solution rounded once, whatever the sample order.

Skipped when hypothesis is not installed.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

import math  # noqa: E402

import numpy as np  # noqa: E402
from hypothesis import Phase, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from groundcam import files  # noqa: E402
from groundcam.fitting import _sqrt_g, fit  # noqa: E402
from groundcam.geometry import (  # noqa: E402
    PixelPoint,
    Distortion,
    WorldPoint,
    distort_normalized,
    ground_map,
    undistort_normalized,
)
from groundcam.pipeline import bearing, ingest_detections  # noqa: E402
from groundcam.euler import EulerAngles, euler_from_pose  # noqa: E402
from groundcam.projection import (  # noqa: E402
    axis_angle_from_rotation,
    pose_from_euler,
    project,
    rotation_from_axis_angle,
)
from groundcam.reference import (  # noqa: E402
    IMAGE_HEIGHT_PX,
    IMAGE_WIDTH_PX,
    reference_intrinsics,
    reference_pose,
)
from groundcam.regression import BoundingBox, RegressionSample  # noqa: E402

from conftest import exact_least_squares, json_loads_ingest  # noqa: E402

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


def _wrapped(deg: float) -> float:
    """deg folded into [-180, 180)."""
    return (deg + 180.0) % 360.0 - 180.0


# Angles in (-180, 180], the upper end included; phi kept 1 degree clear of
# the gimbal lock at +-90.
half_turn = st.one_of(st.just(180.0), st.floats(-180.0, 180.0, exclude_min=True))


@settings(max_examples=300, deadline=None)
@given(
    omega=half_turn,
    phi=st.floats(-89.0, 89.0),
    kappa=half_turn,
    center=st.tuples(*[st.floats(-5000.0, 5000.0)] * 3),
)
def test_euler_from_pose_inverts_pose_from_euler(omega, phi, kappa, center):
    pose = pose_from_euler(EulerAngles(omega, phi, kappa), WorldPoint(*center))
    angles, c = euler_from_pose(pose)
    for got, want in ((angles.omega, omega), (angles.phi, phi), (angles.kappa, kappa)):
        assert -180.0 < got <= 180.0
        assert abs(_wrapped(got - want)) <= 1e-9
    assert np.max(np.abs(np.array(c) - center)) <= 1e-9


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(x=finite, y=finite)
def test_bearing_is_in_half_open_range(x, y):
    assume(x != 0.0 or y != 0.0)
    theta = bearing(x, y)
    assert -180.0 < theta <= 180.0
    assert abs(_wrapped(theta - math.degrees(math.atan2(x, y)))) <= 1e-12


axes = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array).filter(
    lambda a: np.linalg.norm(a) > 0.1
)


@settings(max_examples=300, deadline=None)
@given(axis=axes, angle=st.one_of(st.just(0.0), st.floats(0.0, 1e-6)))
def test_axis_angle_round_trip_near_zero(axis, angle):
    rvec = axis / np.linalg.norm(axis) * angle
    back = axis_angle_from_rotation(rotation_from_axis_angle(rvec))
    # rotation_from_axis_angle itself returns the identity below 1e-12 rad.
    assert np.max(np.abs(back - rvec)) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(axis=axes, gap=st.one_of(st.just(0.0), st.floats(0.0, 1e-4)))
def test_axis_angle_round_trip_near_pi(axis, gap):
    rvec = axis / np.linalg.norm(axis) * (math.pi - gap)
    r = rotation_from_axis_angle(rvec)
    back = axis_angle_from_rotation(r)
    assert abs(np.linalg.norm(back) - (math.pi - gap)) <= 1e-12
    assert np.max(np.abs(rotation_from_axis_angle(back) - r)) <= 1e-12
    # At pi itself the axis sign is free; anywhere short of it, it is not.
    if gap >= 1e-9:
        assert np.max(np.abs(back - rvec)) <= 1e-12


VALID_LINE = '{"bbox": [10.5, 20.0, 50.25, 80.0], "class": "ball", "frame": "f7", "score": 0.75}'
# Characters that keep a mutated line close to JSON, plus any character.
json_chars = st.one_of(st.sampled_from(list('{}[]",: \t0123456789.-eENaI')), st.characters())


@st.composite
def one_character_mutations(draw):
    """VALID_LINE with one character deleted, replaced or inserted."""
    i = draw(st.integers(0, len(VALID_LINE)))
    c = draw(json_chars)
    op = draw(st.sampled_from(("delete", "replace", "insert")))
    if op == "delete":
        return VALID_LINE[:i] + VALID_LINE[i + 1 :]
    if op == "replace":
        return VALID_LINE[:i] + c + VALID_LINE[i + 1 :]
    return VALID_LINE[:i] + c + VALID_LINE[i:]


# VALID_LINE followed by JSON whitespace and more text.
trailing_text = st.builds(
    lambda gap, tail: VALID_LINE + gap + tail, st.text(" \t\r", min_size=1), st.text()
)


@settings(max_examples=500)
@given(line=st.one_of(st.text(), one_character_mutations(), trailing_text))
def test_ingest_equals_a_json_loads_reference(line):
    lines = [VALID_LINE, line, VALID_LINE]
    result = ingest_detections(lines)
    assert (result.detections, result.diagnostics) == json_loads_ingest(lines)


# A box in the image, at least a pixel wide and high, and a ground pixel
# anywhere near the image.
regression_samples = st.builds(
    lambda x, y, w, h, u, v: RegressionSample(
        "ball", BoundingBox(x, y, x + w, y + h), PixelPoint(u, v)
    ),
    st.floats(0, 600),
    st.floats(0, 440),
    st.floats(1, 200),
    st.floats(1, 200),
    st.floats(-100, 740),
    st.floats(-100, 580),
)


# A failing example is reported as drawn, unshrunk: shrinking lists of
# samples through the Fraction oracle ran for minutes on a broken solver and
# grew the process by about 5 MB a second.
@settings(max_examples=100, deadline=None, phases=[Phase.explicit, Phase.generate])
@given(samples=st.lists(regression_samples, min_size=5, max_size=12), order=st.randoms())
def test_fit_is_the_exact_solution_rounded_once_in_any_order(samples, order):
    try:
        model = fit(samples)
    except ValueError as exc:
        assert "column dependence detected" in str(exc)
        assume(False)
    rows = [(*s.bbox, 1.0) for s in samples]
    targets = list(zip(*(s.ground_pixel for s in samples)))
    assert model["ball"].weights == tuple(exact_least_squares(rows, targets))
    shuffled = list(samples)
    order.shuffle(shuffled)
    document = files.dumps(files.model_to_dict(model))
    assert files.dumps(files.model_to_dict(fit(shuffled))) == document


@settings(max_examples=300, deadline=None)
@given(x=st.floats(min_value=0.0, allow_infinity=False))
def test_rank_message_prints_a_root_as_float_formatting_does(x):
    # x squared as an exact fraction has the root x itself. The rank
    # message prints it without converting to float, so x * 10**400, past
    # the float range, prints with x's digits.
    num, den = x.as_integer_ratio()
    assert _sqrt_g((num * num, den * den)) == "%.3g" % x
    mantissa, exponent = ("%.2e" % x).split("e")
    far = f"{mantissa.rstrip('0').rstrip('.')}e{int(exponent) + 400:+d}" if x else "0"
    assert _sqrt_g((num * num * 10**800, den * den)) == far
