"""Detection-to-position pipeline: bearings, frames, end-to-end placement.

Placement closure is tested by rendering ground points through a known
camera, wrapping them in boxes whose bottom-center lands on the rendered
pixel, and requiring the pipeline to hand back the original point.
"""

from __future__ import annotations

import copy
import json
import math
import pickle
import re
import sys
import threading

import numpy as np
import pytest

from groundcam import files, pipeline
from groundcam.geometry import (
    CameraIntrinsics,
    CameraPose,
    Distortion,
    PixelPoint,
    ground_map,
)
from groundcam.pipeline import (
    _REASON_SLUGS,
    Detection,
    FrameConvention,
    IngestResult,
    LocalizedObject,
    UndefinedBearing,
    UnlocalizableDetection,
    bearing,
    ingest_detections,
    localize_batch,
)
from groundcam.projection import (
    EulerAngles,
    WorldPoint,
    camera_center,
    pose_from_euler,
    project,
)
from groundcam.reference import reference_intrinsics
from groundcam.regression import (
    BOTTOM_CENTER_WEIGHTS,
    BoundingBox,
    ClassModel,
    RegressionSample,
    bottom_center_regressor,
)
from groundcam.scene import SceneConfig, generate_scene

from conftest import REPO_ROOT, json_loads_ingest

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _detection_at_pixel(px: PixelPoint, label: str = "robot", frame: str = "f0"):
    """Box whose bottom-center sits exactly on px."""
    box = BoundingBox(px.u - 20.0, px.v - 40.0, px.u + 20.0, px.v)
    return Detection(frame_id=frame, label=label, score=0.9, bbox=box)


def _detection_for_point(p: WorldPoint, k, pose, label: str = "robot"):
    return _detection_at_pixel(project(p, k, pose), label=label)


def _localize(detection, regressor, k, pose, convention=FrameConvention.FIELD):
    return localize_batch([detection], regressor, k, pose, convention)[0]


def _camera_frame(p: WorldPoint, pose) -> tuple[float, float]:
    return ground_map(reference_intrinsics(), pose).camera_frame(p.x, p.y)


# ---------------------------------------------------------------------------
# bearing
# ---------------------------------------------------------------------------


class TestBearing:
    def test_cardinal_directions(self):
        assert bearing(0.0, 500.0) == 0.0
        assert bearing(500.0, 0.0) == 90.0
        assert bearing(-500.0, 0.0) == -90.0
        assert bearing(0.0, -500.0) == 180.0

    def test_known_diagonals(self):
        # atan2(250, 750) is 18.4349 degrees; the sign follows x.
        assert bearing(250.0, 750.0) == pytest.approx(18.4349488, abs=1e-6)
        assert bearing(-250.0, 750.0) == pytest.approx(-18.4349488, abs=1e-6)

    def test_result_range_is_half_open(self):
        assert bearing(-0.0, -1000.0) == 180.0
        for deg in np.linspace(-179.0, 179.0, 37):
            x = math.sin(math.radians(deg))
            y = math.cos(math.radians(deg))
            got = bearing(x, y)
            assert -180.0 < got <= 180.0
            assert got == pytest.approx(deg, abs=1e-9)

    def test_scale_invariance(self, rng):
        for _ in range(50):
            x, y = rng.uniform(-1000, 1000, 2)
            if x == 0.0 and y == 0.0:
                continue
            scale = rng.uniform(0.01, 100.0)
            assert bearing(scale * x, scale * y) == pytest.approx(
                bearing(x, y), abs=1e-9
            )

    def test_origin_is_undefined(self):
        with pytest.raises(UndefinedBearing):
            bearing(0.0, 0.0)


# ---------------------------------------------------------------------------
# Camera frame: GroundMap.camera_frame
# ---------------------------------------------------------------------------


class TestFrameConvert:
    def test_zero_yaw_is_pure_translation(self):
        # Pure downward pitch leaves the heading on +y, so the conversion
        # only subtracts the ground position of the camera.
        pose = pose_from_euler(
            EulerAngles(106.94, 0.0, 0.0), WorldPoint(-5.0, -500.0, 170.0)
        )
        x, y = _camera_frame(WorldPoint(100.0, 700.0, 0.0), pose)
        assert x == pytest.approx(105.0, abs=1e-9)
        assert y == pytest.approx(1200.0, abs=1e-9)

    def test_forward_ground_direction_maps_to_plus_y(self, ref_pose):
        c = camera_center(ref_pose)
        f = ref_pose.rotation[2, :]
        ground_f = np.array([f[0], f[1]])
        ground_f /= np.linalg.norm(ground_f)
        p = WorldPoint(c.x + 750.0 * ground_f[0], c.y + 750.0 * ground_f[1], 0.0)
        x, y = _camera_frame(p, ref_pose)
        assert x == pytest.approx(0.0, abs=1e-9)
        assert y == pytest.approx(750.0, abs=1e-9)

    def test_rightward_ground_direction_maps_to_plus_x(self, ref_pose):
        c = camera_center(ref_pose)
        f = ref_pose.rotation[2, :]
        right = np.array([f[1], -f[0]])
        right /= np.linalg.norm(right)
        p = WorldPoint(c.x + 300.0 * right[0], c.y + 300.0 * right[1], 0.0)
        x, y = _camera_frame(p, ref_pose)
        assert x == pytest.approx(300.0, abs=1e-9)
        assert y == pytest.approx(0.0, abs=1e-9)

    def test_distances_are_preserved(self, ref_pose, rng):
        c = camera_center(ref_pose)
        for _ in range(50):
            p = WorldPoint(rng.uniform(-1000, 1000), rng.uniform(-1000, 1000), 0.0)
            x, y = _camera_frame(p, ref_pose)
            assert math.hypot(x, y) == pytest.approx(
                math.hypot(p.x - c.x, p.y - c.y), abs=1e-9
            )


# ---------------------------------------------------------------------------
# localize_batch
# ---------------------------------------------------------------------------


class TestLocalize:
    def test_round_trip_on_known_ground_points(self, ref_k, ref_pose):
        regressor = bottom_center_regressor()
        for x, y in [(0.0, 500.0), (-250.0, 750.0), (250.0, 750.0), (0.0, 1000.0)]:
            d = _detection_for_point(WorldPoint(x, y, 0.0), ref_k, ref_pose)
            out = _localize(d, regressor, ref_k, ref_pose, FrameConvention.FIELD)
            assert isinstance(out, LocalizedObject)
            assert out.x_mm == pytest.approx(x, abs=1e-6)
            assert out.y_mm == pytest.approx(y, abs=1e-6)
            assert out.theta_deg == pytest.approx(bearing(x, y), abs=1e-9)
            assert out.frame_id == "f0"
            assert out.label == "robot"

    def test_round_trip_with_lens_model(self, ref_pose, ref_k):
        k = ref_k.with_distortion(Distortion(k1=-0.1, k2=0.02))
        regressor = bottom_center_regressor()
        d = _detection_for_point(WorldPoint(-250.0, 750.0, 0.0), k, ref_pose)
        out = _localize(d, regressor, k, ref_pose, FrameConvention.FIELD)
        assert isinstance(out, LocalizedObject)
        assert out.x_mm == pytest.approx(-250.0, abs=1e-5)
        assert out.y_mm == pytest.approx(750.0, abs=1e-5)

    def test_camera_convention_subtracts_the_camera(self, ref_k, ref_pose):
        regressor = bottom_center_regressor()
        d = _detection_for_point(WorldPoint(0.0, 750.0, 0.0), ref_k, ref_pose)
        out = _localize(d, regressor, ref_k, ref_pose, FrameConvention.CAMERA)
        expected = _camera_frame(WorldPoint(0.0, 750.0, 0.0), ref_pose)
        assert isinstance(out, LocalizedObject)
        assert out.x_mm == pytest.approx(expected[0], abs=1e-6)
        assert out.y_mm == pytest.approx(expected[1], abs=1e-6)

    def test_unknown_class_comes_back_with_reason(self, ref_k, ref_pose):
        regressor = bottom_center_regressor(labels=("ball",))
        d = _detection_at_pixel(PixelPoint(320.0, 400.0), label="goal")
        out = _localize(d, regressor, ref_k, ref_pose)
        assert isinstance(out, UnlocalizableDetection)
        assert out.reason == "unknown-class"
        assert out.ground_pixel is None
        assert out.frame_id == "f0"

    def test_above_horizon_pixel(self, ref_k, ref_pose):
        d = _detection_at_pixel(PixelPoint(322.8, 20.0))
        out = _localize(d, bottom_center_regressor(), ref_k, ref_pose)
        assert isinstance(out, UnlocalizableDetection)
        assert out.reason == "point-not-on-ground"
        assert out.ground_pixel is not None

    def test_exact_horizon_pixel(self, ref_k, ref_pose):
        m = ref_pose.rotation.T @ np.linalg.inv(ref_k.matrix)
        u = ref_k.u0
        v_h = -(m[2, 0] * u + m[2, 2]) / m[2, 1]
        out = _localize(
            _detection_at_pixel(PixelPoint(u, v_h)),
            bottom_center_regressor(),
            ref_k,
            ref_pose,
        )
        assert isinstance(out, UnlocalizableDetection)
        assert out.reason == "ray-parallel-to-plane"

    def test_undistort_failure_is_reported(self, ref_pose):
        # This lens model has no preimage for the probed pixel.
        k = CameraIntrinsics(1.0, 1.0, 0.0, 0.0, distortion=Distortion(k1=10.0))
        out = _localize(
            _detection_at_pixel(PixelPoint(1.0, 0.0)),
            bottom_center_regressor(),
            k,
            ref_pose,
        )
        assert isinstance(out, UnlocalizableDetection)
        assert out.reason == "undistort-nonconvergence"
        assert out.ground_pixel == PixelPoint(1.0, 0.0)

    def test_huge_box_with_lens_model_is_unlocalizable(self, ref_k, ref_pose):
        # A finite box so large that undistortion overflows to nan.
        k = ref_k.with_distortion(Distortion(k1=-0.12, k2=0.03))
        huge = Detection("f9", "ball", 0.9, BoundingBox(1e200, 1e200, 2e200, 2e200))
        out = _localize(huge, bottom_center_regressor(), k, ref_pose)
        assert isinstance(out, UnlocalizableDetection)
        assert out.reason == "undistort-nonconvergence"
        assert out.ground_pixel == PixelPoint(1.5e200, 2e200)

    def test_overflowing_ground_pixel_is_unlocalizable(self, ref_k, ref_pose):
        # u = xmin + xmax overflows to inf; the other rows still localize.
        weights = [(1.0, 0.0, 1.0, 0.0, 0.0), BOTTOM_CENTER_WEIGHTS[1]]
        regressor = {"ball": ClassModel(weights, 0.0)}
        ok = Detection("f0", "ball", 0.9, BoundingBox(150.0, 300.0, 170.0, 360.0))
        huge = Detection("f1", "ball", 0.9, BoundingBox(1e308, 0.0, 1.7e308, 1.0))
        results = localize_batch([ok, huge, ok], regressor, ref_k, ref_pose)
        assert isinstance(results[0], LocalizedObject)
        assert results[1] == UnlocalizableDetection("f1", "ball", "ground-pixel-not-finite")
        assert results[2] == results[0]

    def test_batch_preserves_order_and_mixes_outcomes(self, ref_k, ref_pose):
        regressor = bottom_center_regressor()
        ok = _detection_for_point(WorldPoint(0.0, 750.0, 0.0), ref_k, ref_pose)
        sky = _detection_at_pixel(PixelPoint(100.0, 10.0), frame="f1")
        results = localize_batch([ok, sky, ok], regressor, ref_k, ref_pose)
        assert isinstance(results[0], LocalizedObject)
        assert isinstance(results[1], UnlocalizableDetection)
        assert isinstance(results[2], LocalizedObject)
        assert results[1].frame_id == "f1"


# ---------------------------------------------------------------------------
# ingest_detections
# ---------------------------------------------------------------------------


def _line(frame="f0", cls="robot", score=0.9, bbox=(10.0, 10.0, 50.0, 80.0)):
    import json

    return json.dumps(
        {"frame": frame, "class": cls, "score": score, "bbox": list(bbox)}
    )


class TestIngestDetections:
    def test_well_formed_lines(self):
        result = ingest_detections(
            [
                _line(frame="a", cls="ball", score=0.8),
                _line(frame="b", cls="robot", score=0.6),
                _line(frame="c", cls="goal", score=1.0),
            ]
        )
        assert isinstance(result, IngestResult)
        assert result.diagnostics == ()
        assert [d.frame_id for d in result.detections] == ["a", "b", "c"]
        assert result.detections[0].label == "ball"
        assert result.detections[0].bbox.xmax == 50.0

    def test_malformed_json_is_diagnosed_with_line_number(self):
        result = ingest_detections([_line(), "{not json", _line()])
        assert len(result.detections) == 2
        assert len(result.diagnostics) == 1
        assert result.diagnostics[0].startswith("line 2:")

    def test_unknown_class_is_diagnosed(self):
        result = ingest_detections([_line(), _line(cls="plane")])
        assert len(result.detections) == 1
        assert "unknown class 'plane'" in result.diagnostics[0]
        assert result.diagnostics[0].startswith("line 2:")

    def test_degenerate_box_is_diagnosed(self):
        result = ingest_detections([_line(bbox=(10.0, 0.0, 10.0, 10.0))])
        assert result.detections == ()
        assert "positive extent" in result.diagnostics[0]

    def test_missing_key_is_diagnosed(self):
        result = ingest_detections(['{"frame": "f0", "class": "ball"}'])
        assert result.detections == ()
        assert result.diagnostics[0].startswith("line 1:")

    def test_out_of_range_score_is_diagnosed(self):
        result = ingest_detections([_line(score=1.5)])
        assert result.detections == ()
        assert "score" in result.diagnostics[0]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("bbox", '"1234"'),
            ("bbox", "[10, 10, 50]"),
            ("bbox", "[10, 10, 50, true]"),
            ("bbox", '[10, 10, 50, "80"]'),
            pytest.param("bbox", "[10, 10, 50, 1" + "0" * 400 + "]", id="bbox-huge"),
            ("score", '"0.9"'),
            ("score", "true"),
            ("score", "null"),
        ],
    )
    def test_wrongly_typed_value_is_diagnosed(self, field, value):
        values = {"frame": '"f0"', "class": '"robot"', "score": "0.9"}
        values["bbox"] = "[10, 10, 50, 80]"
        values[field] = value
        line = "{" + ", ".join(f'"{k}": {v}' for k, v in values.items()) + "}"
        result = ingest_detections([_line(), line])
        assert len(result.detections) == 1
        assert len(result.diagnostics) == 1
        assert result.diagnostics[0].startswith("line 2:")
        assert field in result.diagnostics[0]

    def test_integer_values_are_numbers(self):
        result = ingest_detections(
            ['{"frame": "f0", "class": "ball", "score": 1, "bbox": [10, 10, 50, 80]}']
        )
        assert result.diagnostics == ()
        assert result.detections[0].score == 1.0
        assert result.detections[0].bbox.xmax == 50.0

    def test_score_filter_drops_silently_and_keeps_the_boundary(self):
        result = ingest_detections(
            [_line(score=0.49), _line(score=0.5), _line(score=0.51)]
        )
        assert [d.score for d in result.detections] == [0.5, 0.51]
        assert result.diagnostics == ()

    def test_custom_threshold(self):
        result = ingest_detections([_line(score=0.3)], min_score=0.2)
        assert len(result.detections) == 1

    def test_blank_lines_are_skipped_silently(self):
        result = ingest_detections(["", "   ", _line(), "\n"])
        assert len(result.detections) == 1
        assert result.diagnostics == ()


    @pytest.mark.parametrize("value", ["null", "true", "false", "[1]", "1.5", "{}"])
    def test_frame_must_be_a_string_or_an_integer(self, value):
        line = f'{{"frame": {value}, "class": "ball", "score": 0.9, "bbox": [1, 2, 3, 4]}}'
        result = ingest_detections([line])
        assert result.detections == ()
        assert result.diagnostics == (
            f"line 1: frame must be a string or an integer, got {json.loads(value)!r}",
        )

    def test_integer_frame_keeps_its_decimal_text(self):
        line = '{"frame": 7, "class": "ball", "score": 0.9, "bbox": [1, 2, 3, 4]}'
        result = ingest_detections([line])
        assert result.diagnostics == ()
        assert result.detections[0].frame_id == "7"

    @pytest.mark.parametrize("value", ["5", "null", "true", '["ball"]'])
    def test_class_must_be_a_string(self, value):
        line = f'{{"frame": "f0", "class": {value}, "score": 0.9, "bbox": [1, 2, 3, 4]}}'
        result = ingest_detections([line])
        assert result.detections == ()
        assert result.diagnostics == (
            f"line 1: class must be a string, got {json.loads(value)!r}",
        )


# Lines whose parse differs between a decoder that stops at the end of the
# first value and json.loads, which reads the whole line.
ORACLE_LINES = {
    "trailing-data": _line() + "x",
    "trailing-object": _line() + "{}",
    "trailing-data-after-space": _line() + "   x",
    "trailing-line-after-tab": _line() + "\t" + _line(),
    "array": "[1, 2]",
    "string": '"str"',
    "number": "42",
    "empty-object": "{}",
    "truncated-object": _line()[:-7],
    "nan-coordinate": '{"frame": "f0", "class": "ball", "score": 0.9, "bbox": [NaN, 2, 3, 4]}',
    "surrounding-whitespace": " \t " + _line(frame="ws") + " \r\n",
    "null-frame": '{"frame": null, "class": "ball", "score": 0.9, "bbox": [1, 2, 3, 4]}',
    "integer-frame": '{"frame": 12, "class": "goal", "score": 0.9, "bbox": [1, 2, 3, 4]}',
}


@pytest.mark.parametrize("text", ORACLE_LINES.values(), ids=ORACLE_LINES.keys())
def test_ingest_equals_a_json_loads_reference(text):
    lines = [_line(frame="a"), text, _line(frame="b", score=0.2), _line(frame="c")]
    result = ingest_detections(lines)
    assert (result.detections, result.diagnostics) == json_loads_ingest(lines)


# ---------------------------------------------------------------------------
# Value objects
# ---------------------------------------------------------------------------


def test_detection_score_range_enforced():
    # ingest_detections is the one reader of a score: it keeps [0, 1] and
    # names any other value, NaN included, before it looks at the class.
    lines = [
        _line(frame="a", score=1.5),
        _line(frame="b", score=-0.1),
        _line(frame="c", score=math.nan),
        _line(frame="d", cls="plane", score=7),
        _line(frame="e", score=0.0),
        _line(frame="f", score=1.0),
    ]
    result = ingest_detections(lines, min_score=0.0)
    assert result.diagnostics == (
        "line 1: score must be in [0, 1], got 1.5",
        "line 2: score must be in [0, 1], got -0.1",
        "line 3: score must be in [0, 1], got nan",
        "line 4: score must be in [0, 1], got 7.0",
    )
    assert [(d.frame_id, d.score) for d in result.detections] == [("e", 0.0), ("f", 1.0)]


def test_localized_object_theta_range_enforced(ref_k, ref_pose):
    # Ground points straddling the field frame's -y axis, in front of the
    # reference camera, where atan2 flips between +180 and -180 degrees.
    points = [WorldPoint(x, y) for x in (-1.0, -1e-9, 0.0, 1e-9, 1.0) for y in (-300.0, -100.0)]
    detections = [_detection_for_point(p, ref_k, ref_pose) for p in points]
    results = localize_batch(detections, bottom_center_regressor(), ref_k, ref_pose)
    thetas = [r.theta_deg for r in results]
    assert all(isinstance(r, LocalizedObject) for r in results)
    assert all(-180.0 < theta <= 180.0 for theta in thetas)
    assert min(thetas) < -179.0 and max(thetas) > 179.0
    for r in results:
        assert r.theta_deg == bearing(r.x_mm, r.y_mm)


_BOX = BoundingBox(10.0, 10.0, 50.0, 80.0)
_PIXEL = PixelPoint(30.0, 80.0)
# One valid record of each per-detection type, and a field to assign to.
RECORDS = {
    "BoundingBox": (_BOX, "xmin"),
    "PixelPoint": (_PIXEL, "u"),
    "Detection": (Detection("f", "ball", 0.9, _BOX), "score"),
    "LocalizedObject": (LocalizedObject("f", "ball", 1.0, 2.0, 26.5, _PIXEL), "x_mm"),
    "UnlocalizableDetection": (UnlocalizableDetection("f", "ball", "unknown-class"), "reason"),
}


@pytest.mark.parametrize("record, name", RECORDS.values(), ids=RECORDS.keys())
def test_records_are_immutable(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


# Each set-up record type, built by a function so that two builds are
# equal but distinct objects, and a field to assign to.
VALUE_RECORDS = {
    "Distortion": (lambda: Distortion(k1=-0.12, k2=0.03), "k1"),
    "CameraIntrinsics": (
        lambda: CameraIntrinsics(800, 810, 320, 240, 0.5, Distortion(p1=1e-3)),
        "u0",
    ),
    "WorldPoint": (lambda: WorldPoint(1, 2, 3), "z"),
    "EulerAngles": (lambda: EulerAngles(10, -20, 180), "phi"),
    "RegressionSample": (lambda: RegressionSample("ball", _BOX, _PIXEL), "label"),
    "ClassModel": (lambda: ClassModel(BOTTOM_CENTER_WEIGHTS, 0.5), "rmse_px"),
    "IngestResult": (
        lambda: IngestResult((Detection("f", "ball", 0.9, _BOX),), ("line 2: x",)),
        "diagnostics",
    ),
}


@pytest.mark.parametrize("build, name", VALUE_RECORDS.values(), ids=VALUE_RECORDS.keys())
def test_set_up_records_are_immutable_values(build, name):
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == build()
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record)
        assert clone == record


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: BoundingBox(math.nan, 0.0, 1.0, 1.0), "box coordinates must be finite"),
        (lambda: BoundingBox(0.0, 0.0, 1.0, math.inf), "box coordinates must be finite"),
        (
            lambda: BoundingBox(10.0, 0.0, 10.0, 10.0),
            "box must have positive extent, got (10.0, 0.0, 10.0, 10.0)",
        ),
        (
            lambda: BoundingBox(0.0, 5, 1.0, 5),
            "box must have positive extent, got (0.0, 5, 1.0, 5)",
        ),
        (lambda: PixelPoint(math.inf, 0.0), "pixel coordinates must be finite"),
        (lambda: PixelPoint(0.0, math.nan), "pixel coordinates must be finite"),
    ],
)
def test_records_reject_bad_values_with_their_messages(build, message):
    with pytest.raises(ValueError) as error:
        build()
    assert str(error.value) == message


def test_record_fields_and_defaults():
    p = PixelPoint(1, 2)
    assert type(p.u) is float and p.u == 1.0 and p.v == 2.0
    assert UnlocalizableDetection("f", "ball", "unknown-class").ground_pixel is None
    placed = LocalizedObject("f", "ball", 0.0, 1.0, 180.0, _PIXEL)
    missed = UnlocalizableDetection("f", "ball", "point-not-on-ground", _PIXEL)
    assert isinstance(placed, LocalizedObject)
    assert not isinstance(placed, UnlocalizableDetection)
    assert isinstance(missed, UnlocalizableDetection)
    assert not isinstance(missed, LocalizedObject)
    assert Detection(frame_id="f", label="ball", score=0.9, bbox=_BOX).bbox is _BOX


def test_frame_convention_values():
    assert FrameConvention.FIELD.value == "field"
    assert FrameConvention.CAMERA.value == "camera"


def test_readme_lists_every_unlocalizable_reason():
    # localize_batch emits the caught geometry failures' slugs and two literals.
    readme = (REPO_ROOT / "README.md").read_text()
    entry = readme.split("- `localizations.jsonl`:", 1)[1].split("\n- ", 1)[0]
    listed = re.findall(r"^  - `([a-z-]+)`:", entry, re.MULTILINE)
    emitted = [*_REASON_SLUGS.values(), "unknown-class", "ground-pixel-not-finite"]
    assert sorted(listed) == sorted(emitted)


# ---------------------------------------------------------------------------
# Batch-size independence and an independent numpy oracle
# ---------------------------------------------------------------------------

BENCH_LENS = Distortion(k1=-0.12, k2=0.05, p1=0.001, p2=-0.0008)


@pytest.fixture(scope="module")
def lens_scene(tmp_path_factory):
    """Detections of a noisy lens-model scene, interleaved with rows that
    cannot be placed: above the horizon, a class the regressor lacks, and a
    ground pixel the lens model cannot invert."""
    config = SceneConfig(
        intrinsics=reference_intrinsics().with_distortion(BENCH_LENS),
        noise_px=0.5,
        grid_columns=5,
        grid_rows=12,
        grid_spacing_mm=200.0,
        grid_origin_mm=(0.0, 400.0),
        num_views=0,
    )
    scene = generate_scene(config, seed=3, out_dir=tmp_path_factory.mktemp("lens"))
    odd = [
        _detection_at_pixel(PixelPoint(320.0, 20.0), label="ball", frame="sky"),
        _detection_at_pixel(PixelPoint(320.0, 300.0), label="robot", frame="uncovered"),
        _detection_at_pixel(PixelPoint(1500.0, 1500.0), label="ball", frame="far"),
    ]
    detections = list(scene.detections)
    for i, d in enumerate(odd * 3):
        detections.insert(7 * i + 2, d)
    return detections, scene.regressor, config.intrinsics, config.pose


@pytest.mark.parametrize("convention", list(FrameConvention))
def test_output_does_not_depend_on_batch_size(lens_scene, convention):
    detections, regressor, k, pose = lens_scene

    def lines(size):
        out = []
        for i in range(0, len(detections), size):
            chunk = localize_batch(detections[i : i + size], regressor, k, pose, convention)
            out += [files.localization_line(r) for r in chunk]
        return out

    whole = lines(len(detections))
    assert lines(1) == whole
    assert lines(4) == whole
    singles = [_localize(d, regressor, k, pose, convention) for d in detections]
    assert singles == localize_batch(detections, regressor, k, pose, convention)
    assert {json.loads(line)["status"] for line in whole} == {
        "ok",
        "unlocalizable:point-not-on-ground",
        "unlocalizable:unknown-class",
        "unlocalizable:undistort-nonconvergence",
    }


@pytest.mark.parametrize("convention", list(FrameConvention))
def test_ground_map_is_built_once_per_camera(lens_scene, monkeypatch, convention):
    detections, regressor, k, scene_pose = lens_scene
    builds = []

    def counting_ground_map(k, pose):
        builds.append(pose)
        return ground_map(k, pose)

    monkeypatch.setattr(pipeline, "ground_map", counting_ground_map)
    # Equal-valued copies: objects no earlier call has been given.
    pose, twin = (CameraPose(scene_pose.r, scene_pose.t) for _ in range(2))
    frames = [detections[i % 30 : i % 30 + 4] for i in range(100)]
    for frame in frames:
        localize_batch(frame, regressor, k, pose, convention)
    assert len(builds) == 1 and builds[0] is pose

    other = pose_from_euler(
        EulerAngles(106.94, 0.0, 3.0), WorldPoint(-5.0, -500.0, 170.0)
    )
    poses = [other, pose, other, twin, twin, pose, other, other]
    rows = {id(p): [] for p in poses}
    builds.clear()
    for p, frame in zip(poses, frames):
        chunk = localize_batch(frame, regressor, k, p, convention)
        rows[id(p)] += [files.localization_line(r) for r in chunk]
    switches = [other, pose, other, twin, pose, other]
    assert len(builds) == len(switches)
    assert all(built is p for built, p in zip(builds, switches))

    for p in (other, pose, twin):
        batch = [d for q, frame in zip(poses, frames) if q is p for d in frame]
        fresh = localize_batch(batch, regressor, k, CameraPose(p.r, p.t), convention)
        assert rows[id(p)] == [files.localization_line(r) for r in fresh]


def test_threads_switching_cameras_never_use_another_cameras_map(lens_scene):
    detections, regressor, k, pose = lens_scene
    other = pose_from_euler(
        EulerAngles(106.94, 0.0, 3.0), WorldPoint(-5.0, -500.0, 170.0)
    )
    frame = detections[:4]
    expected = {id(p): localize_batch(frame, regressor, k, p) for p in (pose, other)}
    wrong = []

    def work(first, second):
        for _ in range(200):
            for p in (first, second):
                if localize_batch(frame, regressor, k, p) != expected[id(p)]:
                    wrong.append(p)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(pose, other) if i % 2 else (other, pose))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def _oracle_positions(detections, regressor, k, pose, convention):
    """Ground positions from numpy alone: regress, undistort by 40
    fixed-point steps, intersect z = 0, and for the camera frame translate by
    the camera center and rotate by the yaw. Rows above the horizon are NaN."""
    weights = np.stack([regressor[d.label].weights for d in detections])
    boxes = np.array([[*d.bbox, 1.0] for d in detections])
    pixels = np.einsum("nij,nj->ni", weights, boxes)
    homogeneous = np.column_stack([pixels, np.ones(len(pixels))])
    observed = (homogeneous @ np.linalg.inv(k.matrix).T)[:, :2]
    d = k.distortion
    x, y = observed[:, 0].copy(), observed[:, 1].copy()
    for _ in range(40):
        r2 = x * x + y * y
        radial = 1.0 + d.k1 * r2 + d.k2 * r2**2 + d.k3 * r2**3
        tx = 2.0 * d.p1 * x * y + d.p2 * (r2 + 2.0 * x * x)
        ty = d.p1 * (r2 + 2.0 * y * y) + 2.0 * d.p2 * x * y
        x, y = (observed[:, 0] - tx) / radial, (observed[:, 1] - ty) / radial
    r, t = pose.rotation, pose.translation
    rays = np.column_stack([x, y, np.ones(len(x))]) @ r
    center = -r.T @ t
    s = -center[2] / rays[:, 2]
    hits = center[:2] + s[:, None] * rays[:, :2]
    hits[s <= 0] = np.nan
    if convention is FrameConvention.CAMERA:
        yaw = math.atan2(r[2, 0], r[2, 1])
        rel = hits - center[:2]
        c, sn = math.cos(yaw), math.sin(yaw)
        hits = np.column_stack([rel[:, 0] * c - rel[:, 1] * sn, rel[:, 0] * sn + rel[:, 1] * c])
    return hits


@pytest.mark.parametrize("convention", list(FrameConvention))
def test_positions_match_an_independent_oracle(lens_scene, convention):
    detections, regressor, k, pose = lens_scene
    placeable = [d for d in detections if d.frame_id not in ("uncovered", "far")]
    expected = _oracle_positions(placeable, regressor, k, pose, convention)
    results = localize_batch(placeable, regressor, k, pose, convention)
    for result, (ex, ey) in zip(results, expected):
        if math.isnan(ex):
            assert result.reason == "point-not-on-ground"
            continue
        assert isinstance(result, LocalizedObject)
        assert abs(result.x_mm - ex) <= 1e-9
        assert abs(result.y_mm - ey) <= 1e-9
        assert result.theta_deg == bearing(result.x_mm, result.y_mm)
    assert sum(isinstance(r, LocalizedObject) for r in results) == len(placeable) - 3
