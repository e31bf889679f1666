"""On-disk formats: round trips, line shapes, and the checked-in fixtures.

Every save/load pair must reproduce its input exactly. The fixtures
directory is covered here too, so a stale regenerated file fails loudly.
"""

from __future__ import annotations

import csv
import io
import json
import re

import numpy as np
import pytest

from groundcam import evaluation, extrinsics, files, intrinsics
from groundcam.evaluation import EvalPair, build_report, error_stats, rmse
from groundcam.extrinsics import FieldGeometry, PnpCorrespondence, field_landmarks
from groundcam.geometry import CameraIntrinsics, Distortion, PixelPoint, WorldPoint
from groundcam.pipeline import LocalizedObject, UnlocalizableDetection
from groundcam.regression import (
    BoundingBox,
    RegressionSample,
    bottom_center_regressor,
)
from groundcam.reference import reference_intrinsics, reference_pose

from conftest import FIXTURES_DIR

# ---------------------------------------------------------------------------
# Calibration documents
# ---------------------------------------------------------------------------


class TestCalibrationFile:
    def test_full_round_trip(self, tmp_path, ref_pose):
        k = CameraIntrinsics(
            642.41,
            642.54,
            322.80,
            239.76,
            gamma=1.5,
            distortion=Distortion(k1=-0.1, k2=0.02, k3=1e-4, p1=2e-4, p2=-1e-4),
        )
        path = tmp_path / "calibration.json"
        files.write_json(path, files.calibration_to_dict(k, ref_pose, rmse_px=0.42))
        loaded_k, loaded_pose = files.load_calibration(path)
        assert loaded_k == k
        assert np.array_equal(loaded_pose.rotation, ref_pose.rotation)
        assert np.array_equal(loaded_pose.translation, ref_pose.translation)
        doc = json.loads(path.read_text())
        assert doc["rmse_px"] == 0.42
        assert len(doc["pose"]["rotation"]) == 9
        assert "euler_deg" in doc and "camera_center_mm" in doc

    def test_intrinsics_only_file(self, tmp_path, ref_k):
        path = tmp_path / "intrinsics.json"
        files.write_json(path, files.calibration_to_dict(ref_k))
        loaded_k, loaded_pose = files.load_calibration(path)
        assert loaded_k == ref_k
        assert loaded_pose is None
        assert "pose" not in json.loads(path.read_text())

    def test_json_is_stable(self, tmp_path, ref_k):
        # Sorted keys and a trailing newline keep the bytes diffable.
        path = tmp_path / "calibration.json"
        doc = files.calibration_to_dict(ref_k)
        files.write_json(path, doc)
        text = path.read_text()
        assert text == files.dumps(doc)
        assert text.endswith("}\n")
        assert '\n  "intrinsics": {\n    "alpha_x": ' in text
        doc = json.loads(text)
        assert list(doc["intrinsics"]) == sorted(doc["intrinsics"])

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("alpha_x", "642.41", "alpha_x must be a number"),
            ("gamma", True, "gamma must be a number"),
            ("distortion", {"k2": None}, "distortion.k2 must be a number"),
            ("pose", {"rotation": ["1"] * 9, "translation": [0, 0, 1]}, "pose.rotation"),
            ("pose", {"rotation": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "translation": [0, 0, 1]},
             "pose.rotation must be an array of 9 numbers"),
            ("pose", {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [0, 0, True]},
             "pose.translation must be a number, got True"),
        ],
    )
    def test_values_must_be_json_numbers(self, tmp_path, ref_k, ref_pose, key, value, named):
        doc = files.calibration_to_dict(ref_k, ref_pose)
        if key == "pose":
            doc["pose"] = value
        else:
            doc["intrinsics"][key] = value
        path = tmp_path / "calibration.json"
        files.write_json(path, doc)
        with pytest.raises(ValueError) as error:
            files.load_calibration(path)
        assert str(error.value).startswith(f"{path}: {named}")

    def test_missing_distortion_defaults_to_zero(self):
        k = files.intrinsics_from_dict(
            {"alpha_x": 600.0, "alpha_y": 600.0, "u0": 320.0, "v0": 240.0}
        )
        assert k.distortion.is_zero
        assert k.gamma == 0.0


# ---------------------------------------------------------------------------
# Planar views, landmarks, models, samples
# ---------------------------------------------------------------------------


class TestPlanarViewsFile:
    def test_round_trip(self, tmp_path, default_scene):
        path = tmp_path / "views.json"
        files.write_json(path, intrinsics.views_to_dict(list(default_scene.views)[:2], 25.0))
        views = intrinsics.load_planar_views(path)
        assert json.loads(path.read_text())["square_size_mm"] == 25.0
        assert len(views) == 2
        for loaded, original in zip(views, default_scene.views):
            assert loaded.view_id == original.view_id
            assert np.array_equal(loaded.pixels, original.pixels)
            assert np.array_equal(loaded.pattern, original.pattern)


class TestLandmarksFile:
    def test_round_trip_with_extra_points(self, tmp_path):
        geometry = FieldGeometry.division_b()
        named = {
            "goal_bottom_center": PixelPoint(322.5, 210.25),
            "far_goal_bottom_center": PixelPoint(100.0, 215.5),
        }
        extra = [
            PnpCorrespondence(
                pixel=PixelPoint(50.0, 60.0), world=WorldPoint(1.0, 2.0, 3.0)
            )
        ]
        path = tmp_path / "landmarks.json"
        files.write_json(path, extrinsics.landmarks_to_dict(geometry, named, extra))
        loaded = extrinsics.load_landmarks(path)
        catalog = field_landmarks(geometry)
        assert loaded == [
            *(PnpCorrespondence(px, catalog[name], name) for name, px in named.items()),
            *extra,
        ]

    def test_geometry_survives_the_dict_form(self):
        g = FieldGeometry.division_b()
        assert extrinsics.field_geometry_from_dict(extrinsics.field_geometry_to_dict(g)) == g


class TestModelFile:
    def test_round_trip(self, tmp_path):
        regressor = bottom_center_regressor()
        path = tmp_path / "model.json"
        files.write_json(path, files.model_to_dict(regressor))
        loaded = files.load_model(path)
        assert tuple(sorted(loaded)) == tuple(sorted(regressor))
        for label in sorted(regressor):
            assert np.array_equal(
                loaded[label].weights, regressor[label].weights
            )
            assert loaded[label].rmse_px == regressor[label].rmse_px


class TestSamplesFile:
    def test_round_trip(self, tmp_path):
        samples = [
            RegressionSample(
                label="ball",
                bbox=BoundingBox(10.0, 20.0, 30.5, 40.25),
                ground_pixel=PixelPoint(20.25, 40.25),
            ),
            RegressionSample(
                label="robot",
                bbox=BoundingBox(100.0, 110.0, 160.0, 210.0),
                ground_pixel=PixelPoint(130.0, 210.0),
            ),
        ]
        path = tmp_path / "samples.jsonl"
        files.save_samples(path, samples)
        loaded = files.load_samples(path)
        assert loaded == samples
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert set(json.loads(lines[0])) == {"class", "bbox", "ground_pixel"}

    def test_blank_lines_are_skipped_but_numbered(self, tmp_path):
        sample = '{"bbox": [0, 0, 10, 10], "class": "ball", "ground_pixel": [5, 10]}'
        path = tmp_path / "samples.jsonl"
        path.write_text(f"{sample}\n\n   \n{sample}\n")
        assert len(files.load_samples(path)) == 2
        # Whitespace around a line is dropped before parsing, as localize drops it.
        path.write_text(f"{sample}\n\n   \n{sample}\n  {{oops \n")
        with pytest.raises(ValueError) as error:
            files.load_samples(path)
        assert str(error.value) == (
            f"{path} line 5: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)"
        )


# ---------------------------------------------------------------------------
# JSONL line formats
# ---------------------------------------------------------------------------


class TestLineFormats:
    def test_detection_line(self):
        line = files.detection_line(
            "p003", "ball", 0.9, BoundingBox(1.0, 2.0, 3.0, 4.0)
        )
        obj = json.loads(line)
        assert obj == {
            "frame": "p003",
            "class": "ball",
            "score": 0.9,
            "bbox": [1.0, 2.0, 3.0, 4.0],
        }

    def test_localization_line_for_a_placed_object(self):
        result = LocalizedObject(
            frame_id="p000",
            label="robot",
            x_mm=-250.0,
            y_mm=750.0,
            theta_deg=-18.43,
            ground_pixel=PixelPoint(120.5, 300.25),
        )
        obj = json.loads(files.localization_line(result))
        assert obj["status"] == "ok"
        assert obj["x_mm"] == -250.0
        assert obj["ground_pixel"] == [120.5, 300.25]

    def test_localization_line_for_a_failure(self):
        result = UnlocalizableDetection(
            frame_id="p001", label="ball", reason="point-not-on-ground"
        )
        obj = json.loads(files.localization_line(result))
        assert obj["status"] == "unlocalizable:point-not-on-ground"
        assert obj["x_mm"] is None
        assert obj["y_mm"] is None
        assert obj["theta_deg"] is None
        assert obj["ground_pixel"] is None

    @pytest.mark.parametrize(
        "frame_id",
        [
            "p000",
            'say "hi"',
            "back\\slash",
            "caf\u00e9 \u2192 \U0001f600",
            "tab\tnl\ncr\r\x00\x1f\x7f",
        ],
    )
    def test_localization_line_is_sorted_key_json(self, frame_id):
        pixel = PixelPoint(120.5, 1.0 / 3.0)
        results = [
            LocalizedObject(frame_id, "robot", -250.1, 1e-17, -179.99999999999997, pixel),
            UnlocalizableDetection(frame_id, "ball", "point-not-on-ground", pixel),
            UnlocalizableDetection(frame_id, "goal", "unknown-class"),
        ]
        expected = [
            {
                "frame": frame_id,
                "class": "robot",
                "x_mm": -250.1,
                "y_mm": 1e-17,
                "theta_deg": -179.99999999999997,
                "ground_pixel": [120.5, 1.0 / 3.0],
                "status": "ok",
            },
            {
                "frame": frame_id,
                "class": "ball",
                "x_mm": None,
                "y_mm": None,
                "theta_deg": None,
                "ground_pixel": [120.5, 1.0 / 3.0],
                "status": "unlocalizable:point-not-on-ground",
            },
            {
                "frame": frame_id,
                "class": "goal",
                "x_mm": None,
                "y_mm": None,
                "theta_deg": None,
                "ground_pixel": None,
                "status": "unlocalizable:unknown-class",
            },
        ]
        for result, obj in zip(results, expected):
            assert files.localization_line(result) == json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# CSV formats
# ---------------------------------------------------------------------------


class TestPairsCsv:
    def test_round_trip(self, tmp_path):
        pairs = [
            EvalPair(0.0, 500.0, 0.0, -0.03, 508.86, 0.0),
            EvalPair(-250.0, 750.0, -18.43, -259.17, 762.23, -18.78, "reference"),
        ]
        path = tmp_path / "pairs.csv"
        evaluation.save_pairs_csv(path, pairs)
        assert evaluation.load_pairs_csv(path) == pairs
        header = path.read_text().splitlines()[0]
        assert header.split(",") == evaluation.PAIRS_HEADER

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("x,y,theta\n1,2,3\n")
        with pytest.raises(ValueError):
            evaluation.load_pairs_csv(path)


    @pytest.mark.parametrize(
        "row",
        [
            "1,2,3",
            "0,500,0,x,508.86,0,ours",
            "0,500,0,1,2,3,ours,0",
            "0,500,0,1,2,3," + "x" * 200_000,  # beyond csv's field size limit
        ],
        ids=["short", "non-numeric", "wide", "oversized"],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "pairs.csv"
        path.write_text(",".join(evaluation.PAIRS_HEADER) + "\n0,500,0,1,2,3,ours\n" + row + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path} line 3")):
            evaluation.load_pairs_csv(path)

    @pytest.mark.parametrize("row", ["1,2,3", "0,500,0,1,2,3,ours,0"], ids=["short", "wide"])
    def test_row_of_the_wrong_width_names_the_field_count(self, tmp_path, row):
        path = tmp_path / "pairs.csv"
        path.write_text(",".join(evaluation.PAIRS_HEADER) + "\n\n" + row + "\n")
        with pytest.raises(ValueError) as caught:
            evaluation.load_pairs_csv(path)
        assert str(caught.value) == f"{path} line 3: expected 7 fields"


class TestTruthCsv:
    def test_round_trip(self, tmp_path):
        rows = [("p000", -250.0, 750.0, -18.43), ("p001", 0.0, 500.0, 0.0)]
        path = tmp_path / "truth.csv"
        evaluation.save_truth_csv(path, rows)
        loaded = evaluation.load_truth_csv(path)
        assert loaded == {
            "p000": (-250.0, 750.0, -18.43),
            "p001": (0.0, 500.0, 0.0),
        }
        header = path.read_text().splitlines()[0]
        assert header.split(",") == evaluation.TRUTH_HEADER

    @pytest.mark.parametrize(
        "row",
        ["p002,1,2", "p002,1,x,3", "p002,1,2,3,4", "p002,1,2," + "9" * 200_000],
        ids=["short", "non-numeric", "wide", "oversized"],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "truth.csv"
        path.write_text(",".join(evaluation.TRUTH_HEADER) + "\np000,1,2,3\n" + row + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path} line 3")):
            evaluation.load_truth_csv(path)


def test_padded_header_names_load_both_tables(tmp_path):
    # A space after each comma: the header check strips names, and the rows
    # are read by position, so both tables load.
    pairs_path = tmp_path / "pairs.csv"
    pairs_path.write_text(", ".join(evaluation.PAIRS_HEADER) + "\n0,500,0,1,2,3,ours\n")
    assert evaluation.load_pairs_csv(pairs_path) == [EvalPair(0.0, 500.0, 0.0, 1.0, 2.0, 3.0)]
    truth_path = tmp_path / "truth.csv"
    truth_path.write_text(", ".join(evaluation.TRUTH_HEADER) + "\np000,1,2,3\n")
    assert evaluation.load_truth_csv(truth_path) == {"p000": (1.0, 2.0, 3.0)}


# ---------------------------------------------------------------------------
# Report outputs
# ---------------------------------------------------------------------------


def _four_pair_report():
    pairs = [
        EvalPair(0.0, 500.0, 0.0, -0.03, 508.86, 0.0),
        EvalPair(-250.0, 750.0, -18.43, -259.17, 762.23, -18.78),
        EvalPair(0.0, 750.0, 0.0, -1.08, 772.20, -0.08),
        EvalPair(250.0, 750.0, 18.43, 247.12, 753.32, 18.16),
    ]
    return pairs, build_report(pairs, [700.0])


class TestReportFiles:
    def test_json_and_csv_outputs(self, tmp_path):
        _, report = _four_pair_report()
        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        files.write_json(json_path, report)
        evaluation.save_report(csv_path, report)
        assert json.loads(json_path.read_text()) == report
        with open(csv_path, newline="") as f:
            reader = csv.reader(f)
            next(reader)
            rows = dict(reader)
        assert float(rows["rmse_mm"]) == pytest.approx(report["rmse_mm"], abs=1e-9)
        assert int(rows["count"]) == 4
        assert float(rows["x_mean_mm"]) == report["x_mm"]["mean"]
        assert float(rows["theta_std_deg"]) == report["theta_deg"]["std"]
        assert "rmse_mm[0.0,700.0)" in rows
        assert "count[700.0,inf)" in rows

    def test_scatter_layout(self, tmp_path):
        pairs, _ = _four_pair_report()
        path = tmp_path / "scatter.csv"
        evaluation.save_scatter_csv(path, [evaluation.scatter_rows(pairs)])
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,series"
        assert len(lines) == 1 + 2 * len(pairs)
        series = [line.rsplit(",", 1)[1] for line in lines[1:]]
        assert series[: len(pairs)] == ["ground_truth"] * len(pairs)
        assert series[len(pairs) :] == ["ours"] * len(pairs)

    def test_scatter_bytes_match_csv_writer(self, tmp_path):
        pairs = [
            EvalPair(-0.0, 1e-300, 0.0, 0.0, -0.0, 0.0),
            EvalPair(1000.0, -250.0, 18.43, 1e-300, 2.5e17, 0.0, "reference"),
            EvalPair(0.1, 1 / 3, 0.0, -1234.5678, 7.0, 0.0),
        ]
        path = tmp_path / "scatter.csv"
        evaluation.save_scatter_csv(path, [evaluation.scatter_rows(pairs)])
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["x", "y", "series"])
        for p in pairs:
            writer.writerow([p.gt_x, p.gt_y, "ground_truth"])
        for p in pairs:
            writer.writerow([p.est_x, p.est_y, p.source])
        assert path.read_bytes() == expected.getvalue().encode()
        assert b"-0.0,1e-300,ground_truth\r\n" in path.read_bytes()
        # The rows of consecutive runs of the pairs join to the same file.
        for cut in range(len(pairs) + 1):
            runs = [evaluation.scatter_rows(pairs[:cut]), evaluation.scatter_rows(pairs[cut:])]
            evaluation.save_scatter_csv(path, runs)
            assert path.read_bytes() == expected.getvalue().encode(), cut

    def test_text_rendering(self):
        _, report = _four_pair_report()
        text = evaluation.render_report_text(report)
        assert "pairs: 4" in text
        assert "rmse: 14.365632 mm" in text
        assert "x error: -3.290000" in text
        assert "theta error: -0.175000 +- " in text
        assert "bucket [0, 700) mm:" in text
        assert "bucket [700, inf) mm:" in text


# ---------------------------------------------------------------------------
# Checked-in fixtures
# ---------------------------------------------------------------------------


class TestFixtures:
    def test_reference_calibration_file(self):
        k, pose = files.load_calibration(FIXTURES_DIR / "calibration_reference.json")
        assert k == reference_intrinsics()
        expected = reference_pose()
        assert np.array_equal(pose.rotation, expected.rotation)
        assert np.array_equal(pose.translation, expected.translation)

    def test_reference_pairs_reproduce_the_headline_numbers(self):
        pairs = evaluation.load_pairs_csv(FIXTURES_DIR / "reference_eval_pairs.csv")
        ours = [p for p in pairs if p.source == "ours"]
        reference = [p for p in pairs if p.source == "reference"]
        assert len(ours) == 4 and len(reference) == 4
        assert rmse(ours) == pytest.approx(14.37, abs=0.05)
        stats = error_stats(reference)
        assert stats["x_mm"]["mean"] == pytest.approx(15.31, abs=1e-9)
        assert stats["x_mm"]["std"] == pytest.approx(11.04, abs=1e-9)
        assert stats["y_mm"]["mean"] == pytest.approx(-11.03, abs=1e-9)
        assert stats["theta_deg"]["std"] == pytest.approx(1.12, abs=1e-9)

    def test_default_model_file(self):
        loaded = files.load_model(FIXTURES_DIR / "default_model.json")
        expected = bottom_center_regressor()
        assert tuple(sorted(loaded)) == tuple(sorted(expected))
        for label in sorted(expected):
            assert np.array_equal(
                loaded[label].weights, expected[label].weights
            )
