"""Command-line front end: one command per workflow stage.

Commands run in process through main() so stdout and stderr can be
asserted separately; one subprocess smoke test covers the module entry
point. Machine output must stay parseable JSON or JSONL on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from groundcam import cli, evaluation, extrinsics, files, parallel
from groundcam.cli import main
from groundcam.euler import EulerAngles
from groundcam.geometry import CameraPose, Distortion, PixelPoint, WorldPoint
from groundcam.extrinsics import PnpCorrespondence, field_landmarks
from groundcam.projection import pose_from_euler, project
from groundcam.regression import BOTTOM_CENTER_WEIGHTS, BoundingBox
from groundcam.reference import (
    REFERENCE_CAMERA_CENTER_MM,
    reference_intrinsics,
)
from groundcam.scene import DEFAULT_GEOMETRY, SceneConfig, config_to_dict, generate_scene

from conftest import FIXTURES_DIR, REPO_ROOT

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_scene(tmp_path_factory):
    """Small zero-noise scene shared by the command tests."""
    config = SceneConfig(
        grid_columns=2,
        grid_rows=3,
        num_views=6,
        pattern_cols=6,
        pattern_rows=5,
    )
    out = tmp_path_factory.mktemp("cli_scene")
    return generate_scene(config, seed=13, out_dir=out)


# The lens of the closed-loop tests.
_LENS = Distortion(k1=-0.12, k2=0.03)


@pytest.fixture(scope="module")
def lens_scenes(tmp_path_factory):
    """The lens scene of seed 0 without and with 0.5 px noise, by noise."""
    config = SceneConfig(intrinsics=SceneConfig().intrinsics.with_distortion(_LENS))
    return {
        noise: generate_scene(
            config._replace(noise_px=noise), seed=0, out_dir=tmp_path_factory.mktemp("lens")
        )
        for noise in (0.0, 0.5)
    }


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# One JSON array nested far deeper than the decoder's recursion limit.
_DEEP_JSON = "[" * 100_000 + "]" * 100_000


# ---------------------------------------------------------------------------
# calibrate-intrinsics
# ---------------------------------------------------------------------------


class TestCalibrateIntrinsics:
    def test_recovers_the_generating_camera(self, capsys, cli_scene, tmp_path):
        out_path = tmp_path / "intrinsics.json"
        code, out, err = _run(
            capsys,
            "calibrate-intrinsics",
            cli_scene.paths["views"],
            "--out",
            out_path,
        )
        assert code == 0
        doc = json.loads(out)
        truth = reference_intrinsics()
        assert doc["intrinsics"]["alpha_x"] == pytest.approx(
            truth.alpha_x, rel=1e-6
        )
        assert doc["intrinsics"]["v0"] == pytest.approx(truth.v0, rel=1e-6)
        assert doc["rmse_px"] < 1e-6
        assert "reprojection rmse:" in err
        loaded_k, loaded_pose = files.load_calibration(out_path)
        assert loaded_k.alpha_x == pytest.approx(truth.alpha_x, rel=1e-6)
        assert loaded_pose is None

    @pytest.mark.parametrize(
        "flags", [(), ("--allow-skew",), ("--fit-k3",)], ids=["default", "allow-skew", "fit-k3"]
    )
    def test_skew_and_k3_stay_zero_unless_their_flag_frees_them(
        self, capsys, lens_scenes, flags
    ):
        # The generating camera has no skew and no k3.
        for noise, scene in lens_scenes.items():
            code, out, err = _run(capsys, "calibrate-intrinsics", scene.paths["views"], *flags)
            assert code == 0, err
            k = json.loads(out)["intrinsics"]
            for flag, term in (("--allow-skew", k["gamma"]), ("--fit-k3", k["distortion"]["k3"])):
                if flag not in flags:
                    assert term == 0.0, (noise, flag)
                elif noise == 0:
                    assert abs(term) < 1e-9, flag
                else:
                    # Measured on seed 0: gamma -0.33 and k3 1.95.
                    assert abs(term) > 0.1, flag

    def test_degenerate_view_names_the_file_and_the_view(self, capsys, cli_scene, tmp_path):
        doc = json.loads(cli_scene.paths["views"].read_text())
        for point in doc["views"][0]["points"]:
            point["pixel"] = [5.0, 5.0]
        path = tmp_path / "views.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "calibrate-intrinsics", path)
        assert code == 2
        assert out == ""
        assert err == (
            f"loaded 6 views from {path}\n"
            f"error: {path}: view000: points do not determine a unique homography "
            "(singular values 0 and -0 of 6.35)\n"
        )

    def test_four_collinear_points_name_the_file_and_the_view(
        self, capsys, cli_scene, tmp_path
    ):
        # Four points, the fewest a view may hold, give an 8 x 9 system.
        doc = json.loads(cli_scene.paths["views"].read_text())
        points = doc["views"][0]["points"]
        doc["views"][0]["points"] = [
            p for p in points if p["pattern"][1] == points[0]["pattern"][1]
        ][:4]
        path = tmp_path / "views.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "calibrate-intrinsics", path)
        assert code == 2
        assert out == ""
        assert re.fullmatch(
            f"loaded 6 views from {re.escape(str(path))}\n"
            f"error: {re.escape(str(path))}: view000: points do not determine a "
            r"unique homography \(singular values \S+ and 0 of \S+\)\n",
            err,
        )

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda points: points[:3], "a planar view needs at least 4 correspondences"),
            (
                lambda points: [*points[:4], {**points[4], "pattern": points[0]["pattern"]}],
                "pattern points must be distinct",
            ),
        ],
        ids=["three-points", "repeated-pattern-point"],
    )
    def test_bad_view_names_the_file_and_the_view(
        self, capsys, cli_scene, tmp_path, spoil, message
    ):
        doc = json.loads(cli_scene.paths["views"].read_text())
        doc["views"][3]["points"] = spoil(doc["views"][3]["points"])
        path = tmp_path / "views.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "calibrate-intrinsics", path)
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: view003: {message}\n"

    # Views whose pixels are pattern points mapped through these homographies,
    # which no physical camera produces.
    @pytest.mark.parametrize(
        "homographies, origin, message",
        [
            (
                [[[0, 0, 1], [0, 1, 0], [1, 0, 0]]],
                25.0,
                "view000: homography maps the origin to infinity",
            ),
            (
                [[[-1, 0, -3], [-2, 1, 1], [1, -1, 3]], [[3, 1, 1], [1, -1, -2], [1, 0, -1]]],
                0.0,
                "conic solution is not positive definite",
            ),
            (
                [[[0, 3, 0], [0, 1, 3], [3, 0, 2]], [[0, 0, 2], [-1, 1, 1], [3, -2, 1]]],
                0.0,
                "conic solution yields a non-positive scale",
            ),
        ],
        ids=["origin-at-infinity", "conic-not-positive-definite", "non-positive-scale"],
    )
    def test_views_no_camera_produces_name_the_file(
        self, capsys, tmp_path, homographies, origin, message
    ):
        pattern = [(origin + 25.0 * i, origin + 25.0 * j) for j in range(4) for i in range(5)]
        views = []
        for index, h in enumerate(homographies):
            points = []
            for x, y in pattern:
                u, v, w = (row[0] * x + row[1] * y + row[2] for row in h)
                points.append({"pixel": [u / w, v / w], "pattern": [x, y]})
            views.append({"id": f"view{index:03d}", "points": points})
        path = tmp_path / "views.json"
        path.write_text(json.dumps({"square_size_mm": 25.0, "views": views}))
        code, out, err = _run(capsys, "calibrate-intrinsics", path)
        assert code == 2
        assert out == ""
        assert err == (
            f"loaded {len(views)} views from {path}\nerror: {path}: {message}\n"
        )

    def test_unreadable_file(self, capsys, tmp_path):
        bad = tmp_path / "views.json"
        bad.write_text("{broken")
        code, out, err = _run(capsys, "calibrate-intrinsics", bad)
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_missing_file_names_the_path(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        code, _, err = _run(capsys, "calibrate-intrinsics", missing)
        assert code == 2
        assert str(missing) in err


# ---------------------------------------------------------------------------
# calibrate-extrinsics
# ---------------------------------------------------------------------------


# Five field landmarks; synth marks none by name, so the tests that need
# named marks mark these at their exact projections.
_NAMED = (
    "goal_bottom_left_corner",
    "goal_bottom_right_corner",
    "goal_bottom_center",
    "penalty_front_left_corner",
    "penalty_front_right_corner",
)


def _named_marks(config: SceneConfig) -> dict[str, PixelPoint]:
    catalog = field_landmarks(DEFAULT_GEOMETRY)
    return {name: project(catalog[name], config.intrinsics, config.pose) for name in _NAMED}


def _oblique_affine(s: float):
    """An affine camera's marks, s pixels per millimeter."""
    return lambda p: (s * p.x + 0.2 * s * p.y + 320.0, s * p.z - 0.1 * s * p.y + 240.0)


class TestCalibrateExtrinsics:
    def test_recovers_the_reference_pose(self, capsys, cli_scene):
        code, out, err = _run(
            capsys,
            "calibrate-extrinsics",
            cli_scene.paths["landmarks"],
            cli_scene.paths["calibration"],
        )
        assert code == 0
        doc = json.loads(out)
        for got, want in zip(doc["camera_center_mm"], REFERENCE_CAMERA_CENTER_MM):
            assert got == pytest.approx(want, abs=1e-4)
        assert doc["rmse_px"] < 1e-8
        assert "reprojection rmse:" in err
        assert "warning:" not in err

    def test_mismarked_landmark_warning(self, capsys, cli_scene, tmp_path):
        config = cli_scene.config
        named = _named_marks(config)
        spoiled = _NAMED[0]
        px = named[spoiled]
        named[spoiled] = PixelPoint(px.u + 60.0, px.v + 60.0)
        extra = [
            PnpCorrespondence(
                pixel=project(p, config.intrinsics, config.pose), world=p
            )
            for p in config.grid_points
        ]
        path = tmp_path / "landmarks.json"
        files.write_json(path, extrinsics.landmarks_to_dict(DEFAULT_GEOMETRY, named, extra))
        code, out, err = _run(
            capsys, "calibrate-extrinsics", path, cli_scene.paths["calibration"]
        )
        assert code == 0
        assert "warning:" in err
        assert spoiled in err
        assert "looks mismarked" in err

    def test_repeated_landmark_exits_2_naming_it(self, capsys, cli_scene, tmp_path):
        doc = extrinsics.landmarks_to_dict(DEFAULT_GEOMETRY, _named_marks(cli_scene.config))
        first = doc["points"][0]
        u, v = first["pixel"]
        doc["points"].append({"name": first["name"], "pixel": [u + 80.0, v]})
        path = tmp_path / "landmarks.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(
            capsys, "calibrate-extrinsics", path, cli_scene.paths["calibration"]
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: landmark {first['name']!r} is marked twice\n"

    @pytest.mark.parametrize("named", [True, False], ids=["named", "unnamed"])
    def test_mark_the_lens_model_cannot_undistort_is_named(
        self, capsys, tmp_path, named
    ):
        # Under the lens, goal_bottom_right_corner projects far outside the
        # image, where undistortion does not converge.
        intrinsics = SceneConfig().intrinsics.with_distortion(
            Distortion(k1=-0.12, k2=0.03)
        )
        scene = generate_scene(
            SceneConfig(intrinsics=intrinsics), seed=0, out_dir=tmp_path / "lens"
        )
        doc = extrinsics.landmarks_to_dict(DEFAULT_GEOMETRY, _named_marks(scene.config))
        mark = "goal_bottom_right_corner"
        index = _NAMED.index(mark)
        if not named:
            catalog = field_landmarks(DEFAULT_GEOMETRY)
            doc["extra"] = [
                {"pixel": p["pixel"], "world": list(catalog[p["name"]])}
                for p in doc["points"]
            ]
            doc["points"] = []
            mark = f"point {index}"
        path = tmp_path / "landmarks.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(
            capsys, "calibrate-extrinsics", path, scene.paths["calibration"]
        )
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(
            f"error: {path}, {scene.paths['calibration']}: {mark}: undistortion of "
        )

    def test_collapsed_radial_factor_names_the_mark(self, capsys, tmp_path):
        scene = generate_scene(SceneConfig(), seed=0, out_dir=tmp_path / "scene")
        doc = json.loads(scene.paths["calibration"].read_text())
        doc["intrinsics"]["distortion"]["k1"] = -1.0
        calibration = tmp_path / "k.json"
        calibration.write_text(json.dumps(doc))
        doc = extrinsics.landmarks_to_dict(DEFAULT_GEOMETRY, _named_marks(scene.config))
        for point in doc["points"]:
            if point["name"] == "goal_bottom_left_corner":
                point["pixel"] = [100, 100]
        landmarks = tmp_path / "lm.json"
        landmarks.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "calibrate-extrinsics", landmarks, calibration)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == (
            f"error: {landmarks}, {calibration}: goal_bottom_left_corner: radial "
            "factor collapsed at r2=2.31433 while undistorting"
        )

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("goal_width_mm", 2000.0, "goal wider than the field"),
            ("goal_width_mm", -1.0, "goal_width must be positive, got -1.0"),
        ],
    )
    def test_bad_field_geometry_names_the_file(
        self, capsys, cli_scene, tmp_path, key, value, message
    ):
        doc = json.loads(cli_scene.paths["landmarks"].read_text())
        doc["field_geometry"][key] = value
        path = tmp_path / "landmarks.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(
            capsys, "calibrate-extrinsics", path, cli_scene.paths["calibration"]
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "world, where", [((0.0, math.inf, 0.0), "inf"), ((0.0, 500.0, math.nan), "nan")]
    )
    def test_non_finite_extra_world_point_names_the_file(
        self, capsys, cli_scene, tmp_path, world, where
    ):
        doc = json.loads(cli_scene.paths["landmarks"].read_text())
        doc["extra"] = [{"pixel": [320.0, 400.0], "world": list(world)}]
        path = tmp_path / "landmarks.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(
            capsys, "calibrate-extrinsics", path, cli_scene.paths["calibration"]
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: world coordinates must be finite\n"

    # Six landmarks off the ground plane, so the pose starts from the DLT;
    # marks that no perspective camera produces leave it without a pose.
    @pytest.mark.parametrize(
        "mark, message",
        [
            (lambda p: (320.0, 240.0), "projection-matrix system is rank deficient"),
            # A side elevation: an affine camera, infinitely far away.
            (lambda p: (0.1 * p.y, 0.1 * p.z), "projection matrix has a vanishing rotation row"),
            # Oblique affine views at pixel scales s from 1e-5 to 0.05 px/mm.
            *(
                (_oblique_affine(s), "projection matrix has a vanishing rotation row")
                for s in (1e-05, 0.005, 0.01, 0.02, 0.05)
            ),
        ],
        ids=["one-pixel", "affine", *(f"affine-{s}" for s in (1e-05, 0.005, 0.01, 0.02, 0.05))],
    )
    def test_marks_no_camera_produces_name_both_files(
        self, capsys, cli_scene, tmp_path, mark, message
    ):
        catalog = field_landmarks(DEFAULT_GEOMETRY)
        names = [
            f"{part}_{side}_corner"
            for part in ("goal_bottom", "goal_top", "penalty_front")
            for side in ("left", "right")
        ]
        named = {name: PixelPoint(*mark(catalog[name])) for name in names}
        path = tmp_path / "landmarks.json"
        files.write_json(path, extrinsics.landmarks_to_dict(DEFAULT_GEOMETRY, named))
        calibration = cli_scene.paths["calibration"]
        code, out, err = _run(capsys, "calibrate-extrinsics", path, calibration)
        assert code == 2
        assert out == ""
        assert err == (
            f"6 correspondences from {path}\nerror: {path}, {calibration}: {message}\n"
        )

    @pytest.mark.parametrize(
        "layout, count, height",
        [("ground-grid", 12, "-171.429"), ("goal-and-penalty", 6, "-370.284")],
        ids=["ground-grid", "goal-and-penalty"],
    )
    def test_mirrored_marks_put_the_camera_below_the_ground(
        self, capsys, cli_scene, tmp_path, layout, count, height
    ):
        # Marks mirrored u -> width - u: on the ground the true camera
        # mirrored through it fits them exactly; the goal and penalty
        # corners, off the plane, are fitted best by a camera below it too.
        config = cli_scene.config
        width = config.image_width_px
        named, extra = {}, []
        if layout == "ground-grid":
            for x in (-400.0, -150.0, 150.0, 400.0):
                for y in (-200.0, 0.0, 300.0, 700.0):
                    world = WorldPoint(x, y, 0.0)
                    pixel = project(world, config.intrinsics, config.pose)
                    if 0 <= pixel.u < width and 0 <= pixel.v < config.image_height_px:
                        mirrored = PixelPoint(width - pixel.u, pixel.v)
                        extra.append(PnpCorrespondence(mirrored, world))
        else:
            catalog = field_landmarks(DEFAULT_GEOMETRY)
            for part in ("goal_bottom", "goal_top", "penalty_front"):
                for side in ("left", "right"):
                    name = f"{part}_{side}_corner"
                    pixel = project(catalog[name], config.intrinsics, config.pose)
                    named[name] = PixelPoint(width - pixel.u, pixel.v)
        path = tmp_path / "landmarks.json"
        files.write_json(path, extrinsics.landmarks_to_dict(DEFAULT_GEOMETRY, named, extra))
        calibration = cli_scene.paths["calibration"]
        code, out, err = _run(capsys, "calibrate-extrinsics", path, calibration)
        assert code == 2
        assert out == ""
        assert err == (
            f"{count} correspondences from {path}\nerror: {path}, {calibration}: "
            f"camera center at z = {height} mm, not above the ground\n"
        )

    def test_four_marks_three_on_a_line_name_both_files(self, capsys, cli_scene, tmp_path):
        # Four marks on the ground give an 8 x 9 homography system.
        config = cli_scene.config
        world = [(0.0, 0.0), (500.0, 0.0), (1000.0, 0.0), (0.0, 700.0)]
        extra = [
            PnpCorrespondence(project(p, config.intrinsics, config.pose), p)
            for p in (WorldPoint(x, y, 0.0) for x, y in world)
        ]
        path = tmp_path / "landmarks.json"
        files.write_json(path, extrinsics.landmarks_to_dict(DEFAULT_GEOMETRY, {}, extra))
        calibration = cli_scene.paths["calibration"]
        code, out, err = _run(capsys, "calibrate-extrinsics", path, calibration)
        assert code == 2
        assert out == ""
        assert re.fullmatch(
            f"4 correspondences from {re.escape(str(path))}\n"
            f"error: {re.escape(str(path))}, {re.escape(str(calibration))}: points do "
            r"not determine a unique homography \(singular values \S+ and 0 of \S+\)\n",
            err,
        )

    def test_too_few_landmarks(self, capsys, cli_scene, tmp_path):
        named = dict(list(_named_marks(cli_scene.config).items())[:3])
        path = tmp_path / "landmarks.json"
        files.write_json(path, extrinsics.landmarks_to_dict(DEFAULT_GEOMETRY, named))
        calibration = cli_scene.paths["calibration"]
        code, out, err = _run(capsys, "calibrate-extrinsics", path, calibration)
        assert code == 2
        assert out == ""
        assert err == (
            f"3 correspondences from {path}\n"
            f"error: {path}, {calibration}: need at least 4 correspondences, got 3\n"
        )


# ---------------------------------------------------------------------------
# fit-regressor
# ---------------------------------------------------------------------------


class TestFitRegressor:
    def test_bottom_center_data(self, capsys, cli_scene, tmp_path):
        out_path = tmp_path / "model.json"
        code, out, err = _run(
            capsys, "fit-regressor", cli_scene.paths["samples"], "--out", out_path
        )
        assert code == 0
        doc = json.loads(out)
        label = cli_scene.config.object_label
        assert np.allclose(
            doc["classes"][label]["weights"], BOTTOM_CENTER_WEIGHTS, atol=1e-9
        )
        assert f"{label}: rmse" in err
        loaded = files.load_model(out_path)
        assert tuple(sorted(loaded)) == (label,)

    def test_too_few_samples(self, capsys, tmp_path):
        path = tmp_path / "samples.jsonl"
        sample = {
            "class": "ball",
            "bbox": [0.0, 0.0, 10.0, 10.0],
            "ground_pixel": [5.0, 10.0],
        }
        path.write_text(json.dumps(sample) + "\n")
        code, _, err = _run(capsys, "fit-regressor", path)
        assert code == 2
        assert "error:" in err

    def test_class_below_five_samples_names_the_file_and_the_class(
        self, capsys, cli_scene, tmp_path
    ):
        # Five features need five samples; the fit is refused before the
        # least-squares solve sees a wide system.
        path = tmp_path / "samples.jsonl"
        lines = cli_scene.paths["samples"].read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:4]))
        code, out, err = _run(capsys, "fit-regressor", path)
        assert code == 2
        assert out == ""
        assert err == (
            f"loaded 4 samples from {path}\n"
            f"error: {path}: class 'ball' has 4 samples, needs 5\n"
        )

    def test_degenerate_class_names_the_file_and_the_class(self, capsys, tmp_path):
        # Six copies of one box: the xmin and ymin columns are all zero, so
        # their |R_ii| are 0, and the xmax column's is sqrt(6 * 10**2).
        sample = {"class": "ball", "bbox": [0.0, 0.0, 10.0, 10.0], "ground_pixel": [5.0, 10.0]}
        path = tmp_path / "samples.jsonl"
        path.write_text((json.dumps(sample) + "\n") * 6)
        code, out, err = _run(capsys, "fit-regressor", path)
        assert code == 2
        assert out == ""
        assert err == (
            f"loaded 6 samples from {path}\n"
            f"error: {path}: class 'ball': column dependence detected (|R_ii| ratio 0/24.5)\n"
        )

    def test_unknown_class_names_the_file_and_the_line(self, capsys, cli_scene, tmp_path):
        lines = cli_scene.paths["samples"].read_text().splitlines()
        sample = json.loads(lines[2])
        lines[2] = json.dumps({**sample, "class": "plane"})
        path = tmp_path / "samples.jsonl"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = _run(capsys, "fit-regressor", path)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {path} line 3: class 'plane' is not one of ('ball', 'robot', 'goal')\n"
        )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("bbox", None),
            ("bbox", [0.0, 0.0, 10.0]),
            ("bbox", "1234"),
            ("bbox", [0.0, 0.0, True, 10.0]),
            ("ground_pixel", None),
            ("ground_pixel", "56"),
            ("ground_pixel", [5.0, "10"]),
        ],
    )
    def test_malformed_sample_line_names_file_and_line(
        self, capsys, tmp_path, field, value
    ):
        good = {
            "class": "ball",
            "bbox": [0.0, 0.0, 10.0, 10.0],
            "ground_pixel": [5.0, 10.0],
        }
        path = tmp_path / "samples.jsonl"
        path.write_text(
            "\n".join(json.dumps(s) for s in (good, good, {**good, field: value}))
            + "\n"
        )
        code, _, err = _run(capsys, "fit-regressor", path)
        assert code == 2
        assert "Traceback" not in err
        assert f"{path} line 3" in err

    @pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029"])
    def test_unicode_line_separator_in_a_string_is_not_a_line_end(
        self, capsys, cli_scene, tmp_path, char
    ):
        # The character sits raw in a key the reader ignores.
        rows = cli_scene.paths["samples"].read_text().splitlines()
        rows[2] = json.dumps({**json.loads(rows[2]), "note": f"a{char}b"}, ensure_ascii=False)
        path = tmp_path / "samples.jsonl"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, err = _run(capsys, "fit-regressor", path)
        assert code == 0, err
        _, expected, _ = _run(capsys, "fit-regressor", cli_scene.paths["samples"])
        assert out == expected


# ---------------------------------------------------------------------------
# localize
# ---------------------------------------------------------------------------


class TestLocalize:
    def test_scene_closure(self, capsys, cli_scene):
        code, out, err = _run(
            capsys,
            "localize",
            cli_scene.paths["detections"],
            cli_scene.paths["calibration"],
            cli_scene.paths["model"],
            "--frame",
            cli_scene.config.frame.value,
        )
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        truth = {row[0]: row for row in cli_scene.truth}
        assert len(lines) == len(truth)
        for obj in lines:
            assert obj["status"] == "ok"
            _, x, y, theta = truth[obj["frame"]]
            assert obj["x_mm"] == pytest.approx(x, abs=1e-6)
            assert obj["y_mm"] == pytest.approx(y, abs=1e-6)
            assert obj["theta_deg"] == pytest.approx(theta, abs=1e-9)
        assert f"localized {len(truth)} of {len(truth)}" in err

    def test_sky_detection_is_reported_not_fatal(self, capsys, cli_scene, tmp_path):
        path = tmp_path / "detections.jsonl"
        path.write_text(
            files.detection_line(
                "sky", "ball", 0.9, BoundingBox(300.0, 5.0, 340.0, 15.0)
            )
            + "\n"
        )
        code, out, err = _run(
            capsys,
            "localize",
            path,
            cli_scene.paths["calibration"],
            cli_scene.paths["model"],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "unlocalizable:point-not-on-ground"
        assert obj["x_mm"] is None
        assert "localized 0 of 1" in err

    def test_huge_box_with_lens_model_is_reported_not_fatal(
        self, capsys, cli_scene, tmp_path
    ):
        # Undistorting the huge box's pixel overflows; only its row is lost.
        k, pose = files.load_calibration(cli_scene.paths["calibration"])
        calibration = tmp_path / "lens.json"
        lens = Distortion(k1=-0.12, k2=0.03)
        files.write_json(calibration, files.calibration_to_dict(k.with_distortion(lens), pose))
        good = files.detection_line(
            "p0", "ball", 0.9, BoundingBox(300.0, 300.0, 340.0, 360.0)
        )
        huge = files.detection_line(
            "f9", "ball", 0.9, BoundingBox(1e200, 1e200, 2e200, 2e200)
        )
        path = tmp_path / "detections.jsonl"
        path.write_text(f"{good}\n{huge}\n{good}\n")
        code, out, err = _run(capsys, "localize", path, calibration, cli_scene.paths["model"])
        assert code == 0
        statuses = [json.loads(line)["status"] for line in out.splitlines()]
        assert statuses == ["ok", "unlocalizable:undistort-nonconvergence", "ok"]
        assert "localized 2 of 3" in err

    def test_overflowing_ground_pixel_is_reported_not_fatal(
        self, capsys, cli_scene, tmp_path
    ):
        # The model's u = xmin + xmax overflows on the huge box; only its row is lost.
        model = tmp_path / "model.json"
        weights = [[1.0, 0.0, 1.0, 0.0, 0.0], list(BOTTOM_CENTER_WEIGHTS[1])]
        files.write_json(model, {"classes": {"ball": {"weights": weights, "rmse_px": 0.0}}})
        good = files.detection_line(
            "p0", "ball", 0.9, BoundingBox(150.0, 300.0, 170.0, 360.0)
        )
        huge = '{"bbox": [1e308, 0, 1.7e308, 1], "class": "ball", "frame": "f1", "score": 0.9}'
        path = tmp_path / "detections.jsonl"
        path.write_text(f"{good}\n{huge}\n{good}\n")
        code, out, err = _run(capsys, "localize", path, cli_scene.paths["calibration"], model)
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [row["status"] for row in rows] == [
            "ok", "unlocalizable:ground-pixel-not-finite", "ok"
        ]
        assert rows[1]["ground_pixel"] is None
        assert "localized 2 of 3" in err

    @pytest.mark.parametrize("frame", ["field", "camera"])
    def test_hit_beyond_float_range_is_reported_not_fatal(self, capsys, tmp_path, frame):
        # From 1e300 mm up, the first box's ground pixel, 7e-8 px below the
        # horizon, meets the ground farther out than a float reaches.
        k, pose = files.load_calibration(FIXTURES_DIR / "calibration_reference.json")
        center = np.array([0.0, 0.0, 1e300])
        calibration = tmp_path / "calibration.json"
        files.write_json(
            calibration,
            files.calibration_to_dict(k, CameraPose(pose.r, -pose.rotation @ center)),
        )
        path = tmp_path / "detections.jsonl"
        path.write_text(
            files.detection_line("f1", "ball", 0.9, BoundingBox(300, 34, 340, 44.067679435510534))
            + "\n"
            + files.detection_line("f2", "ball", 0.9, BoundingBox(300, 300, 340, 360))
            + "\n"
        )
        model = FIXTURES_DIR / "default_model.json"
        code, out, err = _run(capsys, "localize", path, calibration, model, "--frame", frame)
        assert code == 0
        statuses = [json.loads(line)["status"] for line in out.splitlines()]
        assert statuses == ["unlocalizable:ray-parallel-to-plane", "ok"]
        assert err == "localized 1 of 2 detections\n"

    @pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029"])
    def test_unicode_line_separator_in_a_frame_id_is_not_a_line_end(
        self, capsys, cli_scene, tmp_path, char
    ):
        path = tmp_path / "detections.jsonl"
        line = files.detection_line("p0", "ball", 0.9, BoundingBox(300.0, 300.0, 340.0, 360.0))
        path.write_text(line.replace('"p0"', f'"p{char}0"') + "\n", encoding="utf-8")
        rest = (cli_scene.paths["calibration"], cli_scene.paths["model"])
        code, out, err = _run(capsys, "localize", path, *rest)
        assert code == 0
        assert json.loads(out)["frame"] == f"p{char}0"
        assert err == "localized 1 of 1 detections\n"

    def test_malformed_line_is_diagnosed(self, capsys, cli_scene, tmp_path):
        path = tmp_path / "detections.jsonl"
        good = files.detection_line(
            "p0", "ball", 0.9, BoundingBox(300.0, 300.0, 340.0, 360.0)
        )
        path.write_text("{oops\n" + good + "\n")
        code, out, err = _run(
            capsys,
            "localize",
            path,
            cli_scene.paths["calibration"],
            cli_scene.paths["model"],
        )
        assert code == 0
        assert "line 1:" in err
        assert len(out.splitlines()) == 1

    def test_deeply_nested_line_is_diagnosed(self, capsys, cli_scene, tmp_path):
        path = tmp_path / "detections.jsonl"
        path.write_text(_DEEP_JSON + "\n" + cli_scene.paths["detections"].read_text())
        rest = (cli_scene.paths["calibration"], cli_scene.paths["model"])
        code, out, err = _run(capsys, "localize", path, *rest)
        assert code == 0
        assert "Traceback" not in err
        assert f"{path}: line 1: maximum recursion depth exceeded" in err
        _, expected, _ = _run(capsys, "localize", cli_scene.paths["detections"], *rest)
        assert out == expected

    def test_score_threshold_flag(self, capsys, cli_scene, tmp_path):
        path = tmp_path / "detections.jsonl"
        path.write_text(
            files.detection_line(
                "p0", "ball", 0.4, BoundingBox(300.0, 300.0, 340.0, 360.0)
            )
            + "\n"
        )
        code, out, _ = _run(
            capsys,
            "localize",
            path,
            cli_scene.paths["calibration"],
            cli_scene.paths["model"],
        )
        assert code == 0 and out == ""
        code, out, _ = _run(
            capsys,
            "localize",
            path,
            cli_scene.paths["calibration"],
            cli_scene.paths["model"],
            "--min-score",
            "0.3",
        )
        assert code == 0 and len(out.splitlines()) == 1

    def test_unknown_model_class_names_the_file(self, capsys, cli_scene, tmp_path):
        doc = json.loads(cli_scene.paths["model"].read_text())
        doc["classes"]["plane"] = next(iter(doc["classes"].values()))
        path = tmp_path / "model.json"
        files.write_json(path, doc)
        code, out, err = _run(
            capsys, "localize", cli_scene.paths["detections"], cli_scene.paths["calibration"], path
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: unsupported classes: ['plane']\n"

    def test_intrinsics_only_calibration_rejected(self, capsys, cli_scene, tmp_path):
        intrinsics_only = tmp_path / "intrinsics.json"
        files.write_json(intrinsics_only, files.calibration_to_dict(reference_intrinsics()))
        code, _, err = _run(
            capsys,
            "localize",
            cli_scene.paths["detections"],
            intrinsics_only,
            cli_scene.paths["model"],
        )
        assert code == 2
        assert "no pose" in err

    def test_out_file_matches_stdout(self, capsys, cli_scene, tmp_path):
        out_path = tmp_path / "localizations.jsonl"
        code, out, _ = _run(
            capsys,
            "localize",
            cli_scene.paths["detections"],
            cli_scene.paths["calibration"],
            cli_scene.paths["model"],
            "--out",
            out_path,
        )
        assert code == 0
        assert out_path.read_text() == out


# ---------------------------------------------------------------------------
# localize split across the CPUs the process may use
# ---------------------------------------------------------------------------

# Lines of the mixed log that are not scene detections, by index: blank lines,
# malformed lines (the first of a later part for 2 and 3 CPUs, and the
# file's last line, without a newline), an unknown class, a low score and an
# above-horizon box. 42 lines split at 21 for 2 CPUs, at 14 and 28 for 3 and
# every 6 for 7.
_MIXED = {
    6: "",
    14: "{oops",
    21: "[1, 2",
    25: "   ",
    28: files.detection_line("u0", "referee", 0.9, BoundingBox(300.0, 300.0, 340.0, 360.0)),
    33: files.detection_line("low", "ball", 0.1, BoundingBox(300.0, 300.0, 340.0, 360.0)),
    36: files.detection_line("sky", "ball", 0.9, BoundingBox(300.0, 5.0, 340.0, 15.0)),
    41: '{"frame": "f41"}',
}


def _mixed_log(scene, special: dict[int, str] = _MIXED) -> str:
    detections = scene.paths["detections"].read_text().splitlines()
    return "\n".join(special.get(i, detections[i % len(detections)]) for i in range(42))


@pytest.fixture
def forks(monkeypatch):
    """One entry per os.fork call made in this process."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def _use_cpus(monkeypatch, count: int) -> list[tuple[int, set[int]]]:
    """Make CPUs 0 to count - 1 the ones this process may use; return the
    os.sched_setaffinity calls it makes, which are recorded, never made."""
    pins: list[tuple[int, set[int]]] = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: pins.append((pid, set(cpus))))
    return pins


def _pinned_calls(cpus: int) -> list[tuple[int, set[int]]]:
    """This process's pinning calls for a split on cpus parts: pinned to
    the first CPU for part 0, then given back every CPU."""
    return [] if cpus == 1 else [(0, {0}), (0, set(range(cpus)))]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("frame", ["field", "camera"])
def test_localize_writes_the_same_bytes_for_any_cpu_count(
    capsys, monkeypatch, forks, cli_scene, tmp_path, frame
):
    path = tmp_path / "detections.jsonl"
    path.write_text(_mixed_log(cli_scene))
    out_path = tmp_path / "out.jsonl"
    argv = [path, cli_scene.paths["calibration"], cli_scene.paths["model"]]
    runs = {}
    for cpus in (1, 2, 3, 7):
        pins = _use_cpus(monkeypatch, cpus)
        forks.clear()
        code, out, err = _run(capsys, "localize", *argv, "--frame", frame, "--out", out_path)
        runs[cpus] = (code, out, err, out_path.read_bytes())
        out_path.unlink()
        assert len(forks) == cpus - 1
        assert pins == _pinned_calls(cpus)
    _no_child_left()
    for cpus, run in runs.items():
        assert run == runs[1], cpus
    code, out, err, _ = runs[1]
    assert code == 0
    for number in (15, 22, 29, 42):
        assert f"{path}: line {number}: " in err
    assert "unknown class 'referee'" in err
    assert "localized 34 of 35 detections" in err
    rows = [json.loads(line) for line in out.splitlines()]
    assert [row["frame"] for row in rows if row["status"] != "ok"] == ["sky"]


@pytest.mark.parametrize(
    "error, exit_code", [(RuntimeError, 1), (ValueError, 2), (KeyError, 1), (OSError, 2)]
)
def test_a_failing_worker_fails_the_run(
    capsys, monkeypatch, forks, cli_scene, tmp_path, error, exit_code
):
    # The second part of two holds the frame the wrapped localize_batch fails on.
    path = tmp_path / "detections.jsonl"
    boom = files.detection_line("boom", "ball", 0.9, BoundingBox(300.0, 300.0, 340.0, 360.0))
    path.write_text(_mixed_log(cli_scene, {**_MIXED, 30: boom}))
    localize_batch = cli.localize_batch

    def failing(detections, *rest):
        if any(d.frame_id == "boom" for d in detections):
            raise error("worker failed")
        return localize_batch(detections, *rest)

    monkeypatch.setattr(cli, "localize_batch", failing)
    out_path = tmp_path / "out.jsonl"
    argv = [path, cli_scene.paths["calibration"], cli_scene.paths["model"], "--out", out_path]
    _use_cpus(monkeypatch, 2)
    code, out, err = _run(capsys, "localize", *argv)
    assert len(forks) == 1
    _no_child_left()
    assert code == exit_code
    assert out == ""
    assert not out_path.exists()
    if exit_code == 1:
        # An internal failure prints its traceback, in a worker and in process.
        last = f"{error.__name__}: {error('worker failed')}"
        assert "Traceback (most recent call last)" in err
        assert last in err
        _use_cpus(monkeypatch, 1)
        code, out, err = _run(capsys, "localize", *argv)
        assert (code, out) == (1, "")
        assert "Traceback (most recent call last)" in err
        assert err.splitlines()[-1] == last
    else:
        # The message and exit code an in-process failure gives.
        _use_cpus(monkeypatch, 1)
        assert _run(capsys, "localize", *argv) == (exit_code, "", err)
        assert "Traceback" not in err


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs at least 2 allowed CPUs",
)
def test_each_part_runs_pinned_to_its_own_cpu():
    before = os.sched_getaffinity(0)
    lines = [f"{i}\n" for i in range(12)]

    def mask(part, first):
        return sorted(os.sched_getaffinity(0))

    masks = parallel.split(mask, lines)
    assert len(masks) == min(len(before), len(lines))
    assert all(len(m) == 1 for m in masks)
    assert len({m[0] for m in masks}) == len(masks)
    assert os.sched_getaffinity(0) == before

    # The caller gets its own mask back when its part or a child's fails.
    def failing_at(where):
        def work(part, first):
            if where(first):
                raise ValueError(f"part from line {first} failed")
            return mask(part, first)

        return work

    with pytest.raises(ValueError, match="part from line 1 failed"):
        parallel.split(failing_at(lambda first: first == 1), lines)
    assert os.sched_getaffinity(0) == before
    _no_child_left()
    with pytest.raises(ValueError, match="part from line [2-9]"):
        parallel.split(failing_at(lambda first: first > 1), lines)
    assert os.sched_getaffinity(0) == before
    _no_child_left()


# ---------------------------------------------------------------------------
# evaluate split across the CPUs the process may use
# ---------------------------------------------------------------------------


def _pairs_table(rows: int = 14) -> list[str]:
    """The lines of a pairs table with CRLF line ends: rows ours pairs and
    as many reference pairs over the same ground truths, alternating, and a
    blank line after the first four rows."""
    lines = [",".join(evaluation.PAIRS_HEADER)]
    for i in range(rows):
        gt = (250.0 * (i % 5) - 500.0, 400.0 + 310.0 * i, 0.1 * i - 0.7)
        ours = (gt[0] + 0.3 * i, gt[1] - 1.0 / (i + 3), gt[2] + 0.05)
        reference = (gt[0] - 2.5, gt[1] + 7.0 * i, gt[2] - 0.2)
        lines.append(",".join(map(repr, (*gt, *ours))) + ",ours")
        lines.append(",".join(map(repr, (*gt, *reference))) + ",reference")
    lines.insert(5, "")
    return [line + "\r\n" for line in lines]


def _evaluate_runs(capsys, monkeypatch, forks, path, out_dir, cpu_counts):
    """Exit code, stdout, stderr and the --out files of evaluate on path for
    each CPU count, checking its forks and pinning calls and that no child
    is left behind."""
    runs = {}
    for cpus in cpu_counts:
        pins = _use_cpus(monkeypatch, cpus)
        forks.clear()
        code, out, err = _run(capsys, "evaluate", path, "--out", out_dir)
        written = {}
        for name in ("report.json", "report.csv", "scatter.csv"):
            if (out_dir / name).exists():
                written[name] = (out_dir / name).read_bytes()
                (out_dir / name).unlink()
        runs[cpus] = (code, out, err, written)
        assert (len(forks), pins) == (cpus - 1, _pinned_calls(cpus)), cpus
        _no_child_left()
    return runs


def test_evaluate_writes_the_same_bytes_for_any_cpu_count(
    capsys, monkeypatch, forks, tmp_path
):
    path = tmp_path / "pairs.csv"
    path.write_bytes("".join(_pairs_table()).encode())
    out_dir = tmp_path / "report"
    runs = _evaluate_runs(capsys, monkeypatch, forks, path, out_dir, (1, 2, 3, 7))
    for cpus, run in runs.items():
        assert run == runs[1], cpus
    code, out, err, written = runs[1]
    assert code == 0
    assert json.loads(out)["count"] == 14
    assert set(json.loads(out)["comparison"]) == {"ours", "reference"}
    assert written["report.json"] == out.encode()
    scatter = written["scatter.csv"].decode().split("\r\n")
    assert scatter[0] == "x,y,series"
    assert [row.rsplit(",", 1)[-1] for row in scatter[1:-1]] == (
        ["ground_truth"] * 14 + ["ours"] * 14
    )


@pytest.mark.parametrize("cpus", [2, 3, 7])
def test_malformed_row_in_the_last_part_names_its_line(
    capsys, monkeypatch, forks, tmp_path, cpus
):
    lines = _pairs_table()
    lines[-1] = "0,500,0,x,508.86,0,ours\r\n"
    path = tmp_path / "pairs.csv"
    path.write_bytes("".join(lines).encode())
    out_dir = tmp_path / "report"
    runs = _evaluate_runs(capsys, monkeypatch, forks, path, out_dir, (1, cpus))
    assert runs[cpus] == runs[1]
    assert runs[1] == (
        2,
        "",
        f"error: {path} line {len(lines)}: could not convert string to float: 'x'\n",
        {},
    )


def test_non_finite_pair_entry_names_its_line(capsys, monkeypatch, forks, tmp_path):
    # The pairs reader checks each entry; the row sits in the second part of two.
    for cell in ("nan", "inf", "-inf"):
        lines = _pairs_table()
        lines[-2] = f"0,500,0,1,{cell},3,ours\r\n"
        path = tmp_path / "pairs.csv"
        path.write_bytes("".join(lines).encode())
        out_dir = tmp_path / "report"
        runs = _evaluate_runs(capsys, monkeypatch, forks, path, out_dir, (1, 2))
        assert runs[2] == runs[1]
        assert runs[1] == (
            2, "", f"error: {path} line {len(lines) - 1}: pair entries must be finite\n", {}
        )


def test_table_with_a_quoted_field_is_not_cut(capsys, monkeypatch, forks, tmp_path):
    # The second row's quoted source spans a line end, so the table has one
    # line more than rows, and the malformed row's number counts it.
    lines = _pairs_table()
    lines[2] = lines[2].replace(",reference\r\n", ',"reference\r\n')
    lines.insert(3, '"\r\n')
    path = tmp_path / "pairs.csv"
    path.write_bytes("".join(lines).encode())
    out_dir = tmp_path / "report"
    runs = _evaluate_runs(capsys, monkeypatch, forks, path, out_dir, (1,))
    pins = _use_cpus(monkeypatch, 2)
    forks.clear()
    assert _run(capsys, "evaluate", path, "--out", out_dir)[:3] == runs[1][:3]
    assert (forks, pins) == ([], [])
    assert runs[1][0] == 0
    assert json.loads(runs[1][1])["count"] == 14
    lines[-1] = "0,500,0,1,2,3\r\n"
    path.write_bytes("".join(lines).encode())
    assert _run(capsys, "evaluate", path) == (
        2, "", f"error: {path} line {len(lines)}: expected 7 fields\n"
    )
    assert forks == []


def test_evaluate_report_does_not_depend_on_row_order(
    capsys, monkeypatch, forks, tmp_path
):
    # 150 ground truths, each with an ours and a reference row. scatter.csv
    # lists the rows in table order, so only the report is compared.
    rng = np.random.default_rng(11)
    gt = np.column_stack(
        [rng.uniform(-2000.0, 2000.0, (150, 2)), rng.uniform(-179.0, 179.0, 150)]
    )
    rows = [
        ",".join(map(repr, (*g, *e))) + f",{source}\r\n"
        for source, sigma in (("ours", 15.0), ("reference", 25.0))
        for g, e in zip(gt.tolist(), (gt + rng.normal(0.0, sigma, gt.shape)).tolist())
    ]
    header = ",".join(evaluation.PAIRS_HEADER) + "\r\n"
    shuffled = [rows[i] for i in rng.permutation(len(rows))]
    path = tmp_path / "pairs.csv"
    out_dir = tmp_path / "report"
    runs = []
    for order in (rows, shuffled):
        path.write_text(header + "".join(order), newline="")
        runs += _evaluate_runs(capsys, monkeypatch, forks, path, out_dir, (1, 2)).values()
    reports = [
        (code, out, err, {name: written[name] for name in ("report.json", "report.csv")})
        for code, out, err, written in runs
    ]
    assert reports[0][0] == 0
    assert json.loads(reports[0][1])["count"] == 150
    assert reports == [reports[0]] * 4


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


class TestEvaluate:
    def test_reference_pairs_headline_number(self, capsys, tmp_path):
        out_dir = tmp_path / "report"
        code, out, err = _run(
            capsys,
            "evaluate",
            FIXTURES_DIR / "reference_eval_pairs.csv",
            "--out",
            out_dir,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rmse_mm"] == pytest.approx(14.37, abs=0.05)
        assert doc["count"] == 4
        assert "comparison" in doc
        assert doc["comparison"]["reference"]["x_mm"]["mean"] == pytest.approx(
            15.31, abs=1e-9
        )
        assert "rmse: 14.365632 mm" in err
        for name in ("report.json", "report.csv", "scatter.csv"):
            assert (out_dir / name).is_file()

    def test_report_json_is_the_printed_document(self, capsys, tmp_path):
        out_dir = tmp_path / "report"
        code, out, _ = _run(
            capsys,
            "evaluate",
            FIXTURES_DIR / "reference_eval_pairs.csv",
            "--out",
            out_dir,
        )
        assert code == 0
        assert (out_dir / "report.json").read_bytes() == out.encode()
        assert "comparison" in json.loads(out)

    def test_bucket_flag(self, capsys, tmp_path):
        src = FIXTURES_DIR / "reference_eval_pairs.csv"
        code, out, _ = _run(capsys, "evaluate", src, "--buckets", "700")
        assert code == 0
        doc = json.loads(out)
        assert doc["bucket_boundaries_mm"] == [700.0]
        assert len(doc["buckets"]) == 2
        code, out, _ = _run(capsys, "evaluate", src, "--buckets", "")
        assert json.loads(out)["buckets"][0]["hi_mm"] is None

    def test_stderr_prints_band_edges_as_given(self, capsys, tmp_path):
        src = FIXTURES_DIR / "reference_eval_pairs.csv"
        out_dir = tmp_path / "out"
        code, _, err = _run(
            capsys, "evaluate", src, "--buckets", "1000.4,1000.6,2500", "--out", out_dir
        )
        assert code == 0
        bands = [line.split(" mm:")[0] for line in err.splitlines() if line.startswith("bucket")]
        assert bands == [
            "bucket [0, 1000.4)",
            "bucket [1000.4, 1000.6)",
            "bucket [1000.6, 2500)",
            "bucket [2500, inf)",
        ]
        assert "count[1000.4,1000.6)" in (out_dir / "report.csv").read_text()

    def test_headerless_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("1,2,3,4,5,6,ours\n")
        code, _, err = _run(capsys, "evaluate", path)
        assert code == 2
        assert "error:" in err

    def test_header_beyond_the_field_limit_names_file_and_line(self, capsys, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("gt_x," + "x" * 200_000 + "\n0,500,0,1,2,3,ours\n")
        code, out, err = _run(capsys, "evaluate", path)
        assert (code, out) == (2, "")
        assert err == f"error: {path} line 1: field larger than field limit (131072)\n"

    @pytest.mark.parametrize(
        "row",
        [
            "0,500,0",
            "0,500,0,x,508.86,0,ours",
            "0,500,0,1,508.86,0,ours,0",
            "0,500,0,1,2,3," + "x" * 200_000,  # beyond csv's field size limit
        ],
        ids=["short", "non-numeric", "wide", "oversized"],
    )
    def test_malformed_row_names_file_and_line(self, capsys, tmp_path, row):
        path = tmp_path / "pairs.csv"
        path.write_text(",".join(evaluation.PAIRS_HEADER) + "\n" + row + "\n")
        code, out, err = _run(capsys, "evaluate", path)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert f"{path} line 2" in err

    @pytest.mark.parametrize("table", ["missing", "headerless"])
    def test_bad_buckets_are_named_before_the_table_is_read(
        self, capsys, tmp_path, table
    ):
        path = tmp_path / "pairs.csv"
        if table == "headerless":
            path.write_text("1,2,3,4,5,6,ours\n")
        code, out, err = _run(capsys, "evaluate", path, "--buckets", "2000,1000")
        assert code == 2
        assert out == ""
        assert err == (
            "error: --buckets: boundaries must be positive and strictly "
            "increasing: [2000.0, 1000.0]\n"
        )

    def test_empty_table_rejected(self, capsys, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text(",".join(evaluation.PAIRS_HEADER) + "\n")
        code, _, err = _run(capsys, "evaluate", path)
        assert code == 2
        assert "no pairs" in err

    @pytest.mark.parametrize("source", ["nan", "", "Ours"])
    def test_unknown_source_names_file_and_line(self, capsys, tmp_path, source):
        lines = (FIXTURES_DIR / "reference_eval_pairs.csv").read_text().splitlines()
        lines[7] = lines[7].rsplit(",", 1)[0] + "," + source
        path = tmp_path / "pairs.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = _run(capsys, "evaluate", path)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {path} line 8: source must be ours or reference, got {source!r}\n"
        )

    def test_table_without_ours_rows_rejected(self, capsys, tmp_path):
        lines = (FIXTURES_DIR / "reference_eval_pairs.csv").read_text().splitlines()
        path = tmp_path / "pairs.csv"
        path.write_text("\n".join([lines[0], *lines[5:]]) + "\n")
        assert all(line.endswith(",reference") for line in lines[5:])
        out_dir = tmp_path / "report"
        code, out, err = _run(capsys, "evaluate", path, "--out", out_dir)
        assert code == 2
        assert out == ""
        assert err == f"error: {path} has no rows with source ours to score\n"
        assert not out_dir.exists()

    def test_internal_failure_comparing_sources_exits_1(self, capsys, monkeypatch):
        def fail(ours, reference):
            raise TypeError("comparison failed")

        monkeypatch.setattr(evaluation, "compare_sources", fail)
        code, out, err = _run(capsys, "evaluate", FIXTURES_DIR / "reference_eval_pairs.csv")
        assert code == 1
        assert out == ""
        assert "Traceback (most recent call last)" in err
        assert "TypeError: comparison failed" in err

    @pytest.mark.parametrize(
        "est_y",
        [["1e308"], ["1e200"], ["1.2e154", "-1.2e154"]],
        ids=["square-overflows", "square-overflows-1e200", "sum-overflows"],
    )
    def test_errors_too_large_to_score_name_the_pairs_file(self, capsys, tmp_path, est_y):
        rows = [f"0,500,0,0,{value},0,ours" for value in est_y]
        path = tmp_path / "pairs.csv"
        path.write_text(",".join(evaluation.PAIRS_HEADER) + "\n" + "\n".join(rows) + "\n")
        out_dir = tmp_path / "report"
        code, out, err = _run(capsys, "evaluate", path, "--out", out_dir)
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: rmse_mm overflows float range\n"
        assert not out_dir.exists()

    def test_mismatched_sources_name_the_pairs_file(self, capsys, tmp_path):
        lines = (FIXTURES_DIR / "reference_eval_pairs.csv").read_text().splitlines()
        path = tmp_path / "pairs.csv"
        path.write_text("\n".join(lines[:-1]) + "\n")
        code, out, err = _run(capsys, "evaluate", path)
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: sources cover 4 vs 3 ground truths\n"


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def _calibration_looking(omega: float, kappa: float) -> dict:
    """The reference camera's calibration document, turned to the Euler
    angles (omega, 0, kappa) in degrees."""
    pose = pose_from_euler(EulerAngles(omega, 0.0, kappa), WorldPoint(0.0, -500.0, 170.0))
    return files.calibration_to_dict(reference_intrinsics(), pose)


# One grid row of three points, 2.5 m in front of the camera of
# _calibration_looking: in view at each pitch its cases turn it to.
_FAR_ROW = {"grid": {"rows": 1, "origin_mm": [0, 2000]}}


class TestSynth:
    def test_default_scene_generation(self, capsys, tmp_path):
        out_dir = tmp_path / "scene"
        code, out, err = _run(capsys, "synth", "--seed", "3", "--out", out_dir)
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 3
        assert set(doc["files"]) == {
            "config",
            "calibration",
            "views",
            "landmarks",
            "samples",
            "model",
            "detections",
            "truth",
        }
        for path in doc["files"].values():
            assert Path(path).is_file()
        assert err == "scene: 20 views, 16 marks, 30 detections\n"

    def test_config_file_is_honored(self, capsys, tmp_path):
        config = SceneConfig(
            grid_columns=2, grid_rows=2, num_views=2, pattern_cols=5, pattern_rows=4
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_dict(config, seed=0)))
        out_dir = tmp_path / "scene"
        code, out, err = _run(
            capsys, "synth", config_path, "--seed", "9", "--out", out_dir
        )
        assert code == 0
        assert "4 detections" in err
        doc = json.loads(out)
        assert doc["seed"] == 9

    def test_generated_config_feeds_back(self, capsys, tmp_path):
        first = tmp_path / "first"
        code, out, _ = _run(capsys, "synth", "--seed", "1", "--out", first)
        assert code == 0
        code, _, _ = _run(
            capsys,
            "synth",
            first / "config.json",
            "--seed",
            "1",
            "--out",
            tmp_path / "second",
        )
        assert code == 0

    def test_invalid_config_rejected(self, capsys, tmp_path):
        config_path = tmp_path / "config.json"
        doc = config_to_dict(SceneConfig(), seed=0)
        doc["noise_px"] = -1.0
        config_path.write_text(json.dumps(doc))
        code, _, err = _run(capsys, "synth", config_path, "--out", tmp_path / "s")
        assert code == 2
        assert "error:" in err

    def test_truncated_config_names_the_file(self, capsys, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"noise_px": ')
        code, out, err = _run(capsys, "synth", config_path, "--out", tmp_path / "s")
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert f"error: {config_path}" in err

    def test_null_value_names_the_file_and_the_key(self, capsys, tmp_path):
        config_path = tmp_path / "config.json"
        doc = config_to_dict(SceneConfig(), seed=0)
        doc["noise_px"] = None
        config_path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "synth", config_path, "--out", tmp_path / "s")
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert f"error: {config_path}" in err
        assert "noise_px" in err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("key", ["landmarks", "field_geometry"])
    def test_removed_landmark_keys_are_unknown(self, capsys, tmp_path, key):
        # Synth works its marks out from the camera; no key names them.
        config_path = tmp_path / "config.json"
        doc = config_to_dict(SceneConfig(), seed=0)
        doc[key] = {}
        config_path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "synth", config_path, "--out", tmp_path / "s")
        assert code == 2
        assert out == ""
        assert err == f"error: {config_path}: unknown configuration keys: [{key!r}]\n"
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                # Pitched 14 degrees up: only the lattice's bottom row sees
                # ground. The grid's one row, 2.5 m out, is in view.
                {"calibration": _calibration_looking(76.0, 0.0), **_FAR_ROW},
                "the camera sees the ground at 4 of 16 mark pixels; a pose needs 2 "
                "on each of 2 rows",
            ),
            (
                # Rolled too: three marks on one row and one on the next, which
                # no homography can be fitted to.
                {"calibration": _calibration_looking(75.0, -14.0), **_FAR_ROW},
                "the camera sees the ground at 4 of 16 mark pixels; a pose needs 2 "
                "on each of 2 rows",
            ),
            (
                # Pitched 10 degrees up: the grid's two nearest rows touch the
                # ground below the image.
                {"calibration": _calibration_looking(80.0, 0.0)},
                "grid point (-250.0, 0.0) touches the ground at pixel (-24.2, 592.7), "
                "outside the 640 x 480 image",
            ),
            (
                {"grid": {"origin_mm": [0, -2000]}},
                "object at (-250.0, -2000.0) is behind the camera",
            ),
            (
                {"frame": "field"},
                "grid point (0.0, 0.0) sits on the field-frame origin and has no bearing",
            ),
            ({"grid": 3}, "grid must be a JSON object"),
        ],
        ids=[
            "ground-on-one-row", "ground-three-and-one", "ground-pixel-below-image",
            "grid-point-behind-camera", "grid-point-on-origin", "grid-not-an-object",
        ],
    )
    def test_unrealizable_scene_is_rejected_naming_what(
        self, capsys, tmp_path, doc, message
    ):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "synth", config_path, "--out", tmp_path / "s")
        assert code == 2
        assert out == ""
        assert err == f"error: {config_path}: {message}\n"
        assert not (tmp_path / "s").exists()

    def test_calibration_without_pose_names_the_file(self, capsys, tmp_path):
        config_path = tmp_path / "config.json"
        doc = config_to_dict(SceneConfig(), seed=0)
        del doc["calibration"]["pose"]
        config_path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "synth", config_path, "--out", tmp_path / "s")
        assert code == 2
        assert out == ""
        assert err == f"error: {config_path}: calibration has no pose\n"
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [("grid", "columns", "2"), (None, "noise_px", True), ("pattern", "views", 3.7)],
    )
    def test_non_number_value_names_the_file_and_the_key(
        self, capsys, tmp_path, section, key, value
    ):
        config_path = tmp_path / "config.json"
        doc = config_to_dict(SceneConfig(), seed=0)
        (doc if section is None else doc[section])[key] = value
        config_path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "synth", config_path, "--out", tmp_path / "s")
        assert code == 2
        assert out == ""
        where = key if section is None else f"{section}.{key}"
        assert err.startswith(f"error: {config_path}: bad configuration value {where}: ")
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "section, values, message",
        [
            ("grid", {"columns": 2**63}, "grid.columns x grid.rows must be at most "
             f"100000, got {10 * 2**63}"),
            ("grid", {"rows": 2**63}, "grid.columns x grid.rows must be at most "
             f"100000, got {3 * 2**63}"),
            ("grid", {"columns": 10, "rows": 10001}, "grid.columns x grid.rows must "
             "be at most 100000, got 100010"),
            ("pattern", {"views": 2**63}, "pattern.views x pattern.cols x "
             f"pattern.rows must be at most 100000, got {54 * 2**63}"),
            ("pattern", {"cols": 10**9}, "pattern.views x pattern.cols x "
             "pattern.rows must be at most 100000, got 120000000000"),
            ("pattern", {"cols": 2**63}, "pattern.views x pattern.cols x "
             f"pattern.rows must be at most 100000, got {120 * 2**63}"),
            ("pattern", {"views": 1852}, "pattern.views x pattern.cols x "
             "pattern.rows must be at most 100000, got 100008"),
            ("grid", {"origin_mm": [0.0, 1.7e308], "spacing_mm": 1e307},
             "grid coordinates must be finite"),
        ],
        ids=[
            "grid-columns", "grid-rows", "grid-just-over", "pattern-views",
            "pattern-cols-1e9", "pattern-cols", "pattern-just-over",
            "grid-past-float-range",
        ],
    )
    def test_scene_past_the_limits_exits_2_before_generating(
        self, capsys, monkeypatch, tmp_path, section, values, message
    ):
        # The reader must reject these: generating them would not end or
        # would exhaust memory, so generation fails the test instead.
        def generate(*args):
            raise AssertionError("an over-limit scene reached generate_scene")

        monkeypatch.setattr("groundcam.scene.generate_scene", generate)
        config_path = tmp_path / "config.json"
        doc = config_to_dict(SceneConfig(), seed=0)
        doc[section].update(values)
        config_path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "synth", config_path, "--out", tmp_path / "s")
        assert code == 2
        assert out == ""
        assert err == f"error: {config_path}: {message}\n"
        assert not (tmp_path / "s").exists()

    # Each spoils the default configuration so that generation fails on a
    # check of what it built; those near float range take numpy past it on
    # the way, which must not print a warning (the suite turns one into an
    # error, so the command would exit 1).
    @pytest.mark.parametrize(
        "spoil, message",
        [
            (
                lambda doc: doc["pattern"].update(square_size_mm=1e308),
                "pose entries must be finite",
            ),
            (
                lambda doc: doc["calibration"]["intrinsics"]["distortion"].update(k1=1e308),
                "could not place the calibration pattern fully in view; check the "
                "pattern and image dimensions",
            ),
            (
                lambda doc: doc["calibration"]["pose"]["translation"].__setitem__(1, 1e200),
                "pixel coordinates must be finite",
            ),
            (
                lambda doc: doc["pattern"].update(square_size_mm=200.0),
                "could not place the calibration pattern fully in view; check the "
                "pattern and image dimensions",
            ),
            (
                # The camera rolled half a turn about its optical axis.
                lambda doc: doc["calibration"]["pose"].update(
                    rotation=[-r for r in doc["calibration"]["pose"]["rotation"][:6]]
                    + doc["calibration"]["pose"]["rotation"][6:],
                    translation=[-t for t in doc["calibration"]["pose"]["translation"][:2]]
                    + doc["calibration"]["pose"]["translation"][2:],
                ),
                "object at (-250.0, 0.0) projects upside down",
            ),
        ],
        ids=[
            "board-overflows", "lens-overflows", "pose-overflows", "board-too-large",
            "camera-upside-down",
        ],
    )
    def test_unbuildable_scene_prints_only_its_error(
        self, capsys, tmp_path, spoil, message
    ):
        config_path = tmp_path / "config.json"
        doc = config_to_dict(SceneConfig(), seed=0)
        spoil(doc)
        config_path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "synth", config_path, "--out", tmp_path / "s")
        assert code == 2
        assert out == ""
        assert err == f"error: {config_path}: {message}\n"
        assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("key, value", [("alpha_x", "642.41"), ("gamma", True)])
def test_non_number_calibration_value_exits_2_naming_the_file_and_the_key(
    capsys, cli_scene, tmp_path, key, value
):
    doc = json.loads(cli_scene.paths["calibration"].read_text())
    doc["intrinsics"][key] = value
    path = tmp_path / "calibration.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(
        capsys, "localize", cli_scene.paths["detections"], path, cli_scene.paths["model"]
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: {key} must be a number, got {value!r}\n"


# ---------------------------------------------------------------------------
# The README quick start
# ---------------------------------------------------------------------------


def _quick_start(capsys, tmp_path, seed: int, config: SceneConfig) -> tuple[list, dict]:
    """The README's chain on a scene of config, each step reading what the
    one before wrote, then localize's rows joined to truth.csv by frame and
    scored by evaluate: the joined pairs and evaluate's report."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_to_dict(config, seed)))
    scene = tmp_path / "scene"
    intrinsics = tmp_path / "intrinsics.json"
    calibration = tmp_path / "calibration.json"
    model = tmp_path / "model.json"
    steps = [
        ("synth", config_path, "--seed", seed, "--out", scene),
        ("calibrate-intrinsics", scene / "views.json", "--out", intrinsics),
        ("calibrate-extrinsics", scene / "landmarks.json", intrinsics, "--out", calibration),
        ("fit-regressor", scene / "regression.jsonl", "--out", model),
        ("localize", scene / "detections.jsonl", calibration, model, "--frame", "camera"),
    ]
    for argv in steps:
        code, out, err = _run(capsys, *argv)
        assert code == 0, err
    truth = evaluation.load_truth_csv(scene / "truth.csv")
    rows = [json.loads(line) for line in out.splitlines()]
    assert sorted(row["frame"] for row in rows) == sorted(truth)
    assert all(row["status"] == "ok" for row in rows)
    pairs = [
        evaluation.EvalPair(
            *truth[row["frame"]], row["x_mm"], row["y_mm"], row["theta_deg"]
        )
        for row in rows
    ]
    evaluation.save_pairs_csv(tmp_path / "pairs.csv", pairs)
    code, out, err = _run(capsys, "evaluate", tmp_path / "pairs.csv")
    assert code == 0, err
    return pairs, json.loads(out)


@pytest.mark.parametrize(
    "lens, seed",
    [(False, 0), (False, 1), (False, 2), (True, 0), (True, 1), (True, 2)],
    ids=["0", "1", "2", "lens-0", "lens-1", "lens-2"],
)
def test_quick_start_closes_to_a_nanometer(capsys, tmp_path, lens, seed):
    # Without noise every position matches truth.csv. The largest error
    # measured on these six scenes is 6.0e-9 mm, with the lens.
    config = SceneConfig()
    if lens:
        config = config._replace(intrinsics=config.intrinsics.with_distortion(_LENS))
    pairs, report = _quick_start(capsys, tmp_path, seed, config)
    for p in pairs:
        assert math.hypot(p.est_x - p.gt_x, p.est_y - p.gt_y) < 5e-8
    assert report["count"] == 30
    assert report["rmse_mm"] < 5e-8


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_quick_start_with_noise_errs_more_with_distance(capsys, tmp_path, seed):
    # With 0.5 px of noise on every pixel synth writes, the error grows with
    # the distance from the camera, as the paper's does.
    config = SceneConfig(
        intrinsics=SceneConfig().intrinsics.with_distortion(_LENS), noise_px=0.5
    )
    _, report = _quick_start(capsys, tmp_path, seed, config)
    near, middle, far, beyond = report["buckets"]
    assert (near["hi_mm"], middle["hi_mm"], far["hi_mm"]) == (1000.0, 2000.0, 3000.0)
    assert beyond["count"] == 0
    assert near["rmse_mm"] < middle["rmse_mm"] < far["rmse_mm"]


# ---------------------------------------------------------------------------
# Malformed JSON documents
# ---------------------------------------------------------------------------

# Each command's input files, in argument order, by scene path name.
_INPUTS = {
    "calibrate-intrinsics": ("views",),
    "calibrate-extrinsics": ("landmarks", "calibration"),
    "fit-regressor": ("samples",),
    "localize": ("detections", "calibration", "model"),
    "evaluate": ("pairs",),
    "synth": ("config",),
}


def _inputs(scene, command):
    paths = {**scene.paths, "pairs": FIXTURES_DIR / "reference_eval_pairs.csv"}
    return [paths[name] for name in _INPUTS[command]]


# A value that deletes its key from the document.
_MISSING = object()


@pytest.mark.parametrize(
    "command, document, keys, value",
    [
        ("calibrate-intrinsics", "views", ("views", 0, "points"), None),
        ("calibrate-extrinsics", "landmarks", ("points", 0, "pixel"), None),
        ("calibrate-extrinsics", "calibration", ("intrinsics", "distortion"), None),
        ("localize", "calibration", (), ["intrinsics"]),
        ("localize", "model", ("classes",), None),
        ("calibrate-extrinsics", "calibration", ("intrinsics", "alpha_x"), 10**400),
        ("calibrate-intrinsics", "views", ("views", 0, "points", 0, "pixel"),
         ["322.5", "210.25"]),
        ("calibrate-intrinsics", "views", ("views", 0, "points", 0, "pattern"),
         [True, 0]),
        ("calibrate-extrinsics", "landmarks", ("points", 0, "pixel"),
         ["322.5", "210.25"]),
        ("calibrate-extrinsics", "landmarks", ("extra",),
         [{"pixel": [322.5, 210.25], "world": [0.0, "0", 0.0]}]),
        ("calibrate-extrinsics", "landmarks", ("points", 0, "name"), "5"),
        ("localize", "model", ("classes", "ball", "weights", 0, 0), "0.5"),
        ("localize", "model", ("classes", "ball", "rmse_px"), "0"),
        ("localize", "model", ("classes", "ball", "rmse_px"), math.nan),
        ("localize", "model", ("classes", "ball", "rmse_px"), -3.0),
        ("localize", "model", ("classes", "ball", "rmse_px"), _MISSING),
        ("localize", "calibration", ("intrinsics",), _MISSING),
        ("localize", "calibration", ("intrinsics", "distortion", "k1"), math.nan),
        ("localize", "calibration", ("intrinsics", "u0"), math.inf),
        ("localize", "calibration", ("intrinsics", "alpha_x"), -642.41),
    ],
    ids=["views-points-null", "landmarks-pixel-null", "distortion-null",
         "calibration-list", "model-classes-null", "alpha_x-beyond-float",
         "views-pixel-strings", "views-pattern-bool", "landmarks-pixel-strings",
         "landmarks-extra-world-string", "landmarks-unknown-name",
         "model-weight-string", "model-rmse-string", "model-rmse-nan",
         "model-rmse-negative", "model-rmse-missing", "calibration-intrinsics-missing",
         "distortion-k1-nan", "u0-infinite", "alpha_x-negative"],
)
def test_malformed_json_document_exits_2_naming_the_file(
    capsys, cli_scene, tmp_path, command, document, keys, value
):
    if document == "landmarks":
        # Synth marks no landmark by name, so the named points are added.
        named = _named_marks(cli_scene.config)
        doc = extrinsics.landmarks_to_dict(DEFAULT_GEOMETRY, named, list(cli_scene.marks))
    else:
        doc = json.loads(cli_scene.paths[document].read_text())
    if keys:
        target = doc
        for key in keys[:-1]:
            target = target[key]
        if value is _MISSING:
            del target[keys[-1]]
        else:
            target[keys[-1]] = value
    else:
        doc = value
    bad = tmp_path / f"{document}.json"
    bad.write_text(json.dumps(doc))
    argv = [bad if name == document else cli_scene.paths[name] for name in _INPUTS[command]]
    code, out, err = _run(capsys, command, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert f"error: {bad}" in err


@pytest.mark.parametrize("command", list(_INPUTS))
def test_non_utf8_input_exits_2_naming_the_file(capsys, cli_scene, tmp_path, command):
    # The bad file is each command's first input; the rest are good. Its bad
    # byte lies past the first chunk a line reader decodes.
    bad = tmp_path / "input"
    bad.write_bytes(b"\n" * 10_000 + b"\xff\n")
    argv = [bad, *_inputs(cli_scene, command)[1:], "--out", tmp_path / "out"]
    code, out, err = _run(capsys, command, *argv)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 10000: "
        "invalid start byte\n"
    )


@pytest.mark.parametrize(
    "command, document, good_lines",
    [("localize", "calibration", 0), ("fit-regressor", "samples", 1), ("synth", "config", 0)],
)
def test_deeply_nested_json_exits_2_naming_the_file(
    capsys, cli_scene, tmp_path, command, document, good_lines
):
    # Samples are read line by line, so there the deep line follows a good one.
    bad = tmp_path / document
    good = cli_scene.paths[document].read_text().splitlines(keepends=True)[:good_lines]
    bad.write_text("".join(good) + _DEEP_JSON + "\n")
    where = f"{bad} line {good_lines + 1}" if good_lines else bad
    argv = [bad if name == document else cli_scene.paths[name] for name in _INPUTS[command]]
    code, out, err = _run(capsys, command, *argv, "--out", tmp_path / "out")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {where}: maximum recursion depth exceeded")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("evaluate", "--buckets", "nan"),
        ("evaluate", "--buckets", "1000,inf"),
        ("evaluate", "--buckets", "1000,abc"),
        ("evaluate", "--buckets", "1000,,2000"),
        ("evaluate", "--buckets", "2000,1000"),
        ("evaluate", "--buckets", "-5"),
        ("evaluate", "--buckets", "-100"),
        ("evaluate", "--buckets", "500,500"),
        ("evaluate", "--buckets", "800,300"),
        ("localize", "--min-score", "nan"),
        ("localize", "--min-score", "inf"),
        ("localize", "--min-score", "-inf"),
    ],
)
def test_non_finite_flag_exits_2_naming_the_flag(
    capsys, cli_scene, command, flag, value
):
    code, out, err = _run(capsys, command, *_inputs(cli_scene, command), f"{flag}={value}")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert f"error: {flag}" in err


def _set_json(text: str, keys: tuple, value) -> str:
    doc = json.loads(text)
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return json.dumps(doc)


# Inputs that take numpy past float range on the way to a failure the command
# checks for. The suite turns warnings into errors, so a numpy RuntimeWarning
# would end the command with exit 1 here, and on stderr outside the suite.
@pytest.mark.parametrize(
    "command, document, mutate, error",
    [
        (
            "calibrate-extrinsics",
            "calibration",
            lambda text: _set_json(text, ("intrinsics", "alpha_x"), 1e308),
            "{landmarks}, {calibration}: normal equations unsolvable at lambda=1e+10",
        ),
        (
            "calibrate-intrinsics",
            "views",
            lambda text: _set_json(text, ("views", 0, "points", 0, "pixel", 0), 1e308),
            "{views}: view000: points do not determine a unique homography "
            "(singular values 0 and -0 of 6.35)",
        ),
        (
            "fit-regressor",
            "samples",
            lambda text: _set_json(text.splitlines()[0], ("ground_pixel", 1), 1e200)
            + "\n" + "".join(line + "\n" for line in text.splitlines()[1:]),
            "{samples}: class 'ball': rmse_px must be finite and >= 0, got inf",
        ),
    ],
)
def test_overflow_on_the_way_to_an_error_prints_no_warning(
    capsys, cli_scene, tmp_path, command, document, mutate, error
):
    paths = dict(cli_scene.paths)
    paths[document] = tmp_path / paths[document].name
    paths[document].write_text(mutate(cli_scene.paths[document].read_text()))
    code, out, err = _run(capsys, command, *[paths[name] for name in _INPUTS[command]])
    assert code == 2
    assert out == ""
    *notes, last = err.splitlines()
    assert last == "error: " + error.format(**paths)
    assert all(note.startswith(("loaded ", "16 correspondences")) for note in notes), err


# ---------------------------------------------------------------------------
# Fuzzed documents: a malformed input exits 0 or 2, never 1
# ---------------------------------------------------------------------------

# Replacement values: wrong types, small integers, and numbers at the ends of
# float range and past the int64 range.
_EXTREME_NUMBERS = (
    1e308, -1e308, 5e-324, 2**63, -(2**63), 1e300, 1e-300, 1e154, -1e154, 3e38,
)
_FUZZ_VALUES = (None, "x", True, -1, 0, [], {}, [1], "1234", *_EXTREME_NUMBERS)
_FUZZ_MUTATIONS = 24

# The commands each scene input feeds; the command's other inputs stay good.
_FUZZ_COMMANDS = {
    "views": ("calibrate-intrinsics",),
    "landmarks": ("calibrate-extrinsics",),
    "calibration": ("calibrate-extrinsics", "localize"),
    "model": ("localize",),
    "config": ("synth",),
    "detections": ("localize",),
    "samples": ("fit-regressor",),
}


def _locations(node, path=()):
    """The key path of every value in a JSON document, the root first."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _locations(child, (*path, key))


def _mutated(text: str, rng: np.random.Generator) -> tuple[str, tuple, object]:
    """text's JSON document with one randomly chosen value replaced, and
    the key path and replacement used."""
    doc = json.loads(text)
    paths = list(_locations(doc))
    path = paths[rng.integers(len(paths))]
    value = _FUZZ_VALUES[rng.integers(len(_FUZZ_VALUES))]
    if not path:
        return json.dumps(value), path, value
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(doc), path, value


@pytest.mark.parametrize("document", list(_FUZZ_COMMANDS))
def test_fuzzed_input_exits_0_or_2(capsys, cli_scene, tmp_path, document):
    source = cli_scene.paths[document]
    text = source.read_text()
    rng = np.random.default_rng([20240817, list(_FUZZ_COMMANDS).index(document)])
    bad = tmp_path / source.name
    for _ in range(_FUZZ_MUTATIONS):
        if source.suffix == ".jsonl":
            # One line of the log is mutated; the others stay good.
            lines = text.splitlines()
            index = int(rng.integers(len(lines)))
            lines[index], path, value = _mutated(lines[index], rng)
            bad.write_text("\n".join(lines) + "\n")
            where = (index + 1, *path)
        else:
            mutated, path, value = _mutated(text, rng)
            bad.write_text(mutated)
            where = path
        for command in _FUZZ_COMMANDS[document]:
            argv = [bad if name == document else cli_scene.paths[name]
                    for name in _INPUTS[command]]
            if command == "synth":
                argv += ["--out", tmp_path / "scene"]
            code, out, err = _run(capsys, command, *argv)
            case = f"{command}: {document} {where} = {value!r}"
            assert code in (0, 2), case
            assert "Traceback" not in err, case
            assert not re.search(r"\bNaN\b|Infinity", out), case
            if code == 2:
                assert out == "", case
                assert "error: " in err, case


# Every number of calibrate-extrinsics' two inputs, one at a time, at each
# extreme value: where numpy went through inf and NaN, the float solve must
# end in a result or a named error, never in an arithmetic exception.
@pytest.mark.parametrize("document", ["landmarks", "calibration"])
def test_each_number_at_each_extreme_exits_0_or_2(capsys, cli_scene, tmp_path, document):
    doc = json.loads(cli_scene.paths[document].read_text())
    bad = tmp_path / cli_scene.paths[document].name
    argv = [bad if name == document else cli_scene.paths[name]
            for name in _INPUTS["calibrate-extrinsics"]]
    runs = 0
    for path in _locations(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        original = target[path[-1]] if path else None
        if type(original) not in (int, float):
            continue
        for value in _EXTREME_NUMBERS:
            target[path[-1]] = value
            bad.write_text(json.dumps(doc))
            code, out, err = _run(capsys, "calibrate-extrinsics", *argv)
            case = f"{document} {path} = {value!r}: {err.strip()[-200:]}"
            assert code in (0, 2), case
            assert "Traceback" not in err, case
            assert "division by zero" not in err and "math domain error" not in err, case
            assert not re.search(r"\bNaN\b|Infinity", out), case
            runs += 1
        target[path[-1]] = original
    assert runs >= 10 * len(_EXTREME_NUMBERS)


# Mutations of the pairs table, used in turn: the first six replace one
# field's text, the next two add a field after it or drop it, and the last
# three relabel every row of one source as the other or drop every data row.
_CSV_FUZZ_KINDS = (
    "", "x", "nan", "1e400", "1e308", "-1e308", "extra field", "dropped field",
    "ours as reference", "reference as ours", "no data rows",
)
_CSV_RELABEL = {
    "ours as reference": ("ours", "reference"),
    "reference as ours": ("reference", "ours"),
}


def test_fuzzed_pairs_csv_exits_0_or_2(capsys, tmp_path):
    rows = [
        line.split(",")
        for line in (FIXTURES_DIR / "reference_eval_pairs.csv").read_text().splitlines()
    ]
    rng = np.random.default_rng(20240818)
    bad = tmp_path / "pairs.csv"
    for index in range(_FUZZ_MUTATIONS):
        kind = _CSV_FUZZ_KINDS[index % len(_CSV_FUZZ_KINDS)]
        mutated = [list(row) for row in rows]
        line = int(rng.integers(len(mutated)))
        row = mutated[line]
        field = int(rng.integers(len(row)))
        if kind == "extra field":
            row.insert(field + 1, "0")
        elif kind == "dropped field":
            del row[field]
        elif kind == "no data rows":
            del mutated[1:]
        elif kind in _CSV_RELABEL:
            old, new = _CSV_RELABEL[kind]
            for r in mutated[1:]:
                if r[-1] == old:
                    r[-1] = new
        else:
            row[field] = kind
        bad.write_text("".join(",".join(r) + "\n" for r in mutated))
        code, out, err = _run(capsys, "evaluate", bad)
        case = f"line {line + 1} field {field}: {kind!r}"
        assert code in (0, 2), case
        assert "Traceback" not in err, case
        assert not re.search(r"\bNaN\b|Infinity", out), case
        if code == 2:
            assert out == "", case
            assert "error: " in err, case


# ---------------------------------------------------------------------------
# --out gets the bytes that stdout gets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "command", ["calibrate-intrinsics", "calibrate-extrinsics", "fit-regressor"]
)
def test_out_file_equals_stdout(capsys, cli_scene, tmp_path, command):
    out_path = tmp_path / "out.json"
    code, out, err = _run(
        capsys, command, *_inputs(cli_scene, command), "--out", out_path
    )
    assert code == 0
    assert out_path.read_bytes() == out.encode()
    assert f"wrote {out_path}" in err


@pytest.mark.parametrize("command", ["calibrate-intrinsics", "localize", "evaluate"])
def test_failed_out_write_leaves_stdout_empty(capsys, cli_scene, tmp_path, command):
    # A file where --out needs a directory makes the write fail.
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code, out, err = _run(
        capsys, command, *_inputs(cli_scene, command), "--out", blocker / "out"
    )
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def test_readme_commands_name_exactly_the_parser_flags():
    readme = (REPO_ROOT / "README.md").read_text()
    section = readme.split("## Commands\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    (commands,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    flags = {
        flag
        for parser in commands.choices.values()
        for action in parser._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    assert documented == flags


def test_unknown_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_internal_failure_exits_1_with_a_traceback(capsys, monkeypatch):
    def fail(args):
        raise RuntimeError("handler failed")

    monkeypatch.setattr(cli, "_cmd_evaluate", fail)
    code, out, err = _run(capsys, "evaluate", "pairs.csv")
    assert code == 1
    assert out == ""
    assert "Traceback (most recent call last)" in err
    assert "RuntimeError: handler failed" in err


# A locale whose preferred encoding is ASCII: no coercion to C.UTF-8, no UTF-8 mode.
_ASCII_LOCALE = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}


@pytest.mark.parametrize("reader", ["detections", "documents", "samples", "truth-csv"])
def test_utf8_input_is_read_whatever_the_locale(cli_scene, tmp_path, reader):
    # One input carries a non-ASCII string where its reader accepts any text.
    paths = {name: str(path) for name, path in cli_scene.paths.items()}
    if reader == "detections":
        detections = tmp_path / "detections.jsonl"
        detections.write_text(
            '{"bbox": [300, 300, 340, 360], "class": "ball", "frame": "café", "score": 0.9}\n',
            encoding="utf-8",
        )
        argv = ["-m", "groundcam.cli", "localize", detections, paths["calibration"], paths["model"]]
    elif reader == "documents":
        documents = []
        for name in ("calibration", "model"):
            doc = {**json.loads(cli_scene.paths[name].read_text()), "note": "café"}
            documents.append(tmp_path / f"{name}.json")
            documents[-1].write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        argv = ["-m", "groundcam.cli", "localize", paths["detections"], *documents]
    elif reader == "samples":
        samples = tmp_path / "samples.jsonl"
        rows = [json.loads(line) for line in cli_scene.paths["samples"].read_text().splitlines()]
        samples.write_text(
            "".join(json.dumps({**row, "note": "café"}, ensure_ascii=False) + "\n" for row in rows),
            encoding="utf-8",
        )
        argv = ["-m", "groundcam.cli", "fit-regressor", samples]
    else:
        truth = tmp_path / "truth.csv"
        truth.write_text("frame,gt_x,gt_y,gt_theta\ncafé,1,2,3\n", encoding="utf-8")
        code = "import sys; from groundcam import evaluation; print(ascii(evaluation.load_truth_csv(sys.argv[1])))"
        argv = ["-c", code, truth]
    src = str(REPO_ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": src if not path else f"{src}{os.pathsep}{path}",
        **_ASCII_LOCALE,
    }
    result = subprocess.run(
        [sys.executable, *map(str, argv)], capture_output=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
    assert result.stdout.isascii()
    if reader == "detections":
        assert json.loads(result.stdout)["frame"] == "café"
    if reader == "truth-csv":
        assert result.stdout.decode() == "{'caf\\xe9': (1.0, 2.0, 3.0)}\n"


def test_module_entry_point_runs_in_a_subprocess():
    # The checkout's package, whether or not it is installed.
    src = str(REPO_ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else f"{src}{os.pathsep}{path}"}
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "groundcam.cli",
            "evaluate",
            str(FIXTURES_DIR / "reference_eval_pairs.csv"),
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["count"] == 4
