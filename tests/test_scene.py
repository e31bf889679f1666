"""Synthetic scene generator: determinism, closure, config round trips.

A zero-noise scene must close the loop exactly: annotated ground pixels sit
on box bottom-centers, landmark pixels equal straight projections, and the
pipeline reproduces the written ground truth.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from groundcam.geometry import Distortion, PixelPoint, WorldPoint, ground_map, project
from groundcam.extrinsics import FieldGeometry, field_landmarks
from groundcam.pipeline import FrameConvention, bearing, localize_batch
from groundcam.scene import (
    _SCHEMA,
    DEFAULT_LANDMARKS,
    ConfigInvalid,
    SceneConfig,
    config_from_dict,
    config_to_dict,
    generate_scene,
)

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _small_config(**overrides) -> SceneConfig:
    defaults = dict(
        grid_columns=2,
        grid_rows=3,
        num_views=3,
        pattern_cols=5,
        pattern_rows=4,
    )
    defaults.update(overrides)
    return SceneConfig(**defaults)


def _tree_bytes(scene) -> dict[str, bytes]:
    return {name: path.read_bytes() for name, path in sorted(scene.paths.items())}


# ---------------------------------------------------------------------------
# Zero-noise closure on the default scene
# ---------------------------------------------------------------------------


class TestDefaultScene:
    def test_all_files_written(self, default_scene):
        assert set(default_scene.paths) == {
            "config",
            "calibration",
            "views",
            "landmarks",
            "samples",
            "model",
            "detections",
            "truth",
        }
        for path in default_scene.paths.values():
            assert path.is_file()
            assert path.stat().st_size > 0

    def test_grid_layout(self, default_scene):
        points = default_scene.config.grid_points
        assert len(points) == 30
        assert {p.x for p in points} == {-250.0, 0.0, 250.0}
        assert {p.y for p in points} == {250.0 * j for j in range(10)}
        assert all(p.z == 0.0 for p in points)

    def test_views_fit_the_image(self, default_scene):
        config = default_scene.config
        assert len(default_scene.views) == config.num_views
        for view in default_scene.views:
            assert len(view) == config.pattern_cols * config.pattern_rows
            assert view.pixels[:, 0].min() >= 8.0
            assert view.pixels[:, 0].max() <= config.image_width_px - 8.0
            assert view.pixels[:, 1].min() >= 8.0
            assert view.pixels[:, 1].max() <= config.image_height_px - 8.0

    def test_landmark_pixels_are_exact_projections(self, default_scene):
        config = default_scene.config
        catalog = field_landmarks(config.geometry)
        assert set(default_scene.landmark_pixels) == set(DEFAULT_LANDMARKS)
        for name, px in default_scene.landmark_pixels.items():
            expected = project(catalog[name], config.intrinsics, config.pose)
            assert px.u == expected.u
            assert px.v == expected.v

    def test_annotations_sit_on_box_bottom_centers(self, default_scene):
        for sample in default_scene.samples:
            box = sample.bbox
            assert sample.ground_pixel.u == (box.xmin + box.xmax) / 2.0
            assert sample.ground_pixel.v == box.ymax

    def test_truth_frame_ids_and_angles(self, default_scene):
        config = default_scene.config
        camera = ground_map(config.intrinsics, config.pose)
        assert [row[0] for row in default_scene.truth[:3]] == ["p000", "p001", "p002"]
        for (frame_id, x, y, theta), contact in zip(
            default_scene.truth, config.grid_points
        ):
            ex, ey = camera.camera_frame(contact.x, contact.y)
            assert x == pytest.approx(ex, abs=1e-12)
            assert y == pytest.approx(ey, abs=1e-12)
            assert theta == pytest.approx(bearing(ex, ey), abs=1e-12)

    def test_pipeline_reproduces_the_written_truth(self, default_scene):
        config = default_scene.config
        results = localize_batch(
            list(default_scene.detections),
            default_scene.regressor,
            config.intrinsics,
            config.pose,
            config.frame,
        )
        truth_by_frame = {row[0]: row for row in default_scene.truth}
        assert len(results) == len(default_scene.truth)
        for result in results:
            _, x, y, theta = truth_by_frame[result.frame_id]
            assert result.x_mm == pytest.approx(x, abs=1e-6)
            assert result.y_mm == pytest.approx(y, abs=1e-6)
            assert result.theta_deg == pytest.approx(theta, abs=1e-9)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        config = _small_config(noise_px=0.5)
        a = generate_scene(config, seed=11, out_dir=tmp_path / "a")
        b = generate_scene(config, seed=11, out_dir=tmp_path / "b")
        assert _tree_bytes(a) == _tree_bytes(b)

    def test_different_seed_different_noise(self, tmp_path):
        config = _small_config(noise_px=0.5)
        a = generate_scene(config, seed=1, out_dir=tmp_path / "a")
        b = generate_scene(config, seed=2, out_dir=tmp_path / "b")
        assert a.paths["detections"].read_bytes() != b.paths["detections"].read_bytes()


# ---------------------------------------------------------------------------
# Noisy generation and frame selection
# ---------------------------------------------------------------------------


class TestVariants:
    def test_noisy_scene_is_still_well_formed(self, tmp_path):
        config = _small_config(noise_px=1.5)
        scene = generate_scene(config, seed=3, out_dir=tmp_path)
        assert len(scene.samples) == 6
        assert len(scene.detections) == 6
        for sample in scene.samples:
            assert sample.bbox.xmin < sample.bbox.xmax
            assert sample.bbox.ymin < sample.bbox.ymax
        for row in scene.truth:
            assert all(math.isfinite(v) for v in row[1:])

    def test_field_frame_truth_matches_grid(self, tmp_path):
        config = _small_config(frame=FrameConvention.FIELD, grid_origin_mm=(0.0, 500.0))
        scene = generate_scene(config, seed=5, out_dir=tmp_path)
        for (_, x, y, theta), contact in zip(scene.truth, config.grid_points):
            assert x == contact.x
            assert y == contact.y
            assert theta == pytest.approx(bearing(contact.x, contact.y), abs=1e-12)

    def test_grid_origin_shifts_rows(self):
        config = _small_config(grid_origin_mm=(100.0, 500.0))
        ys = {p.y for p in config.grid_points}
        assert ys == {500.0, 750.0, 1000.0}
        xs = {p.x for p in config.grid_points}
        assert xs == {-25.0, 225.0}


# ---------------------------------------------------------------------------
# Config dictionary round trip
# ---------------------------------------------------------------------------


class TestConfigDict:
    def test_round_trip_preserves_every_field(self, ref_k):
        config = _small_config(
            intrinsics=ref_k.with_distortion(Distortion(k1=-0.12, p2=-0.0008)),
            image_width_px=800,
            image_height_px=600,
            noise_px=0.75,
            grid_spacing_mm=300.0,
            grid_origin_mm=(50.0, 400.0),
            object_label="robot",
            object_radius_mm=90.0,
            object_height_mm=150.0,
            square_size_mm=30.0,
            geometry=FieldGeometry.division_b(),
            landmark_names=("goal_bottom_center", "far_goal_bottom_center"),
            frame=FrameConvention.FIELD,
        )
        defaults = SceneConfig()
        for _, key, name, _ in _SCHEMA:
            assert getattr(config, name) != getattr(defaults, name), key
        doc = config_to_dict(config, seed=42)
        assert doc["seed"] == 42
        back = config_from_dict(json.loads(json.dumps(doc)))
        for _, key, name, _ in _SCHEMA:
            assert getattr(back, name) == getattr(config, name), key
        assert back.image_width_px == 800 and back.image_height_px == 600
        assert back.grid_rows == config.grid_rows
        assert back.grid_spacing_mm == 300.0
        assert back.object_radius_mm == 90.0
        assert back.object_height_mm == 150.0
        assert back.pattern_rows == config.pattern_rows
        assert back.intrinsics == config.intrinsics
        assert back.noise_px == config.noise_px
        assert back.grid_columns == config.grid_columns
        assert back.grid_origin_mm == config.grid_origin_mm
        assert back.object_label == "robot"
        assert back.frame is FrameConvention.FIELD
        assert back.num_views == config.num_views
        assert back.pattern_cols == config.pattern_cols
        assert back.square_size_mm == config.square_size_mm
        assert back.landmark_names == config.landmark_names
        assert back.geometry == config.geometry
        assert back.intrinsics.alpha_x == config.intrinsics.alpha_x
        assert np.array_equal(back.pose.rotation, config.pose.rotation)
        assert np.array_equal(back.pose.translation, config.pose.translation)

    def test_generated_config_feeds_back_in(self, default_scene):
        doc = json.loads(default_scene.paths["config"].read_text())
        back = config_from_dict(doc)
        assert back.grid_rows == default_scene.config.grid_rows

    def test_unknown_keys_rejected(self):
        doc = config_to_dict(_small_config(), seed=0)
        doc["sensor"] = "imu"
        with pytest.raises(ConfigInvalid):
            config_from_dict(doc)

    def test_unknown_nested_keys_rejected(self):
        doc = config_to_dict(_small_config(), seed=0)
        doc["grid"]["shape"] = "hex"
        with pytest.raises(ConfigInvalid):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "noise_px", None),
            ("grid", "columns", "three"),
            ("object", "radius_mm", [1]),
            ("object", "class", 5),
            (None, "landmarks", {"goal_bottom_center": 1}),
            (None, "landmarks", ["goal_bottom_center", 5]),
        ],
    )
    def test_bad_value_names_its_key(self, section, key, value):
        doc = config_to_dict(_small_config(), seed=0)
        (doc if section is None else doc[section])[key] = value
        where = key if section is None else f"{section}.{key}"
        with pytest.raises(ConfigInvalid, match=f"bad configuration value {where}: "):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("grid", "columns", "2"),
            ("grid", "columns", 2.0),
            ("pattern", "views", 3.7),
            ("pattern", "views", True),
            (None, "image_width_px", "640"),
            (None, "noise_px", True),
            (None, "noise_px", "0.5"),
            ("grid", "spacing_mm", "250"),
            ("grid", "origin_mm", ["0", 0]),
            ("object", "height_mm", False),
        ],
    )
    def test_numbers_must_be_json_numbers(self, section, key, value):
        doc = config_to_dict(_small_config(), seed=0)
        (doc if section is None else doc[section])[key] = value
        where = key if section is None else f"{section}.{key}"
        with pytest.raises(ConfigInvalid, match=f"bad configuration value {where}: "):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda c: c["intrinsics"].update(alpha_x="642.41"),
            lambda c: c["intrinsics"].update(gamma=True),
            lambda c: c["intrinsics"]["distortion"].update(k1="0"),
            lambda c: c["pose"]["translation"].__setitem__(0, "1.0"),
        ],
    )
    def test_calibration_numbers_must_be_json_numbers(self, spoil):
        doc = config_to_dict(_small_config(), seed=0)
        spoil(doc["calibration"])
        with pytest.raises(ConfigInvalid, match="bad configuration value calibration: "):
            config_from_dict(doc)

    def test_non_object_rejected(self):
        with pytest.raises(ConfigInvalid):
            config_from_dict(["not", "a", "mapping"])

    @pytest.mark.parametrize("spoil", ["no-pose", "distortion-null"])
    def test_malformed_calibration_rejected(self, spoil):
        doc = config_to_dict(_small_config(), seed=0)
        if spoil == "no-pose":
            del doc["calibration"]["pose"]
        else:
            doc["calibration"]["intrinsics"]["distortion"] = None
        with pytest.raises(ConfigInvalid):
            config_from_dict(doc)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"noise_px": -0.1},
            {"grid_columns": 0},
            {"grid_spacing_mm": 0.0},
            {"object_label": "plane"},
            {"object_radius_mm": 0.0},
            {"pattern_cols": 1},
            {"square_size_mm": 0.0},
            {"image_width_px": 1},
            {"landmark_names": ("center_circle",)},
        ],
    )
    def test_bad_values_rejected(self, overrides):
        with pytest.raises(ConfigInvalid):
            _small_config(**overrides)

    def test_landmark_names_must_exist_for_the_geometry(self):
        geometry = FieldGeometry(
            field_length=2000.0,
            field_width=1500.0,
            goal_width=800.0,
            goal_depth=180.0,
            goal_height=155.0,
            penalty_depth=500.0,
            penalty_width=1000.0,
        )
        config = _small_config(geometry=geometry)
        assert set(config.landmark_names) <= set(field_landmarks(geometry))
