"""Synthetic scene generator: determinism, closure, config round trips.

A zero-noise scene must close the loop exactly: annotated ground pixels sit
on box bottom-centers, ground marks sit at their straight projections, and
the pipeline reproduces the written ground truth.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from groundcam.geometry import Distortion, PixelPoint, ground_map
from groundcam.pipeline import FrameConvention, bearing, localize_batch
from groundcam.projection import WorldPoint, project
from groundcam.regression import BoundingBox
from groundcam.scene import (
    _SCHEMA,
    MARK_COLUMNS,
    MARK_ROWS,
    MAX_BOARD_POINTS,
    MAX_GRID_POINTS,
    SceneConfig,
    _noisy_box,
    config_from_dict,
    config_to_dict,
    generate_scene,
)

from conftest import REPO_ROOT

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
            assert len(view.pixels) == config.pattern_cols * config.pattern_rows
            assert view.pixels[:, 0].min() >= 8.0
            assert view.pixels[:, 0].max() <= config.image_width_px - 8.0
            assert view.pixels[:, 1].min() >= 8.0
            assert view.pixels[:, 1].max() <= config.image_height_px - 8.0

    @pytest.mark.parametrize("lens", [False, True], ids=["pinhole", "lens"])
    def test_marks_are_exact_projections_inside_the_image(self, default_scene, tmp_path, lens):
        config = default_scene.config
        if lens:
            config = config._replace(
                intrinsics=config.intrinsics.with_distortion(Distortion(k1=-0.12, k2=0.03))
            )
            scene = generate_scene(config, seed=7, out_dir=tmp_path)
        else:
            scene = default_scene
        lattice = [
            (column * config.image_width_px, row * config.image_height_px)
            for row in MARK_ROWS
            for column in MARK_COLUMNS
        ]
        assert len(scene.marks) == len(lattice) == 16
        for mark, (u, v) in zip(scene.marks, lattice):
            assert mark.name == ""
            assert mark.world.z == 0.0
            expected = project(mark.world, config.intrinsics, config.pose)
            assert abs(mark.pixel.u - expected.u) <= 1e-9
            assert abs(mark.pixel.v - expected.v) <= 1e-9
            assert abs(mark.pixel.u - u) < 1e-4 and abs(mark.pixel.v - v) < 1e-4
            assert 0 <= mark.pixel.u < config.image_width_px
            assert 0 <= mark.pixel.v < config.image_height_px
        doc = json.loads(scene.paths["landmarks"].read_text())
        assert doc["points"] == []
        assert doc["extra"] == [
            {"pixel": list(m.pixel), "world": list(m.world)} for m in scene.marks
        ]

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
        with pytest.raises(
            ValueError, match=re.escape("unknown configuration keys: ['sensor']")
        ):
            config_from_dict(doc)

    def test_unknown_nested_keys_rejected(self):
        doc = config_to_dict(_small_config(), seed=0)
        doc["grid"]["shape"] = "hex"
        with pytest.raises(ValueError, match=re.escape("unknown grid keys: ['shape']")):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "noise_px", None),
            ("grid", "columns", "three"),
            ("object", "radius_mm", [1]),
            ("object", "class", 5),
        ],
    )
    def test_bad_value_names_its_key(self, section, key, value):
        doc = config_to_dict(_small_config(), seed=0)
        (doc if section is None else doc[section])[key] = value
        where = key if section is None else f"{section}.{key}"
        with pytest.raises(ValueError, match=f"bad configuration value {where}: "):
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
        with pytest.raises(ValueError, match=f"bad configuration value {where}: "):
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
        with pytest.raises(ValueError, match="bad configuration value calibration: "):
            config_from_dict(doc)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="configuration must be a JSON object"):
            config_from_dict(["not", "a", "mapping"])

    @pytest.mark.parametrize("spoil", ["no-pose", "distortion-null"])
    def test_malformed_calibration_rejected(self, spoil):
        doc = config_to_dict(_small_config(), seed=0)
        if spoil == "no-pose":
            del doc["calibration"]["pose"]
            message = "^calibration has no pose$"
        else:
            doc["calibration"]["intrinsics"]["distortion"] = None
            message = "^bad configuration value calibration: "
        with pytest.raises(ValueError, match=message):
            config_from_dict(doc)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


# The message config_from_dict raises for each finite bad value below.
_BAD_VALUE_MESSAGES = {
    "noise_px": "noise_px must be >= 0, got -0.1",
    "grid_columns": "grid must have at least one column and row",
    "grid_spacing_mm": "grid spacing must be positive",
    "object_label": "unsupported object class 'plane'",
    "object_radius_mm": "object dimensions must be positive",
    "pattern_cols": "pattern configuration out of range",
    "square_size_mm": "square size must be positive",
    "image_width_px": "image dimensions out of range",
    "image_height_px": "image dimensions out of range",
}


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
            {"image_height_px": 1},
            {"grid_spacing_mm": math.nan},
            {"grid_spacing_mm": math.inf},
            {"grid_origin_mm": (math.nan, 0.0)},
            {"object_radius_mm": math.nan},
            {"object_height_mm": math.inf},
            {"square_size_mm": math.nan},
        ],
    )
    def test_bad_values_rejected(self, overrides):
        ((name, value),) = overrides.items()
        values = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            message = f"{name} must be finite, got {value}"
        else:
            message = _BAD_VALUE_MESSAGES[name]
        doc = config_to_dict(_small_config(**overrides), seed=0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_from_dict(doc)

    def test_counts_at_the_limits_are_accepted(self):
        # Read only: generating the largest accepted scene takes about 20 s.
        doc = config_to_dict(_small_config(), seed=0)
        doc["grid"].update(columns=10, rows=MAX_GRID_POINTS // 10)
        doc["pattern"].update(views=MAX_BOARD_POINTS // 100, cols=10, rows=10)
        config = config_from_dict(doc)
        assert config.grid_columns * config.grid_rows == MAX_GRID_POINTS
        assert config.num_views * config.pattern_cols * config.pattern_rows == MAX_BOARD_POINTS

    def test_readme_states_the_limits(self):
        readme = (REPO_ROOT / "README.md").read_text()
        match = re.search(
            r"at most ([\d ]+) grid points .* and ([\d ]+) board points", readme
        )
        assert match is not None
        assert int(match.group(1).replace(" ", "")) == MAX_GRID_POINTS
        assert int(match.group(2).replace(" ", "")) == MAX_BOARD_POINTS


class _CollapsingJitter:
    """Stands in for the generator: every draw moves each box edge past
    its opposite edge."""

    def normal(self, loc, scale, size):
        return np.array([scale, scale, -scale, -scale])


def test_noise_that_collapses_every_box_draw_is_rejected():
    box = BoundingBox(10.0, 20.0, 30.0, 60.0)
    assert _noisy_box(box, 0.0, _CollapsingJitter()) is box
    with pytest.raises(ValueError, match="^noise level collapses detection boxes$"):
        _noisy_box(box, 100.0, _CollapsingJitter())
