"""Command-line front end: one command per workflow stage.

Commands run in process through main() so stdout and stderr can be
asserted separately; one subprocess smoke test covers the module entry
point. Machine output must stay parseable JSON or JSONL on stdout.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from groundcam import files
from groundcam.cli import main
from groundcam.geometry import PixelPoint, project
from groundcam.extrinsics import PnpCorrespondence
from groundcam.regression import BOTTOM_CENTER_WEIGHTS, BoundingBox
from groundcam.reference import (
    REFERENCE_CAMERA_CENTER_MM,
    reference_intrinsics,
)
from groundcam.scene import SceneConfig, config_to_dict, generate_scene

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


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        named = dict(cli_scene.landmark_pixels)
        spoiled = config.landmark_names[0]
        px = named[spoiled]
        named[spoiled] = PixelPoint(px.u + 60.0, px.v + 60.0)
        extra = [
            PnpCorrespondence(
                pixel=project(p, config.intrinsics, config.pose), world=p
            )
            for p in config.grid_points
        ]
        path = tmp_path / "landmarks.json"
        files.write_json(path, files.landmarks_to_dict(config.geometry, named, extra))
        code, out, err = _run(
            capsys, "calibrate-extrinsics", path, cli_scene.paths["calibration"]
        )
        assert code == 0
        assert "warning:" in err
        assert spoiled in err
        assert "looks mismarked" in err

    def test_too_few_landmarks(self, capsys, cli_scene, tmp_path):
        config = cli_scene.config
        named = dict(list(cli_scene.landmark_pixels.items())[:3])
        path = tmp_path / "landmarks.json"
        files.write_json(path, files.landmarks_to_dict(config.geometry, named))
        code, out, err = _run(
            capsys, "calibrate-extrinsics", path, cli_scene.paths["calibration"]
        )
        assert code == 2
        assert "error:" in err
        assert "4" in err


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
        assert loaded.covered() == (label,)

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

    def test_headerless_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("1,2,3,4,5,6,ours\n")
        code, _, err = _run(capsys, "evaluate", path)
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "row", ["0,500,0", "0,500,0,x,508.86,0,ours"], ids=["short", "non-numeric"]
    )
    def test_malformed_row_names_file_and_line(self, capsys, tmp_path, row):
        path = tmp_path / "pairs.csv"
        path.write_text(",".join(files.PAIRS_HEADER) + "\n" + row + "\n")
        code, out, err = _run(capsys, "evaluate", path)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert f"{path} line 2" in err

    def test_empty_table_rejected(self, capsys, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text(",".join(files.PAIRS_HEADER) + "\n")
        code, _, err = _run(capsys, "evaluate", path)
        assert code == 2
        assert "no pairs" in err


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


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
        assert "20 views" in err

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
    ],
    ids=["views-points-null", "landmarks-pixel-null", "distortion-null",
         "calibration-list", "model-classes-null", "alpha_x-beyond-float",
         "views-pixel-strings", "views-pattern-bool", "landmarks-pixel-strings",
         "landmarks-extra-world-string", "landmarks-unknown-name",
         "model-weight-string", "model-rmse-string"],
)
def test_malformed_json_document_exits_2_naming_the_file(
    capsys, cli_scene, tmp_path, command, document, keys, value
):
    doc = json.loads(cli_scene.paths[document].read_text())
    if keys:
        target = doc
        for key in keys[:-1]:
            target = target[key]
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
    # The bad file is each command's first input; the rest are good.
    bad = tmp_path / "input"
    bad.write_bytes(b"\xff\xfe{}\n")
    argv = [bad, *_inputs(cli_scene, command)[1:], "--out", tmp_path / "out"]
    code, out, err = _run(capsys, command, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert f"error: {bad}" in err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("evaluate", "--buckets", "nan"),
        ("evaluate", "--buckets", "1000,inf"),
        ("evaluate", "--buckets", "1000,abc"),
        ("evaluate", "--buckets", "1000,,2000"),
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


# ---------------------------------------------------------------------------
# Fuzzed documents: a malformed input exits 0 or 2, never 1
# ---------------------------------------------------------------------------

# Replacement values. Huge numbers are left out on purpose: a configuration
# asking for 1e308 grid columns makes synth run without bound.
_FUZZ_VALUES = (None, "x", True, -1, 0, [], {}, [1], "1234")
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
            if code == 2:
                assert out == "", case
                assert "error: " in err, case


# Field mutations of the pairs table, used in turn: the first four replace
# one field's text, the last two add a field after it or drop it.
_CSV_FUZZ_KINDS = ("", "x", "nan", "1e400", "extra field", "dropped field")


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
        else:
            row[field] = kind
        bad.write_text("".join(",".join(r) + "\n" for r in mutated))
        code, out, err = _run(capsys, "evaluate", bad)
        case = f"line {line + 1} field {field}: {kind!r}"
        assert code in (0, 2), case
        assert "Traceback" not in err, case
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


def test_unknown_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_module_entry_point_runs_in_a_subprocess():
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
    )
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["count"] == 4
