"""Per-class ground-contact regression from detection boxes.

The model is affine in the box coordinates, so a fit to data generated by
any affine rule must recover that rule exactly; noisy fits must settle at
the injected noise level.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from groundcam import files
from groundcam.geometry import PixelPoint
from groundcam.regression import (
    BOTTOM_CENTER_WEIGHTS,
    KNOWN_CLASSES,
    BoundingBox,
    ClassModel,
    RegressionSample,
    bottom_center_regressor,
    fit,
)

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _random_box(rng: np.random.Generator) -> BoundingBox:
    xmin = rng.uniform(0, 500)
    ymin = rng.uniform(0, 350)
    return BoundingBox(
        xmin=xmin,
        ymin=ymin,
        xmax=xmin + rng.uniform(10, 120),
        ymax=ymin + rng.uniform(10, 120),
    )


def _samples_from_weights(
    weights: np.ndarray,
    label: str,
    count: int,
    rng: np.random.Generator,
    noise_px: float = 0.0,
) -> list[RegressionSample]:
    out = []
    for _ in range(count):
        box = _random_box(rng)
        u, v = weights @ np.array([*box, 1.0])
        if noise_px > 0:
            u += rng.normal(0.0, noise_px)
            v += rng.normal(0.0, noise_px)
        out.append(
            RegressionSample(
                label=label, bbox=box, ground_pixel=PixelPoint(float(u), float(v))
            )
        )
    return out


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


class TestFit:
    def test_recovers_arbitrary_affine_rule_exactly(self, rng):
        true_w = rng.uniform(-1.0, 1.0, (2, 5))
        true_w[:, 4] = rng.uniform(-50, 50, 2)
        samples = _samples_from_weights(true_w, "robot", 30, rng)
        model = fit(samples)["robot"]
        assert np.allclose(model.weights, true_w, atol=1e-9)
        assert model.rmse_px < 1e-9
        box = _random_box(rng)
        u, v = fit(samples)["robot"].ground_pixel(box)
        want = true_w @ np.array([*box, 1.0])
        assert u == pytest.approx(want[0], abs=1e-9)
        assert v == pytest.approx(want[1], abs=1e-9)

    def test_bottom_center_data_recovers_bottom_center_weights(self, rng):
        samples = [
            RegressionSample(
                label="ball",
                bbox=box,
                ground_pixel=PixelPoint((box.xmin + box.xmax) / 2.0, box.ymax),
            )
            for box in (_random_box(rng) for _ in range(12))
        ]
        model = fit(samples)["ball"]
        assert np.allclose(model.weights, BOTTOM_CENTER_WEIGHTS, atol=1e-9)

    def test_noisy_fit_settles_at_noise_level(self, rng):
        samples = _samples_from_weights(
            BOTTOM_CENTER_WEIGHTS, "robot", 30, rng, noise_px=1.0
        )
        model = fit(samples)["robot"]
        assert 0.5 < model.rmse_px < 1.5

    def test_classes_are_fit_independently(self, rng):
        ball = _samples_from_weights(BOTTOM_CENTER_WEIGHTS, "ball", 8, rng, 0.5)
        robot = _samples_from_weights(BOTTOM_CENTER_WEIGHTS, "robot", 8, rng, 0.5)
        alone = fit(ball)["ball"]
        together = fit(ball + robot)["ball"]
        assert np.allclose(alone.weights, together.weights, atol=1e-12)
        assert alone.rmse_px == pytest.approx(together.rmse_px, abs=1e-12)

    def test_predictions_interpolate_linearly(self, rng):
        samples = _samples_from_weights(
            BOTTOM_CENTER_WEIGHTS, "goal", 20, rng, noise_px=2.0
        )
        model = fit(samples)["goal"]
        a = BoundingBox(100.0, 100.0, 160.0, 200.0)
        b = BoundingBox(300.0, 150.0, 420.0, 320.0)
        mid = BoundingBox(200.0, 125.0, 290.0, 260.0)
        (ua, va), (ub, vb) = model.ground_pixel(a), model.ground_pixel(b)
        um, vm = model.ground_pixel(mid)
        assert um == pytest.approx((ua + ub) / 2.0, abs=1e-9)
        assert vm == pytest.approx((va + vb) / 2.0, abs=1e-9)

    def test_minimum_sample_count_enforced(self, rng):
        samples = _samples_from_weights(BOTTOM_CENTER_WEIGHTS, "ball", 4, rng)
        with pytest.raises(ValueError, match="class 'ball' has 4 samples, needs 5"):
            fit(samples)
        with pytest.raises(ValueError, match="no training samples given"):
            fit([])

    def test_identical_boxes_are_rank_deficient(self):
        box = BoundingBox(10.0, 10.0, 50.0, 60.0)
        samples = [
            RegressionSample(label="ball", bbox=box, ground_pixel=PixelPoint(30.0, 60.0))
            for _ in range(6)
        ]
        with pytest.raises(ValueError, match="column dependence detected"):
            fit(samples)


# ---------------------------------------------------------------------------
# Prediction and the fallback model
# ---------------------------------------------------------------------------


class TestPredict:
    def test_bottom_center_fallback_hand_value(self):
        regressor = bottom_center_regressor()
        box = BoundingBox(100.0, 100.0, 140.0, 140.0)
        assert regressor["ball"].ground_pixel(box) == (120.0, 140.0)

    def test_fallback_covers_all_known_classes(self):
        regressor = bottom_center_regressor()
        assert tuple(sorted(regressor)) == tuple(sorted(KNOWN_CLASSES))
        for label in KNOWN_CLASSES:
            assert np.array_equal(
                regressor[label].weights, BOTTOM_CENTER_WEIGHTS
            )


# ---------------------------------------------------------------------------
# Value objects
# ---------------------------------------------------------------------------


class TestBoundingBox:
    def test_degenerate_extent_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(10.0, 0.0, 10.0, 10.0)
        with pytest.raises(ValueError):
            BoundingBox(0.0, 20.0, 10.0, 10.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(float("nan"), 0.0, 10.0, 10.0)

    def test_feature_vector_and_bottom_center(self):
        box = BoundingBox(1.0, 2.0, 11.0, 22.0)
        assert box == (1.0, 2.0, 11.0, 22.0)
        bottom_center = bottom_center_regressor()["ball"].ground_pixel(box)
        assert bottom_center == (6.0, 22.0)


def test_sample_rejects_unknown_label(tmp_path):
    # load_samples checks the class last, after the box and the ground pixel.
    path = tmp_path / "samples.jsonl"
    good = {"class": "ball", "bbox": [0.0, 0.0, 1.0, 1.0], "ground_pixel": [0.5, 1.0]}
    plane = dict(good, **{"class": "plane"})
    for bad, message in (
        (plane, "class 'plane' is not one of ('ball', 'robot', 'goal')"),
        (
            dict(plane, bbox=[0.0, 0.0, 0.0, 1.0]),
            "box must have positive extent, got (0.0, 0.0, 0.0, 1.0)",
        ),
    ):
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ValueError) as error:
            files.load_samples(path)
        assert str(error.value) == f"{path} line 2: {message}"


def test_class_model_validation():
    with pytest.raises(ValueError):
        ClassModel(weights=np.zeros((2, 4)), rmse_px=0.0)
    with pytest.raises(ValueError):
        ClassModel(weights=np.full((2, 5), np.inf), rmse_px=0.0)
    model = ClassModel(weights=np.array(BOTTOM_CENTER_WEIGHTS), rmse_px=0.0)
    assert model.weights == BOTTOM_CENTER_WEIGHTS
    with pytest.raises(TypeError):
        model.weights[0][0] = 1.0


def test_regressor_rejects_unsupported_classes(tmp_path):
    # load_model checks the class names once every ClassModel is built.
    path = tmp_path / "model.json"
    doc = files.model_to_dict(bottom_center_regressor())
    doc["classes"]["plane"] = doc["classes"]["ball"]
    files.write_json(path, doc)
    with pytest.raises(ValueError) as error:
        files.load_model(path)
    assert str(error.value) == f"{path}: unsupported classes: ['plane']"
    doc["classes"]["plane"] = {"weights": [[0.0] * 5], "rmse_px": 0.0}
    files.write_json(path, doc)
    with pytest.raises(ValueError) as error:
        files.load_model(path)
    assert str(error.value) == f"{path}: weights must be (2, 5), got (1, 5)"
