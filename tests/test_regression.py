"""Per-class ground-contact regression from detection boxes.

The model is affine in the box coordinates, so a fit to data generated by
any affine rule must recover that rule exactly; noisy fits must settle at
the injected noise level. The solver behind the fit returns the exact
least-squares solution rounded once, which a Fraction oracle checks.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from groundcam import files
from groundcam.fitting import fit, least_squares
from groundcam.geometry import PixelPoint
from groundcam.regression import (
    BOTTOM_CENTER_WEIGHTS,
    KNOWN_CLASSES,
    BoundingBox,
    ClassModel,
    RegressionSample,
    bottom_center_regressor,
)

from conftest import exact_least_squares

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


    def test_an_r_ii_beyond_float_range_is_printed(self):
        # Fifty boxes reaching x = 1e308: the xmax column's |R_ii| is about
        # 2.9e308, past the largest float, and the constant column is
        # 1e-308 times it, so its |R_ii| is 0.
        samples = [
            RegressionSample(
                "ball",
                BoundingBox(float(i), float(i * i % 7), 1e308, 10.0 + i % 4 + i),
                PixelPoint(1.0, 2.0),
            )
            for i in range(50)
        ]
        with pytest.raises(ValueError) as error:
            fit(samples)
        message = re.escape("class 'ball': column dependence detected (|R_ii| ratio 0/")
        match = re.fullmatch(message + r"(\d\.\d\d)e\+308\)", str(error.value))
        assert match, str(error.value)
        # numpy's QR on the design scaled into float range.
        design = np.array([[*s.bbox, 1.0] for s in samples]) / 2.0**24
        r_max = np.abs(np.diag(np.linalg.qr(design, mode="r"))).max()
        assert float(match[1]) == pytest.approx(r_max / 1e308 * 2.0**24, abs=0.006)

    def test_a_weight_beyond_float_range_names_the_class(self, rng):
        # xmin spreads over 1e-10 px and u over 1e308 px: the exact weight
        # on xmin is about 1e318.
        samples = []
        for _ in range(8):
            xmin, ymin = rng.uniform(0, 1e-10), rng.uniform(0, 10)
            xmax, ymax = rng.uniform(20, 30, 2)
            u = rng.uniform(-1, 1) * 1e308
            box = BoundingBox(xmin, ymin, xmax, ymax)
            samples.append(RegressionSample("robot", box, PixelPoint(u, 2.0)))
        with pytest.raises(ValueError) as error:
            fit(samples)
        assert str(error.value) == "class 'robot': a weight lies beyond the float range"

    def test_weights_agree_with_lstsq(self, rng):
        samples = _samples_from_weights(
            BOTTOM_CENTER_WEIGHTS, "robot", 300, rng, noise_px=0.5
        )
        design = np.array([[*s.bbox, 1.0] for s in samples])
        targets = np.array([s.ground_pixel for s in samples])
        want = np.linalg.lstsq(design, targets, rcond=None)[0].T
        got = np.array(fit(samples)["robot"].weights)
        assert np.max(np.abs(got - want) / np.abs(want).max(axis=1, keepdims=True)) < 1e-9


def _ill_conditioned_samples(rng) -> list[RegressionSample]:
    """Boxes far from the origin whose sizes barely change: the design's
    condition number is about 1e8, so its Gram matrix's is about 1e16."""
    samples = []
    for _ in range(40):
        x, y = rng.uniform(1e4, 1e4 + 10.0, 2)
        box = BoundingBox(x, y, x + 20.0 + rng.uniform(0, 0.1), y + 30.0 + rng.uniform(0, 0.1))
        u, v = rng.uniform(0, 640), rng.uniform(0, 480)
        samples.append(RegressionSample("goal", box, PixelPoint(u, v)))
    return samples


def test_fit_is_the_exact_solution_rounded_once_on_an_ill_conditioned_design(rng):
    samples = _ill_conditioned_samples(rng)
    rows = [(*s.bbox, 1.0) for s in samples]
    targets = list(zip(*(s.ground_pixel for s in samples)))
    want = tuple(exact_least_squares(rows, targets))
    assert fit(samples)["goal"].weights == want
    # The oracle catches a solver that forms and solves the normal
    # equations in floats: its weights are wrong far above the last digit.
    design = np.array(rows)
    normal = np.linalg.solve(design.T @ design, design.T @ np.array(targets).T).T
    assert np.max(np.abs(normal - np.array(want))) > 1e-8 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# The exact solver
# ---------------------------------------------------------------------------


class TestLeastSquares:
    def test_identity_system(self, rng):
        b = rng.normal(0.0, 1.0, 4)
        assert least_squares(np.eye(4).tolist(), [b.tolist()]) == [tuple(b)]

    def test_consistent_overdetermined_system(self, rng):
        # Small ints and dyadic weights: b = a @ x_true holds exactly in
        # floats, so the rounded solution is x_true itself.
        a = rng.integers(-50, 50, (8, 3)).astype(float)
        x_true = rng.integers(-64, 64, 3) / 8.0
        x = least_squares(a.T.tolist(), [(a @ x_true).tolist()])
        assert x == [tuple(x_true)]

    def test_matches_lstsq_on_inconsistent_system(self, rng):
        a = rng.normal(0.0, 1.0, (10, 4))
        b = rng.normal(0.0, 1.0, 10)
        [x] = least_squares(a.T.tolist(), [b.tolist()])
        assert np.allclose(x, np.linalg.lstsq(a, b, rcond=None)[0], rtol=1e-12, atol=0)
        assert x == exact_least_squares(a.tolist(), [b.tolist()])[0]

    def test_residual_orthogonal_to_columns(self, rng):
        a = rng.normal(0.0, 1.0, (9, 3))
        b = rng.normal(0.0, 1.0, 9)
        [x] = least_squares(a.T.tolist(), [b.tolist()])
        assert np.max(np.abs(a.T @ (a @ np.array(x) - b))) < 1e-9

    def test_duplicate_columns_raise(self, rng):
        col = rng.normal(0.0, 1.0, 5).tolist()
        with pytest.raises(
            ValueError, match=re.escape("column dependence detected (|R_ii| ratio 0/")
        ):
            least_squares([col, col], [rng.normal(0.0, 1.0, 5).tolist()])
        # With every column zero the largest |R_ii| is 0 too.
        with pytest.raises(ValueError, match=re.escape("(|R_ii| ratio 0/0)")):
            least_squares([[0.0] * 5], [col])

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError, match="column dependence detected"):
            least_squares([[1.0, 2.0], [3.0, 5.0], [7.0, 11.0]], [[1.0, 1.0]])


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
