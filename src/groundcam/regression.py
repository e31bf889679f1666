"""Per-class affine regression from detector boxes to ground-contact pixels.

Each object class gets an independent 2x5 weight matrix W mapping the box
feature vector (xmin, ymin, xmax, ymax, 1) to the pixel where the object
touches the carpet. This module holds the records and the prediction that
every command loads; the fit, ordinary least squares on the u and v rows
with no regularization, is groundcam.fitting, which only fit-regressor
imports.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .geometry import PixelPoint, float_entries

KNOWN_CLASSES = ("ball", "robot", "goal")

BOTTOM_CENTER_WEIGHTS = ((0.5, 0.0, 0.5, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0, 0.0))


class _BoundingBox(NamedTuple):
    xmin: float
    ymin: float
    xmax: float
    ymax: float


class BoundingBox(_BoundingBox):
    """Axis-aligned pixel box, xmin < xmax and ymin < ymax.

    The coordinates are checked finite and the extent positive on
    construction; _make and _replace skip the checks.
    """

    __slots__ = ()

    def __new__(
        cls, xmin: float, ymin: float, xmax: float, ymax: float
    ) -> BoundingBox:
        isfinite = math.isfinite
        if not (isfinite(xmin) and isfinite(ymin) and isfinite(xmax) and isfinite(ymax)):
            raise ValueError("box coordinates must be finite")
        if not (xmin < xmax and ymin < ymax):
            raise ValueError(
                f"box must have positive extent, got ({xmin}, {ymin}, {xmax}, {ymax})"
            )
        return tuple.__new__(cls, (xmin, ymin, xmax, ymax))


class RegressionSample(NamedTuple):
    """One annotated training example for one class."""

    label: str
    bbox: BoundingBox
    ground_pixel: PixelPoint


class _ClassModel(NamedTuple):
    weights: tuple[tuple[float, ...], tuple[float, ...]]
    rmse_px: float


class ClassModel(_ClassModel):
    """Weights of one class plus the training RMS over stacked u, v residuals.

    weights is given as any 2x5 nested sequence or array and held as two
    tuples of plain floats, the u row and the v row. The weights and rmse_px
    are checked on construction; _make and _replace skip the checks.
    """

    __slots__ = ()

    def __new__(cls, weights, rmse_px: float) -> ClassModel:
        shape, w = float_entries(weights)
        if shape != (2, 5):
            raise ValueError(f"weights must be (2, 5), got {shape}")
        if not all(map(math.isfinite, w)):
            raise ValueError("weights must be finite")
        if not (math.isfinite(rmse_px) and rmse_px >= 0):
            raise ValueError(f"rmse_px must be finite and >= 0, got {rmse_px}")
        return tuple.__new__(cls, ((tuple(w[:5]), tuple(w[5:])), rmse_px))

    def ground_pixel(self, bbox: BoundingBox) -> tuple[float, float]:
        """(u, v) for one box: each weight row's sum over the features
        (xmin, ymin, xmax, ymax, 1), added in that order."""
        (a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4) = self.weights
        x0, y0, x1, y1 = bbox
        return (
            a0 * x0 + a1 * y0 + a2 * x1 + a3 * y1 + a4,
            b0 * x0 + b1 * y0 + b2 * x1 + b3 * y1 + b4,
        )


def bottom_center_regressor(
    labels: tuple[str, ...] = KNOWN_CLASSES,
) -> dict[str, ClassModel]:
    """Untrained model: the box's bottom-center is the ground pixel."""
    return {
        label: ClassModel(weights=BOTTOM_CENTER_WEIGHTS, rmse_px=0.0)
        for label in labels
    }
