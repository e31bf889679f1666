"""Accuracy metrics over ground-truth / estimate pairs.

Pairs are expected in a camera-centered ground frame (the frame the shipped
reference data uses), so an entry's distance from the camera is simply the
norm of its ground-truth xy. Spreads are population standard deviations.

A note on the shipped reference data: its published aggregate mean-error
line is internally inconsistent with its own rows, so this module always
reports statistics recomputed from the rows; the row-level RMSE is the
trustworthy headline number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class EvaluationError(ValueError):
    """Base class for evaluation failure modes."""


class EmptyInput(EvaluationError):
    """A metric was requested over zero pairs."""


class MismatchedGroundTruth(EvaluationError):
    """Two sources were compared over different ground-truth sets."""


@dataclass(frozen=True, slots=True)
class EvalPair:
    """One ground-truth position/heading with the estimate of one source."""

    gt_x: float
    gt_y: float
    gt_theta: float
    est_x: float
    est_y: float
    est_theta: float
    source: str = "ours"

    def __post_init__(self) -> None:
        values = (
            self.gt_x, self.gt_y, self.gt_theta,
            self.est_x, self.est_y, self.est_theta,
        )
        if not all(map(math.isfinite, values)):
            raise ValueError("pair entries must be finite")

    @property
    def gt_distance(self) -> float:
        return math.hypot(self.gt_x, self.gt_y)


# The keys of error_stats' blocks, each named <axis>_<unit>.
ERROR_BLOCKS = ("x_mm", "y_mm", "theta_deg")


def rmse(pairs: list[EvalPair]) -> float:
    """Root mean square xy position error in millimeters."""
    if not pairs:
        raise EmptyInput("rmse over zero pairs")
    total = sum(
        (p.est_x - p.gt_x) ** 2 + (p.est_y - p.gt_y) ** 2 for p in pairs
    )
    return math.sqrt(total / len(pairs))


def _wrap_deg(a: float) -> float:
    wrapped = math.fmod(a + 180.0, 360.0)
    if wrapped <= 0.0:
        wrapped += 360.0
    return wrapped - 180.0


def error_stats(pairs: list[EvalPair]) -> dict:
    """Signed est-minus-truth mean and population std: the x_mm, y_mm and
    theta_deg blocks of a report; angle errors wrapped to (-180, 180]."""
    if not pairs:
        raise EmptyInput("error stats over zero pairs")
    ex = np.array([p.est_x - p.gt_x for p in pairs])
    ey = np.array([p.est_y - p.gt_y for p in pairs])
    et = np.array([_wrap_deg(p.est_theta - p.gt_theta) for p in pairs])

    return {
        block: {"mean": float(e.mean()), "std": float(e.std())}
        for block, e in zip(ERROR_BLOCKS, (ex, ey, et))
    }


def _summary(pairs: list[EvalPair]) -> dict:
    """The headline block shared by a report and each compared source."""
    return {"rmse_mm": rmse(pairs), "count": len(pairs), **error_stats(pairs)}


def bucket_by_distance(
    pairs: list[EvalPair], boundaries: list[float]
) -> list[list[EvalPair]]:
    """Split pairs into half-open distance bands [0,b1), [b1,b2), ..., [bk,inf).

    Distance is the ground-truth xy norm. A pair exactly on a boundary lands
    in the upper band. Every pair lands in exactly one band, so the bands
    recombine to the input set.
    """
    bounds = [float(b) for b in boundaries]
    if any(b <= 0 for b in bounds) or any(
        b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
    ):
        raise ValueError(f"boundaries must be positive and strictly increasing: {bounds}")
    buckets: list[list[EvalPair]] = [[] for _ in range(len(bounds) + 1)]
    for p in pairs:
        distance = p.gt_distance
        index = sum(1 for b in bounds if distance >= b)
        buckets[index].append(p)
    return buckets


def build_report(pairs: list[EvalPair], boundaries: list[float]) -> dict:
    """The report document: overall RMSE and error statistics plus the RMSE
    of each distance band (None for an empty band)."""
    if not pairs:
        raise EmptyInput("report over zero pairs")
    split = bucket_by_distance(pairs, boundaries)
    bounds = [float(b) for b in boundaries]
    return {
        **_summary(pairs),
        "bucket_boundaries_mm": bounds,
        "buckets": [
            {
                "lo_mm": lo,
                "hi_mm": hi,
                "count": len(members),
                "rmse_mm": rmse(members) if members else None,
            }
            for lo, hi, members in zip([0.0] + bounds, bounds + [None], split)
        ],
    }


def compare_sources(
    ours: list[EvalPair], reference: list[EvalPair]
) -> dict:
    """Side-by-side statistics of two sources over the same ground truths.

    Raises MismatchedGroundTruth when the ground-truth multisets differ
    beyond 1e-9.
    """
    if not ours or not reference:
        raise EmptyInput("comparison needs pairs from both sources")
    if len(ours) != len(reference):
        raise MismatchedGroundTruth(
            f"sources cover {len(ours)} vs {len(reference)} ground truths"
        )

    def key(p: EvalPair) -> tuple[float, float, float]:
        return (p.gt_x, p.gt_y, p.gt_theta)

    for a, b in zip(sorted(ours, key=key), sorted(reference, key=key)):
        if max(
            abs(a.gt_x - b.gt_x), abs(a.gt_y - b.gt_y), abs(a.gt_theta - b.gt_theta)
        ) > 1e-9:
            raise MismatchedGroundTruth(
                f"ground truths differ: ({a.gt_x}, {a.gt_y}, {a.gt_theta}) vs "
                f"({b.gt_x}, {b.gt_y}, {b.gt_theta})"
            )

    return {"ours": _summary(ours), "reference": _summary(reference)}
