"""Accuracy metrics over ground-truth / estimate pairs.

Pairs are expected in a camera-centered ground frame (the frame the shipped
reference data uses), so an entry's distance from the camera is simply the
norm of its ground-truth xy. Spreads are population standard deviations.

A note on the shipped reference data: its published aggregate mean-error
line is internally inconsistent with its own rows, so this module always
reports statistics recomputed from the rows; the row-level RMSE is the
trustworthy headline number.

Means and spreads are computed on plain floats with numpy's pairwise
summation order, so they equal numpy.mean and numpy.std bit for bit without
loading numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import reduce
from operator import add
from typing import NamedTuple


class _EvalPair(NamedTuple):
    gt_x: float
    gt_y: float
    gt_theta: float
    est_x: float
    est_y: float
    est_theta: float
    source: str = "ours"


class EvalPair(_EvalPair):
    """One ground-truth position/heading with the estimate of one source.

    The six numbers are checked to be finite on construction; _make and
    _replace skip the check.
    """

    __slots__ = ()

    def __new__(
        cls,
        gt_x: float,
        gt_y: float,
        gt_theta: float,
        est_x: float,
        est_y: float,
        est_theta: float,
        source: str = "ours",
    ) -> EvalPair:
        values = (gt_x, gt_y, gt_theta, est_x, est_y, est_theta)
        if not all(map(math.isfinite, values)):
            raise ValueError("pair entries must be finite")
        return tuple.__new__(cls, (*values, source))

    @property
    def gt_distance(self) -> float:
        return math.hypot(self.gt_x, self.gt_y)


# The keys of error_stats' blocks, each named <axis>_<unit>.
ERROR_BLOCKS = ("x_mm", "y_mm", "theta_deg")


def rmse(pairs: list[EvalPair]) -> float:
    """Root mean square xy position error in millimeters."""
    if not pairs:
        raise ValueError("rmse over zero pairs")
    total = sum(
        (p.est_x - p.gt_x) ** 2 + (p.est_y - p.gt_y) ** 2 for p in pairs
    )
    return math.sqrt(total / len(pairs))


def _wrap_deg(a: float) -> float:
    wrapped = math.fmod(a + 180.0, 360.0)
    if wrapped <= 0.0:
        wrapped += 360.0
    return wrapped - 180.0


def _pairwise_sum(values: list[float], lo: int, hi: int) -> float:
    """Sum of values[lo:hi] in the order numpy's float add-reduction uses:
    a plain loop below 8 terms, eight interleaved accumulators up to 128,
    and above that two halves split at a multiple of 8."""
    n = hi - lo
    if n < 8:
        return reduce(add, values[lo:hi], 0.0)
    if n <= 128:
        tail = hi - n % 8
        r = [reduce(add, values[lo + j + 8 : tail : 8], values[lo + j]) for j in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[tail:hi], total)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, lo, lo + half) + _pairwise_sum(values, lo + half, hi)


def _mean_std(values: list[float]) -> dict:
    """numpy.mean and numpy.std (ddof 0) of a non-empty list, bit for bit;
    numpy's reduction starts from 0.0, which turns a -0.0 sum into 0.0."""
    n = len(values)
    mean = (0.0 + _pairwise_sum(values, 0, n)) / n
    squares = [(v - mean) * (v - mean) for v in values]
    return {"mean": mean, "std": math.sqrt((0.0 + _pairwise_sum(squares, 0, n)) / n)}


def error_stats(pairs: list[EvalPair]) -> dict:
    """Signed est-minus-truth mean and population std: the x_mm, y_mm and
    theta_deg blocks of a report; angle errors wrapped to (-180, 180]."""
    if not pairs:
        raise ValueError("error stats over zero pairs")
    ex = [p.est_x - p.gt_x for p in pairs]
    ey = [p.est_y - p.gt_y for p in pairs]
    et = [_wrap_deg(p.est_theta - p.gt_theta) for p in pairs]
    return {block: _mean_std(e) for block, e in zip(ERROR_BLOCKS, (ex, ey, et))}


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
        buckets[bisect_right(bounds, p.gt_distance)].append(p)
    return buckets


def build_report(pairs: list[EvalPair], boundaries: list[float]) -> dict:
    """The report document: overall RMSE and error statistics plus the RMSE
    of each distance band (None for an empty band)."""
    if not pairs:
        raise ValueError("report over zero pairs")
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

    Raises ValueError when either source is empty or the ground-truth
    multisets differ beyond 1e-9.
    """
    if not ours or not reference:
        raise ValueError("comparison needs pairs from both sources")
    if len(ours) != len(reference):
        raise ValueError(
            f"sources cover {len(ours)} vs {len(reference)} ground truths"
        )

    def key(p: EvalPair) -> tuple[float, float, float]:
        return (p.gt_x, p.gt_y, p.gt_theta)

    for a, b in zip(sorted(ours, key=key), sorted(reference, key=key)):
        if max(
            abs(a.gt_x - b.gt_x), abs(a.gt_y - b.gt_y), abs(a.gt_theta - b.gt_theta)
        ) > 1e-9:
            raise ValueError(
                f"ground truths differ: ({a.gt_x}, {a.gt_y}, {a.gt_theta}) vs "
                f"({b.gt_x}, {b.gt_y}, {b.gt_theta})"
            )

    return {"ours": _summary(ours), "reference": _summary(reference)}
