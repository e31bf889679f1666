"""Accuracy metrics: position RMSE, signed error stats, distance bands.

The headline numbers are pinned by a frozen four-point table whose RMSE
and error means were computed by hand from the raw coordinates; the
properties (permutation and translation behavior, band recombination) are
checked with seeded sweeps.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from groundcam.evaluation import (
    EvalPair,
    bucket_by_distance,
    build_report,
    compare_sources,
    error_stats,
    first_nonfinite,
    rmse,
)

# ---------------------------------------------------------------------------
# Frozen evaluation table
# ---------------------------------------------------------------------------

OURS_ROWS = [
    (0.0, 500.0, 0.0, -0.03, 508.86, 0.0),
    (-250.0, 750.0, -18.43, -259.17, 762.23, -18.78),
    (0.0, 750.0, 0.0, -1.08, 772.20, -0.08),
    (250.0, 750.0, 18.43, 247.12, 753.32, 18.16),
]

REFERENCE_ROWS = [
    (0.0, 500.0, 0.0, 4.27, 481.97, -0.40),
    (-250.0, 750.0, -18.43, -245.73, 731.97, -18.83),
    (0.0, 750.0, 0.0, 26.35, 745.97, 1.84),
    (250.0, 750.0, 18.43, 276.35, 745.97, 20.27),
]

FROZEN_RMSE_MM = 14.365631729931017


def _pairs(rows, source="ours"):
    return [EvalPair(*row, source=source) for row in rows]


def _rng_pairs(rng, count):
    out = []
    for _ in range(count):
        gx, gy = rng.uniform(-2000, 2000, 2)
        gth = rng.uniform(-179, 179)
        out.append(
            EvalPair(
                gt_x=gx,
                gt_y=gy,
                gt_theta=gth,
                est_x=gx + rng.normal(0, 15),
                est_y=gy + rng.normal(0, 15),
                est_theta=gth + rng.normal(0, 0.5),
            )
        )
    return out


# ---------------------------------------------------------------------------
# rmse
# ---------------------------------------------------------------------------


class TestRmse:
    def test_perfect_estimates(self):
        pairs = [EvalPair(1.0, 2.0, 3.0, 1.0, 2.0, 3.0)]
        assert rmse(pairs) == 0.0

    def test_single_offset_is_its_norm(self):
        pairs = [EvalPair(0.0, 0.0, 0.0, 3.0, 4.0, 0.0)]
        assert rmse(pairs) == pytest.approx(5.0, abs=1e-12)

    def test_frozen_table(self):
        assert rmse(_pairs(OURS_ROWS)) == pytest.approx(FROZEN_RMSE_MM, abs=1e-9)
        assert rmse(_pairs(OURS_ROWS)) == pytest.approx(14.37, abs=0.05)

    def test_permutation_invariance(self, rng):
        pairs = _rng_pairs(rng, 20)
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        assert rmse(shuffled) == rmse(pairs)

    def test_doubling_errors_doubles_the_result(self):
        base = [
            EvalPair(10.0, 20.0, 0.0, 13.0, 24.0, 0.0),
            EvalPair(-5.0, 8.0, 0.0, -5.0, 20.0, 0.0),
        ]
        doubled = [
            EvalPair(10.0, 20.0, 0.0, 16.0, 28.0, 0.0),
            EvalPair(-5.0, 8.0, 0.0, -5.0, 32.0, 0.0),
        ]
        assert rmse(doubled) == pytest.approx(2.0 * rmse(base), abs=1e-12)

    def test_uniform_shift_gives_its_norm(self, rng):
        pairs = [
            EvalPair(gx, gy, 0.0, gx + 6.0, gy - 8.0, 0.0)
            for gx, gy in rng.uniform(-500, 500, (10, 2))
        ]
        assert rmse(pairs) == pytest.approx(10.0, abs=1e-12)


# ---------------------------------------------------------------------------
# error_stats
# ---------------------------------------------------------------------------


class TestErrorStats:
    def test_frozen_means(self):
        stats = error_stats(_pairs(OURS_ROWS))
        assert stats["x_mm"]["mean"] == pytest.approx(-3.29, abs=1e-9)
        assert stats["y_mm"]["mean"] == pytest.approx(11.6525, abs=1e-9)
        assert stats["theta_deg"]["mean"] == pytest.approx(-0.175, abs=1e-9)

    def test_population_std_matches_numpy(self):
        stats = error_stats(_pairs(OURS_ROWS))
        ex = np.array([r[3] - r[0] for r in OURS_ROWS])
        assert stats["x_mm"]["std"] == pytest.approx(float(ex.std()), abs=1e-12)

    def test_reconstructed_reference_stats(self):
        # Two rows sit one std below the mean and two above, so the sample
        # reproduces the published mean and population std exactly.
        stats = error_stats(_pairs(REFERENCE_ROWS, source="reference"))
        assert stats["x_mm"]["mean"] == pytest.approx(15.31, abs=1e-9)
        assert stats["x_mm"]["std"] == pytest.approx(11.04, abs=1e-9)
        assert stats["y_mm"]["mean"] == pytest.approx(-11.03, abs=1e-9)
        assert stats["y_mm"]["std"] == pytest.approx(7.00, abs=1e-9)
        assert stats["theta_deg"]["mean"] == pytest.approx(0.72, abs=1e-9)
        assert stats["theta_deg"]["std"] == pytest.approx(1.12, abs=1e-9)

    def test_heading_errors_wrap(self):
        pairs = [EvalPair(0.0, 0.0, 179.0, 0.0, 0.0, -179.0)]
        stats = error_stats(pairs)
        assert stats["theta_deg"]["mean"] == pytest.approx(2.0, abs=1e-12)
        pairs = [EvalPair(0.0, 0.0, -179.0, 0.0, 0.0, 179.0)]
        assert error_stats(pairs)["theta_deg"]["mean"] == pytest.approx(-2.0, abs=1e-12)

    def test_perfect_estimates_have_zero_stats(self):
        pairs = [EvalPair(5.0, 6.0, 7.0, 5.0, 6.0, 7.0)] * 3
        assert error_stats(pairs) == {
            block: {"mean": 0.0, "std": 0.0} for block in ("x_mm", "y_mm", "theta_deg")
        }

    def test_permutation_invariance(self, rng):
        pairs = _rng_pairs(rng, 300)
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        assert error_stats(shuffled) == error_stats(pairs)


def _exact_sum(values: list[float]) -> float:
    """The sum of values correctly rounded: each float is a whole number of
    2**-1074, and int / int rounds correctly."""
    unit = 1 << 1074
    return sum(num * (unit // den) for num, den in map(float.as_integer_ratio, values)) / unit


# Sizes on either side of numpy's summation thresholds (the 8-term loop, the
# 128-term unrolled block and the splits above it), where a sum that depends
# on its order would show it.
ORACLE_SIZES = [*range(1, 10), 127, 128, 129, 255, 256, 257, 1023, 1024, 1025, 20000]


@pytest.mark.parametrize("size", ORACLE_SIZES)
def test_error_stats_are_correctly_rounded_sums(size):
    rng = np.random.default_rng(size)
    for scale in (1e-3, 1.0, 1e2, 1e4):
        gt = rng.uniform(-2000.0, 2000.0, (3, size))
        gt[2] = rng.uniform(-179.0, 179.0, size)
        est = gt + scale * rng.normal(0.3, 1.0, (3, size))
        est[2] = gt[2] + min(scale, 90.0) * rng.normal(0.3, 1.0, size)
        pairs = [EvalPair(*g, *e) for g, e in zip(gt.T.tolist(), est.T.tolist())]
        errors = est - gt
        wrapped = np.fmod(errors[2] + 180.0, 360.0)
        errors[2] = np.where(wrapped <= 0.0, wrapped + 360.0, wrapped) - 180.0
        stats = error_stats(pairs)
        for block, e in zip(("x_mm", "y_mm", "theta_deg"), errors):
            values = e.tolist()
            mean = _exact_sum(values) / size
            squares = [(v - mean) * (v - mean) for v in values]
            expected = {"mean": mean, "std": math.sqrt(_exact_sum(squares) / size)}
            assert stats[block] == expected, (scale, block)
            # numpy sums in another order; each of its sums is within
            # log2(size) roundings of the exact one, far inside 1e-12 of the
            # largest error.
            tolerance = 1e-12 * float(np.abs(e).max())
            assert mean == pytest.approx(float(e.mean()), abs=tolerance)
            assert expected["std"] == pytest.approx(float(e.std()), abs=tolerance)


# ---------------------------------------------------------------------------
# Distance bands
# ---------------------------------------------------------------------------


def _pair_at_distance(distance: float) -> EvalPair:
    return EvalPair(distance, 0.0, 0.0, distance, 0.0, 0.0)


class TestBucketByDistance:
    def test_one_pair_per_band(self):
        pairs = [_pair_at_distance(d) for d in (800.0, 1500.0, 2500.0)]
        buckets = bucket_by_distance(pairs, [1000.0, 2000.0])
        assert [len(b) for b in buckets] == [1, 1, 1]
        assert buckets[0][0].gt_x == 800.0
        assert buckets[2][0].gt_x == 2500.0

    def test_boundary_pair_lands_in_upper_band(self):
        buckets = bucket_by_distance([_pair_at_distance(1000.0)], [1000.0])
        assert [len(b) for b in buckets] == [0, 1]

    def test_bands_recombine_to_the_input(self, rng):
        pairs = _rng_pairs(rng, 40)
        buckets = bucket_by_distance(pairs, [500.0, 1200.0, 2000.0])
        assert sum(len(b) for b in buckets) == len(pairs)
        recombined = [p for b in buckets for p in b]
        assert sorted(id(p) for p in recombined) == sorted(id(p) for p in pairs)

    def test_no_boundaries_gives_one_band(self, rng):
        pairs = _rng_pairs(rng, 5)
        buckets = bucket_by_distance(pairs, [])
        assert len(buckets) == 1
        assert len(buckets[0]) == 5


class TestBuildReport:
    def test_band_edges_and_empty_band(self):
        pairs = [_pair_at_distance(d) for d in (800.0, 2500.0)]
        report = build_report(pairs, [1000.0, 2000.0])
        assert report["count"] == 2
        assert report["bucket_boundaries_mm"] == [1000.0, 2000.0]
        assert [(b["lo_mm"], b["hi_mm"]) for b in report["buckets"]] == [
            (0.0, 1000.0),
            (1000.0, 2000.0),
            (2000.0, None),
        ]
        assert report["buckets"][1]["count"] == 0
        assert report["buckets"][1]["rmse_mm"] is None

    def test_band_rmse_recombines_to_overall(self, rng):
        pairs = _rng_pairs(rng, 30)
        report = build_report(pairs, [1000.0, 2000.0])
        total_sq = sum(
            (b["rmse_mm"] ** 2) * b["count"] for b in report["buckets"] if b["count"]
        )
        assert math.sqrt(total_sq / report["count"]) == pytest.approx(
            report["rmse_mm"], abs=1e-9
        )

    def test_permutation_invariance(self, rng):
        pairs = _rng_pairs(rng, 300)
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        boundaries = [1000.0, 2000.0]
        assert build_report(shuffled, boundaries) == build_report(pairs, boundaries)

    def test_dict_form_is_json_ready(self):
        report = build_report(_pairs(OURS_ROWS), [700.0])
        doc = json.loads(json.dumps(report))
        assert doc == report
        assert doc["rmse_mm"] == pytest.approx(FROZEN_RMSE_MM, abs=1e-9)
        assert doc["count"] == 4
        assert doc["x_mm"]["mean"] == pytest.approx(-3.29, abs=1e-9)
        assert doc["theta_deg"]["mean"] == pytest.approx(-0.175, abs=1e-9)
        assert doc["bucket_boundaries_mm"] == [700.0]
        assert doc["buckets"][-1]["hi_mm"] is None
        assert doc["buckets"][0]["lo_mm"] == 0.0

    def test_overflow_is_found_by_its_key_path(self):
        # The far pair's error squares past float range; the first number
        # that overflows, in document order, is named.
        pairs = [_pair_at_distance(500.0), EvalPair(0.0, 3000.0, 0.0, 0.0, 1e200, 0.0)]
        report = build_report(pairs, [1000.0])
        assert report["rmse_mm"] == math.inf
        assert first_nonfinite(report) == "rmse_mm"
        assert first_nonfinite(report["buckets"]) == "[1].rmse_mm"
        assert first_nonfinite({"a": [1.0, None, 2], "b": {"c": math.nan}}) == "b.c"
        assert first_nonfinite(build_report(_pairs(OURS_ROWS), [700.0])) is None


# ---------------------------------------------------------------------------
# compare_sources
# ---------------------------------------------------------------------------


class TestCompareSources:
    def test_frozen_table_side_by_side(self):
        doc = compare_sources(
            _pairs(OURS_ROWS), _pairs(REFERENCE_ROWS, source="reference")
        )
        assert set(doc) == {"ours", "reference"}
        assert doc["ours"]["rmse_mm"] == pytest.approx(FROZEN_RMSE_MM, abs=1e-9)
        assert doc["ours"]["count"] == 4
        assert doc["reference"]["x_mm"]["mean"] == pytest.approx(15.31, abs=1e-9)
        assert doc["reference"]["x_mm"]["std"] == pytest.approx(11.04, abs=1e-9)
        assert doc["reference"]["theta_deg"]["std"] == pytest.approx(1.12, abs=1e-9)
        assert doc["ours"]["rmse_mm"] < doc["reference"]["rmse_mm"]

    def test_identical_sources_match(self):
        doc = compare_sources(
            _pairs(OURS_ROWS), _pairs(OURS_ROWS, source="reference")
        )
        assert doc["ours"] == doc["reference"]

    def test_row_order_does_not_matter(self):
        reordered = list(reversed(REFERENCE_ROWS))
        a = compare_sources(_pairs(OURS_ROWS), _pairs(REFERENCE_ROWS, "reference"))
        b = compare_sources(_pairs(OURS_ROWS), _pairs(reordered, "reference"))
        assert a == b

    def test_disjoint_ground_truths_rejected(self):
        shifted = [
            (r[0] + 1.0, *r[1:]) for r in REFERENCE_ROWS
        ]
        with pytest.raises(ValueError, match="ground truths differ: "):
            compare_sources(_pairs(OURS_ROWS), _pairs(shifted, "reference"))

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sources cover 4 vs 3 ground truths"):
            compare_sources(
                _pairs(OURS_ROWS), _pairs(REFERENCE_ROWS[:3], "reference")
            )


# ---------------------------------------------------------------------------
# EvalPair
# ---------------------------------------------------------------------------


def test_pair_distance_is_the_ground_truth_norm():
    assert EvalPair(3.0, 4.0, 0.0, 0.0, 0.0, 0.0).gt_distance == 5.0
