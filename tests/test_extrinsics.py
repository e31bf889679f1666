"""Field landmarks, pose-from-landmarks solving, and residual reports.

The solver is fed pixels rendered from a known camera so the recovered pose
has an exact target. Landmark coordinates are checked against hand-computed
positions for the standard field dimensions.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from groundcam import extrinsics
from groundcam.extrinsics import (
    FieldGeometry,
    PnpCorrespondence,
    field_landmarks,
    reprojection_report,
    solve_pnp,
)
from groundcam.geometry import CameraIntrinsics, Distortion, PixelPoint
from groundcam.intrinsics import calibration_problem
from groundcam.optim import numeric_jacobian
from groundcam.projection import (
    WorldPoint,
    axis_angle_from_rotation,
    camera_center,
    euler_from_pose,
    project,
    project_points,
)
from groundcam.reference import (
    REFERENCE_CAMERA_CENTER_MM,
    REFERENCE_EULER_DEG,
)

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

GROUND_POINTS = [
    (0.0, 500.0, 0.0),
    (-250.0, 750.0, 0.0),
    (250.0, 750.0, 0.0),
    (0.0, 1000.0, 0.0),
    (-400.0, 1200.0, 0.0),
    (400.0, 600.0, 0.0),
]

RAISED_POINTS = [
    (0.0, 500.0, 0.0),
    (-250.0, 750.0, 0.0),
    (250.0, 750.0, 0.0),
    (0.0, 1000.0, 155.0),
    (-400.0, 1200.0, 155.0),
    (400.0, 600.0, 300.0),
    (100.0, 900.0, 250.0),
]


def _render(points, k, pose, names=None):
    out = []
    for i, (x, y, z) in enumerate(points):
        w = WorldPoint(x, y, z)
        px = project(w, k, pose)
        name = names[i] if names else f"p{i}"
        out.append(PnpCorrespondence(pixel=px, world=w, name=name))
    return out


def _assert_pose_close(est, truth, center_tol_mm, rot_tol_rad):
    gap = np.linalg.norm(
        axis_angle_from_rotation(est.rotation.T @ truth.rotation)
    )
    assert gap < rot_tol_rad
    c_est = camera_center(est).array
    c_true = camera_center(truth).array
    assert np.max(np.abs(c_est - c_true)) < center_tol_mm


# ---------------------------------------------------------------------------
# Field geometry and landmark catalog
# ---------------------------------------------------------------------------


class TestFieldGeometry:
    def test_division_b_dimensions(self):
        g = FieldGeometry.division_b()
        assert g.field_length == 9000.0
        assert g.field_width == 6000.0
        assert g.goal_width == 1000.0
        assert g.goal_depth == 180.0
        assert g.goal_height == 155.0
        assert g.penalty_depth == 1000.0
        assert g.penalty_width == 2000.0

    # field_geometry_from_dict builds every FieldGeometry read from a file,
    # so its checks are the only ones; they run in this order.
    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"goal_width_mm": "1"}, "goal_width_mm must be a number, got '1'"),
            ({"field_length_mm": 0.0}, "field_length must be positive, got 0.0"),
            ({"goal_width_mm": -1.0}, "goal_width must be positive, got -1.0"),
            ({"goal_height_mm": math.inf}, "goal_height must be positive, got inf"),
            ({"penalty_width_mm": math.nan}, "penalty_width must be positive, got nan"),
            ({"goal_width_mm": 7000.0}, "goal wider than the field"),
            ({"penalty_width_mm": 6500.0}, "penalty area wider than the field"),
            ({"penalty_depth_mm": 4600.0}, "penalty area deeper than the half field"),
            (
                {"goal_width_mm": 7000.0, "penalty_depth_mm": -1.0},
                "penalty_depth must be positive, got -1.0",
            ),
            (
                {"goal_width_mm": 7000.0, "penalty_depth_mm": 4600.0},
                "goal wider than the field",
            ),
        ],
    )
    def test_reader_rejects_a_bad_geometry(self, changes, message):
        doc = extrinsics.field_geometry_to_dict(FieldGeometry.division_b())
        doc.update(changes)
        with pytest.raises(ValueError) as info:
            extrinsics.field_geometry_from_dict(doc)
        assert str(info.value) == message


class TestFieldLandmarks:
    def test_hand_computed_positions(self):
        marks = field_landmarks(FieldGeometry.division_b())
        center = marks["goal_bottom_center"]
        assert (center.x, center.y, center.z) == (4500.0, 0.0, 0.0)
        left = marks["goal_bottom_left_corner"]
        assert (left.x, left.y, left.z) == (4500.0, 500.0, 0.0)
        top = marks["goal_top_right_corner"]
        assert (top.x, top.y, top.z) == (4500.0, -500.0, 155.0)
        pen = marks["penalty_front_left_corner"]
        assert (pen.x, pen.y, pen.z) == (3500.0, 1000.0, 0.0)
        corner = marks["field_corner_right"]
        assert (corner.x, corner.y, corner.z) == (4500.0, -3000.0, 0.0)

    def test_far_side_mirrors_near_side(self):
        marks = field_landmarks(FieldGeometry.division_b())
        near = {n: m for n, m in marks.items() if not n.startswith("far_")}
        assert len(marks) == 2 * len(near)
        for name, mark in near.items():
            far = marks[f"far_{name}"]
            assert far.x == -mark.x
            assert far.y == -mark.y
            assert far.z == mark.z

    def test_heights_are_ground_or_goal_top(self):
        g = FieldGeometry.division_b()
        for mark in field_landmarks(g).values():
            assert mark.z in (0.0, g.goal_height)


# ---------------------------------------------------------------------------
# solve_pnp
# ---------------------------------------------------------------------------


class TestSolvePnp:
    def test_ground_landmarks_recover_reference_camera(self, ref_k, ref_pose):
        pose, report = solve_pnp(_render(GROUND_POINTS, ref_k, ref_pose), ref_k)
        assert report.rmse_px < 1e-8
        _assert_pose_close(pose, ref_pose, 1e-4, 1e-8)
        angles, center = euler_from_pose(pose)
        assert angles.omega == pytest.approx(REFERENCE_EULER_DEG[0], abs=1e-6)
        assert angles.phi == pytest.approx(REFERENCE_EULER_DEG[1], abs=1e-6)
        assert angles.kappa == pytest.approx(REFERENCE_EULER_DEG[2], abs=1e-6)
        assert center.x == pytest.approx(REFERENCE_CAMERA_CENTER_MM[0], abs=1e-4)
        assert center.y == pytest.approx(REFERENCE_CAMERA_CENTER_MM[1], abs=1e-4)
        assert center.z == pytest.approx(REFERENCE_CAMERA_CENTER_MM[2], abs=1e-4)

    def test_non_coplanar_landmarks_use_general_initializer(self, ref_k, ref_pose):
        pose, report = solve_pnp(_render(RAISED_POINTS, ref_k, ref_pose), ref_k)
        assert report.rmse_px < 1e-8
        _assert_pose_close(pose, ref_pose, 1e-6, 1e-8)

    def test_plane_above_ground(self, ref_k, ref_pose):
        points = [(x, y, 155.0) for (x, y, _) in GROUND_POINTS[:5]]
        pose, report = solve_pnp(_render(points, ref_k, ref_pose), ref_k)
        assert report.rmse_px < 1e-8
        _assert_pose_close(pose, ref_pose, 1e-4, 1e-8)

    def test_order_invariance(self, ref_k, ref_pose):
        base = _render(GROUND_POINTS, ref_k, ref_pose)
        pose_a, _ = solve_pnp(base, ref_k)
        pose_b, _ = solve_pnp(list(reversed(base)), ref_k)
        assert np.allclose(pose_a.rotation, pose_b.rotation, atol=1e-9)
        assert np.allclose(pose_a.translation, pose_b.translation, atol=1e-9)

    def test_lens_model_is_undone_before_solving(self, ref_pose, ref_k):
        k = ref_k.with_distortion(Distortion(k1=-0.1, k2=0.02, p1=1e-4))
        pose, report = solve_pnp(_render(GROUND_POINTS, k, ref_pose), k)
        assert report.rmse_px < 1e-6
        _assert_pose_close(pose, ref_pose, 1e-4, 1e-7)

    def test_too_few_points(self, ref_k, ref_pose):
        with pytest.raises(ValueError, match="need at least 4 correspondences, got 3"):
            solve_pnp(_render(GROUND_POINTS[:3], ref_k, ref_pose), ref_k)

    def test_collinear_points(self, ref_k, ref_pose):
        points = [(0.0, 500.0 + 100.0 * i, 0.0) for i in range(5)]
        with pytest.raises(ValueError, match="world points are collinear"):
            solve_pnp(_render(points, ref_k, ref_pose), ref_k)

    def test_five_points_off_plane_have_no_initializer(self, ref_k, ref_pose):
        with pytest.raises(
            ValueError, match="points span neither a constant-z plane nor"
        ):
            solve_pnp(_render(RAISED_POINTS[:5], ref_k, ref_pose), ref_k)


class TestPoseProblem:
    """solve_pnp's refinement: calibration_problem with every intrinsic held."""

    def test_jacobian_matches_central_differences_off_plane(
        self, ref_k, ref_pose, rng
    ):
        k = ref_k.with_distortion(Distortion(k1=-0.1, k2=0.02, p1=1e-4, p2=-5e-5))
        world = np.array(RAISED_POINTS)
        noise = rng.normal(0.0, 0.5, (len(world), 2))
        pixels = project_points(world, k, ref_pose) + noise
        problem, x0 = calibration_problem([world], [pixels], k, [ref_pose], free=())
        assert len(x0) == 6
        x = x0 + rng.normal(0.0, 1e-3, 6) * np.maximum(np.abs(x0), 1.0)
        analytic = problem.jacobian(x)
        numeric = numeric_jacobian(problem, x)
        scale = np.abs(numeric).max(axis=0)
        assert np.max(np.abs(analytic - numeric).max(axis=0) / scale) < 1e-6


# ---------------------------------------------------------------------------
# reprojection_report
# ---------------------------------------------------------------------------


class TestReprojectionReport:
    def test_exact_marks_flag_nothing(self, ref_k, ref_pose):
        report = reprojection_report(
            ref_pose, ref_k, _render(GROUND_POINTS, ref_k, ref_pose)
        )
        assert report.rmse_px < 1e-9
        assert report.flagged == ()
        assert report.names == ("p0", "p1", "p2", "p3", "p4", "p5")

    def test_single_mismark_is_flagged(self, ref_k, ref_pose):
        points = GROUND_POINTS + [
            (-100.0, 900.0, 0.0),
            (100.0, 900.0, 0.0),
            (-300.0, 1000.0, 0.0),
            (300.0, 1000.0, 0.0),
        ]
        marks = _render(points, ref_k, ref_pose)
        bad = marks[3]
        marks[3] = PnpCorrespondence(
            pixel=PixelPoint(bad.pixel.u + 30.0, bad.pixel.v + 40.0),
            world=bad.world,
            name=bad.name,
        )
        report = reprojection_report(ref_pose, ref_k, marks)
        assert report.flagged == (3,)
        assert report.norms[3] == pytest.approx(50.0, abs=1e-9)

    def test_uniform_offset_rmse(self, ref_k, ref_pose):
        # Every mark off by (3, 4): stacked-scalar RMS is 5 / sqrt(2) while
        # each per-point norm is 5, so nothing crosses the 3x-median bar.
        marks = [
            PnpCorrespondence(
                pixel=PixelPoint(c.pixel.u - 3.0, c.pixel.v - 4.0),
                world=c.world,
                name=c.name,
            )
            for c in _render(GROUND_POINTS, ref_k, ref_pose)
        ]
        report = reprojection_report(ref_pose, ref_k, marks)
        assert report.rmse_px == pytest.approx(5.0 / math.sqrt(2.0), abs=1e-9)
        assert np.allclose(report.norms, 5.0, atol=1e-9)
        assert report.flagged == ()

    def test_arrays_are_read_only(self, ref_k, ref_pose):
        report = reprojection_report(
            ref_pose, ref_k, _render(GROUND_POINTS, ref_k, ref_pose)
        )
        with pytest.raises(ValueError):
            report.norms[0] = 0.0


# ---------------------------------------------------------------------------
# Landmark documents resolved to correspondences (extrinsics.landmarks_from_dict)
# ---------------------------------------------------------------------------


def _correspondences(named, extra=None):
    """extrinsics.landmarks_from_dict of a division B landmarks document."""
    geometry = FieldGeometry.division_b()
    return extrinsics.landmarks_from_dict(extrinsics.landmarks_to_dict(geometry, named, extra))


class TestCorrespondencesFromLandmarks:
    def test_names_resolve_to_catalog_points(self):
        out = _correspondences(
            {
                "goal_bottom_center": PixelPoint(320.0, 200.0),
                "far_goal_bottom_center": PixelPoint(100.0, 210.0),
            },
        )
        by_name = {c.name: c for c in out}
        assert by_name["goal_bottom_center"].world.x == 4500.0
        assert by_name["far_goal_bottom_center"].world.x == -4500.0
        assert by_name["goal_bottom_center"].pixel.u == 320.0

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown landmark name: 'center_circle'"):
            _correspondences({"center_circle": PixelPoint(0.0, 0.0)})

    def test_repeated_name_raises(self):
        doc = extrinsics.landmarks_to_dict(
            FieldGeometry.division_b(), {"goal_bottom_center": PixelPoint(320.0, 200.0)}
        )
        doc["points"].append({"name": "goal_bottom_center", "pixel": [400.0, 200.0]})
        with pytest.raises(ValueError, match="'goal_bottom_center' is marked twice"):
            extrinsics.landmarks_from_dict(doc)

    def test_extra_points_are_appended(self):
        extra = [
            PnpCorrespondence(
                pixel=PixelPoint(5.0, 6.0), world=WorldPoint(1.0, 2.0, 0.0)
            )
        ]
        out = _correspondences(
            {"goal_bottom_center": PixelPoint(320.0, 200.0)}, extra=extra
        )
        assert len(out) == 2
        assert out[-1].world.x == 1.0
