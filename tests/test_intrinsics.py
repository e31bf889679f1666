"""Planar-target calibration: homographies, closed form, joint refinement.

Synthetic targets are rendered from known cameras, so every estimate has an
exact ground truth to land on. Noiseless data must be recovered to near
machine precision; noisy data must settle at the injected noise level.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from groundcam.geometry import (
    CameraIntrinsics,
    CameraPose,
    Distortion,
    axis_angle_from_rotation,
    project_points,
    rotation_from_axis_angle,
)
from groundcam.intrinsics import (
    DegenerateConfiguration,
    InsufficientViews,
    NonPositiveDefinite,
    PlanarView,
    calibrate_intrinsics,
    calibration_problem,
    estimate_homography,
    extrinsics_from_homography,
    homography_from_points,
    refine_calibration,
    zhang_closed_form,
)
from groundcam.optim import levenberg_marquardt, numeric_jacobian

# ---------------------------------------------------------------------------
# Synthetic target builders
# ---------------------------------------------------------------------------

TRUE_K = CameraIntrinsics(642.41, 642.54, 322.80, 239.76)


def _rms(values: np.ndarray) -> float:
    """Root mean square over every scalar entry."""
    return math.sqrt(float(np.mean(np.square(values))))


def _pattern(cols: int = 9, rows: int = 6, square: float = 25.0) -> np.ndarray:
    xs, ys = np.meshgrid(np.arange(cols) * square, np.arange(rows) * square)
    return np.column_stack([xs.ravel(), ys.ravel()]).astype(float)


def _random_target_pose(rng: np.random.Generator) -> CameraPose:
    """Tilted target pose keeping the whole pattern in front of the camera."""
    tilt = np.array(
        [
            rng.choice([-1.0, 1.0]) * rng.uniform(0.15, 0.5),
            rng.choice([-1.0, 1.0]) * rng.uniform(0.15, 0.5),
            rng.uniform(-0.5, 0.5),
        ]
    )
    r = rotation_from_axis_angle(tilt)
    t = np.array(
        [
            -100.0 + rng.uniform(-40, 40),
            -62.5 + rng.uniform(-30, 30),
            rng.uniform(500, 900),
        ]
    )
    return CameraPose(r, t)


def _synthetic_views(
    k: CameraIntrinsics,
    n_views: int,
    rng: np.random.Generator,
    noise_px: float = 0.0,
) -> tuple[list[PlanarView], list[CameraPose]]:
    pattern = _pattern()
    world = np.column_stack([pattern, np.zeros(len(pattern))])
    views, poses = [], []
    for i in range(n_views):
        pose = _random_target_pose(rng)
        pixels = project_points(world, k, pose)
        if noise_px > 0:
            pixels = pixels + rng.normal(0.0, noise_px, pixels.shape)
        views.append(PlanarView(view_id=f"view{i}", pixels=pixels, pattern=pattern))
        poses.append(pose)
    return views, poses


def _rotation_gap_rad(a: CameraPose, b: CameraPose) -> float:
    return float(np.linalg.norm(axis_angle_from_rotation(a.rotation.T @ b.rotation)))


# ---------------------------------------------------------------------------
# Homography estimation
# ---------------------------------------------------------------------------


class TestHomography:
    def test_identity_mapping(self):
        pts = _pattern(4, 3, 30.0)
        h = homography_from_points(pts, pts)
        assert np.allclose(h, np.eye(3), atol=1e-10)

    def test_recovers_known_projective_map(self, rng):
        true_h = np.array(
            [
                [1.2, 0.1, 15.0],
                [-0.05, 0.9, -22.0],
                [1e-4, -2e-4, 1.0],
            ]
        )
        src = rng.uniform(-200, 200, (25, 2))
        hom = np.column_stack([src, np.ones(len(src))]) @ true_h.T
        dst = hom[:, :2] / hom[:, 2:]
        est = homography_from_points(src, dst)
        assert np.allclose(est / est[2, 2], true_h, atol=1e-8)

    def test_estimated_map_reproduces_points(self, rng):
        view, _ = _synthetic_views(TRUE_K, 1, rng)
        h = estimate_homography(view[0])
        hom = np.column_stack(
            [view[0].pattern, np.ones(len(view[0]))]
        ) @ h.T
        mapped = hom[:, :2] / hom[:, 2:]
        assert np.max(np.abs(mapped - view[0].pixels)) < 1e-8

    def test_collinear_points_rejected(self):
        src = np.column_stack([np.arange(6.0), np.zeros(6)])
        dst = src * 2.0
        with pytest.raises(DegenerateConfiguration):
            homography_from_points(src, dst)

    def test_too_few_points_rejected(self):
        pts = _pattern(3, 1, 10.0)
        with pytest.raises(DegenerateConfiguration):
            homography_from_points(pts, pts)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            homography_from_points(np.zeros((5, 2)), np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# Closed-form intrinsics
# ---------------------------------------------------------------------------


class TestZhangClosedForm:
    def test_recovers_camera_from_exact_views(self, rng):
        views, _ = _synthetic_views(TRUE_K, 10, rng)
        hs = [estimate_homography(v) for v in views]
        k = zhang_closed_form(hs, assume_zero_skew=True)
        assert k.alpha_x == pytest.approx(TRUE_K.alpha_x, rel=1e-6)
        assert k.alpha_y == pytest.approx(TRUE_K.alpha_y, rel=1e-6)
        assert k.u0 == pytest.approx(TRUE_K.u0, rel=1e-6)
        assert k.v0 == pytest.approx(TRUE_K.v0, rel=1e-6)
        assert k.gamma == 0.0

    def test_recovers_skewed_camera(self, rng):
        skewed = CameraIntrinsics(600.0, 620.0, 310.0, 250.0, gamma=3.5)
        views, _ = _synthetic_views(skewed, 8, rng)
        hs = [estimate_homography(v) for v in views]
        k = zhang_closed_form(hs, assume_zero_skew=False)
        assert k.alpha_x == pytest.approx(600.0, rel=1e-6)
        assert k.alpha_y == pytest.approx(620.0, rel=1e-6)
        assert k.gamma == pytest.approx(3.5, abs=1e-4)

    def test_two_views_suffice_with_zero_skew(self, rng):
        views, _ = _synthetic_views(TRUE_K, 2, rng)
        hs = [estimate_homography(v) for v in views]
        k = zhang_closed_form(hs, assume_zero_skew=True)
        assert k.alpha_x == pytest.approx(TRUE_K.alpha_x, rel=1e-5)

    def test_frontoparallel_views_degenerate(self):
        # Pure translations of the target leave multiple conics consistent.
        pattern = _pattern()
        world = np.column_stack([pattern, np.zeros(len(pattern))])
        hs = []
        for tx in (-120.0, -100.0, -80.0):
            pose = CameraPose(np.eye(3), np.array([tx, -60.0, 700.0]))
            pixels = project_points(world, TRUE_K, pose)
            hs.append(
                estimate_homography(
                    PlanarView(view_id="flat", pixels=pixels, pattern=pattern)
                )
            )
        with pytest.raises(NonPositiveDefinite):
            zhang_closed_form(hs, assume_zero_skew=True)

    def test_view_count_enforced(self):
        with pytest.raises(InsufficientViews):
            zhang_closed_form([np.eye(3)], assume_zero_skew=True)
        with pytest.raises(InsufficientViews):
            zhang_closed_form([np.eye(3), np.eye(3)], assume_zero_skew=False)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            zhang_closed_form([np.eye(3), np.eye(4)], assume_zero_skew=True)


class TestExtrinsicsFromHomography:
    def test_recovers_view_poses(self, rng):
        views, poses = _synthetic_views(TRUE_K, 6, rng)
        for view, truth in zip(views, poses):
            est = extrinsics_from_homography(TRUE_K, estimate_homography(view))
            assert _rotation_gap_rad(est, truth) < 1e-8
            assert np.max(np.abs(est.translation - truth.translation)) < 1e-6

    def test_frontoparallel_view(self):
        pattern = _pattern()
        world = np.column_stack([pattern, np.zeros(len(pattern))])
        truth = CameraPose(np.eye(3), np.array([-100.0, -60.0, 650.0]))
        pixels = project_points(world, TRUE_K, truth)
        view = PlanarView(view_id="flat", pixels=pixels, pattern=pattern)
        est = extrinsics_from_homography(TRUE_K, estimate_homography(view))
        assert _rotation_gap_rad(est, truth) < 1e-8
        assert est.translation[2] > 0

    def test_homography_sign_does_not_matter(self, rng):
        views, poses = _synthetic_views(TRUE_K, 1, rng)
        h = estimate_homography(views[0])
        a = extrinsics_from_homography(TRUE_K, h)
        b = extrinsics_from_homography(TRUE_K, -h)
        assert np.allclose(a.rotation, b.rotation, atol=1e-12)
        assert np.allclose(a.translation, b.translation, atol=1e-12)

    def test_plane_offset_moves_the_translation(self, rng):
        # A pattern lying on z = z0 has the homography of the z = 0 pattern
        # seen from t + z0 r3; the offset must be taken back out.
        z0 = 155.0
        pattern = _pattern()
        world = np.column_stack([pattern, np.full(len(pattern), z0)])
        truth = _random_target_pose(rng)
        pixels = project_points(world, TRUE_K, truth)
        h = homography_from_points(pattern, pixels)
        est = extrinsics_from_homography(TRUE_K, h, plane_z=z0)
        assert _rotation_gap_rad(est, truth) < 1e-8
        assert np.max(np.abs(est.translation - truth.translation)) < 1e-6


# ---------------------------------------------------------------------------
# Joint refinement and the full pipeline
# ---------------------------------------------------------------------------


class TestCalibratePipeline:
    def test_noiseless_views_recover_camera_exactly(self, rng):
        views, _ = _synthetic_views(TRUE_K, 10, rng)
        solution = calibrate_intrinsics(views)
        k = solution.intrinsics
        assert solution.rmse_px < 1e-8
        assert k.alpha_x == pytest.approx(TRUE_K.alpha_x, rel=1e-8)
        assert k.alpha_y == pytest.approx(TRUE_K.alpha_y, rel=1e-8)
        assert k.u0 == pytest.approx(TRUE_K.u0, rel=1e-8)
        assert k.v0 == pytest.approx(TRUE_K.v0, rel=1e-8)

    def test_noiseless_views_recover_lens_model(self, rng):
        true_k = TRUE_K.with_distortion(
            Distortion(k1=-0.1, k2=0.02, p1=1e-4, p2=-5e-5)
        )
        views, _ = _synthetic_views(true_k, 10, rng)
        solution = calibrate_intrinsics(views)
        k = solution.intrinsics
        assert solution.rmse_px < 1e-7
        assert k.alpha_x == pytest.approx(true_k.alpha_x, rel=1e-6)
        assert k.distortion.k1 == pytest.approx(-0.1, abs=1e-6)
        assert k.distortion.k2 == pytest.approx(0.02, abs=1e-6)
        assert k.distortion.p1 == pytest.approx(1e-4, abs=1e-7)
        assert k.distortion.p2 == pytest.approx(-5e-5, abs=1e-7)
        assert k.distortion.k3 == 0.0
        assert k.gamma == 0.0

    def test_noisy_views_settle_at_noise_level(self, rng):
        views, _ = _synthetic_views(TRUE_K, 20, rng, noise_px=0.5)
        solution = calibrate_intrinsics(views)
        assert 0.3 < solution.rmse_px < 0.7
        assert solution.intrinsics.alpha_x == pytest.approx(
            TRUE_K.alpha_x, rel=0.02
        )

    def test_refinement_never_increases_rmse(self, rng):
        views, _ = _synthetic_views(TRUE_K, 5, rng, noise_px=1.0)
        hs = [estimate_homography(v) for v in views]
        k0 = zhang_closed_form(hs, assume_zero_skew=True)
        poses = tuple(extrinsics_from_homography(k0, h) for h in hs)
        # The starting RMSE over the stacked u and v residuals, computed
        # with the camera model rather than the solver.
        initial = np.concatenate(
            [
                project_points(
                    np.column_stack([v.pattern, np.zeros(len(v))]),
                    k0,
                    pose,
                    clamp_depth=True,
                )
                - v.pixels
                for v, pose in zip(views, poses)
            ]
        )
        refined = refine_calibration(views, k0, poses)
        assert refined.rmse_px <= _rms(initial) + 1e-12

    def test_skew_fit_when_unpinned(self, rng):
        skewed = CameraIntrinsics(600.0, 620.0, 310.0, 250.0, gamma=3.5)
        views, _ = _synthetic_views(skewed, 8, rng)
        solution = calibrate_intrinsics(views, fix_skew=False)
        assert solution.intrinsics.gamma == pytest.approx(3.5, abs=1e-4)
        assert solution.rmse_px < 1e-7

    def test_view_count_enforced(self, rng):
        views, _ = _synthetic_views(TRUE_K, 1, rng)
        with pytest.raises(InsufficientViews):
            calibrate_intrinsics(views)
        with pytest.raises(InsufficientViews):
            calibrate_intrinsics(views * 2, fix_skew=False)

    def test_pose_count_mismatch_rejected(self, rng):
        views, poses = _synthetic_views(TRUE_K, 3, rng)
        with pytest.raises(ValueError):
            refine_calibration(views, TRUE_K, poses[:2])


# ---------------------------------------------------------------------------
# Closed-form Jacobian of the refinement
# ---------------------------------------------------------------------------

LENS_K = CameraIntrinsics(
    642.41,
    642.54,
    322.80,
    239.76,
    gamma=1.5,
    distortion=Distortion(k1=-0.12, k2=0.03, k3=-0.004, p1=2e-4, p2=-1e-4),
)


def _column_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    """Per-column max |difference| relative to the column's largest entry."""
    scale = np.maximum(np.abs(numeric).max(axis=0), 1e-12)
    return np.abs(analytic - numeric).max(axis=0) / scale


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestCalibrationJacobian:
    @pytest.mark.parametrize("fix_skew", [True, False])
    @pytest.mark.parametrize("fix_k3", [True, False])
    def test_matches_central_differences(self, rng, fix_skew, fix_k3):
        views, poses = _synthetic_views(LENS_K, 5, rng)
        problem, x0 = calibration_problem(views, LENS_K, poses, fix_skew, fix_k3)
        n_shared = 10 - int(fix_skew) - int(fix_k3)
        assert problem.n_params == n_shared + 6 * len(views)
        x = x0 + rng.normal(0.0, 1e-3, x0.shape) * np.maximum(np.abs(x0), 1e-2)
        # One view on the small-angle limit, one just above it, one near pi.
        x[n_shared : n_shared + 3] = 1e-9 * _unit([1.0, -2.0, 0.5])
        x[n_shared + 6 : n_shared + 9] = 1e-5 * _unit([0.3, 1.0, -0.2])
        x[n_shared + 12 : n_shared + 15] = (math.pi - 1e-4) * _unit([1.0, 0.1, 0.05])
        errors = _column_errors(problem.jacobian(x), numeric_jacobian(problem, x))
        assert errors.max() < 1e-6

    def test_unequal_point_counts(self, rng):
        views, poses = _synthetic_views(LENS_K, 3, rng)
        views[1] = PlanarView("short", views[1].pixels[:20], views[1].pattern[:20])
        problem, x0 = calibration_problem(
            views, LENS_K, poses, fix_skew=False, fix_k3=False
        )
        assert problem.n_residuals == 2 * (54 + 20 + 54)
        assert np.max(np.abs(problem.residual(x0))) < 1e-9
        errors = _column_errors(problem.jacobian(x0), numeric_jacobian(problem, x0))
        assert errors.max() < 1e-6

    def test_solver_matches_numeric_jacobian_solve(self, rng):
        views, _ = _synthetic_views(LENS_K, 6, rng, noise_px=0.5)
        hs = [estimate_homography(v) for v in views]
        k0 = zhang_closed_form(hs, assume_zero_skew=True)
        poses = tuple(extrinsics_from_homography(k0, h) for h in hs)
        problem, x0 = calibration_problem(views, k0, poses)
        analytic = levenberg_marquardt(problem, x0)
        numeric = levenberg_marquardt(dataclasses.replace(problem, jacobian=None), x0)
        assert analytic.cost == pytest.approx(numeric.cost, rel=1e-9)
        # alpha_x, alpha_y, u0, v0. The lens coefficients that follow lie
        # along a flat valley of the cost, where the finite-difference solve
        # stops on its step tolerance about 1e-5 short of the minimum.
        assert analytic.x[:4] == pytest.approx(numeric.x[:4], rel=1e-6)
        assert analytic.x[4:8] == pytest.approx(numeric.x[4:8], rel=1e-4)

    def test_solver_matches_scipy_least_squares(self, rng):
        optimize = pytest.importorskip("scipy.optimize")
        views, _ = _synthetic_views(LENS_K, 6, rng, noise_px=0.5)
        hs = [estimate_homography(v) for v in views]
        k0 = zhang_closed_form(hs, assume_zero_skew=True)
        poses = tuple(extrinsics_from_homography(k0, h) for h in hs)
        problem, x0 = calibration_problem(views, k0, poses)
        ours = levenberg_marquardt(problem, x0)
        # At MINPACK's default tolerances (1e-8) it stops early, with u0 and
        # v0 up to 4e-5 off; at 1e-15 it runs on to where ours stops.
        theirs = optimize.least_squares(
            problem.residual, x0, jac=problem.jacobian, method="lm",
            ftol=1e-15, xtol=1e-15, gtol=1e-15,
        )
        assert theirs.success
        assert ours.cost == pytest.approx(theirs.cost, rel=1e-8)
        # alpha_x, alpha_y, u0, v0 (skew fixed)
        assert ours.x[:4] == pytest.approx(theirs.x[:4], rel=1e-6)


class TestReprojectionRmse:
    """The refinement's residual at its start vector is the stacked u and v
    reprojection error of every view."""

    def test_zero_for_exact_views(self, rng):
        views, poses = _synthetic_views(TRUE_K, 3, rng)
        problem, x0 = calibration_problem(views, TRUE_K, poses)
        assert _rms(problem.residual(x0)) < 1e-12

    def test_uniform_offset_gives_its_magnitude(self, rng):
        # Shifting every pixel by (3, 4) adds 9 and 16 to the stacked
        # squares, so the RMS over scalars is 5 / sqrt(2).
        views, poses = _synthetic_views(TRUE_K, 2, rng)
        shifted = [
            PlanarView(
                view_id=v.view_id,
                pixels=v.pixels + np.array([3.0, 4.0]),
                pattern=v.pattern,
            )
            for v in views
        ]
        problem, x0 = calibration_problem(shifted, TRUE_K, poses)
        assert _rms(problem.residual(x0)) == pytest.approx(5.0 / math.sqrt(2.0), abs=1e-9)


# ---------------------------------------------------------------------------
# PlanarView validation
# ---------------------------------------------------------------------------


class TestPlanarView:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PlanarView("v", np.zeros((5, 2)), np.zeros((5, 3)))

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            PlanarView("v", np.zeros((3, 2)), _pattern(3, 1, 10.0)[:3])

    def test_non_finite_rejected(self):
        pattern = _pattern(2, 2, 10.0)
        pixels = pattern.copy()
        pixels[0, 0] = math.nan
        with pytest.raises(ValueError):
            PlanarView("v", pixels, pattern)

    def test_duplicate_pattern_points_rejected(self):
        pattern = _pattern(2, 2, 10.0).copy()
        pattern[3] = pattern[0]
        with pytest.raises(ValueError):
            PlanarView("v", pattern, pattern)

    def test_len_and_read_only(self):
        pattern = _pattern(3, 2, 10.0)
        view = PlanarView("v", pattern, pattern)
        assert len(view) == 6
        with pytest.raises(ValueError):
            view.pixels[0, 0] = 1.0
