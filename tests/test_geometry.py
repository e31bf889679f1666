"""Projection, back-projection, lens model, and pose conversions.

The projection tests compare against an independently coded 3x4-matrix
oracle: p_h = K [R | t] [x y z 1]^T followed by the perspective divide.
Back-projection is checked by hand-built cameras simple enough to solve by
hand, then by randomized round trips.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from groundcam.geometry import (
    UNDISTORT_MAX_ITERATIONS,
    UNDISTORT_RESIDUAL_TOL,
    UNDISTORT_STEP_TOL,
    CameraIntrinsics,
    CameraPose,
    Distortion,
    NonConvergence,
    PixelPoint,
    PointBehindCamera,
    PointNotOnGround,
    RayParallelToPlane,
    WorldPoint,
    camera_center,
    distort_normalized,
    ground_map,
    undistort_normalized,
)
from groundcam.euler import EulerAngles, euler_from_pose
from groundcam.projection import (
    INTRINSIC_PARAMETERS,
    SMALL_ANGLE_RAD,
    _right_jacobian,
    axis_angle_from_rotation,
    intrinsic_vector,
    intrinsics_from_vector,
    nearest_rotation,
    pose_from_euler,
    project,
    project_points,
    project_views,
    rotation_from_axis_angle,
)
from groundcam.reference import (
    REFERENCE_CAMERA_CENTER_MM,
    REFERENCE_EULER_DEG,
)

from conftest import REPO_ROOT

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _oracle_project(p: WorldPoint, k: CameraIntrinsics, pose: CameraPose) -> np.ndarray:
    """Independent projection: 3x4 matrix multiply and divide, no lens model."""
    pm = k.matrix @ np.column_stack([pose.rotation, pose.translation])
    hom = pm @ np.array([p.x, p.y, p.z, 1.0])
    return hom[:2] / hom[2]


def _downward_camera(height_mm: float = 1000.0) -> CameraPose:
    """Camera above the origin looking straight down, world x kept as image x."""
    r = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
    center = np.array([0.0, 0.0, height_mm])
    return CameraPose(r, -r @ center)


def _random_pose(rng: np.random.Generator) -> CameraPose:
    """Down-tilted camera at a random height with a mild random attitude."""
    base = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
    wobble = rotation_from_axis_angle(rng.normal(0.0, 0.2, 3))
    r = wobble @ base
    center = np.array(
        [rng.uniform(-300, 300), rng.uniform(-300, 300), rng.uniform(600, 2000)]
    )
    return CameraPose(r, -r @ center)


def _distort(px: PixelPoint, k: CameraIntrinsics) -> PixelPoint:
    """Ideal pinhole pixel pushed through the lens model."""
    x, y = k.normalized_from_pixel(px.u, px.v)
    return PixelPoint(*k.pixel_from_normalized(*distort_normalized(x, y, k.distortion)))


def _undistort(px: PixelPoint, k: CameraIntrinsics) -> PixelPoint:
    """Observed pixel with the lens model undone: undistort_normalized."""
    x, y = k.normalized_from_pixel(px.u, px.v)
    return PixelPoint(*k.pixel_from_normalized(*undistort_normalized(x, y, k.distortion)))


def _back_project(px: PixelPoint, k: CameraIntrinsics, pose: CameraPose):
    """Ground (x, y) on z = 0 of an observed pixel: GroundMap.locate."""
    return ground_map(k, pose).locate(px.u, px.v)


SIMPLE_K = CameraIntrinsics(alpha_x=500.0, alpha_y=500.0, u0=320.0, v0=240.0)


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------


class TestProject:
    def test_optical_axis_point_hits_principal_point(self):
        pose = CameraPose(np.eye(3), np.zeros(3))
        px = project(WorldPoint(0.0, 0.0, 1000.0), SIMPLE_K, pose)
        assert px.u == pytest.approx(320.0, abs=1e-12)
        assert px.v == pytest.approx(240.0, abs=1e-12)

    def test_reference_camera_axis_point_hits_principal_point(self, ref_k, ref_pose):
        forward = ref_pose.rotation[2]
        c = camera_center(ref_pose)
        p = WorldPoint(*(np.array(c) + 500.0 * forward))
        px = project(p, ref_k, ref_pose)
        assert px.u == pytest.approx(ref_k.u0, abs=1e-9)
        assert px.v == pytest.approx(ref_k.v0, abs=1e-9)

    def test_matches_matrix_oracle_on_random_scenes(self, rng):
        for _ in range(200):
            pose = _random_pose(rng)
            k = CameraIntrinsics(
                alpha_x=rng.uniform(300, 900),
                alpha_y=rng.uniform(300, 900),
                u0=rng.uniform(200, 400),
                v0=rng.uniform(150, 300),
                gamma=rng.uniform(-2, 2),
            )
            p = WorldPoint(rng.uniform(-400, 400), rng.uniform(-400, 400), 0.0)
            expected = _oracle_project(p, k, pose)
            got = project(p, k, pose)
            assert abs(got.u - expected[0]) < 1e-9
            assert abs(got.v - expected[1]) < 1e-9

    def test_point_behind_camera_raises(self):
        pose = CameraPose(np.eye(3), np.zeros(3))
        with pytest.raises(PointBehindCamera):
            project(WorldPoint(0.0, 0.0, -10.0), SIMPLE_K, pose)
        with pytest.raises(PointBehindCamera):
            project(WorldPoint(0.0, 0.0, 0.0), SIMPLE_K, pose)

    def test_distorted_projection_hand_value(self):
        # Normalized (0.5, 0), k1=0.1: r2=0.25, radial=1.025, so the pixel
        # lands at alpha_x * 0.5125.
        k = CameraIntrinsics(100.0, 100.0, 0.0, 0.0, distortion=Distortion(k1=0.1))
        pose = CameraPose(np.eye(3), np.zeros(3))
        px = project(WorldPoint(500.0, 0.0, 1000.0), k, pose)
        assert px.u == pytest.approx(51.25, abs=1e-12)
        assert px.v == pytest.approx(0.0, abs=1e-12)


class TestProjectPoints:
    def test_matches_scalar_project(self, rng, ref_k, ref_pose):
        pts = np.column_stack(
            [rng.uniform(-400, 400, 50), rng.uniform(300, 2000, 50), np.zeros(50)]
        )
        k = ref_k.with_distortion(Distortion(k1=-0.1, k2=0.02, p1=1e-4, p2=-5e-5))
        batch = project_points(pts, k, ref_pose)
        for row, (u, v) in zip(pts, batch):
            single = project(WorldPoint(*row), k, ref_pose)
            assert abs(single.u - u) < 1e-12
            assert abs(single.v - v) < 1e-12

    def test_scalar_row_and_view_paths_agree_bit_for_bit(self, rng, ref_k):
        # All three share one camera kernel, so with a lens model a point
        # lands on the same float pixel whichever entry point projects it.
        k = ref_k.with_distortion(Distortion(k1=-0.12, k2=0.05, p1=0.001, p2=-0.0008))
        rvec = np.array([1.9, -0.3, 0.2])
        t = np.array([40.0, -250.0, 1800.0])
        pose = CameraPose(rotation_from_axis_angle(rvec), t)
        pts = np.column_stack(
            [rng.uniform(-900, 900, 300), rng.uniform(-900, 900, 300), np.zeros(300)]
        )
        for row in pts:
            single = project(WorldPoint(*row), k, pose)
            one_row = project_points(row[None], k, pose)[0]
            one_view, _, _ = project_views(
                intrinsic_vector(k), rvec[None], t[None], row[None, None]
            )
            assert (single.u, single.v) == tuple(one_row) == tuple(one_view[0, 0])

    def test_clamp_keeps_behind_camera_points_finite(self):
        pose = CameraPose(np.eye(3), np.zeros(3))
        pts = np.array([[0.0, 0.0, -100.0], [10.0, 0.0, 100.0]])
        with pytest.raises(PointBehindCamera):
            project_points(pts, SIMPLE_K, pose)
        clamped, _, _ = project_views(
            intrinsic_vector(SIMPLE_K), np.zeros((1, 3)), np.zeros((1, 3)), pts[None]
        )
        assert np.all(np.isfinite(clamped))


# ---------------------------------------------------------------------------
# Back-projection: ground_map(...).locate
# ---------------------------------------------------------------------------


class TestBackProject:
    def test_hand_built_downward_camera(self):
        # Camera 1000 mm above the origin looking straight down. World
        # (100, 200, 0) maps to camera frame (100, -200, 1000), normalized
        # (0.1, -0.2), pixel (370, 140). The inverse must recover the point.
        pose = _downward_camera(1000.0)
        px = project(WorldPoint(100.0, 200.0, 0.0), SIMPLE_K, pose)
        assert px.u == pytest.approx(370.0, abs=1e-12)
        assert px.v == pytest.approx(140.0, abs=1e-12)
        x, y = _back_project(px, SIMPLE_K, pose)
        assert x == pytest.approx(100.0, abs=1e-9)
        assert y == pytest.approx(200.0, abs=1e-9)

    def test_round_trip_with_reference_camera(self, ref_k, ref_pose):
        p = WorldPoint(0.0, 500.0, 0.0)
        px = project(p, ref_k, ref_pose)
        x, y = _back_project(px, ref_k, ref_pose)
        assert abs(x - p.x) < 1e-6
        assert abs(y - p.y) < 1e-6

    def test_round_trip_random_sweep(self, rng):
        count = 0
        while count < 100:
            pose = _random_pose(rng)
            p = WorldPoint(rng.uniform(-500, 500), rng.uniform(-500, 500), 0.0)
            depth = (pose.rotation @ np.array(p) + pose.translation)[2]
            if depth < 50.0:
                continue
            px = project(p, SIMPLE_K, pose)
            x, y = _back_project(px, SIMPLE_K, pose)
            assert abs(x - p.x) < 1e-6
            assert abs(y - p.y) < 1e-6
            count += 1

    def test_intersection_ignores_ray_normalization(self, ref_k, ref_pose):
        px = PixelPoint(250.0, 400.0)
        origin = np.array(camera_center(ref_pose))
        k_inv = np.linalg.inv(ref_k.matrix)
        direction = ref_pose.rotation.T @ k_inv @ [px.u, px.v, 1.0]
        expected = _back_project(px, ref_k, ref_pose)
        for scale in (1.0, 1.0 / np.linalg.norm(direction), 7.5):
            d = direction * scale
            s = (0.0 - origin[2]) / d[2]
            hit = origin + s * d
            assert abs(hit[0] - expected[0]) < 1e-9
            assert abs(hit[1] - expected[1]) < 1e-9

    def test_plane_behind_camera(self):
        # Camera above z=0 looking along +z (away from the plane).
        r = np.eye(3)
        pose = CameraPose(r, -r @ np.array([0.0, 0.0, 5.0]))
        with pytest.raises(PointNotOnGround):
            _back_project(PixelPoint(320.0, 240.0), SIMPLE_K, pose)

    def test_ray_parallel_to_plane(self):
        # Level camera looking along +y; the principal ray is horizontal.
        r = rotation_from_axis_angle(np.array([math.pi / 2.0, 0.0, 0.0]))
        pose = CameraPose(r, -r @ np.array([0.0, 0.0, 300.0]))
        with pytest.raises(RayParallelToPlane):
            _back_project(PixelPoint(320.0, 240.0), SIMPLE_K, pose)

    def test_reference_horizon_row(self, ref_k, ref_pose):
        # Solve d_z(v) = 0 for the column u = u0; exactly on the root the
        # ray is parallel, just below it the intersection is behind.
        m = ref_pose.rotation.T @ np.linalg.inv(ref_k.matrix)
        u = ref_k.u0
        v_h = -(m[2, 0] * u + m[2, 2]) / m[2, 1]
        with pytest.raises(RayParallelToPlane):
            _back_project(PixelPoint(u, v_h), ref_k, ref_pose)
        with pytest.raises(PointNotOnGround):
            _back_project(PixelPoint(u, v_h - 5.0), ref_k, ref_pose)

    def test_hit_beyond_float_range_is_a_parallel_ray(self, ref_k, ref_pose):
        # From 1e300 mm up, a pixel 7e-8 px below the horizon meets z = 0
        # farther out than a float reaches.
        r = ref_pose.rotation
        pose = CameraPose(r, -r @ np.array([0.0, 0.0, 1e300]))
        with pytest.raises(RayParallelToPlane, match="beyond float range"):
            _back_project(PixelPoint(320.0, 44.067679435510534), ref_k, pose)


# ---------------------------------------------------------------------------
# Lens model
# ---------------------------------------------------------------------------


class TestDistortion:
    def test_zero_distortion_is_identity(self):
        px = PixelPoint(123.4, 567.8)
        assert _undistort(px, SIMPLE_K) == px
        assert _distort(px, SIMPLE_K) == px

    def test_distort_hand_value(self):
        k = CameraIntrinsics(100.0, 100.0, 0.0, 0.0, distortion=Distortion(k1=0.1))
        out = _distort(PixelPoint(50.0, 0.0), k)
        assert out.u == pytest.approx(51.25, abs=1e-12)
        assert out.v == pytest.approx(0.0, abs=1e-12)

    def test_tangential_hand_value(self):
        # Normalized (0.2, 0.1) with p1=0.01: r2=0.05,
        # xd = 0.2 + 2*0.01*0.02 = 0.2004, yd = 0.1 + 0.01*(0.05+0.02) = 0.1007.
        d = Distortion(p1=0.01)
        xd, yd = distort_normalized(0.2, 0.1, d)
        assert xd == pytest.approx(0.2004, abs=1e-15)
        assert yd == pytest.approx(0.1007, abs=1e-15)

    def test_round_trip_inside_field_of_view(self, rng):
        k = CameraIntrinsics(
            642.41,
            642.54,
            322.80,
            239.76,
            distortion=Distortion(k1=-0.1, k2=0.01, k3=1e-4, p1=2e-4, p2=-1e-4),
        )
        for _ in range(300):
            px = PixelPoint(rng.uniform(0, 640), rng.uniform(0, 480))
            x, y = k.normalized_from_pixel(px.u, px.v)
            if math.hypot(x, y) >= 1.0:
                continue
            distorted = _distort(px, k)
            restored = _undistort(distorted, k)
            assert abs(restored.u - px.u) < 1e-6
            assert abs(restored.v - px.v) < 1e-6

    def test_undistort_then_distort(self):
        k = SIMPLE_K.with_distortion(Distortion(k1=-0.15, k2=0.02))
        observed = PixelPoint(100.0, 380.0)
        ideal = _undistort(observed, k)
        again = _distort(ideal, k)
        assert abs(again.u - observed.u) < 1e-6
        assert abs(again.v - observed.v) < 1e-6

    def test_non_convergence_on_oscillating_fixed_point(self):
        # k1=10 at normalized radius 1 drives the iteration into a cycle.
        k = CameraIntrinsics(1.0, 1.0, 0.0, 0.0, distortion=Distortion(k1=10.0))
        with pytest.raises(NonConvergence):
            _undistort(PixelPoint(1.0, 0.0), k)

    def test_overflowing_iterate_raises_non_convergence(self):
        # r2 overflows to inf and the radial factor to nan, so every iterate
        # and the residual are nan; the residual test must still fail.
        lens = Distortion(k1=-0.12, k2=0.03)
        with pytest.raises(NonConvergence, match="did not reach 1e-8"):
            undistort_normalized(1e197, 1e197, lens)

    def test_readme_states_the_iteration_cap(self):
        readme = (REPO_ROOT / "README.md").read_text()
        match = re.search(
            r"at most\s+(\d+) steps, stopping once a step is below\s+(\S+)\."
            r"[^.]*misses\s+the observed point by more than\s+(\S+);",
            readme,
        )
        assert match is not None
        assert int(match.group(1)) == UNDISTORT_MAX_ITERATIONS
        assert float(match.group(2)) == UNDISTORT_STEP_TOL
        assert float(match.group(3)) == UNDISTORT_RESIDUAL_TOL


# ---------------------------------------------------------------------------
# Euler angles, camera center, rotation helpers
# ---------------------------------------------------------------------------


class TestEulerPose:
    def test_identity(self):
        pose = pose_from_euler(EulerAngles(0.0, 0.0, 0.0), WorldPoint(0.0, 0.0, 0.0))
        assert np.allclose(pose.rotation, np.eye(3), atol=1e-15)
        assert np.allclose(pose.translation, 0.0, atol=1e-15)

    def test_reference_fixture_round_trip(self):
        e = EulerAngles(*REFERENCE_EULER_DEG)
        c = WorldPoint(*REFERENCE_CAMERA_CENTER_MM)
        pose = pose_from_euler(e, c)
        angles, center = euler_from_pose(pose)
        assert angles.omega == pytest.approx(e.omega, abs=1e-9)
        assert angles.phi == pytest.approx(e.phi, abs=1e-9)
        assert angles.kappa == pytest.approx(e.kappa, abs=1e-9)
        assert center.x == pytest.approx(c.x, abs=1e-9)
        assert center.y == pytest.approx(c.y, abs=1e-9)
        assert center.z == pytest.approx(c.z, abs=1e-9)

    def test_random_round_trip(self, rng):
        for _ in range(200):
            e = EulerAngles(
                rng.uniform(-179, 179),
                rng.uniform(-85, 85),
                rng.uniform(-179, 179),
            )
            c = WorldPoint(*rng.uniform(-1000, 1000, 3))
            angles, center = euler_from_pose(pose_from_euler(e, c))
            assert angles.omega == pytest.approx(e.omega, abs=1e-9)
            assert angles.phi == pytest.approx(e.phi, abs=1e-9)
            assert angles.kappa == pytest.approx(e.kappa, abs=1e-9)
            assert center.x == pytest.approx(c.x, abs=1e-9)

    def test_gimbal_lock(self):
        pose = pose_from_euler(EulerAngles(0.0, 90.0, 0.0), WorldPoint(0, 0, 0))
        with pytest.raises(
            ValueError, match=re.escape("phi is within 1e-9 of +-90 degrees")
        ):
            euler_from_pose(pose)

    def test_angle_range_enforced(self):
        # A half turn comes back as +180, never -180, whichever sign went in.
        for omega, phi, kappa in ((-180.0, 10.0, -180.0), (180.0, -20.0, 180.0)):
            pose = pose_from_euler(EulerAngles(omega, phi, kappa), WorldPoint(1, 2, 3))
            angles, _ = euler_from_pose(pose)
            assert (angles.omega, angles.kappa) == (180.0, 180.0)
            assert angles.phi == pytest.approx(phi, abs=1e-12)

    def test_camera_center_identity(self, rng):
        for _ in range(100):
            r = rotation_from_axis_angle(rng.normal(0.0, 1.0, 3))
            t = rng.uniform(-500, 500, 3)
            pose = CameraPose(r, t)
            c = camera_center(pose)
            assert np.max(np.abs(r @ np.array(c) + t)) < 1e-9

    def test_pose_rejects_non_rotations(self):
        with pytest.raises(ValueError):
            CameraPose(np.eye(3) * 2.0, np.zeros(3))
        reflection = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            CameraPose(reflection, np.zeros(3))

    def test_pose_arrays_are_read_only(self):
        pose = CameraPose(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            pose.rotation[0, 0] = 2.0


def _skew(v) -> np.ndarray:
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def _one_rotation(rvec: np.ndarray) -> np.ndarray:
    """The Rodrigues map of one vector, one operation at a time."""
    angle = np.linalg.norm(rvec)
    if angle < 1e-12:
        return np.eye(3)
    kx = _skew(rvec / angle)
    return np.eye(3) + math.sin(angle) * kx + (1.0 - math.cos(angle)) * (kx @ kx)


def _one_right_jacobian(rvec: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The right Jacobian of one vector, one operation at a time."""
    angle2 = float(rvec @ rvec)
    if angle2 < SMALL_ANGLE_RAD**2:
        return np.eye(3)
    return (np.outer(rvec, rvec) + (r.T - np.eye(3)) @ _skew(rvec)) / angle2


class TestRotationHelpers:
    def test_rodrigues_quarter_turn_about_z(self):
        r = rotation_from_axis_angle(np.array([0.0, 0.0, math.pi / 2.0]))
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(r, expected, atol=1e-15)

    def test_axis_angle_round_trip(self, rng):
        # The extraction is canonical (angle below pi), so sweep that range.
        for _ in range(200):
            axis = rng.normal(0.0, 1.0, 3)
            axis /= np.linalg.norm(axis)
            rvec = axis * rng.uniform(0.0, 3.1)
            r = rotation_from_axis_angle(rvec)
            back = axis_angle_from_rotation(r)
            assert np.allclose(back, rvec, atol=1e-9)

    def test_axis_angle_wraps_large_angles_to_same_rotation(self):
        rvec = np.array([0.0, 0.0, 4.0])
        r = rotation_from_axis_angle(rvec)
        back = axis_angle_from_rotation(r)
        assert np.linalg.norm(back) < math.pi + 1e-12
        assert np.allclose(rotation_from_axis_angle(back), r, atol=1e-12)

    def test_axis_angle_near_pi(self):
        for axis in (np.array([1.0, 0.0, 0.0]), np.array([0.6, 0.8, 0.0])):
            rvec = axis * (math.pi - 1e-8)
            r = rotation_from_axis_angle(rvec)
            back = axis_angle_from_rotation(r)
            assert np.allclose(
                rotation_from_axis_angle(back), r, atol=1e-6
            )

    def test_axis_angle_identity(self):
        assert np.array_equal(axis_angle_from_rotation(np.eye(3)), np.zeros(3))

    def test_a_stack_rotates_each_row_with_the_same_bits(self, rng):
        # Angles from 1e-15 to about 4 rad, then zeros, rows under the
        # 1e-12 rad identity limit, and rows at half and at the right
        # Jacobian's SMALL_ANGLE_RAD.
        scale = 10.0 ** rng.uniform(-15, 0.4, (500, 1))
        rvecs = rng.normal(0.0, 1.0, (500, 3)) * scale
        rvecs[:4] = [[0, 0, 0], [-0.0, 0, -0.0], [3e-13, -2e-13, 0], [0, 0, 9e-13]]
        rvecs[4] = [0.3 * SMALL_ANGLE_RAD, 0.4 * SMALL_ANGLE_RAD, 0.0]
        rvecs[5] = [0.0, -0.6 * SMALL_ANGLE_RAD, 0.8 * SMALL_ANGLE_RAD]
        rotations = rotation_from_axis_angle(rvecs)
        rows = np.array([_one_rotation(v) for v in rvecs])
        assert np.array_equal(rotations, rows)
        assert np.array_equal([rotation_from_axis_angle(v) for v in rvecs], rows)
        assert np.array_equal(rotations[:4], np.broadcast_to(np.eye(3), (4, 3, 3)))
        right = _right_jacobian(rvecs, rotations)
        one_by_one = [_one_right_jacobian(v, r) for v, r in zip(rvecs, rows)]
        assert np.array_equal(right, one_by_one)
        assert np.array_equal(right[:5], np.broadcast_to(np.eye(3), (5, 3, 3)))
        assert not np.array_equal(right[5], np.eye(3))
        stack_of_stacks = rotation_from_axis_angle(rvecs.reshape(50, 10, 3))
        assert np.array_equal(stack_of_stacks, rows.reshape(50, 10, 3, 3))

    def test_nearest_rotation_projects_back(self, rng):
        for _ in range(50):
            r = rotation_from_axis_angle(rng.normal(0.0, 1.0, 3))
            noisy = r + rng.normal(0.0, 1e-6, (3, 3))
            snapped = nearest_rotation(noisy)
            assert np.max(np.abs(snapped.T @ snapped - np.eye(3))) < 1e-12
            assert np.linalg.det(snapped) == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(snapped - r)) < 1e-5

    def test_nearest_rotation_of_a_reflection_flips_its_weakest_axis(self, rng):
        # R diag(3, 2, -1) has singular vectors R diag(1, 1, -1) and I, so
        # the closest matrix of determinant +1 flips the third axis back: R.
        for _ in range(20):
            r = rotation_from_axis_angle(rng.normal(0.0, 1.0, 3))
            snapped = nearest_rotation(r @ np.diag([3.0, 2.0, -1.0]))
            assert np.linalg.det(snapped) == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(snapped - r)) < 1e-12


# ---------------------------------------------------------------------------
# Value-type hygiene
# ---------------------------------------------------------------------------


def test_scalar_fields_coerce_to_builtin_float():
    px = PixelPoint(np.float64(4.5), np.float64(6.5))
    assert type(px.u) is float and type(px.v) is float


def test_pixel_point_rejects_non_finite():
    with pytest.raises(ValueError):
        PixelPoint(float("inf"), 0.0)


def test_slot_records_hash_print_and_refuse_deletion():
    k = CameraIntrinsics(800.0, 810.0, 320.0, 240.0, distortion=Distortion(k1=-0.12))
    assert hash(k) == hash(CameraIntrinsics(800, 810, 320, 240, 0, Distortion(-0.12)))
    assert repr(k) == (
        "CameraIntrinsics(alpha_x=800.0, alpha_y=810.0, u0=320.0, v0=240.0, "
        "gamma=0.0, distortion=Distortion(k1=-0.12, k2=0.0, k3=0.0, p1=0.0, p2=0.0))"
    )
    with pytest.raises(AttributeError, match="^cannot delete field 'u0'$"):
        del k.u0
    assert k.distortion.__eq__((-0.12, 0.0, 0.0, 0.0, 0.0)) is NotImplemented
    assert k != (800.0, 810.0, 320.0, 240.0, 0.0, k.distortion)


def test_intrinsic_vector_follows_the_named_layout():
    k = CameraIntrinsics(
        600.5, 601.5, 320.25, 240.75, 1.5, Distortion(-0.1, 0.02, -0.004, 1e-4, -2e-4)
    )
    vector = intrinsic_vector(k)
    for name, value in zip(INTRINSIC_PARAMETERS, vector, strict=True):
        owner = k.distortion if hasattr(k.distortion, name) else k
        assert getattr(owner, name) == value, name
    assert intrinsics_from_vector(vector) == k
    assert intrinsics_from_vector(np.array(vector)) == k
