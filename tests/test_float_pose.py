"""The float pose and model against the numpy code they replaced.

CameraPose and ClassModel hold plain floats and check them in pure Python.
Each check must accept and reject what the numpy check did, with the same
message; the ground map built from the floats must carry R^T bit for bit and
a camera center within 1e-9 mm of numpy's -R.T @ t; the documents that
report the center (camera_center_mm, synth's truth.csv) must carry
geometry.camera_center bit for bit and otherwise equal what numpy computes,
byte for byte; and fit-regressor's weights must be the exact least-squares
solution rounded once.
"""

from __future__ import annotations

import copy
import math
import pickle

import numpy as np
import pytest

from groundcam import evaluation, files
from groundcam.euler import EulerAngles
from groundcam.geometry import CameraPose, WorldPoint, camera_center, ground_map
from groundcam.pipeline import FrameConvention, bearing
from groundcam.projection import pose_from_euler, rotation_from_axis_angle
from groundcam.reference import reference_intrinsics, reference_pose
from groundcam.fitting import fit
from groundcam.regression import ClassModel
from groundcam.scene import SceneConfig, generate_scene

from conftest import exact_least_squares


def _numpy_pose_error(rotation, translation) -> str | None:
    """The message of the first numpy pose check that fails, or None: the
    checks CameraPose ran on arrays before it held floats."""
    r = np.array(rotation, dtype=float)
    t = np.array(translation, dtype=float).reshape(3)
    if r.shape != (3, 3):
        return f"rotation must be 3x3, got {r.shape}"
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
        return "pose entries must be finite"
    if np.max(np.abs(r.T @ r - np.eye(3))) > 1e-9:
        return "rotation is not orthonormal within 1e-9"
    if abs(np.linalg.det(r) - 1.0) > 1e-9:
        return "rotation determinant must be +1"
    return None


def _pose_error(rotation, translation) -> str | None:
    try:
        CameraPose(rotation, translation)
    except ValueError as exc:
        return str(exc)
    return None


def _random_pose(rng) -> tuple[np.ndarray, np.ndarray]:
    return rotation_from_axis_angle(rng.normal(0.0, 2.0, 3)), rng.uniform(-5000, 5000, 3)


def _pose_cases(rng):
    """(kind, rotation, translation) triples covering every check of CameraPose."""
    for _ in range(100):
        r, t = _random_pose(rng)
        yield "rotation", r, t
        yield "rotation", r.tolist(), t.tolist()
        yield "rotation", r, t.reshape(3, 1)
        yield "perturbed 1e-10", r + rng.uniform(-1e-10, 1e-10, (3, 3)), t
        yield "perturbed 1e-8", r + rng.choice([-1e-8, 1e-8], (3, 3)), t
        yield "reflection", r @ np.diag([1.0, 1.0, -1.0]), t
        yield "reflection", -r, t
        yield "scaled", r * rng.choice([2.0, 0.5, 1.0 + 1e-8, 1.0 + 1e-11]), t
        bad = r.copy()
        bad[divmod(int(rng.integers(9)), 3)] = rng.choice([np.nan, np.inf, -np.inf])
        yield "non-finite", bad, t
        yield "non-finite", r, np.where(np.arange(3) == rng.integers(3), np.nan, t)
    for shape in [(2, 2), (4, 4), (9,), (3, 3, 1), (1, 3, 3), (2, 3), (3,), ()]:
        yield "shape", np.ones(shape), np.zeros(3)
    yield "shape", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [0.0, 0.0, 0.0]


class TestPoseChecks:
    def test_accepts_and_rejects_as_the_numpy_checks_did(self, rng):
        outcomes: dict[str, set] = {}
        for kind, rotation, translation in _pose_cases(rng):
            want = _numpy_pose_error(rotation, translation)
            assert _pose_error(rotation, translation) == want
            outcomes.setdefault(kind, set()).add(want if want is None else want.split(",")[0])
        assert outcomes["rotation"] == outcomes["perturbed 1e-10"] == {None}
        assert outcomes["perturbed 1e-8"] == {"rotation is not orthonormal within 1e-9"}
        assert outcomes["reflection"] == {"rotation determinant must be +1"}
        assert outcomes["non-finite"] == {"pose entries must be finite"}
        assert outcomes["shape"] == {"rotation must be 3x3"}
        assert "rotation is not orthonormal within 1e-9" in outcomes["scaled"]

    @pytest.mark.parametrize(
        "rotation, translation",
        [
            (np.eye(3), np.zeros(2)),
            (np.eye(3), np.zeros(4)),
            (np.eye(3), np.zeros((2, 2))),
            ([[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]], np.zeros(3)),
            (np.eye(3), ["0", "x", "0"]),
        ],
        ids=["t2", "t4", "t2x2", "ragged", "string"],
    )
    def test_arrays_numpy_cannot_convert_are_rejected(self, rotation, translation):
        with pytest.raises(ValueError):
            _numpy_pose_error(rotation, translation)
        with pytest.raises(ValueError):
            CameraPose(rotation, translation)

    def test_pose_holds_the_given_floats(self, rng):
        r, t = _random_pose(rng)
        pose = CameraPose(r, t)
        assert pose.r == tuple(map(tuple, r.tolist()))
        assert pose.t == tuple(t.tolist())
        assert all(type(v) is float for v in (*pose.r[0], *pose.r[1], *pose.r[2], *pose.t))
        assert np.array_equal(pose.rotation, r) and np.array_equal(pose.translation, t)
        for a in (pose.rotation, pose.translation):
            with pytest.raises(ValueError):
                a[0] = 0.0
        with pytest.raises(AttributeError):
            pose.r = pose.t


    def test_pose_survives_copy_and_pickle(self, rng):
        pose = CameraPose(*_random_pose(rng))
        for clone in (copy.copy(pose), copy.deepcopy(pose), pickle.loads(pickle.dumps(pose))):
            assert type(clone) is CameraPose
            assert np.array_equal(clone.rotation, pose.rotation)
            assert np.array_equal(clone.translation, pose.translation)


class TestGroundMapFromFloats:
    def test_rotation_and_yaw_bits_center_within_1e9(self, rng):
        k = reference_intrinsics()
        for _ in range(500):
            r, t = _random_pose(rng)
            pose = CameraPose(r, t)
            ground = ground_map(k, pose)
            assert ground.rt == tuple(r.T.ravel().tolist())
            yaw = math.atan2(r[2, 0], r[2, 1])
            assert (ground.cos_yaw, ground.sin_yaw) == (math.cos(yaw), math.sin(yaw))
            center = -r.T @ t
            assert np.max(np.abs(np.array(ground.center) - center)) <= 1e-9

    def test_reference_pose_center_within_1e9(self):
        pose = reference_pose()
        center = -pose.rotation.T @ pose.translation
        got = ground_map(reference_intrinsics(), pose).center
        assert np.max(np.abs(np.array(got) - center)) <= 1e-9


# ---------------------------------------------------------------------------
# Documents that carry the float camera center
# ---------------------------------------------------------------------------


def _float_center(pose) -> list[float]:
    """geometry.camera_center, checked within 1e-9 mm of numpy's -R.T @ t."""
    center = list(camera_center(pose))
    assert np.max(np.abs(np.array(center) + pose.rotation.T @ pose.translation)) <= 1e-9
    return center


def _numpy_calibration_doc(k, pose) -> dict:
    """calibration_to_dict as computed from the pose arrays with numpy, but
    for the camera center, geometry.camera_center's."""
    r, t = pose.rotation, pose.translation
    omega = math.degrees(math.atan2(r[2, 1], r[2, 2]))
    phi = math.degrees(math.asin(max(-1.0, min(1.0, -r[2, 0]))))
    kappa = math.degrees(math.atan2(r[1, 0], r[0, 0]))
    return {
        "intrinsics": files.intrinsics_to_dict(k),
        "pose": {"rotation": r.ravel().tolist(), "translation": t.tolist()},
        "euler_deg": [180.0 if a <= -180.0 else a for a in (omega, phi, kappa)],
        "camera_center_mm": _float_center(pose),
    }


def test_calibration_document_carries_the_float_center(rng):
    k = reference_intrinsics()
    poses = [reference_pose()]
    for _ in range(200):
        angles = EulerAngles(*rng.uniform(-179.0, 179.0, 3) * [1.0, 0.49, 1.0])
        poses.append(pose_from_euler(angles, WorldPoint(*rng.uniform(-3000, 3000, 3))))
    for pose in poses:
        doc = files.calibration_to_dict(k, pose)
        assert doc["camera_center_mm"] == _float_center(pose)
        assert files.dumps(doc) == files.dumps(_numpy_calibration_doc(k, pose))


@pytest.mark.parametrize("frame", list(FrameConvention))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_synth_truth_and_calibration_carry_the_float_center(tmp_path, seed, frame):
    # The default grid has a point on the field-frame origin, which has no
    # bearing, so the field-frame scene starts its grid one row out.
    origin = (0.0, 250.0) if frame is FrameConvention.FIELD else (0.0, 0.0)
    config = SceneConfig(num_views=3, frame=frame, grid_origin_mm=origin)
    scene = generate_scene(config, seed, tmp_path / "scene")
    pose = config.pose
    r = pose.rotation
    center = _float_center(pose)
    yaw = math.atan2(r[2, 0], r[2, 1])
    c, s = math.cos(yaw), math.sin(yaw)
    rows = []
    for (frame_id, *_), p in zip(scene.truth, config.grid_points):
        x, y = p.x, p.y
        if frame is FrameConvention.CAMERA:
            dx, dy = x - center[0], y - center[1]
            x, y = float(dx * c - dy * s), float(dx * s + dy * c)
        rows.append((frame_id, x, y, bearing(x, y)))
    evaluation.save_truth_csv(tmp_path / "truth.csv", rows)
    assert scene.paths["truth"].read_bytes() == (tmp_path / "truth.csv").read_bytes()
    calibration = files.dumps(_numpy_calibration_doc(config.intrinsics, pose))
    assert scene.paths["calibration"].read_text() == calibration


def test_fitted_weights_are_the_exact_solution_rounded_once(tmp_path):
    config = SceneConfig(num_views=3, noise_px=0.5)
    scene = generate_scene(config, 5, tmp_path / "scene")
    samples = files.load_samples(scene.paths["samples"])
    rows = [(*s.bbox, 1.0) for s in samples]
    targets = list(zip(*(s.ground_pixel for s in samples)))
    model = fit(samples)["ball"]
    assert model.weights == tuple(exact_least_squares(rows, targets))
    # numpy's QR solve agrees far below the noise, but not bit for bit.
    design = np.array(rows)
    observed = np.array(targets).T
    weights = np.linalg.lstsq(design, observed, rcond=None)[0].T
    assert np.allclose(model.weights, weights, rtol=1e-9, atol=0)
    rmse = math.sqrt(float(np.mean((design @ np.array(model.weights).T - observed) ** 2)))
    assert model.rmse_px == pytest.approx(rmse, rel=1e-14)


@pytest.mark.parametrize(
    "weights, message",
    [
        (np.zeros((2, 4)), "weights must be (2, 5), got (2, 4)"),
        (np.zeros((3, 5)), "weights must be (2, 5), got (3, 5)"),
        (np.zeros(10), "weights must be (2, 5), got (10,)"),
        ([[0.0] * 5, [0.0] * 5, []], None),
        (np.full((2, 5), np.inf), "weights must be finite"),
        (np.array([[0.0] * 5, [0.0, 0.0, np.nan, 0.0, 0.0]]), "weights must be finite"),
    ],
)
def test_class_model_rejects_what_the_array_check_rejected(weights, message):
    with pytest.raises(ValueError) as raised:
        ClassModel(weights=weights, rmse_px=0.0)
    if message is not None:
        assert str(raised.value) == message
