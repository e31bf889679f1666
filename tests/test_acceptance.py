"""Shipped-guarantee checks, one test per numbered criterion.

Each test prints a single [PASS]/[FAIL] line with the measured values at
the stated tolerance and then asserts it. Running pytest with -rA (the
default here) lists those lines in the summary, so the whole contract is
auditable from one screen.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from groundcam import evaluation
from groundcam.cli import main
from groundcam.extrinsics import PnpCorrespondence, solve_pnp
from groundcam.fitting import fit
from groundcam.euler import EulerAngles, euler_from_pose
from groundcam.geometry import CameraPose, PixelPoint, WorldPoint, camera_center
from groundcam.intrinsics import PlanarView, calibrate_intrinsics
from groundcam.optim import (
    LeastSquaresProblem,
    TerminationReason,
    levenberg_marquardt,
    numeric_jacobian,
)
from groundcam.pipeline import bearing
from groundcam.projection import (
    pose_from_euler,
    project,
    project_points,
    rotation_from_axis_angle,
)
from groundcam.reference import (
    REFERENCE_CAMERA_CENTER_MM,
    REFERENCE_EULER_DEG,
    reference_intrinsics,
    reference_pose,
)
from groundcam.regression import (
    BOTTOM_CENTER_WEIGHTS,
    BoundingBox,
    RegressionSample,
    bottom_center_regressor,
)

from conftest import FIXTURES_DIR, REPO_ROOT


def _verdict(number: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. The checked-in evaluation table reproduces its headline RMSE
# ---------------------------------------------------------------------------


def test_criterion_1_reference_table_rmse(capsys):
    start = time.perf_counter()
    code = main(["evaluate", str(FIXTURES_DIR / "reference_eval_pairs.csv")])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    doc = json.loads(out)
    got = doc["rmse_mm"]
    ok = code == 0 and abs(got - 14.37) <= 0.05 and elapsed < 1.0
    assert _verdict(
        1,
        ok,
        f"four-point evaluation rmse {got:.4f} mm (target 14.37 +- 0.05), "
        f"{elapsed:.2f} s",
    )


# ---------------------------------------------------------------------------
# 2. Bearing values at the three canonical offsets
# ---------------------------------------------------------------------------


def test_criterion_2_bearing_values():
    cases = [
        ((250.0, 750.0), 18.43),
        ((-250.0, 750.0), -18.43),
        ((0.0, 500.0), 0.0),
    ]
    worst = max(abs(bearing(x, y) - want) for (x, y), want in cases)
    ok = worst <= 0.01
    assert _verdict(
        2, ok, f"three reference bearings within {worst:.5f} deg (tolerance 0.01)"
    )


# ---------------------------------------------------------------------------
# 3. Reference calibration self-consistency
# ---------------------------------------------------------------------------


def test_criterion_3_reference_calibration_round_trip():
    start = time.perf_counter()
    pose = pose_from_euler(
        EulerAngles(*REFERENCE_EULER_DEG), WorldPoint(*REFERENCE_CAMERA_CENTER_MM)
    )
    angles, center = euler_from_pose(pose)
    round_trip_err = max(
        abs(angles.omega - REFERENCE_EULER_DEG[0]),
        abs(angles.phi - REFERENCE_EULER_DEG[1]),
        abs(angles.kappa - REFERENCE_EULER_DEG[2]),
        abs(center.x - REFERENCE_CAMERA_CENTER_MM[0]),
        abs(center.y - REFERENCE_CAMERA_CENTER_MM[1]),
        abs(center.z - REFERENCE_CAMERA_CENTER_MM[2]),
    )

    k = reference_intrinsics()
    points = [
        WorldPoint(0.0, 500.0, 0.0),
        WorldPoint(-250.0, 750.0, 0.0),
        WorldPoint(250.0, 750.0, 0.0),
        WorldPoint(0.0, 1000.0, 0.0),
        WorldPoint(-400.0, 1200.0, 0.0),
    ]
    correspondences = [
        PnpCorrespondence(pixel=project(p, k, pose), world=p) for p in points
    ]
    solved, _ = solve_pnp(correspondences, k)
    center_err = float(
        np.max(np.abs(np.array(camera_center(solved)) - np.array(camera_center(pose))))
    )
    elapsed = time.perf_counter() - start
    ok = round_trip_err < 1e-6 and center_err < 1e-4 and elapsed < 1.0
    assert _verdict(
        3,
        ok,
        f"pose round trip err {round_trip_err:.2e} (tol 1e-6), five-point pose "
        f"center err {center_err:.2e} mm (tol 1e-4), {elapsed:.2f} s",
    )


# ---------------------------------------------------------------------------
# 4. End-to-end closure on a zero-noise synthetic scene
# ---------------------------------------------------------------------------


def test_criterion_4_end_to_end_closure(capsys, tmp_path):
    start = time.perf_counter()
    scene_dir = tmp_path / "scene"
    code = main(["synth", "--seed", "0", "--out", str(scene_dir)])
    capsys.readouterr()
    assert code == 0

    code = main(
        [
            "localize",
            str(scene_dir / "detections.jsonl"),
            str(scene_dir / "calibration.json"),
            str(scene_dir / "model.json"),
            "--frame",
            "camera",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    estimates = {
        obj["frame"]: obj for obj in map(json.loads, out.splitlines())
    }
    truth = evaluation.load_truth_csv(scene_dir / "truth.csv")
    # Rows in PAIRS_HEADER order.
    pairs = [
        (
            gx,
            gy,
            gt,
            estimates[frame]["x_mm"],
            estimates[frame]["y_mm"],
            estimates[frame]["theta_deg"],
            "ours",
        )
        for frame, (gx, gy, gt) in truth.items()
    ]
    pairs_path = tmp_path / "pairs.csv"
    evaluation.save_pairs_csv(pairs_path, pairs)

    code = main(["evaluate", str(pairs_path), "--buckets", ""])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    doc = json.loads(out)
    rmse_mm = doc["rmse_mm"]
    ok = (
        code == 0
        and len(pairs) == 30
        and all(obj["status"] == "ok" for obj in estimates.values())
        and rmse_mm < 1e-6
        and elapsed < 5.0
    )
    assert _verdict(
        4,
        ok,
        f"30-point generate/localize/evaluate loop rmse {rmse_mm:.2e} mm "
        f"(tol 1e-6), {elapsed:.2f} s",
    )


# ---------------------------------------------------------------------------
# 5. Intrinsic calibration recovery, noiseless and noisy
# ---------------------------------------------------------------------------


def _target_views(rng: np.random.Generator, k, noise_px: float) -> list[PlanarView]:
    xs, ys = np.meshgrid(np.arange(9) * 25.0, np.arange(6) * 25.0)
    pattern = np.column_stack([xs.ravel(), ys.ravel()])
    world = np.column_stack([pattern, np.zeros(len(pattern))])
    views = []
    for index in range(20):
        tilt = np.array(
            [
                rng.choice([-1.0, 1.0]) * rng.uniform(0.15, 0.5),
                rng.choice([-1.0, 1.0]) * rng.uniform(0.15, 0.5),
                rng.uniform(-0.5, 0.5),
            ]
        )
        pose = CameraPose(
            rotation_from_axis_angle(tilt),
            np.array(
                [
                    -100.0 + rng.uniform(-40, 40),
                    -62.5 + rng.uniform(-30, 30),
                    rng.uniform(500, 900),
                ]
            ),
        )
        pixels = project_points(world, k, pose)
        if noise_px > 0:
            pixels = pixels + rng.normal(0.0, noise_px, pixels.shape)
        views.append(PlanarView(view_id=f"view{index}", pixels=pixels, pattern=pattern))
    return views


def test_criterion_5_intrinsic_calibration_recovery():
    start = time.perf_counter()
    truth = reference_intrinsics()

    clean = calibrate_intrinsics(_target_views(np.random.default_rng(0), truth, 0.0))
    rel_err = max(
        abs(clean.intrinsics.alpha_x - truth.alpha_x) / truth.alpha_x,
        abs(clean.intrinsics.alpha_y - truth.alpha_y) / truth.alpha_y,
        abs(clean.intrinsics.u0 - truth.u0) / truth.u0,
        abs(clean.intrinsics.v0 - truth.v0) / truth.v0,
    )

    noisy_rmse = []
    for seed in range(20):
        views = _target_views(np.random.default_rng(seed), truth, 0.5)
        noisy_rmse.append(calibrate_intrinsics(views).rmse_px)
    lo, hi = min(noisy_rmse), max(noisy_rmse)
    elapsed = time.perf_counter() - start
    ok = rel_err < 1e-3 and lo > 0.3 and hi < 0.7 and elapsed < 30.0
    assert _verdict(
        5,
        ok,
        f"noiseless recovery rel err {rel_err:.2e} (tol 1e-3); noisy rmse over "
        f"20 seeds in [{lo:.3f}, {hi:.3f}] px (band 0.3..0.7); {elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# 6. Optimizer behavior
# ---------------------------------------------------------------------------


def test_criterion_6_optimizer_properties():
    rosenbrock = LeastSquaresProblem(
        residual=lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]),
    )
    a = np.array([[2.0, 1.0], [1.0, 3.0], [0.5, -1.0]])
    linear = LeastSquaresProblem(
        residual=lambda x: a @ x - np.array([1.0, -2.0, 0.5]),
    )
    trig = LeastSquaresProblem(
        residual=lambda x: np.array(
            [math.sin(x[0]) - 0.5, math.cos(x[1]) - 0.2, x[0] * x[1] - 0.3]
        ),
    )

    monotone = True
    for problem, x0 in (
        (rosenbrock, np.array([-1.2, 1.0])),
        (linear, np.array([5.0, -5.0])),
        (trig, np.array([1.5, 1.5])),
    ):
        costs = []
        for cap in range(1, 8):
            result = levenberg_marquardt(problem, x0, max_iterations=cap)
            if result.reason is not TerminationReason.MAX_ITERATIONS:
                break
            costs.append(result.cost)
        monotone &= all(b < a for a, b in zip(costs, costs[1:]))

    solved = levenberg_marquardt(rosenbrock, np.array([-1.2, 1.0]))
    valley_err = float(np.max(np.abs(solved.x - 1.0)))

    exp_problem = LeastSquaresProblem(residual=lambda x: np.array([math.exp(x[0])]))
    exact = math.exp(0.3)
    x = np.array([0.3])
    err = lambda h: abs(numeric_jacobian(exp_problem, x, base_step=h)[0, 0] - exact)
    ratio = err(2e-4) / err(1e-4)

    ok = monotone and valley_err < 1e-6 and 3.0 <= ratio <= 5.0
    assert _verdict(
        6,
        ok,
        f"costs strictly decrease on 3 problems: {monotone}; banana valley err "
        f"{valley_err:.2e} (tol 1e-6); step-halving ratio {ratio:.2f} (band 3..5)",
    )


# ---------------------------------------------------------------------------
# 7. Ground-regressor identity on linear data
# ---------------------------------------------------------------------------


def test_criterion_7_regressor_identity():
    rng = np.random.default_rng(20240817)
    true_w = rng.uniform(-1.0, 1.0, (2, 5))
    samples, checks = [], []
    for _ in range(25):
        xmin, ymin = rng.uniform(0, 400, 2)
        box = BoundingBox(xmin, ymin, xmin + rng.uniform(10, 100), ymin + rng.uniform(10, 100))
        u, v = true_w @ np.array([*box, 1.0])
        samples.append(
            RegressionSample(
                label="robot", bbox=box, ground_pixel=PixelPoint(float(u), float(v))
            )
        )
        checks.append(box)
    regressor = fit(samples)
    residual = max(
        math.hypot(*(true_w @ np.array([*b, 1.0]) - np.array(
            regressor["robot"].ground_pixel(b)
        )))
        for b in checks
    )

    bc_samples = [
        RegressionSample(
            label="ball",
            bbox=b,
            ground_pixel=PixelPoint((b.xmin + b.xmax) / 2.0, b.ymax),
        )
        for b in checks
    ]
    fitted_dev = float(
        np.max(np.abs(np.array(fit(bc_samples)["ball"].weights) - BOTTOM_CENTER_WEIGHTS))
    )
    fallback_exact = np.array_equal(
        bottom_center_regressor()["ball"].weights, BOTTOM_CENTER_WEIGHTS
    )

    ok = residual < 1e-9 and fitted_dev < 1e-9 and fallback_exact
    assert _verdict(
        7,
        ok,
        f"random affine rule residual {residual:.2e} px (tol 1e-9); bottom-center "
        f"weight deviation {fitted_dev:.2e}; fallback matrix exact: {fallback_exact}",
    )


# ---------------------------------------------------------------------------
# 8. Full-scale figures are documented as out of scope
# ---------------------------------------------------------------------------


def test_criterion_8_scale_exclusions_documented():
    readme = (REPO_ROOT / "README.md").read_text()
    markers = ["67.32", "AP/AR", "30 fps", "10.8 W"]
    missing = [m for m in markers if m not in readme]
    ok = not missing
    assert _verdict(
        8,
        ok,
        "README states the non-reproducible full-scale figures "
        + (f"(missing: {missing})" if missing else "(all four named)"),
    )
