"""Seeded input generation and the independent oracles the checks use.

Everything here is plain numpy: the camera model, lens model and plane
intersection are re-implemented rather than imported from groundcam, so the
inputs do not change when the program's geometry code is rewritten and the
correctness checks do not trust the code they check. Files are written in the
formats the README documents.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IMAGE_W, IMAGE_H = 640, 480
MIN_SCORE = 0.5

# Reference rig from fixtures/calibration_reference.json plus a lens model with
# every coefficient the workloads name (k1, k2, p1, p2) nonzero.
ALPHA_X, ALPHA_Y, U0, V0 = 642.41, 642.54, 322.80, 239.76
LENS = {"k1": -0.12, "k2": 0.05, "k3": 0.0, "p1": 0.001, "p2": -0.0008}
EULER_DEG = (106.94, -0.43, -0.38)
CENTER_MM = np.array([-5.38, -509.79, 171.40])
NOISE_PX = 0.5

# Per-class object size (half-width, height in mm) and box shape: the ground
# pixel sits at the box's bottom center shifted right by a*H and up by b*H,
# where H is the box height, so each class needs its own fitted regressor.
CLASSES = {
    "ball": (21.35, 42.7, 0.00, 0.10),
    "robot": (90.0, 150.0, 0.05, 0.00),
    "goal": (400.0, 155.0, 0.00, 0.04),
}
LABELS = tuple(CLASSES)


def _rotation(euler_deg) -> np.ndarray:
    o, p, k = (math.radians(a) for a in euler_deg)
    rx = np.array([[1, 0, 0], [0, math.cos(o), -math.sin(o)], [0, math.sin(o), math.cos(o)]])
    ry = np.array([[math.cos(p), 0, math.sin(p)], [0, 1, 0], [-math.sin(p), 0, math.cos(p)]])
    rz = np.array([[math.cos(k), -math.sin(k), 0], [math.sin(k), math.cos(k), 0], [0, 0, 1]])
    return rz @ ry @ rx


def _axis_angle(rvec: np.ndarray) -> np.ndarray:
    theta = float(np.linalg.norm(rvec))
    if theta < 1e-15:
        return np.eye(3)
    a = rvec / theta
    skew = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return np.eye(3) + math.sin(theta) * skew + (1 - math.cos(theta)) * skew @ skew


ROTATION = _rotation(EULER_DEG)
TRANSLATION = -ROTATION @ CENTER_MM


def _distort(x, y):
    d = LENS
    r2 = x * x + y * y
    radial = 1.0 + r2 * (d["k1"] + r2 * (d["k2"] + r2 * d["k3"]))
    xd = x * radial + 2.0 * d["p1"] * x * y + d["p2"] * (r2 + 2.0 * x * x)
    yd = y * radial + d["p1"] * (r2 + 2.0 * y * y) + 2.0 * d["p2"] * x * y
    return xd, yd


def project(world: np.ndarray, rotation=ROTATION, translation=TRANSLATION) -> np.ndarray:
    """(n, 3) world points to (n, 2) distorted pixels."""
    pc = world @ rotation.T + translation
    if np.any(pc[:, 2] <= 1.0):
        raise ValueError("point at or behind the camera")
    xd, yd = _distort(pc[:, 0] / pc[:, 2], pc[:, 1] / pc[:, 2])
    return np.column_stack([ALPHA_X * xd + U0, ALPHA_Y * yd + V0])


def ground_rays(pixels: np.ndarray):
    """Undistort (n, 2) pixels and return (converged, world ray directions).

    converged demands the fixed point settle to 1e-12 within 10 steps, half
    the program's own budget, so a pixel accepted here is one the program
    must also undistort. The rays come from 40 steps.
    """
    xd = (pixels[:, 0] - U0) / ALPHA_X
    yd = (pixels[:, 1] - V0) / ALPHA_Y
    d = LENS
    x, y = xd.copy(), yd.copy()
    for step in range(40):
        r2 = x * x + y * y
        radial = 1.0 + r2 * (d["k1"] + r2 * (d["k2"] + r2 * d["k3"]))
        tx = 2.0 * d["p1"] * x * y + d["p2"] * (r2 + 2.0 * x * x)
        ty = d["p1"] * (r2 + 2.0 * y * y) + 2.0 * d["p2"] * x * y
        x, y = (xd - tx) / radial, (yd - ty) / radial
        if step == 9:
            fx, fy = _distort(x, y)
            converged = np.maximum(np.abs(fx - xd), np.abs(fy - yd)) < 1e-12
    rays = np.column_stack([x, y, np.ones_like(x)]) @ ROTATION
    return converged, rays


def ground_hits(pixels: np.ndarray) -> np.ndarray:
    """Field-frame (n, 2) points where the pixels' rays meet z = 0."""
    _, rays = ground_rays(pixels)
    s = -CENTER_MM[2] / rays[:, 2]
    return CENTER_MM[:2] + s[:, None] * rays[:, :2]


def camera_frame(xy: np.ndarray) -> np.ndarray:
    """Field-frame ground points to the README's camera-relative frame."""
    forward = ROTATION[2, :]
    yaw = math.atan2(forward[0], forward[1])
    dx, dy = xy[:, 0] - CENTER_MM[0], xy[:, 1] - CENTER_MM[1]
    c, s = math.cos(yaw), math.sin(yaw)
    return np.column_stack([dx * c - dy * s, dx * s + dy * c])


def calibration_doc() -> dict:
    return {
        "intrinsics": {
            "alpha_x": ALPHA_X, "alpha_y": ALPHA_Y, "u0": U0, "v0": V0,
            "gamma": 0.0, "distortion": dict(LENS),
        },
        "pose": {
            "rotation": [float(v) for v in ROTATION.ravel()],
            "translation": [float(v) for v in TRANSLATION],
        },
    }


def _dump(obj: dict, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _boxes(rng, labels, contacts, noise):
    """Boxes for objects standing on (n, 2) contacts, plus true ground pixels."""
    n = len(labels)
    radius = np.array([CLASSES[c][0] for c in labels])
    height = np.array([CLASSES[c][1] for c in labels])
    shift_u = np.array([CLASSES[c][2] for c in labels])
    shift_v = np.array([CLASSES[c][3] for c in labels])
    ground_world = np.column_stack([contacts, np.zeros(n)])
    top_world = np.column_stack([contacts, height])
    center_world = np.column_stack([contacts, height / 2.0])
    ground = project(ground_world)
    top = project(top_world)
    depth = (center_world @ ROTATION.T + TRANSLATION)[:, 2]
    half_w = ALPHA_X * radius / depth
    box_h = ground[:, 1] - top[:, 1]
    ymax = ground[:, 1] + shift_v * box_h
    xc = ground[:, 0] - shift_u * box_h
    box = np.column_stack([xc - half_w, ymax - box_h, xc + half_w, ymax])
    box = box + rng.normal(0.0, noise, size=box.shape)
    return box, ground


def _sample_contacts(rng, n):
    """Ground contacts whose pixels fall well inside the image, below the horizon."""
    pixels = np.column_stack(
        [rng.uniform(30.0, IMAGE_W - 30.0, n), rng.uniform(120.0, IMAGE_H - 15.0, n)]
    )
    return ground_hits(pixels)


def fit_model(rng, per_class: int) -> tuple[dict, list[str]]:
    """Samples JSONL lines and a model.json fitted to them by least squares."""
    lines, classes = [], {}
    for label in LABELS:
        contacts = _sample_contacts(rng, per_class)
        box, ground = _boxes(rng, [label] * per_class, contacts, NOISE_PX)
        annotated = ground + rng.normal(0.0, NOISE_PX, size=ground.shape)
        design = np.column_stack([box, np.ones(per_class)])
        weights, *_ = np.linalg.lstsq(design, annotated, rcond=None)
        rmse = float(np.sqrt(np.mean((design @ weights - annotated) ** 2)))
        classes[label] = {"weights": weights.T.tolist(), "rmse_px": rmse}
        for b, g in zip(box, annotated):
            lines.append(json.dumps(
                {"class": label, "bbox": [float(v) for v in b],
                 "ground_pixel": [float(g[0]), float(g[1])]},
                sort_keys=True,
            ))
    return {"classes": classes}, lines


def predicted_pixels(model: dict, labels, boxes: np.ndarray) -> np.ndarray:
    out = np.empty((len(labels), 2))
    features = np.column_stack([boxes, np.ones(len(labels))])
    for label in LABELS:
        rows = np.array([c == label for c in labels])
        if rows.any():
            out[rows] = features[rows] @ np.array(model["classes"][label]["weights"]).T
    return out


@dataclass
class DetectionLog:
    """A generated detections file and what the program must make of it."""

    lines: list[str]
    kept: int                   # rows localize must write
    expect_ok: np.ndarray       # per kept row: True for objects on the ground
    truth_xy: np.ndarray        # per kept row: field-frame contact (nan if none)
    oracle_xy: np.ndarray       # per kept row: where the pipeline must place it


MALFORMED = (
    '{"bbox": [1.0, 2.0, 3.0, 4.0], "class": "ball", "frame": "bad",',
    '{"class": "ball", "frame": "bad", "score": 0.9}',
    '{"bbox": [9.0, 2.0, 3.0, 4.0], "class": "robot", "frame": "bad", "score": 0.9}',
    '{"bbox": null, "class": "goal", "frame": "bad", "score": 0.9}',
    '{"bbox": [1.0, 2.0, 3.0, 4.0], "class": "referee", "frame": "bad", "score": 0.9}',
    '{"bbox": [1.0, 2.0, 3.0, 4.0], "class": "ball", "frame": "bad", "score": 1.7}',
    "not json",
)


def detection_log(
    rng, model: dict, n_frames: int, per_frame: int,
    low_score_share: float, horizon_share: float, malformed: bool,
) -> DetectionLog:
    """Frames of `per_frame` detections; some filtered, some above the horizon."""
    n = n_frames * per_frame
    labels = [LABELS[i] for i in rng.integers(0, len(LABELS), n)]
    above = rng.random(n) < horizon_share
    contacts = _sample_contacts(rng, n)
    boxes, _ = _boxes(rng, labels, contacts, NOISE_PX)
    # Above-horizon rows: small boxes whose predicted ground pixel is clearly
    # above the horizon, resampled until the oracle agrees.
    todo = np.nonzero(above)[0]
    while len(todo):
        u = rng.uniform(40.0, IMAGE_W - 40.0, len(todo))
        v = rng.uniform(4.0, 30.0, len(todo))
        h = rng.uniform(10.0, 20.0, len(todo))
        w = rng.uniform(4.0, 12.0, len(todo))
        boxes[todo] = np.column_stack([u - w, v - h, u + w, v])
        pred = predicted_pixels(model, [labels[i] for i in todo], boxes[todo])
        converged, rays = ground_rays(pred)
        todo = todo[~(converged & (rays[:, 2] > 0.05 * np.linalg.norm(rays, axis=1)))]
    pred = predicted_pixels(model, labels, boxes)
    converged, rays = ground_rays(pred)
    if not np.all(converged[~above]) or np.any(rays[~above, 2] >= 0):
        raise RuntimeError("generator produced an on-ground box the oracle cannot place")
    placed = np.where(above[:, None], math.nan, ground_hits(pred))
    scores = np.where(
        rng.random(n) < low_score_share,
        rng.uniform(0.05, 0.45, n),
        rng.uniform(0.55, 1.0, n),
    )
    lines: list[str] = []
    kept_ok, kept_truth, kept_oracle = [], [], []
    for f in range(n_frames):
        for i in range(f * per_frame, (f + 1) * per_frame):
            lines.append(json.dumps(
                {"bbox": [float(v) for v in boxes[i]], "class": labels[i],
                 "frame": f"f{f:06d}", "score": float(scores[i])},
                sort_keys=True,
            ))
            if scores[i] >= MIN_SCORE:
                kept_ok.append(not above[i])
                kept_truth.append(contacts[i] if not above[i] else (math.nan, math.nan))
                kept_oracle.append(placed[i])
    if malformed:
        for text in MALFORMED:
            lines.insert(int(rng.integers(0, len(lines))), text)
    return DetectionLog(
        lines=lines,
        kept=len(kept_ok),
        expect_ok=np.array(kept_ok),
        truth_xy=np.array(kept_truth, dtype=float).reshape(-1, 2),
        oracle_xy=np.array(kept_oracle, dtype=float).reshape(-1, 2),
    )


def write_localize_inputs(rng, out: Path, n_frames, per_frame, low_score_share,
                          horizon_share, malformed) -> DetectionLog:
    """calibration.json, model.json and detections.jsonl for the localize path."""
    model, _ = fit_model(rng, per_class=300)
    log = detection_log(rng, model, n_frames, per_frame, low_score_share,
                        horizon_share, malformed)
    _dump(calibration_doc(), out / "calibration.json")
    _dump(model, out / "model.json")
    (out / "detections.jsonl").write_text("".join(line + "\n" for line in log.lines))
    return log


# The board poses are a fixed capture plan drawn once from this stream; the
# workload seed draws the pixel noise. Seeded poses changed how many solver
# iterations a calibration takes by up to half from seed to seed, and the
# noise alone still moves it by about a fifth, so the workload cycles through
# several noise draws of the same plan.
BOARD_PLAN_SEED = 1000


def write_calibrate_inputs(rng, out: Path, draws: int, n_views=20, n_marks=8) -> None:
    """views-<i>.json (9x6 board, one per noise draw), landmarks.json (in-image
    ground marks) and regression.jsonl."""
    xs, ys = np.meshgrid(np.arange(9) * 25.0, np.arange(6) * 25.0)
    pattern = np.column_stack([xs.ravel(), ys.ravel()])
    board = np.column_stack([pattern, np.zeros(len(pattern))])
    plan = np.random.default_rng(BOARD_PLAN_SEED)
    clean = []
    while len(clean) < n_views:
        tilt = np.array([
            plan.choice([-1.0, 1.0]) * plan.uniform(0.15, 0.5),
            plan.choice([-1.0, 1.0]) * plan.uniform(0.15, 0.5),
            plan.uniform(-0.5, 0.5),
        ])
        translation = np.array([
            -100.0 + plan.uniform(-120, 120), -62.5 + plan.uniform(-90, 90),
            plan.uniform(300, 550),
        ])
        try:
            px = project(board, _axis_angle(tilt), translation)
        except ValueError:
            continue
        if px.min() < 8 or px[:, 0].max() > IMAGE_W - 8 or px[:, 1].max() > IMAGE_H - 8:
            continue
        clean.append(px)
    for draw in range(draws):
        views = []
        for index, px in enumerate(clean):
            px = px + rng.normal(0.0, NOISE_PX, size=px.shape)
            views.append({
                "id": f"view{index:03d}",
                "points": [{"pixel": [float(p[0]), float(p[1])],
                            "pattern": [float(q[0]), float(q[1])]}
                           for p, q in zip(px, pattern)],
            })
        _dump({"square_size_mm": 25.0, "views": views}, out / f"views-{draw}.json")

    # Ground marks a person can click: spread over the lower image, each the
    # exact floor point under a pixel, marked again with pixel noise.
    grid_u = np.linspace(60.0, IMAGE_W - 60.0, (n_marks + 1) // 2)
    marks_px = np.array([(u, v) for v in (200.0, 420.0) for u in grid_u])[:n_marks]
    marks_px = marks_px + rng.uniform(-20.0, 20.0, size=marks_px.shape)
    world = ground_hits(marks_px)
    clicked = project(np.column_stack([world, np.zeros(len(world))]))
    clicked = clicked + rng.normal(0.0, NOISE_PX, size=clicked.shape)
    _dump({
        "field_geometry": {
            "field_length_mm": 2000.0, "field_width_mm": 1500.0, "goal_width_mm": 800.0,
            "goal_depth_mm": 180.0, "goal_height_mm": 155.0,
            "penalty_depth_mm": 500.0, "penalty_width_mm": 1000.0,
        },
        "points": [],
        "extra": [{"pixel": [float(p[0]), float(p[1])], "world": [float(w[0]), float(w[1]), 0.0]}
                  for p, w in zip(clicked, world)],
    }, out / "landmarks.json")

    _, sample_lines = fit_model(rng, per_class=300)
    (out / "regression.jsonl").write_text("".join(line + "\n" for line in sample_lines))
