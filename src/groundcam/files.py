"""On-disk formats shared by the command-line tools.

JSON documents are serialized by dumps alone, with sorted keys and two-space
indentation, so a regenerated file is byte-identical when its contents are
and a command's stdout and its --out file are the same bytes. The calibration
document stores the rotation matrix and translation as the authoritative
pose; the Euler angles and camera center are derived conveniences written
alongside for operators.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from .evaluation import ERROR_BLOCKS, EvalPair
from .extrinsics import FieldGeometry, PnpCorrespondence, field_landmarks
from .geometry import (
    CameraIntrinsics,
    CameraPose,
    Distortion,
    PixelPoint,
    WorldPoint,
    euler_from_pose,
)
from .intrinsics import PlanarView
from .pipeline import (
    LocalizedObject,
    UnlocalizableDetection,
    json_number,
    json_numbers,
    json_string,
)
from .regression import (
    BoundingBox,
    ClassModel,
    GroundRegressor,
    RegressionSample,
)


def dumps(doc: dict) -> str:
    """The text of a JSON document: sorted keys, two-space indent, final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(path: Path, doc: dict) -> None:
    Path(path).write_text(dumps(doc))


@contextmanager
def _malformed(where: str):
    """Re-raise any parse failure inside the block as ValueError naming where."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{where}: missing key {exc}") from None
    except (AttributeError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _load_json(path: Path, parse):
    """parse applied to the JSON document at path; a file that is not UTF-8
    JSON, or a document of the wrong shape, raises ValueError naming the file."""
    with _malformed(str(path)):
        return parse(json.loads(Path(path).read_text()))


def intrinsics_to_dict(k: CameraIntrinsics) -> dict:
    d = k.distortion
    return {
        "alpha_x": k.alpha_x,
        "alpha_y": k.alpha_y,
        "u0": k.u0,
        "v0": k.v0,
        "gamma": k.gamma,
        "distortion": {"k1": d.k1, "k2": d.k2, "k3": d.k3, "p1": d.p1, "p2": d.p2},
    }


def intrinsics_from_dict(obj: dict) -> CameraIntrinsics:
    """Inverse of intrinsics_to_dict; every value must be a JSON number, and
    a missing skew or lens coefficient is 0."""
    d = obj.get("distortion", {})
    return CameraIntrinsics(
        alpha_x=json_number(obj["alpha_x"], "alpha_x"),
        alpha_y=json_number(obj["alpha_y"], "alpha_y"),
        u0=json_number(obj["u0"], "u0"),
        v0=json_number(obj["v0"], "v0"),
        gamma=json_number(obj.get("gamma", 0.0), "gamma"),
        distortion=Distortion(
            *(
                json_number(d.get(name, 0.0), f"distortion.{name}")
                for name in ("k1", "k2", "k3", "p1", "p2")
            )
        ),
    )


def calibration_to_dict(
    k: CameraIntrinsics, pose: CameraPose | None = None, rmse_px: float | None = None
) -> dict:
    obj: dict = {"intrinsics": intrinsics_to_dict(k)}
    if pose is not None:
        angles, center = euler_from_pose(pose)
        obj["pose"] = {
            "rotation": [float(v) for v in pose.rotation.ravel()],
            "translation": [float(v) for v in pose.translation],
        }
        obj["euler_deg"] = [angles.omega, angles.phi, angles.kappa]
        obj["camera_center_mm"] = [center.x, center.y, center.z]
    if rmse_px is not None:
        obj["rmse_px"] = rmse_px
    return obj


def calibration_from_dict(obj: dict) -> tuple[CameraIntrinsics, CameraPose | None]:
    """Inverse of calibration_to_dict; the pose is None when obj has none."""
    k = intrinsics_from_dict(obj["intrinsics"])
    if "pose" not in obj:
        return k, None
    pose = obj["pose"]
    rotation = json_numbers(pose["rotation"], 9, "pose.rotation")
    translation = json_numbers(pose["translation"], 3, "pose.translation")
    return k, CameraPose(np.array(rotation).reshape(3, 3), np.array(translation))


def load_calibration(path: Path) -> tuple[CameraIntrinsics, CameraPose | None]:
    """Read a calibration document; the pose is None for intrinsics-only files."""
    return _load_json(path, calibration_from_dict)


def views_to_dict(views: list[PlanarView], square_size_mm: float) -> dict:
    return {
        "square_size_mm": square_size_mm,
        "views": [
            {
                "id": v.view_id,
                "points": [
                    {"pixel": pixel, "pattern": pattern}
                    for pixel, pattern in zip(v.pixels.tolist(), v.pattern.tolist())
                ],
            }
            for v in views
        ],
    }


def views_from_dict(obj: dict) -> list[PlanarView]:
    """Inverse of views_to_dict. square_size_mm is not read: the pattern
    coordinates already carry the scale."""
    return [
        PlanarView(
            view_id=json_string(entry["id"], "id"),
            pixels=[json_numbers(p["pixel"], 2, "pixel") for p in entry["points"]],
            pattern=[json_numbers(p["pattern"], 2, "pattern") for p in entry["points"]],
        )
        for entry in obj["views"]
    ]


def load_planar_views(path: Path) -> list[PlanarView]:
    return _load_json(path, views_from_dict)


def field_geometry_to_dict(g: FieldGeometry) -> dict:
    """Every FieldGeometry field under its name plus an _mm suffix."""
    return {f"{f.name}_mm": getattr(g, f.name) for f in fields(g)}


def field_geometry_from_dict(obj: dict) -> FieldGeometry:
    return FieldGeometry(
        **{
            f.name: json_number(obj[f"{f.name}_mm"], f"{f.name}_mm")
            for f in fields(FieldGeometry)
        }
    )


def landmarks_to_dict(
    geometry: FieldGeometry,
    named: dict[str, PixelPoint],
    extra: list[PnpCorrespondence] | None = None,
) -> dict:
    return {
        "field_geometry": field_geometry_to_dict(geometry),
        "points": [
            {"name": name, "pixel": [px.u, px.v]} for name, px in named.items()
        ],
        "extra": [
            {
                "pixel": [c.pixel.u, c.pixel.v],
                "world": [c.world.x, c.world.y, c.world.z],
            }
            for c in (extra or [])
        ],
    }


def landmarks_from_dict(obj: dict) -> list[PnpCorrespondence]:
    """Each named pixel with its field_landmarks world point (a repeated name
    keeps its last pixel), then the extra points; unknown names raise ValueError."""
    catalog = field_landmarks(field_geometry_from_dict(obj["field_geometry"]))
    named = {}
    for p in obj.get("points", []):
        name = json_string(p["name"], "name")
        if name not in catalog:
            raise ValueError(f"unknown landmark name: {name!r}")
        pixel = PixelPoint(*json_numbers(p["pixel"], 2, "pixel"))
        named[name] = PnpCorrespondence(pixel, catalog[name], name)
    extra = [
        PnpCorrespondence(
            PixelPoint(*json_numbers(e["pixel"], 2, "pixel")),
            WorldPoint(*json_numbers(e["world"], 3, "world")),
        )
        for e in obj.get("extra", [])
    ]
    return [*named.values(), *extra]


def load_landmarks(path: Path) -> list[PnpCorrespondence]:
    return _load_json(path, landmarks_from_dict)


def model_to_dict(regressor: GroundRegressor) -> dict:
    return {
        "classes": {
            label: {"weights": model.weights.tolist(), "rmse_px": model.rmse_px}
            for label, model in regressor.classes.items()
        }
    }


def model_from_dict(obj: dict) -> GroundRegressor:
    """Inverse of model_to_dict; ClassModel checks there are 2 weight rows."""
    classes = {
        label: ClassModel(
            weights=[json_numbers(row, 5, "weights") for row in entry["weights"]],
            rmse_px=json_number(entry["rmse_px"], "rmse_px"),
        )
        for label, entry in obj["classes"].items()
    }
    return GroundRegressor(classes=classes)


def load_model(path: Path) -> GroundRegressor:
    return _load_json(path, model_from_dict)


def save_samples(path: Path, samples: list[RegressionSample]) -> None:
    with open(path, "w") as f:
        for s in samples:
            f.write(
                json.dumps(
                    {
                        "class": s.label,
                        "bbox": [s.bbox.xmin, s.bbox.ymin, s.bbox.xmax, s.bbox.ymax],
                        "ground_pixel": [s.ground_pixel.u, s.ground_pixel.v],
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def load_samples(path: Path) -> list[RegressionSample]:
    """Read one sample per JSONL line; blank lines are skipped.

    A malformed line raises ValueError naming the file and the line number.
    """
    with _malformed(str(path)):
        lines = Path(path).read_text().splitlines()
    samples = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        with _malformed(f"{path} line {number}"):
            obj = json.loads(line)
            samples.append(
                RegressionSample(
                    label=json_string(obj["class"], "class"),
                    bbox=BoundingBox(*json_numbers(obj["bbox"], 4, "bbox")),
                    ground_pixel=PixelPoint(
                        *json_numbers(obj["ground_pixel"], 2, "ground_pixel")
                    ),
                )
            )
    return samples


def detection_line(frame_id: str, label: str, score: float, bbox: BoundingBox) -> str:
    return json.dumps(
        {
            "frame": frame_id,
            "class": label,
            "score": score,
            "bbox": [bbox.xmin, bbox.ymin, bbox.xmax, bbox.ymax],
        },
        sort_keys=True,
    )


_json_str = json.encoder.encode_basestring_ascii
_json_float = float.__repr__


def localization_line(result: LocalizedObject | UnlocalizableDetection) -> str:
    """One localizations.jsonl row, byte for byte json.dumps(row, sort_keys=True).

    The row is filled into a template: strings are escaped as json.dumps
    escapes them and floats, which are finite here, are written with repr.
    """
    head = f'{{"class": {_json_str(result.label)}, "frame": {_json_str(result.frame_id)}, '
    px = result.ground_pixel
    pixel = "null" if px is None else f"[{_json_float(px.u)}, {_json_float(px.v)}]"
    if isinstance(result, LocalizedObject):
        return (
            f'{head}"ground_pixel": {pixel}, "status": "ok", '
            f'"theta_deg": {_json_float(result.theta_deg)}, '
            f'"x_mm": {_json_float(result.x_mm)}, "y_mm": {_json_float(result.y_mm)}}}'
        )
    status = _json_str(f"unlocalizable:{result.reason}")
    return (
        f'{head}"ground_pixel": {pixel}, "status": {status}, '
        f'"theta_deg": null, "x_mm": null, "y_mm": null}}'
    )


PAIRS_HEADER = ["gt_x", "gt_y", "gt_theta", "est_x", "est_y", "est_theta", "source"]


def save_pairs_csv(path: Path, pairs: list[EvalPair]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(PAIRS_HEADER)
        for p in pairs:
            writer.writerow(
                [p.gt_x, p.gt_y, p.gt_theta, p.est_x, p.est_y, p.est_theta, p.source]
            )


def _csv_rows(path: Path, header: list[str]):
    """Yield (line number, row dict) for each data row of a CSV file whose
    first line is header. A missing field or a header mismatch raises
    ValueError naming the file and the line; a file that is not UTF-8 text
    raises one naming the file."""
    with _malformed(str(path)), open(path, newline="") as f:
        text = f.read()
    reader = csv.DictReader(io.StringIO(text, newline=""))
    names = reader.fieldnames
    if names is None or [name.strip() for name in names] != header:
        raise ValueError(
            f"{path} line 1: expected header {','.join(header)}, got {names}"
        )
    for row in reader:
        if None in row.values():
            raise ValueError(
                f"{path} line {reader.line_num}: expected {len(header)} fields"
            )
        yield reader.line_num, row


def load_pairs_csv(path: Path) -> list[EvalPair]:
    """Read the pairs table; a malformed row raises ValueError naming the
    file and the line."""
    pairs = []
    for number, row in _csv_rows(path, PAIRS_HEADER):
        with _malformed(f"{path} line {number}"):
            pairs.append(
                EvalPair(
                    gt_x=float(row["gt_x"]),
                    gt_y=float(row["gt_y"]),
                    gt_theta=float(row["gt_theta"]),
                    est_x=float(row["est_x"]),
                    est_y=float(row["est_y"]),
                    est_theta=float(row["est_theta"]),
                    source=row["source"].strip(),
                )
            )
    return pairs


TRUTH_HEADER = ["frame", "gt_x", "gt_y", "gt_theta"]


def save_truth_csv(path: Path, rows: list[tuple[str, float, float, float]]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(TRUTH_HEADER)
        for frame_id, x, y, theta in rows:
            writer.writerow([frame_id, x, y, theta])


def load_truth_csv(path: Path) -> dict[str, tuple[float, float, float]]:
    """Read the truth table by frame; a malformed row raises ValueError
    naming the file and the line."""
    truth = {}
    for number, row in _csv_rows(path, TRUTH_HEADER):
        with _malformed(f"{path} line {number}"):
            truth[row["frame"]] = (
                float(row["gt_x"]),
                float(row["gt_y"]),
                float(row["gt_theta"]),
            )
    return truth


def save_report(path: Path, report: dict) -> None:
    """The headline numbers of a build_report document as a metric,value table."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["metric", "value"])
        writer.writerow(["rmse_mm", report["rmse_mm"]])
        writer.writerow(["count", report["count"]])
        for block in ERROR_BLOCKS:
            axis, unit = block.split("_")
            writer.writerow([f"{axis}_mean_{unit}", report[block]["mean"]])
            writer.writerow([f"{axis}_std_{unit}", report[block]["std"]])
        for b in report["buckets"]:
            lo, hi = b["lo_mm"], b["hi_mm"]
            band = f"[{lo},{'inf' if hi is None else hi})"
            writer.writerow([f"rmse_mm{band}", b["rmse_mm"]])
            writer.writerow([f"count{band}", b["count"]])


def save_scatter_csv(path: Path, pairs: list[EvalPair]) -> None:
    """Plot-ready gt/estimate positions: columns x, y, series."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["x", "y", "series"])
        for p in pairs:
            writer.writerow([p.gt_x, p.gt_y, "ground_truth"])
        for p in pairs:
            writer.writerow([p.est_x, p.est_y, p.source])


def render_report_text(report: dict) -> str:
    """Fixed-decimal human summary of a build_report document, used by the
    evaluation command's stderr."""
    out = io.StringIO()
    out.write(f"pairs: {report['count']}\n")
    out.write(f"rmse: {report['rmse_mm']:.6f} mm\n")
    for block in ERROR_BLOCKS:
        axis, unit = block.split("_")
        stats = report[block]
        out.write(f"{axis} error: {stats['mean']:.6f} +- {stats['std']:.6f} {unit}\n")
    for b in report["buckets"]:
        hi = "inf" if b["hi_mm"] is None else f"{b['hi_mm']:.0f}"
        rmse_text = "n/a" if b["rmse_mm"] is None else f"{b['rmse_mm']:.6f}"
        out.write(
            f"bucket [{b['lo_mm']:.0f}, {hi}) mm: count {b['count']}, "
            f"rmse {rmse_text} mm\n"
        )
    return out.getvalue()
