"""On-disk formats shared by the command-line tools.

JSON documents are serialized by dumps alone, with sorted keys and two-space
indentation, so a regenerated file is byte-identical when its contents are
and a command's stdout and its --out file are the same bytes. The calibration
document stores the rotation matrix and translation as the authoritative
pose; the Euler angles and camera center are derived conveniences written
alongside for operators.
"""

from __future__ import annotations

import io
import json
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from .geometry import (
    CameraIntrinsics,
    CameraPose,
    Distortion,
    PixelPoint,
    WorldPoint,
    euler_from_pose,
)
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

# The calibration and evaluation modules are imported by the codecs that use
# them, so localize and fit-regressor do not load them.
if TYPE_CHECKING:
    from .evaluation import EvalPair
    from .extrinsics import FieldGeometry, PnpCorrespondence
    from .intrinsics import PlanarView


def dumps(doc: dict) -> str:
    """The text of a JSON document: sorted keys, two-space indent, final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(path: Path, doc: dict) -> None:
    Path(path).write_text(dumps(doc))


@contextmanager
def _malformed(where: str):
    """Re-raise any parse failure inside the block as ValueError naming where;
    a RecursionError is one too, from json nesting deeper than the stack."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{where}: missing key {exc}") from None
    except (
        AttributeError, IndexError, TypeError, ValueError, OverflowError, RecursionError
    ) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _load_json(path: Path, parse):
    """parse applied to the JSON document at path; a file that is not UTF-8
    JSON, or a document of the wrong shape, raises ValueError naming the file."""
    with _malformed(str(path)):
        return parse(json.loads(Path(path).read_text(encoding="utf-8")))


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
            "rotation": [v for row in pose.r for v in row],
            "translation": list(pose.t),
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
    return k, CameraPose((rotation[0:3], rotation[3:6], rotation[6:]), translation)


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
    from .intrinsics import PlanarView

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
    from dataclasses import fields

    return {f"{f.name}_mm": getattr(g, f.name) for f in fields(g)}


def field_geometry_from_dict(obj: dict) -> FieldGeometry:
    from dataclasses import fields

    from .extrinsics import FieldGeometry

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
    """Each named pixel with its field_landmarks world point, then the extra
    points; an unknown or repeated name raises ValueError."""
    from .extrinsics import PnpCorrespondence, field_landmarks

    catalog = field_landmarks(field_geometry_from_dict(obj["field_geometry"]))
    named = {}
    for p in obj.get("points", []):
        name = json_string(p["name"], "name")
        if name not in catalog:
            raise ValueError(f"unknown landmark name: {name!r}")
        if name in named:
            raise ValueError(f"landmark {name!r} is marked twice")
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
            label: {"weights": list(map(list, model.weights)), "rmse_px": model.rmse_px}
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


def read_lines(path: Path) -> list[str]:
    """The lines of a JSON Lines file, each with its line end, read as UTF-8
    whatever the locale. A line ends at "\n" (or "\r\n" or "\r") only,
    not at U+0085, U+2028 or U+2029, which a JSON string may hold raw. A file
    that is not UTF-8 raises ValueError naming it and the offending byte."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.readlines()
    except UnicodeDecodeError as exc:
        # readlines decodes chunk by chunk and counts exc's offset from the
        # chunk's start; decoding the whole file counts it from the file's.
        with _malformed(str(path)):
            Path(path).read_bytes().decode("utf-8")
        raise ValueError(f"{path}: {exc}") from None


def load_samples(path: Path) -> list[RegressionSample]:
    """One sample per line of read_lines, stripped as ingest_detections strips
    one; blank lines are skipped. A malformed line raises ValueError naming
    the file and the line number."""
    samples = []
    for number, line in enumerate(read_lines(path), start=1):
        text = line.strip()
        if not text:
            continue
        with _malformed(f"{path} line {number}"):
            obj = json.loads(text)
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


def _write_csv(path: Path, header: list[str], rows) -> None:
    """A CSV table: the header, then each row, as csv.writer writes them."""
    import csv

    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _csv_rows(path: Path, header: list[str], parse) -> list:
    """parse(fields) for each non-blank data row of a CSV file whose first
    line is header; names may carry surrounding spaces. A header mismatch, a
    row of the wrong width, a line csv cannot parse (an oversized field, say)
    or a ValueError from parse raises ValueError naming the file and the
    line; a file that is not UTF-8 text raises one naming the file."""
    import csv

    with _malformed(str(path)), open(path, newline="", encoding="utf-8") as f:
        text = f.read()
    reader = csv.reader(io.StringIO(text, newline=""))
    width = len(header)
    rows = []
    # A plain try, not _malformed: entering that context manager on every
    # row made the pairs table load about 70 % slower at 20k rows.
    try:
        names = next(reader, None)
        if names is not None and [name.strip() for name in names] == header:
            for fields in reader:
                if len(fields) == width:
                    rows.append(parse(fields))
                elif fields:
                    raise ValueError(f"expected {width} fields")
            return rows
    except (csv.Error, ValueError) as exc:
        raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
    raise ValueError(f"{path} line 1: expected header {','.join(header)}, got {names}")


PAIRS_HEADER = ["gt_x", "gt_y", "gt_theta", "est_x", "est_y", "est_theta", "source"]


def save_pairs_csv(path: Path, pairs: list[EvalPair]) -> None:
    _write_csv(path, PAIRS_HEADER, pairs)


def load_pairs_csv(path: Path) -> list[EvalPair]:
    """Read the pairs table by column position; a malformed row, or one whose
    source is neither ours nor reference, raises ValueError naming the file
    and the line."""
    from .evaluation import EvalPair

    def pair(fields: list[str]) -> EvalPair:
        source = fields[6].strip()
        if source not in ("ours", "reference"):
            raise ValueError(f"source must be ours or reference, got {source!r}")
        return EvalPair(*map(float, fields[:6]), source)

    return _csv_rows(path, PAIRS_HEADER, pair)


TRUTH_HEADER = ["frame", "gt_x", "gt_y", "gt_theta"]


def save_truth_csv(path: Path, rows: list[tuple[str, float, float, float]]) -> None:
    _write_csv(path, TRUTH_HEADER, rows)


def load_truth_csv(path: Path) -> dict[str, tuple[float, float, float]]:
    """Read the truth table by frame; a malformed row raises ValueError
    naming the file and the line."""

    def row(fields: list[str]) -> tuple[str, tuple[float, float, float]]:
        frame_id, x, y, theta = fields
        return frame_id, (float(x), float(y), float(theta))

    return dict(_csv_rows(path, TRUTH_HEADER, row))


def save_report(path: Path, report: dict) -> None:
    """The headline numbers of a build_report document as a metric,value table."""
    from .evaluation import ERROR_BLOCKS

    rows = [["rmse_mm", report["rmse_mm"]], ["count", report["count"]]]
    for block in ERROR_BLOCKS:
        axis, unit = block.split("_")
        rows.append([f"{axis}_mean_{unit}", report[block]["mean"]])
        rows.append([f"{axis}_std_{unit}", report[block]["std"]])
    for b in report["buckets"]:
        lo, hi = b["lo_mm"], b["hi_mm"]
        band = f"[{lo},{'inf' if hi is None else hi})"
        rows.append([f"rmse_mm{band}", b["rmse_mm"]])
        rows.append([f"count{band}", b["count"]])
    _write_csv(path, ["metric", "value"], rows)


def save_scatter_csv(path: Path, pairs: list[EvalPair]) -> None:
    """Plot-ready gt/estimate positions: columns x, y, series.

    The rows are the bytes csv.writer writes for them: numbers by repr, CRLF
    line ends, and series names that need no quoting.
    """
    rows = [f"{p.gt_x!r},{p.gt_y!r},ground_truth\r\n" for p in pairs]
    rows += [f"{p.est_x!r},{p.est_y!r},{p.source}\r\n" for p in pairs]
    Path(path).write_text("x,y,series\r\n" + "".join(rows), newline="")


def render_report_text(report: dict) -> str:
    """Fixed-decimal human summary of a build_report document, used by the
    evaluation command's stderr."""
    from .evaluation import ERROR_BLOCKS

    out = io.StringIO()
    out.write(f"pairs: {report['count']}\n")
    out.write(f"rmse: {report['rmse_mm']:.6f} mm\n")
    for block in ERROR_BLOCKS:
        axis, unit = block.split("_")
        stats = report[block]
        out.write(f"{axis} error: {stats['mean']:.6f} +- {stats['std']:.6f} {unit}\n")
    for b in report["buckets"]:
        hi = "inf" if b["hi_mm"] is None else _band_edge(b["hi_mm"])
        rmse_text = "n/a" if b["rmse_mm"] is None else f"{b['rmse_mm']:.6f}"
        out.write(
            f"bucket [{_band_edge(b['lo_mm'])}, {hi}) mm: count {b['count']}, "
            f"rmse {rmse_text} mm\n"
        )
    return out.getvalue()


def _band_edge(mm: float) -> str:
    """A band edge as given: a whole number of millimeters without decimals,
    any other value as report.csv writes it."""
    return f"{mm:.0f}" if mm.is_integer() else repr(mm)
