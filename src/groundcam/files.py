"""On-disk formats: the shared JSON helpers, calibration, model and JSON Lines.

Every other codec sits beside the type it builds: the views document in
intrinsics, the landmarks document in extrinsics and the CSV tables in
evaluation, so a localize process compiles only the codecs it runs.

JSON documents are serialized by dumps alone, with sorted keys and two-space
indentation, so a regenerated file is byte-identical when its contents are
and a command's stdout and its --out file are the same bytes. The calibration
document stores the rotation matrix and translation as the authoritative
pose; the Euler angles and camera center are derived conveniences written
alongside for operators.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

from .geometry import CameraIntrinsics, CameraPose, Distortion, PixelPoint
from .pipeline import (
    LocalizedObject,
    UnlocalizableDetection,
    json_number,
    json_numbers,
    json_string,
)
from .regression import (
    KNOWN_CLASSES,
    BoundingBox,
    ClassModel,
    RegressionSample,
)

# The errors the command line reports as invalid input, with exit code 2.
INVALID_INPUT = (ValueError, OSError)


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
        from .euler import euler_from_pose
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


def model_to_dict(models: dict[str, ClassModel]) -> dict:
    return {
        "classes": {
            label: {"weights": list(map(list, model.weights)), "rmse_px": model.rmse_px}
            for label, model in models.items()
        }
    }


def model_from_dict(obj: dict) -> dict[str, ClassModel]:
    """Inverse of model_to_dict. Raises ValueError when a class's weights
    are not rows of 5 numbers or its rmse_px is not a number, when ClassModel
    rejects them, and then when a class is not one of KNOWN_CLASSES."""
    classes = {
        label: ClassModel(
            weights=[json_numbers(row, 5, "weights") for row in entry["weights"]],
            rmse_px=json_number(entry["rmse_px"], "rmse_px"),
        )
        for label, entry in obj["classes"].items()
    }
    unknown = set(classes) - set(KNOWN_CLASSES)
    if unknown:
        raise ValueError(f"unsupported classes: {sorted(unknown)}")
    return classes


def load_model(path: Path) -> dict[str, ClassModel]:
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
    one; blank lines are skipped. Each line is checked in this order: the
    class is a string, the bbox an array of 4 numbers that BoundingBox
    accepts, the ground pixel an array of 2 finite numbers, and the class one
    of KNOWN_CLASSES. A line that fails, or is not JSON, raises ValueError
    naming the file, the line number and the first failed check."""
    samples = []
    for number, line in enumerate(read_lines(path), start=1):
        text = line.strip()
        if not text:
            continue
        with _malformed(f"{path} line {number}"):
            obj = json.loads(text)
            label = json_string(obj["class"], "class")
            bbox = BoundingBox(*json_numbers(obj["bbox"], 4, "bbox"))
            ground_pixel = PixelPoint(
                *json_numbers(obj["ground_pixel"], 2, "ground_pixel")
            )
            if label not in KNOWN_CLASSES:
                raise ValueError(f"class {label!r} is not one of {KNOWN_CLASSES}")
            samples.append(RegressionSample(label, bbox, ground_pixel))
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
