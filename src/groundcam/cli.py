"""Command-line front end.

One binary, subcommand style. Each command builds its result document once:
machine-readable results (JSON, JSONL) go to stdout, and with --out the same
bytes to a file; progress and warnings go to stderr. Exit codes: 0 on
success, 2 for invalid or degenerate input, 1 for unexpected internal
failures.
"""

from __future__ import annotations

import argparse
import math
import sys
import traceback
from pathlib import Path

from . import files
from .evaluation import EvalPair, build_report, compare_sources
from .extrinsics import solve_pnp
from .intrinsics import calibrate_intrinsics
from .pipeline import FrameConvention, LocalizedObject, ingest_detections, localize_batch
from .regression import fit
from .scene import SceneConfig, config_from_dict, generate_scene

DEFAULT_BUCKETS = "1000,2000,3000"
DEFAULT_MIN_SCORE = 0.5


def _note(text: str) -> None:
    sys.stderr.write(text if text.endswith("\n") else text + "\n")


def _publish(text: str, out: str | None) -> None:
    """Write a command's result to stdout and, with --out, the same text to
    out; out is written first, so a failed write leaves stdout empty."""
    if out:
        Path(out).write_text(text)
        _note(f"wrote {out}")
    sys.stdout.write(text)


def _finite(flag: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{flag} must be a finite number, got {value}")
    return value


def _cmd_calibrate_intrinsics(args: argparse.Namespace) -> int:
    views = files.load_planar_views(args.views)
    _note(f"loaded {len(views)} views from {args.views}")
    solution = calibrate_intrinsics(
        views, fix_skew=not args.allow_skew, fix_k3=not args.fit_k3
    )
    _note(f"reprojection rmse: {solution.rmse_px:.6f} px")
    doc = files.calibration_to_dict(solution.intrinsics, rmse_px=solution.rmse_px)
    _publish(files.dumps(doc), args.out)
    return 0


def _cmd_calibrate_extrinsics(args: argparse.Namespace) -> int:
    correspondences = files.load_landmarks(args.landmarks)
    k, _ = files.load_calibration(args.intrinsics)
    _note(f"{len(correspondences)} correspondences from {args.landmarks}")
    pose, report = solve_pnp(correspondences, k)
    for name, norm in zip(report.names, report.norms):
        shown = name or "(unnamed)"
        _note(f"  {shown}: residual {norm:.6f} px")
    for index in report.flagged:
        shown = report.names[index] or f"point {index}"
        _note(f"warning: {shown} looks mismarked (residual {report.norms[index]:.6f} px)")
    _note(f"reprojection rmse: {report.rmse_px:.6f} px")
    doc = files.calibration_to_dict(k, pose, rmse_px=report.rmse_px)
    _publish(files.dumps(doc), args.out)
    return 0


def _cmd_fit_regressor(args: argparse.Namespace) -> int:
    samples = files.load_samples(args.samples)
    _note(f"loaded {len(samples)} samples from {args.samples}")
    regressor = fit(samples)
    for label in regressor.covered():
        _note(f"  {label}: rmse {regressor.classes[label].rmse_px:.6f} px")
    _publish(files.dumps(files.model_to_dict(regressor)), args.out)
    return 0


def _cmd_localize(args: argparse.Namespace) -> int:
    min_score = _finite("--min-score", args.min_score)
    k, pose = files.load_calibration(args.calibration)
    if pose is None:
        raise ValueError(
            f"{args.calibration} has no pose; run calibrate-extrinsics first"
        )
    regressor = files.load_model(args.model)
    with open(args.detections) as f, files._malformed(args.detections):
        ingest = ingest_detections(f, min_score=min_score)
    for diagnostic in ingest.diagnostics:
        _note(f"{args.detections}: {diagnostic}")
    convention = FrameConvention(args.frame)
    results = localize_batch(list(ingest.detections), regressor, k, pose, convention)
    _publish("".join([files.localization_line(r) + "\n" for r in results]), args.out)
    ok = sum(isinstance(r, LocalizedObject) for r in results)
    _note(f"localized {ok} of {len(results)} detections")
    return 0


def _parse_buckets(text: str) -> list[float]:
    if not text.strip():
        return []
    boundaries = []
    for part in text.split(","):
        try:
            value = float(part)
        except ValueError:
            raise ValueError(f"--buckets must be numbers, got {part!r}") from None
        boundaries.append(_finite("--buckets", value))
    return boundaries


def _cmd_evaluate(args: argparse.Namespace) -> int:
    pairs = files.load_pairs_csv(args.pairs)
    if not pairs:
        raise ValueError(f"{args.pairs} contains no pairs")
    boundaries = _parse_buckets(args.buckets)
    by_source: dict[str, list[EvalPair]] = {}
    for p in pairs:
        by_source.setdefault(p.source, []).append(p)
    main = by_source.get("ours") or pairs
    report = build_report(main, boundaries)
    if "ours" in by_source and "reference" in by_source:
        report["comparison"] = compare_sources(
            by_source["ours"], by_source["reference"]
        )
    _note(files.render_report_text(report))
    text = files.dumps(report)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(text)
        files.save_report(out_dir / "report.csv", report)
        files.save_scatter_csv(out_dir / "scatter.csv", main)
        _note(f"wrote report.json, report.csv, scatter.csv under {out_dir}")
    sys.stdout.write(text)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.config:
        config = files._load_json(args.config, config_from_dict)
    else:
        config = SceneConfig()
    out_dir = Path(args.out)
    scene = generate_scene(config, args.seed, out_dir)
    _note(
        f"scene: {len(scene.views)} views, {len(scene.landmark_pixels)} landmarks, "
        f"{len(scene.detections)} detections"
    )
    doc = {
        "out_dir": str(out_dir),
        "seed": args.seed,
        "files": {name: str(path) for name, path in sorted(scene.paths.items())},
    }
    sys.stdout.write(files.dumps(doc))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groundcam",
        description=(
            "Monocular ground-plane localization: calibrate a fixed camera, "
            "map detection boxes to field positions, and score the results."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "calibrate-intrinsics", help="solve intrinsics from planar target views"
    )
    p.add_argument("views", help="planar views JSON file")
    p.add_argument("--allow-skew", action="store_true", help="fit the skew term")
    p.add_argument(
        "--fit-k3", action="store_true", help="fit the sixth-order radial term"
    )
    p.add_argument("--out", help="write the calibration JSON here as well")
    p.set_defaults(handler=_cmd_calibrate_intrinsics)

    p = sub.add_parser(
        "calibrate-extrinsics", help="solve the camera pose from marked landmarks"
    )
    p.add_argument("landmarks", help="landmark JSON file")
    p.add_argument("intrinsics", help="calibration JSON file with intrinsics")
    p.add_argument("--out", help="write the full calibration JSON here as well")
    p.set_defaults(handler=_cmd_calibrate_extrinsics)

    p = sub.add_parser(
        "fit-regressor", help="fit per-class box-to-ground-pixel models"
    )
    p.add_argument("samples", help="training samples JSONL file")
    p.add_argument("--out", help="write the model JSON here as well")
    p.set_defaults(handler=_cmd_fit_regressor)

    p = sub.add_parser("localize", help="turn detections into field positions")
    p.add_argument("detections", help="detections JSONL file")
    p.add_argument("calibration", help="full calibration JSON file")
    p.add_argument("model", help="regressor model JSON file")
    p.add_argument(
        "--frame",
        choices=[c.value for c in FrameConvention],
        default=FrameConvention.FIELD.value,
        help="output frame (default field)",
    )
    p.add_argument(
        "--min-score",
        type=float,
        default=DEFAULT_MIN_SCORE,
        help=f"detection score threshold (default {DEFAULT_MIN_SCORE})",
    )
    p.add_argument("--out", help="write the localizations JSONL here as well")
    p.set_defaults(handler=_cmd_localize)

    p = sub.add_parser("evaluate", help="score estimate pairs against ground truth")
    p.add_argument("pairs", help="pairs CSV file")
    p.add_argument(
        "--buckets",
        default=DEFAULT_BUCKETS,
        help=f"distance band boundaries in mm (default {DEFAULT_BUCKETS})",
    )
    p.add_argument("--out", help="directory for report.json, report.csv, scatter.csv")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic validation scene")
    p.add_argument("config", nargs="?", help="scene configuration JSON (optional)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--out", default="scene", help="scene directory (default ./scene)")
    p.set_defaults(handler=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError) as exc:
        _note(f"error: {exc}")
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
