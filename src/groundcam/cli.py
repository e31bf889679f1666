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
from pathlib import Path

# Only what localize runs is imported here; every other command imports its
# own modules, so a process loads what its command uses.
from . import files
from .pipeline import FrameConvention, LocalizedObject, ingest_detections, localize_batch

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
    from .intrinsics import calibrate_intrinsics, load_planar_views

    views = load_planar_views(args.views)
    _note(f"loaded {len(views)} views from {args.views}")
    try:
        solution = calibrate_intrinsics(
            views, fix_skew=not args.allow_skew, fix_k3=not args.fit_k3
        )
    except ValueError as exc:
        raise ValueError(f"{args.views}: {exc}") from None
    _note(f"reprojection rmse: {solution.rmse_px:.6f} px")
    doc = files.calibration_to_dict(solution.intrinsics, rmse_px=solution.rmse_px)
    _publish(files.dumps(doc), args.out)
    return 0


def _cmd_calibrate_extrinsics(args: argparse.Namespace) -> int:
    from .extrinsics import load_landmarks, solve_pnp

    correspondences = load_landmarks(args.landmarks)
    k, _ = files.load_calibration(args.intrinsics)
    _note(f"{len(correspondences)} correspondences from {args.landmarks}")
    # The solve depends on both files, so its failure names both.
    try:
        pose, report = solve_pnp(correspondences, k)
    except ValueError as exc:
        raise ValueError(f"{args.landmarks}, {args.intrinsics}: {exc}") from None
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
    from .fitting import fit

    samples = files.load_samples(args.samples)
    _note(f"loaded {len(samples)} samples from {args.samples}")
    try:
        models = fit(samples)
    except ValueError as exc:
        raise ValueError(f"{args.samples}: {exc}") from None
    for label in sorted(models):
        _note(f"  {label}: rmse {models[label].rmse_px:.6f} px")
    _publish(files.dumps(files.model_to_dict(models)), args.out)
    return 0


def _cmd_localize(args: argparse.Namespace) -> int:
    from .parallel import split

    min_score = _finite("--min-score", args.min_score)
    k, pose = files.load_calibration(args.calibration)
    if pose is None:
        raise ValueError(
            f"{args.calibration} has no pose; run calibrate-extrinsics first"
        )
    models = files.load_model(args.model)
    convention = FrameConvention(args.frame)
    lines = files.read_lines(args.detections)

    def work(part: list[str], first: int) -> tuple[tuple[str, ...], str, int, int]:
        ingest = ingest_detections(part, min_score=min_score, first=first)
        results = localize_batch(list(ingest.detections), models, k, pose, convention)
        text = "".join([files.localization_line(r) + "\n" for r in results])
        ok = sum(isinstance(r, LocalizedObject) for r in results)
        return ingest.diagnostics, text, ok, len(results)

    diagnostics, texts, oks, counts = zip(*split(work, lines))
    for part in diagnostics:
        for diagnostic in part:
            _note(f"{args.detections}: {diagnostic}")
    _publish("".join(texts), args.out)
    _note(f"localized {sum(oks)} of {sum(counts)} detections")
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
    if boundaries[0] <= 0 or any(b <= a for a, b in zip(boundaries, boundaries[1:])):
        raise ValueError(
            f"--buckets: boundaries must be positive and strictly increasing: {boundaries}"
        )
    return boundaries


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .evaluation import (
        PAIRS_HEADER,
        EvalPair,
        build_report,
        compare_sources,
        first_nonfinite,
        parse_pairs,
        read_table,
        render_report_text,
        save_report,
        save_scatter_csv,
        scatter_rows,
    )
    from .parallel import split

    boundaries = _parse_buckets(args.buckets)
    lines, start = read_table(args.pairs, PAIRS_HEADER)

    def work(part: list[str], first: int) -> tuple[list[tuple], tuple[str, str]]:
        parsed = parse_pairs(args.pairs, part, first)
        ours = [r for r in parsed if r[6] == "ours"] if args.out else []
        return parsed, scatter_rows(ours)

    # A quoted field may span a line end, so a table holding a quote is not cut.
    if any('"' in line for line in lines):
        parts = [work(lines, start)]
    else:
        parts = split(work, lines, start)
    rows, scatter = zip(*parts)
    pairs = [EvalPair._make(row) for part in rows for row in part]
    if not pairs:
        raise ValueError(f"{args.pairs} contains no pairs")
    by_source: dict[str, list[EvalPair]] = {}
    for p in pairs:
        by_source.setdefault(p.source, []).append(p)
    if "ours" not in by_source:
        raise ValueError(f"{args.pairs} has no rows with source ours to score")
    main = by_source["ours"]
    report = build_report(main, boundaries)
    if "reference" in by_source:
        try:
            report["comparison"] = compare_sources(main, by_source["reference"])
        except ValueError as exc:
            raise ValueError(f"{args.pairs}: {exc}") from None
    overflow = first_nonfinite(report)
    if overflow is not None:
        raise ValueError(f"{args.pairs}: {overflow} overflows float range")
    _note(render_report_text(report))
    text = files.dumps(report)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(text)
        save_report(out_dir / "report.csv", report)
        save_scatter_csv(out_dir / "scatter.csv", scatter)
        _note(f"wrote report.json, report.csv, scatter.csv under {out_dir}")
    sys.stdout.write(text)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from .scene import SceneConfig, config_from_dict, generate_scene

    if args.config:
        config = files._load_json(args.config, config_from_dict)
    else:
        config = SceneConfig()
    out_dir = Path(args.out)
    try:
        scene = generate_scene(config, args.seed, out_dir)
    except ValueError as exc:
        if args.config:
            raise ValueError(f"{args.config}: {exc}") from None
        raise
    _note(
        f"scene: {len(scene.views)} views, {len(scene.marks)} marks, "
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
    except files.INVALID_INPUT as exc:
        _note(f"error: {exc}")
        return 2
    except Exception:
        import traceback

        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
