"""groundcam benchmark: three workloads timed from outside the program.

    python3 perfbench/run.py --workload bulk-log --seed 1 --seconds 34 --trace 0

Workloads (each a closed loop with one client: every program call starts
after the previous one returns):

  bulk-log      groundcam localize on a ~20k-line detections log, then
                groundcam evaluate on the rows joined with the truth.
  calibrate     calibrate-intrinsics, calibrate-extrinsics, fit-regressor.
  frame-stream  one process loads once, then feeds 5000 frames of 4
                detections through ingest, localize_batch and serialization.

With --trace 0 the runs are untraced and the result carries the end-to-end
metrics, whose times are in reference seconds: each measured process samples
its core's speed and its time is scaled to a fixed speed (see speed.py),
because the shared machine's speed switches by about 1.8x. With --trace 1
every other pass runs under timing wrappers (see tracing.py) and the result
carries the per-layer metrics and the tracing overhead. Inputs come from
--seed alone and are generated before any timer starts. Every output is
checked; a failed check counts the operation as failed. The last line of
stdout is one JSON object; the lines before it repeat every metric by name
and unit, plus an environment block. Without --workload all three workloads
run in turn.

Needs the repository's src/ beside this directory and exits 2 without it.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
CHILD = str(HERE / "child.py")
CHILD_TIMEOUT_S = 120.0
MIN_PASSES = 3
# No pass starts later than this many seconds past the measuring time.
GIVE_UP_AFTER_S = 60.0
BLAS_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# Checks on the calibrate workload. Over seeds 0-19 the focal lengths came
# back within 0.7 %, the camera center within 2.4 mm and every class fit under
# 0.7 px; the RMSE band is the one acceptance criterion 5 uses for 0.5 px noise.
FOCAL_REL_TOL = 0.02
CALIB_RMSE_BAND_PX = (0.3, 0.7)
CENTER_TOL_MM = 10.0
FIT_RMSE_MAX_PX = 1.0
RMSE_REL_TOL = 1e-9
# Program positions against the oracle's own regress, undistort and plane hit
# on the same boxes: the two differ only by rounding, far below this.
ORACLE_TOL_MM = 1e-3


@dataclass
class Proc:
    wall_s: float      # raw wall time of the process
    ref_s: float       # the same in reference seconds (speed.py)
    rss_mb: float
    code: int
    stderr: str


def run_proc(argv: list[str], cwd: Path, tag: str, speed_file: Path | None = None) -> Proc:
    """Run one child to completion; RSS comes from this child's own rusage.

    With `speed_file`, the child writes its speed samples there; the process's
    wall time less its probes, scaled to reference seconds, is `ref_s`.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out_path, err_path = cwd / f"{tag}.stdout", cwd / f"{tag}.stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    ref = wall   # no samples: the child failed, and this only keeps the result a number
    if speed_file is not None and speed_file.is_file():
        scale, busy = speed.load(speed_file)
        speed_file.unlink()
        ref = (wall - busy) * scale
    return Proc(wall, ref, usage.ru_maxrss / 1024.0, child.returncode, err_path.read_text())


def last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1][:300] if lines else ""


@dataclass
class Pass:
    """One run of a workload's chain of program calls."""

    procs: dict[str, Proc] = field(default_factory=dict)
    spans: list[Path] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    latencies: np.ndarray | None = None       # frame-stream, reference seconds
    raw_latencies: np.ndarray | None = None
    layers: dict[str, float] | None = None   # traced passes: per-layer metrics

    @property
    def wall_s(self) -> float:
        return sum(p.ref_s for p in self.procs.values())

    @property
    def raw_wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs.values())

    @property
    def peak_rss_mb(self) -> float:
        return max(p.rss_mb for p in self.procs.values())

    def fail(self, message: str, operations: int = 1) -> None:
        self.failed += operations
        self.problems.append(message)


class Workload:
    name = ""
    step = ""          # the program call whose time is step_s
    input_lines = 0    # detection lines the pass feeds to ingest

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.rng = np.random.default_rng(seed)
        self.reference: dict[str, bytes] = {}
        self.facts: dict[str, float] = {}
        self.problems: list[str] = []   # found while preparing the inputs

    def cli(self, p: Pass, tag: str, argv: list[str], traced: bool) -> Proc:
        spans, samples = self.work / f"{tag}.spans.npz", self.work / f"{tag}.speed.json"
        cmd = [sys.executable, CHILD, "cli", "--speed", str(samples)]
        if traced:
            cmd += ["--spans", str(spans)]
        proc = run_proc(cmd + ["--", *argv], self.work, tag, samples)
        p.procs[tag] = proc
        p.attempted += 1
        if proc.code != 0:
            p.fail(f"{tag} exited {proc.code}: {last_line(proc.stderr)}")
        elif traced:
            p.spans.append(spans)
        return proc

    def check(self, p: Pass, tag: str, check, *args) -> None:
        """Run a check on a first output; output the check cannot read fails it."""
        try:
            check(p, *args)
        except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
            p.fail(f"{tag}: output the check cannot read: {exc!r}")

    def same_as_reference(self, p: Pass, tag: str, path: Path) -> None:
        """Byte-compare an output with the first, checked output stored under `tag`."""
        data = path.read_bytes() if path.exists() else b""
        if tag not in self.reference:
            self.reference[tag] = data
        elif data != self.reference[tag]:
            p.fail(f"{tag}: {path.name} differs from the checked first output")

    def setup_args(self) -> list[str]:
        return ["--calibration", "calibration.json", "--model", "model.json"]

    def prepare(self) -> None:
        raise NotImplementedError

    def run_pass(self, traced: bool) -> Pass:
        raise NotImplementedError

    def pass_step(self, p: Pass) -> float:
        return p.procs[self.step].ref_s

    def step_value(self, passes: list[Pass]) -> tuple[float, int]:
        return statistics.median(self.pass_step(p) for p in passes), len(passes)

    def raw_step_value(self, passes: list[Pass]) -> float:
        return statistics.median(p.procs[self.step].wall_s for p in passes)


class BulkLog(Workload):
    """Offline replay of one recorded match through localize and evaluate."""

    name = "bulk-log"
    step = "localize"

    def prepare(self) -> None:
        self.log = inputs.write_localize_inputs(
            self.rng, self.work, n_frames=5000, per_frame=4,
            low_score_share=0.03, horizon_share=0.03, malformed=True,
        )
        self.input_lines = len(self.log.lines)

    def run_pass(self, traced: bool) -> Pass:
        p = Pass()
        loc = self.work / "localizations.jsonl"
        proc = self.cli(p, "localize", [
            "localize", "detections.jsonl", "calibration.json", "model.json",
            "--frame", "field", "--min-score", str(inputs.MIN_SCORE), "--out", loc.name,
        ], traced)
        if proc.code == 0:
            if "localize" not in self.reference:
                self.check(p, "localize", self._check_rows, loc)
            self.same_as_reference(p, "localize", loc)
        proc = self.cli(p, "evaluate", ["evaluate", "pairs.csv", "--out", "report"], traced)
        report = self.work / "report" / "report.json"
        if proc.code == 0:
            if "evaluate" not in self.reference:
                self.check(p, "evaluate", self._check_report, report)
            self.same_as_reference(p, "evaluate", report)
        return p

    def _check_report(self, p: Pass, report: Path) -> None:
        rmse = json.loads(report.read_text())["rmse_mm"]
        self.facts["loc_rmse_mm"] = rmse
        oracle = self.facts.get("oracle_rmse_mm", math.nan)
        if not abs(rmse - oracle) <= RMSE_REL_TOL * oracle:
            p.fail(f"evaluate: rmse {rmse} mm, recomputed from the rows {oracle} mm")

    def _check_rows(self, p: Pass, loc: Path) -> None:
        """Check the rows against the generator's truth and write pairs.csv."""
        rows = [json.loads(line) for line in loc.read_text().splitlines()]
        log = self.log
        if len(rows) != log.kept:
            p.fail(f"localize wrote {len(rows)} rows for {log.kept} kept detections")
            return
        status = np.array([r["status"] for r in rows])
        ok = status == "ok"
        if np.any(log.expect_ok & ~ok):
            p.fail(f"localize: {int(np.sum(log.expect_ok & ~ok))} on-ground rows not ok")
        horizon = status[~log.expect_ok]
        if np.any(horizon != "unlocalizable:point-not-on-ground"):
            p.fail("localize: above-horizon rows not reported as point-not-on-ground")
        self.facts["localized_ratio"] = float(ok.mean())
        use = ok & log.expect_ok
        est = np.array([[r["x_mm"], r["y_mm"], r["theta_deg"]] for r, u in zip(rows, use) if u])
        miss = float(np.max(np.abs(est[:, :2] - log.oracle_xy[use])))
        if miss > ORACLE_TOL_MM:
            p.fail(f"localize: positions up to {miss:.3g} mm from the independent oracle")
        gt = log.truth_xy[use]
        gt_theta = np.degrees(np.arctan2(gt[:, 0], gt[:, 1]))
        self.facts["oracle_rmse_mm"] = math.sqrt(
            float(np.mean(np.sum((est[:, :2] - gt) ** 2, axis=1)))
        )
        with open(self.work / "pairs.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["gt_x", "gt_y", "gt_theta", "est_x", "est_y", "est_theta", "source"])
            for (x, y), t, e in zip(gt, gt_theta, est):
                writer.writerow([repr(float(x)), repr(float(y)), repr(float(t)),
                                 repr(float(e[0])), repr(float(e[1])), repr(float(e[2])), "ours"])


class Calibrate(Workload):
    """Site set-up: intrinsics from board views, pose from ground marks, regressor."""

    name = "calibrate"
    step = "calibrate-intrinsics"
    DRAWS = 8   # noise draws of the board views, used in turn

    def prepare(self) -> None:
        inputs.write_calibrate_inputs(self.rng, self.work, self.DRAWS)
        self.passes = 0
        self.calib_rmse_px: list[float] = []

    def setup_args(self) -> list[str]:
        return []

    def run_pass(self, traced: bool) -> Pass:
        """Checks each draw's outputs in full the first time it runs.

        A traced pass repeats the draw of the untraced pass before it, so the
        tracing overhead compares like with like.
        """
        p = Pass()
        if not traced:
            self.passes += 1
        draw = (self.passes - 1) % self.DRAWS
        steps = (
            ("calibrate-intrinsics", [f"views-{draw}.json"], "intrinsics.json"),
            ("calibrate-extrinsics", ["landmarks.json", "intrinsics.json"], "calibration.json"),
            ("fit-regressor", ["regression.jsonl"], "model.json"),
        )
        for tag, args, out in steps:
            path = self.work / out
            if path.exists():
                path.unlink()
            proc = self.cli(p, tag, [tag, *args, "--out", out], traced)
            if proc.code == 0:
                key = f"{tag} (draw {draw})"
                if key not in self.reference:
                    self.check(p, tag, self._check, tag, path)
                self.same_as_reference(p, key, path)
        return p

    def _check(self, p: Pass, tag: str, path: Path) -> None:
        doc = json.loads(path.read_text())
        if tag == "calibrate-intrinsics":
            k = doc["intrinsics"]
            for key, truth in (("alpha_x", inputs.ALPHA_X), ("alpha_y", inputs.ALPHA_Y)):
                if abs(k[key] / truth - 1.0) > FOCAL_REL_TOL:
                    p.fail(f"{tag}: {key} {k[key]:.3f} vs {truth} beyond {FOCAL_REL_TOL:.0%}")
            rmse = doc["rmse_px"]
            self.calib_rmse_px.append(rmse)
            self.facts["calib_rmse_px"] = statistics.median(self.calib_rmse_px)
            lo, hi = CALIB_RMSE_BAND_PX
            if not lo <= rmse <= hi:
                p.fail(f"{tag}: rmse {rmse:.4f} px outside [{lo}, {hi}]")
        elif tag == "calibrate-extrinsics":
            miss = float(np.linalg.norm(np.array(doc["camera_center_mm"]) - inputs.CENTER_MM))
            self.facts["center_error_mm"] = max(miss, self.facts.get("center_error_mm", 0.0))
            if miss > CENTER_TOL_MM:
                p.fail(f"{tag}: camera center {miss:.2f} mm from the truth")
        else:
            classes = doc["classes"]
            if sorted(classes) != sorted(inputs.LABELS) or any(
                c["rmse_px"] > FIT_RMSE_MAX_PX for c in classes.values()
            ):
                p.fail(f"{tag}: expected {inputs.LABELS} each under {FIT_RMSE_MAX_PX} px")


class FrameStream(Workload):
    """Online use: one process, frames of 4 detections localized as they come."""

    name = "frame-stream"
    step = "frame"
    PER_FRAME = 4

    def prepare(self) -> None:
        self.log = inputs.write_localize_inputs(
            self.rng, self.work, n_frames=5000, per_frame=self.PER_FRAME,
            low_score_share=0.0, horizon_share=0.02, malformed=False,
        )
        self.input_lines = len(self.log.lines)
        # The reference: one localize_batch over every detection, via the CLI,
        # checked against the truth in the camera frame.
        self.ref_frames = None
        p = Pass()
        ref = self.work / "batch.jsonl"
        self.cli(p, "batch", [
            "localize", "detections.jsonl", "calibration.json", "model.json",
            "--frame", "camera", "--out", ref.name,
        ], traced=False)
        if p.failed == 0:
            self.check(p, "batch", self._check_reference, ref)
        self.problems += [f"batch reference: {m}" for m in p.problems]

    def _check_reference(self, p: Pass, ref: Path) -> None:
        rows = ref.read_text().splitlines()
        if len(rows) != self.log.kept:
            p.fail(f"batch localize wrote {len(rows)} rows for {self.log.kept} detections")
            return
        docs = [json.loads(r) for r in rows]
        ok = np.array([d["status"] == "ok" for d in docs])
        if not np.array_equal(ok, self.log.expect_ok):
            p.fail("batch localize: statuses differ from the generator's expectation")
            return
        est = np.array([[d["x_mm"], d["y_mm"]] for d, good in zip(docs, ok) if good])
        miss = float(np.max(np.abs(est - inputs.camera_frame(self.log.oracle_xy[ok]))))
        if miss > ORACLE_TOL_MM:
            p.fail(f"batch localize: camera-frame positions up to {miss:.3g} mm from the oracle")
            return
        n = self.PER_FRAME
        self.ref_frames = [rows[i:i + n] for i in range(0, len(rows), n)]
        self.facts["localized_ratio"] = float(ok.mean())

    def run_pass(self, traced: bool) -> Pass:
        p = Pass()
        out, lat = self.work / "stream.jsonl", self.work / "latencies.npy"
        spans, samples = self.work / "stream.spans.npz", self.work / "stream.speed.json"
        cmd = [sys.executable, CHILD, "stream", "--calibration", "calibration.json",
               "--model", "model.json", "--detections", "detections.jsonl",
               "--per-frame", str(self.PER_FRAME), "--out", out.name, "--latencies", lat.name,
               "--speed", samples.name]
        if traced:
            cmd += ["--spans", str(spans)]
        proc = run_proc(cmd, self.work, "stream", samples)
        p.procs["stream"] = proc
        frames = self.log.kept // self.PER_FRAME
        p.attempted += frames
        if proc.code != 0:
            p.fail(f"stream exited {proc.code}: {last_line(proc.stderr)}", frames)
            return p
        if traced:
            p.spans.append(spans)
        p.raw_latencies, p.latencies = np.load(lat)
        if self.ref_frames is None:
            p.fail("stream: no checked batch reference to compare with", frames)
            return p
        rows = out.read_text().splitlines()
        n = self.PER_FRAME
        got = [rows[i:i + n] for i in range(0, len(rows), n)]
        if len(rows) != self.log.kept:
            p.fail(f"stream wrote {len(rows)} rows for {self.log.kept} detections", frames)
        else:
            bad = sum(a != b for a, b in zip(got, self.ref_frames))
            if bad:
                p.fail(f"stream: {bad} frames differ from one batch localize", bad)
        return p

    def pass_step(self, p: Pass) -> float:
        return float(np.median(p.latencies)) if p.latencies is not None else 0.0

    def step_value(self, passes: list[Pass]) -> tuple[float, int]:
        lat = frame_latencies(passes)
        return (float(np.median(lat)) if len(lat) else 0.0), len(lat)

    def raw_step_value(self, passes: list[Pass]) -> float:
        lat = frame_latencies(passes, raw=True)
        return float(np.median(lat)) if len(lat) else math.nan


def frame_latencies(passes: list[Pass], raw: bool = False) -> np.ndarray:
    return np.concatenate([np.empty(0)] + [p.raw_latencies if raw else p.latencies
                                           for p in passes if p.latencies is not None])


WORKLOADS = {w.name: w for w in (BulkLog, Calibrate, FrameStream)}


def layer_metrics(bench: Workload, p: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass; an uncalled layer reads 0."""
    spans, counters = tracing.aggregate(p.spans)

    def calls(name):
        return spans.get(name, [0, 0, 0])[0]

    def total(name):
        return spans.get(name, [0, 0, 0])[1]

    def own(name):
        return spans.get(name, [0, 0, 0])[2]

    def per_call_us(name):
        return 1e6 * total(name) / calls(name) if calls(name) else 0.0

    lines = bench.input_lines
    m = {
        "cli.import_s": total("cli.import"),
        "cli.main.self_s": own("cli.main"),
        "files.load_calibration.s": total("files.load_calibration"),
        "files.load_model.s": total("files.load_model"),
        "pipeline.ingest_detections.us_per_line":
            1e6 * total("pipeline.ingest_detections") / lines if lines else 0.0,
        "pipeline.ingest_detections.kept_ratio":
            counters["pipeline.ingest_detections.kept"] / lines if lines else 0.0,
        "pipeline.localize_batch.self_s": own("pipeline.localize_batch"),
        "files.load_pairs_csv.s": total("files.load_pairs_csv"),
        "evaluation.build_report.s": total("evaluation.build_report"),
        "files.load_planar_views.s": total("files.load_planar_views"),
        "intrinsics.estimate_homography.s": total("intrinsics.estimate_homography"),
        "intrinsics.zhang_closed_form.s": total("intrinsics.zhang_closed_form"),
        "intrinsics.extrinsics_from_homography.s": total("intrinsics.extrinsics_from_homography"),
        "intrinsics.refine_calibration.s": total("intrinsics.refine_calibration"),
        "intrinsics.calibrate_intrinsics.s": total("intrinsics.calibrate_intrinsics"),
        "geometry.project_points.calls": calls("geometry.project_points"),
        "geometry.project_points.s": total("geometry.project_points"),
        "extrinsics.solve_pnp.s": total("extrinsics.solve_pnp"),
        "extrinsics.reprojection_report.s": total("extrinsics.reprojection_report"),
        "regression.fit.s": total("regression.fit"),
    }
    for name in ("regression.predict", "geometry.undistort", "geometry.back_project_to_plane",
                 "pipeline.frame_convert", "files.localization_line"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.us_per_det"] = per_call_us(name)
    for slug in ("unknown-class", "undistort-nonconvergence", "ray-parallel-to-plane",
                 "point-not-on-ground", "undefined-bearing"):
        m[f"pipeline.unlocalizable.{slug}"] = counters[f"pipeline.unlocalizable.{slug}"]
    for caller in tracing.LM_CALLERS:
        lm = f"optim.lm.{caller}"
        m[f"{lm}.iterations"] = counters[f"{lm}.iterations"]
        for reason in ("gradient", "step", "cost", "max_iterations"):
            m[f"{lm}.reason.{reason}"] = counters[f"{lm}.reason.{reason}"]
        for part in ("residual", "jacobian"):
            m[f"{lm}.{part}.calls"] = calls(f"{lm}.{part}")
            m[f"{lm}.{part}.s"] = total(f"{lm}.{part}")
        m[f"{lm}.self_s"] = own(lm)
        trials = calls(f"{lm}.residual") - calls(lm)  # minus one start evaluation per solve
        m[f"{lm}.accept_ratio"] = counters[f"{lm}.iterations"] / trials if trials > 0 else 0.0
    return m


def environment(seed: int) -> dict[str, str]:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target, packed = ROOT / ".git" / ref[5:], ROOT / ".git" / "packed-refs"
            if target.is_file():
                commit = target.read_text().strip()
            elif packed.is_file():
                commit = next((line.split()[0] for line in packed.read_text().splitlines()
                               if line.endswith(" " + ref[5:])), ref)
    env = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": str(len(os.sched_getaffinity(0))),
    }
    env.update({v: os.environ.get(v, "unset") for v in BLAS_VARS})
    env.update({"seed": str(seed), "commit": commit})
    return env


def measure(bench: Workload, seconds: float, trace: bool, give_up_at: float):
    """Run the workload; return (metrics, counts, text lines, problems).

    Passes repeat while the next one, at the median length so far, still
    ends within `seconds`, and at least MIN_PASSES times; no pass starts after
    `give_up_at`, so a broken program still ends the run.
    """
    bench.prepare()
    warm = bench.run_pass(traced=False)   # untimed; first outputs are checked in full
    problems = bench.problems + [f"warm-up: {m}" for m in warm.problems]
    timed: list[Pass] = []
    traced: list[Pass] = []
    setup: list[float] = []       # reference seconds
    raw_setup: list[float] = []
    start = time.perf_counter()
    lengths: list[float] = []
    while not timed or (
        (len(timed) < MIN_PASSES
         or time.perf_counter() - start + statistics.median(lengths) <= seconds)
        and time.perf_counter() < give_up_at
    ):
        began = time.perf_counter()
        timed.append(bench.run_pass(traced=False))
        if trace:
            p = bench.run_pass(traced=True)
            if not p.problems:   # span files are reused by the next pass
                p.layers = layer_metrics(bench, p)
            traced.append(p)
        else:
            probe = run_proc([sys.executable, CHILD, "setup", *bench.setup_args()],
                             bench.work, "setup")
            if probe.code != 0:
                problems.append(f"set-up probe exited {probe.code}: {last_line(probe.stderr)}")
            else:
                doc = json.loads((bench.work / "setup.stdout").read_text())
                setup.append(doc["ref_s"])
                raw_setup.append(doc["raw_s"])
        lengths.append(time.perf_counter() - began)
    for p in timed + traced:
        problems += p.problems
    counts = {
        "attempted": sum(p.attempted for p in [warm] + timed + traced),
        "failed": sum(p.failed for p in [warm] + timed + traced),
    }
    wall = statistics.median(p.wall_s for p in timed)
    lines = [f"workload {bench.name}: {len(timed)} timed passes"
             + (f", {len(traced)} traced passes" if trace else "")
             + f" in {time.perf_counter() - start:.1f} s"]
    if trace:
        per_pass = [p.layers for p in traced if p.layers is not None]
        metrics = {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]} \
            if per_pass else {}
        traced_wall = statistics.median(p.wall_s for p in traced)
        metrics["trace.overhead_s"] = traced_wall - wall
        lines.append(f"tracing overhead {traced_wall - wall:.4f} s: traced wall_s "
                     f"{traced_wall:.4f} s ({len(traced)} passes) against untraced "
                     f"{wall:.4f} s ({len(timed)} passes)")
        if bench.name == "calibrate" and per_pass:
            process_s = statistics.median(
                p.procs[bench.step].wall_s for p in traced if p.layers is not None
            )
            jacobian_s = metrics["optim.lm.intrinsics.jacobian.s"]
            solve_s = metrics["intrinsics.calibrate_intrinsics.s"]
            lines.append(f"optim.lm.intrinsics.jacobian.s {jacobian_s:.4f} s: "
                         f"{jacobian_s / process_s:.1%} of the traced calibrate-intrinsics "
                         f"process ({process_s:.4f} s), {jacobian_s / max(solve_s, 1e-12):.1%} "
                         f"of its calibrate_intrinsics call ({solve_s:.4f} s)")
    else:
        step, step_n = bench.step_value(timed)
        metrics = {
            "setup_s": statistics.median(setup) if setup else 0.0,
            "wall_s": wall,
            "step_s": step,
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in timed),
        }
        lines.append(f"samples: setup_s n={len(setup)}, wall_s n={len(timed)}, "
                     f"step_s ({bench.step}) n={step_n}")
        lines.append("per pass: wall_s " + " ".join(f"{p.wall_s:.4f}" for p in timed))
        lines.append("per pass: step_s " + " ".join(f"{bench.pass_step(p):.6g}" for p in timed))
        lines.append("per probe: setup_s " + " ".join(f"{v:.4f}" for v in setup))
        lines.append("raw wall time, unscaled (median): "
                     f"setup_s {statistics.median(raw_setup) if raw_setup else math.nan:.4f} s, "
                     f"wall_s {statistics.median(p.raw_wall_s for p in timed):.4f} s, "
                     f"step_s {bench.raw_step_value(timed):.6g} s")
        lines += _named_metrics(bench, timed, step)
    attempted = max(counts["attempted"], 1)
    lines.append(f"error_rate {counts['failed'] / attempted:.6f} ratio "
                 f"({counts['failed']} of {counts['attempted']} operations)")
    return metrics, counts, lines + [f"problem: {m}" for m in problems], problems


def _named_metrics(bench: Workload, timed: list[Pass], step: float) -> list[str]:
    """The workload's own names for its end-to-end numbers."""
    out = []
    f = bench.facts
    if bench.name == "bulk-log":
        out.append(f"localize_s {step:.6f} s")
        out.append(f"localize_det_per_s {bench.input_lines / step if step else 0.0:.1f} det/s "
                   f"({bench.input_lines} lines read)")
        out.append(f"localized_ratio {f.get('localized_ratio', math.nan):.6f} ratio")
        out.append(f"loc_rmse_mm {f.get('loc_rmse_mm', math.nan):.6f} mm")
    elif bench.name == "calibrate":
        out.append(f"calib_intrinsics_s {step:.6f} s")
        out.append(f"calib_rmse_px {f.get('calib_rmse_px', math.nan):.6f} px "
                   f"(median over the {bench.DRAWS} noise draws)")
        out.append(f"center_error_mm {f.get('center_error_mm', math.nan):.3f} mm (worst draw)")
    else:
        lat = frame_latencies(timed)
        if len(lat):
            out.append(f"frame_p50_us {1e6 * np.percentile(lat, 50):.2f} us (n={len(lat)})")
            out.append(f"frame_p99_us {1e6 * np.percentile(lat, 99):.2f} us "
                       f"(n={len(lat)}, {int(len(lat) * 0.01)} beyond)")
        out.append(f"localized_ratio {f.get('localized_ratio', math.nan):.6f} ratio")
    out.append(f"peak_rss_mb {statistics.median(p.peak_rss_mb for p in timed):.1f} MB "
               f"(median over passes; highest of all {max(p.peak_rss_mb for p in timed):.1f} MB)")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, give_up_at: float) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK_ROOT))
    try:
        bench = WORKLOADS[name](work, seed)
        metrics, counts, lines, problems = measure(bench, seconds, trace, give_up_at)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print("env " + " ".join(f"{k}={v}" for k, v in environment(seed).items()))
    for line in lines:
        print(line)
    result = {}
    for m in wanted:
        value = float(metrics.get(m["name"], 0.0))
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']} {value!r} {m['unit']}")
    print(json.dumps({
        "correct": counts["failed"] == 0 and not problems,
        "attempted": max(counts["attempted"], 1),
        "failed": counts["failed"],
        "metrics": result,
    }))
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser(description="groundcam benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all three in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still kills its running child and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "groundcam" / "cli.py").is_file():
        print(f"error: no groundcam sources at {SRC}", file=sys.stderr)
        return 2
    for name in [args.workload] if args.workload else list(WORKLOADS):
        give_up_at = time.perf_counter() + args.seconds + GIVE_UP_AFTER_S
        run_workload(name, args.seed, args.seconds, bool(args.trace), give_up_at)
    return 0


if __name__ == "__main__":
    sys.exit(main())
