"""Spans recorded from outside the program.

The program's modules import each other with ``from .geometry import ...``,
so a wrapper must replace the name in the module that calls it, not in the
module that defines it. Each entry of WRAPS names one such binding. A binding
the code no longer has is skipped, and its layer then reports zero calls.

Spans (name, start, end, parent) stay in memory and are written once, at the
end of the process, as one .npz file.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from collections import Counter

import numpy as np

# (calling module, bound name, span name)
WRAPS = (
    ("groundcam.files", "load_calibration", "files.load_calibration"),
    ("groundcam.files", "load_model", "files.load_model"),
    ("groundcam.files", "load_planar_views", "files.load_planar_views"),
    ("groundcam.files", "load_landmarks", "files.load_landmarks"),
    ("groundcam.files", "load_samples", "files.load_samples"),
    ("groundcam.files", "load_pairs_csv", "files.load_pairs_csv"),
    ("groundcam.files", "localization_line", "files.localization_line"),
    ("groundcam.files", "save_calibration", "files.save_calibration"),
    ("groundcam.files", "save_model", "files.save_model"),
    ("groundcam.files", "save_report", "files.save_report"),
    ("groundcam.files", "save_scatter_csv", "files.save_scatter_csv"),
    ("groundcam.cli", "ingest_detections", "pipeline.ingest_detections"),
    ("groundcam.pipeline", "ingest_detections", "pipeline.ingest_detections"),
    ("groundcam.cli", "localize_batch", "pipeline.localize_batch"),
    ("groundcam.pipeline", "localize_batch", "pipeline.localize_batch"),
    ("groundcam.pipeline", "predict", "regression.predict"),
    ("groundcam.pipeline", "undistort", "geometry.undistort"),
    ("groundcam.pipeline", "back_project_to_plane", "geometry.back_project_to_plane"),
    ("groundcam.pipeline", "frame_convert", "pipeline.frame_convert"),
    ("groundcam.cli", "fit", "regression.fit"),
    ("groundcam.cli", "calibrate_intrinsics", "intrinsics.calibrate_intrinsics"),
    ("groundcam.intrinsics", "estimate_homography", "intrinsics.estimate_homography"),
    ("groundcam.intrinsics", "zhang_closed_form", "intrinsics.zhang_closed_form"),
    ("groundcam.intrinsics", "extrinsics_from_homography", "intrinsics.extrinsics_from_homography"),
    ("groundcam.intrinsics", "reprojection_rmse", "intrinsics.reprojection_rmse"),
    ("groundcam.intrinsics", "refine_calibration", "intrinsics.refine_calibration"),
    ("groundcam.intrinsics", "project_points", "geometry.project_points"),
    ("groundcam.extrinsics", "project_points", "geometry.project_points"),
    ("groundcam.extrinsics", "undistort", "geometry.undistort"),
    ("groundcam.cli", "solve_pnp", "extrinsics.solve_pnp"),
    ("groundcam.cli", "reprojection_report", "extrinsics.reprojection_report"),
    ("groundcam.extrinsics", "reprojection_report", "extrinsics.reprojection_report"),
    ("groundcam.cli", "build_report", "evaluation.build_report"),
)

# Callers of the least-squares solver; each gets its own optim.lm.<caller> span.
LM_CALLERS = ("intrinsics", "extrinsics")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack = [-1]
        self.counters: Counter[str] = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span whose children, if any, were not recorded."""
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.start.append(start)
        self.end.append(end)

    def timed(self, fn, name: str):
        """fn wrapped so that each call records a span under `name`."""
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        for module_name, attr, span in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is not None:
                setattr(module, attr, self._with_counts(span, self.timed(original, span)))
        for caller in LM_CALLERS:
            module = importlib.import_module(f"groundcam.{caller}")
            if getattr(module, "levenberg_marquardt", None) is not None:
                module.levenberg_marquardt = self._timed_lm(module.levenberg_marquardt, caller)

    def _with_counts(self, span: str, fn):
        """Add the result counters the layer metrics need to a wrapped call."""
        counters = self.counters
        if span == "pipeline.ingest_detections":
            def ingest(*args, **kwargs):
                result = fn(*args, **kwargs)
                counters["pipeline.ingest_detections.kept"] += len(result.detections)
                return result
            return ingest
        if span == "pipeline.localize_batch":
            def localize_batch(*args, **kwargs):
                results = fn(*args, **kwargs)
                for r in results:
                    reason = getattr(r, "reason", None)
                    if reason is not None:
                        counters[f"pipeline.unlocalizable.{reason}"] += 1
                return results
            return localize_batch
        return fn

    def _timed_lm(self, solve, caller: str):
        """Solver wrapper that times the problem's residual and Jacobian calls."""
        from groundcam.optim import numeric_jacobian

        prefix = f"optim.lm.{caller}"
        counters = self.counters

        def lm(problem, x0, *args, **kwargs):
            jacobian = problem.jacobian
            if jacobian is None:
                def jacobian(x, _problem=problem):
                    return numeric_jacobian(_problem, x)
            try:
                problem = dataclasses.replace(
                    problem,
                    residual=self.timed(problem.residual, prefix + ".residual"),
                    jacobian=self.timed(jacobian, prefix + ".jacobian"),
                )
            except (TypeError, ValueError):
                pass  # the problem type changed shape: time the solve only
            result = self.timed(solve, prefix)(problem, x0, *args, **kwargs)
            counters[prefix + ".iterations"] += int(getattr(result, "iterations", 0))
            reason = getattr(result, "reason", None)
            if reason is not None:
                counters[f"{prefix}.reason.{getattr(reason, 'value', reason)}"] += 1
            return result

        return lm

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.array(self.name_id, dtype=np.int64),
            start=np.array(self.start, dtype=float),
            end=np.array(self.end, dtype=float),
            parent=np.array(self.parent, dtype=np.int64),
            counter_names=np.array(list(self.counters), dtype=str),
            counter_values=np.array(list(self.counters.values()), dtype=float),
        )


def aggregate(paths) -> tuple[dict[str, list[float]], Counter]:
    """Per span name [calls, total seconds, self seconds], summed over files.

    Self time is a span's duration minus the time its child spans cover;
    spans on one thread nest, so the children's durations simply add up.
    """
    spans: dict[str, list[float]] = {}
    counters: Counter = Counter()
    for path in paths:
        with np.load(path) as data:
            names = list(data["names"])
            name_id, parent = data["name_id"], data["parent"]
            duration = data["end"] - data["start"]
            has_parent = parent >= 0
            covered = np.bincount(
                parent[has_parent], weights=duration[has_parent], minlength=len(duration)
            )
            own = duration - covered
            calls = np.bincount(name_id, minlength=len(names))
            total = np.bincount(name_id, weights=duration, minlength=len(names))
            self_s = np.bincount(name_id, weights=own, minlength=len(names))
            for i, name in enumerate(names):
                acc = spans.setdefault(name, [0.0, 0.0, 0.0])
                acc[0] += calls[i]
                acc[1] += total[i]
                acc[2] += self_s[i]
            for name, value in zip(data["counter_names"], data["counter_values"]):
                counters[str(name)] += float(value)
    return spans, counters
