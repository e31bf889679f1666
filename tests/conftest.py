"""Shared fixtures: reference calibration, synthetic scenes, repo paths, the
json.loads ingest oracle, the exact least-squares oracle and the hypothesis
profile."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from groundcam.pipeline import Detection, json_number, json_numbers
from groundcam.reference import reference_intrinsics, reference_pose
from groundcam.regression import KNOWN_CLASSES, BoundingBox
from groundcam.scene import SceneConfig, generate_scene

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES_DIR = REPO_ROOT / "fixtures"

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    # A derandomized run draws the same examples every time, so a failing
    # property fails again on re-run whatever the local example database holds.
    settings.register_profile("groundcam", derandomize=True, deadline=None)
    settings.load_profile("groundcam")


def json_loads_ingest(lines, min_score: float = 0.5):
    """(kept detections, diagnostics) of ingest_detections' contract, with
    each stripped line parsed by json.loads: the oracle for its decoder."""
    kept, diagnostics = [], []
    for number, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            obj = json.loads(text)
            bbox = BoundingBox(*json_numbers(obj["bbox"], 4, "bbox"))
            frame = obj["frame"]
            if type(frame) is int:
                frame = str(frame)
            elif type(frame) is not str:
                raise ValueError(f"frame must be a string or an integer, got {frame!r}")
            label = obj["class"]
            if type(label) is not str:
                raise ValueError(f"class must be a string, got {label!r}")
            score = json_number(obj["score"], "score")
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"score must be in [0, 1], got {score}")
        except (KeyError, TypeError, ValueError) as exc:
            diagnostics.append(f"line {number}: {exc}")
            continue
        if label not in KNOWN_CLASSES:
            diagnostics.append(f"line {number}: unknown class {label!r}")
        elif score >= min_score:
            kept.append(Detection(frame, label, score, bbox))
    return tuple(kept), tuple(diagnostics)


def exact_least_squares(rows, targets) -> list[tuple[float, ...]]:
    """The float nearest each entry of the exact solution of min ||A x - b||
    for the matrix A with the given rows, one tuple per target column b:
    Gauss-Jordan elimination of the normal equations on Fractions, the
    oracle for groundcam.fitting's fraction-free integer elimination. A must
    have full column rank."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a[0])
    solutions = []
    for target in targets:
        b = [Fraction(x) for x in target]
        m = [
            [sum(r[i] * r[j] for r in a) for j in range(n)]
            + [sum(r[i] * t for r, t in zip(a, b))]
            for i in range(n)
        ]
        for k in range(n):
            p = next(i for i in range(k, n) if m[i][k] != 0)
            m[k], m[p] = m[p], m[k]
            m[k] = [x / m[k][k] for x in m[k]]
            for i in range(n):
                if i != k:
                    m[i] = [x - m[i][k] * y for x, y in zip(m[i], m[k])]
        # Fraction.__float__ divides two ints, which rounds correctly.
        solutions.append(tuple(float(row[n]) for row in m))
    return solutions


@pytest.fixture
def ref_k():
    return reference_intrinsics()


@pytest.fixture
def ref_pose():
    return reference_pose()


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def default_scene(tmp_path_factory):
    """One zero-noise scene under the reference calibration, generated once.

    Session-scoped because several modules consume the same files; the scene
    is deterministic, so sharing cannot leak state between tests.
    """
    out = tmp_path_factory.mktemp("scene")
    return generate_scene(SceneConfig(), seed=7, out_dir=out)
