"""The benchmark's traced runs still work against the code.

perfbench/child.py wraps the program's functions by name (perfbench/tracing.py)
and times the solver through the fields of its problem object. A binding the
code no longer has is skipped silently, so a refactor can empty a layer of
the benchmark without any error. Each command here runs once traced, in a
subprocess as the benchmark runs it, and once untraced through main: the
stdout must match byte for byte, and the layers the benchmark reports must
record calls.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys

import pytest

from groundcam.cli import main
from groundcam.scene import SceneConfig, generate_scene

from conftest import FIXTURES_DIR, REPO_ROOT

PERFBENCH = REPO_ROOT / "perfbench"

# Spans with at least one call over the traced commands below.
CALLED_SPANS = (
    "optim.lm.intrinsics.residual",
    "optim.lm.intrinsics.jacobian",
    "intrinsics.refine_calibration",
    "pipeline.ingest_detections",
    "pipeline.localize_batch",
    "files.localization_line",
)


# Each command's arguments: files of the synthetic scene, by key, or paths.
COMMANDS = {
    "calibrate-intrinsics": ("views",),
    "calibrate-extrinsics": ("landmarks", "calibration"),
    "fit-regressor": ("samples",),
    "localize": ("detections", "calibration", "model"),
    "evaluate": (FIXTURES_DIR / "reference_eval_pairs.csv",),
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Each command's argv, its traced run and the spans file it wrote."""
    root = tmp_path_factory.mktemp("traced")
    config = SceneConfig(
        grid_columns=2, grid_rows=3, num_views=6, pattern_cols=6, pattern_rows=5
    )
    scene = generate_scene(config, seed=13, out_dir=root / "scene")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    runs = {}
    for name, args in COMMANDS.items():
        argv = [name, *(str(scene.paths.get(a, a)) for a in args)]
        spans = root / f"{name}.npz"
        run = subprocess.run(
            [
                sys.executable, str(PERFBENCH / "child.py"), "cli",
                "--speed", str(root / f"{name}.speed.json"), "--spans", str(spans),
                "--", *argv,
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        runs[name] = (argv, run, spans)
    return runs


@pytest.mark.parametrize("command", COMMANDS)
def test_traced_run_prints_what_an_untraced_run_prints(capsys, traced, command):
    argv, run, _ = traced[command]
    assert run.returncode == 0, run.stderr
    capsys.readouterr()
    assert main(argv) == 0
    assert run.stdout == capsys.readouterr().out


def test_traced_runs_record_the_benchmark_layers(traced):
    spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    spans, _ = tracing.aggregate([spans for _, _, spans in traced.values()])
    calls = {name: spans.get(name, [0])[0] for name in CALLED_SPANS}
    assert all(calls.values()), calls
