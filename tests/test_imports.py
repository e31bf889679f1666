"""Import footprint: a fresh process loads only the modules its command runs."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys

import pytest

from groundcam.scene import SceneConfig, generate_scene

from conftest import REPO_ROOT

# Runs in a fresh interpreter: imports what the localize path imports, runs
# the statements given in argv[1] and prints the loaded module names last.
_PROBE = """
import json, sys
import groundcam.cli
from groundcam import files
exec(sys.argv[1])
print(json.dumps(sorted(sys.modules)))
"""


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    config = SceneConfig(
        grid_columns=2, grid_rows=3, num_views=6, pattern_cols=6, pattern_rows=5
    )
    return generate_scene(config, seed=13, out_dir=tmp_path_factory.mktemp("scene"))


def _env() -> dict[str, str]:
    """This environment with the repository's src first on PYTHONPATH."""
    src = str(REPO_ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src if not path else f"{src}{os.pathsep}{path}"}


def _loaded_after(statements: str) -> set[str]:
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, statements],
        capture_output=True,
        text=True,
        env=_env(),
        check=True,
    )
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_loading_a_calibration_and_model_loads_no_calibration_modules(scene):
    loaded = _loaded_after(
        f"files.load_calibration({str(scene.paths['calibration'])!r})\n"
        f"files.load_model({str(scene.paths['model'])!r})"
    )
    assert {"groundcam.cli", "groundcam.files", "groundcam.pipeline"} <= loaded
    unwanted = {
        "groundcam.intrinsics",
        "groundcam.extrinsics",
        "groundcam.evaluation",
        "groundcam.scene",
        "groundcam.reference",
        "numpy.ma",
    }
    assert loaded & unwanted == set()


def test_calibrate_intrinsics_loads_neither_numpy_ma_nor_scene(scene):
    views = str(scene.paths["views"])
    loaded = _loaded_after(
        f"assert groundcam.cli.main(['calibrate-intrinsics', {views!r}]) == 0"
    )
    assert "groundcam.intrinsics" in loaded
    assert loaded & {"numpy.ma", "groundcam.scene", "groundcam.evaluation"} == set()


# localize and evaluate run on plain floats, so their processes must not pay
# for numpy or the least-squares solver.
NUMPY_MODULES = {"numpy", "groundcam.optim"}


def test_setup_probe_loads_no_numpy(scene):
    loaded = _loaded_after(
        f"files.load_calibration({str(scene.paths['calibration'])!r})\n"
        f"files.load_model({str(scene.paths['model'])!r})"
    )
    assert loaded & NUMPY_MODULES == set()
    assert "groundcam.parallel" not in loaded


# localize and evaluate split their input with os.fork and marshal
# (groundcam.parallel); a process pool or pickle would add their import time
# to every run.
POOL_MODULES = {"multiprocessing", "concurrent.futures", "pickle"}


@pytest.mark.parametrize("frame", ["field", "camera"])
def test_localize_loads_no_numpy(scene, tmp_path, frame):
    argv = [
        "localize",
        *(str(scene.paths[name]) for name in ("detections", "calibration", "model")),
        "--frame",
        frame,
        "--out",
        str(tmp_path / "localizations.jsonl"),
    ]
    loaded = _loaded_after(f"assert groundcam.cli.main({argv!r}) == 0")
    assert "groundcam.parallel" in loaded
    assert loaded & NUMPY_MODULES == set()
    assert loaded & POOL_MODULES == set()
    assert (tmp_path / "localizations.jsonl").read_text().count('"status": "ok"') == 6


# The report's sums are math.fsum; statistics.fmean or a Fraction or
# Decimal sum would add its module's import time to every evaluate run.
EXACT_SUM_MODULES = {"statistics", "fractions", "decimal"}


def test_evaluate_loads_no_numpy(tmp_path):
    # The fixture table holds ours and reference rows, so the comparison runs.
    pairs = REPO_ROOT / "fixtures" / "reference_eval_pairs.csv"
    argv = ["evaluate", str(pairs), "--out", str(tmp_path / "out")]
    loaded = _loaded_after(f"assert groundcam.cli.main({argv!r}) == 0")
    assert {"groundcam.evaluation", "groundcam.parallel"} <= loaded
    assert loaded & NUMPY_MODULES == set()
    assert loaded & EXACT_SUM_MODULES == set()
    assert loaded & POOL_MODULES == set()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert set(report["comparison"]) == {"ours", "reference"}


@pytest.mark.parametrize("command", ["calibrate-intrinsics", "calibrate-extrinsics"])
def test_numpy_commands_run_in_a_fresh_process(scene, tmp_path, command):
    paths = {name: str(path) for name, path in scene.paths.items()}
    args = {
        "calibrate-intrinsics": [paths["views"]],
        "calibrate-extrinsics": [paths["landmarks"], paths["calibration"]],
    }[command]
    argv = [command, *args, "--out", str(tmp_path / "out")]
    loaded = _loaded_after(f"assert groundcam.cli.main({argv!r}) == 0")
    assert "numpy" in loaded


# fit-regressor solves its 5-column least squares exactly on plain ints
# (groundcam.fitting), so it pays neither for numpy, nor for the solver
# module and its dataclass, nor for Fraction or Decimal.
def test_fit_regressor_loads_no_numpy(scene, tmp_path):
    argv = ["fit-regressor", str(scene.paths["samples"]), "--out", str(tmp_path / "out")]
    loaded = _loaded_after(f"assert groundcam.cli.main({argv!r}) == 0")
    assert "groundcam.fitting" in loaded
    assert loaded & (NUMPY_MODULES | {"dataclasses", "inspect"}) == set()
    assert loaded & EXACT_SUM_MODULES == set()


# Only the calibration and scene modules, which load numpy and with it
# inspect, define dataclasses; traceback loads only on the exit-1 path and
# csv only for the evaluation tables.
STARTUP_MODULES = {"dataclasses", "inspect", "traceback"}


def _numpy_free_run(scene, tmp_path, run: str) -> str:
    """Probe statements for the set-up probe, localize in either frame, or
    evaluate on the fixture table."""
    if run == "setup":
        return (
            f"files.load_calibration({str(scene.paths['calibration'])!r})\n"
            f"files.load_model({str(scene.paths['model'])!r})"
        )
    if run == "evaluate":
        pairs = REPO_ROOT / "fixtures" / "reference_eval_pairs.csv"
        argv = ["evaluate", str(pairs), "--out", str(tmp_path / "out")]
    else:
        inputs = (str(scene.paths[name]) for name in ("detections", "calibration", "model"))
        frame = run.removeprefix("localize-")
        argv = ["localize", *inputs, "--frame", frame, "--out", str(tmp_path / "out")]
    return f"assert groundcam.cli.main({argv!r}) == 0"


@pytest.mark.parametrize("run", ["setup", "localize-field", "localize-camera", "evaluate"])
def test_numpy_free_runs_load_no_dataclass_machinery(scene, tmp_path, run):
    loaded = _loaded_after(_numpy_free_run(scene, tmp_path, run))
    assert "groundcam.files" in loaded
    assert loaded & STARTUP_MODULES == set()
    assert ("csv" in loaded) == (run == "evaluate")


# The set-up probe compiles these groundcam modules alone, so neither the
# numpy camera model (groundcam.projection) nor the codecs that only the
# calibration and evaluation commands run are read from source; localize adds
# the split (groundcam.parallel), and evaluate the split and the scoring.
PER_DETECTION_MODULES = {
    "groundcam",
    "groundcam.cli",
    "groundcam.files",
    "groundcam.pipeline",
    "groundcam.geometry",
    "groundcam.regression",
}


@pytest.mark.parametrize("run", ["setup", "localize-field", "localize-camera", "evaluate"])
def test_numpy_free_runs_load_only_the_per_detection_modules(scene, tmp_path, run):
    loaded = _loaded_after(_numpy_free_run(scene, tmp_path, run))
    ours = {name for name in loaded if name.partition(".")[0] == "groundcam"}
    split = set() if run == "setup" else {"groundcam.parallel"}
    scoring = {"groundcam.evaluation"} if run == "evaluate" else set()
    assert ours == PER_DETECTION_MODULES | split | scoring


def test_calibrate_intrinsics_loads_neither_landmark_nor_table_codecs(scene):
    views = str(scene.paths["views"])
    loaded = _loaded_after(
        f"assert groundcam.cli.main(['calibrate-intrinsics', {views!r}]) == 0"
    )
    assert "groundcam.projection" in loaded
    assert loaded & {"groundcam.extrinsics", "groundcam.evaluation"} == set()


PACKAGE = REPO_ROOT / "src" / "groundcam"


def _package_imports() -> dict[str, set[str]]:
    """The groundcam modules each groundcam module imports, read from its
    source: every import statement counts, inside functions too."""
    modules = {"groundcam"} | {f"groundcam.{path.stem}" for path in PACKAGE.glob("*.py")}
    graph = {}
    for path in PACKAGE.glob("*.py"):
        name = "groundcam" if path.stem == "__init__" else f"groundcam.{path.stem}"
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = "groundcam" if node.level else ""
                base = ".".join(part for part in (base, node.module) if part)
                imported.add(base)
                imported.update(f"{base}.{alias.name}" for alias in node.names)
        graph[name] = imported & modules - {name}
    return graph


def test_no_groundcam_module_imports_itself_through_others():
    graph = _package_imports()
    done: set[str] = set()

    def visit(name: str, path: list[str]) -> None:
        for target in sorted(graph[name]):
            cycle = path[path.index(target):] + [target] if target in path else []
            assert not cycle, f"import cycle: {' -> '.join(cycle)}"
            if target not in done:
                visit(target, path + [target])
        done.add(name)

    for name in sorted(graph):
        visit(name, [name])
    # Run as python -m groundcam.cli, the command line is __main__, so a
    # module importing groundcam.cli would compile it a second time.
    assert [name for name, targets in graph.items() if "groundcam.cli" in targets] == []


def test_running_the_command_line_as_a_module_compiles_it_once():
    pairs = REPO_ROOT / "fixtures" / "reference_eval_pairs.csv"
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "groundcam.cli", "evaluate", str(pairs)],
        capture_output=True,
        text=True,
        env=_env(),
        check=True,
    )
    imported = [line.rpartition("|")[2].strip() for line in result.stderr.splitlines()]
    assert "groundcam.parallel" in imported
    assert "groundcam.cli" not in imported
