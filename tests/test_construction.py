"""The record types that run code when they are built are exactly the
documented ones. PixelPoint, BoundingBox, CameraPose and ClassModel check
(and coerce or flatten) their fields in a __new__ on a NamedTuple;
Distortion and CameraIntrinsics in an __init__ on geometry._Frozen. Every
other record is built as given, and a check on input from outside the
program sits in the reader that builds the record, so a check cannot move
into a type, or out of one, without this list changing."""

from __future__ import annotations

import ast
from pathlib import Path

import groundcam

PACKAGE = Path(groundcam.__file__).parent

CHECKED_ON_CONSTRUCTION = {
    "PixelPoint",
    "BoundingBox",
    "CameraPose",
    "ClassModel",
    "Distortion",
    "CameraIntrinsics",
}


def _classes_with_constructor_code() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef)
                and item.name in ("__new__", "__init__", "__post_init__")
                for item in node.body
            ):
                names.add(node.name)
    return names


def test_only_the_documented_records_run_code_on_construction():
    assert _classes_with_constructor_code() == CHECKED_ON_CONSTRUCTION


def test_least_squares_problem_is_the_only_dataclass():
    """Records are NamedTuples, or geometry._Frozen where a NamedTuple costs
    too much start-up. LeastSquaresProblem stays a dataclass because
    perfbench/tracing.py rebuilds it with dataclasses.replace to time its
    residual and Jacobian (the optim.lm.*.residual and .jacobian spans); on
    a NamedTuple that call raises TypeError and those spans go empty."""
    dataclasses = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    if ast.unparse(target) in ("dataclass", "dataclasses.dataclass"):
                        dataclasses.add(node.name)
    assert dataclasses == {"LeastSquaresProblem"}
