"""Every exception class the package defines is one some code tells apart:
it is named in an except clause in src/groundcam, or it is a key of
pipeline._REASON_SLUGS, which localize_batch catches. A failure that nothing
catches on its own raises ValueError with its message."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import groundcam
from groundcam.pipeline import _REASON_SLUGS

PACKAGE = Path(groundcam.__file__).parent


def _defined_exceptions() -> dict[str, type]:
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"groundcam.{path.stem}")
        for name, obj in vars(module).items():
            if (
                inspect.isclass(obj)
                and issubclass(obj, BaseException)
                and obj.__module__ == module.__name__
            ):
                found[f"{path.stem}.{name}"] = obj
    return found


def _caught_names() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                for part in ast.walk(node.type):
                    if isinstance(part, ast.Name):
                        names.add(part.id)
                    elif isinstance(part, ast.Attribute):
                        names.add(part.attr)
    return names


def test_every_exception_class_is_caught_somewhere():
    caught = _caught_names()
    assert "_REASON_SLUGS" in caught
    uncaught = [
        qualified
        for qualified, cls in _defined_exceptions().items()
        if cls.__name__ not in caught and cls not in _REASON_SLUGS
    ]
    assert uncaught == []
