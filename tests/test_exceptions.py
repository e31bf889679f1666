"""Every exception class the package defines is one some code tells apart:
it is named in an except clause in src/groundcam, or it is a key of
pipeline._REASON_SLUGS, which localize_batch catches. A failure that nothing
catches on its own raises ValueError with its message, and no two raises
share a message, so an error names the check that fired."""

from __future__ import annotations

import ast
import importlib
import inspect
from collections import Counter
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


def test_every_raise_message_is_distinct():
    # A message is the source text of a raised call's first argument, when
    # that is a string or f-string literal; a message passed on in a
    # variable is some other raise's.
    messages = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                args = node.exc.args
                if args and isinstance(args[0], (ast.Constant, ast.JoinedStr)):
                    messages[ast.unparse(args[0])] += 1
    assert len(messages) > 100
    assert [m for m, count in messages.items() if count > 1] == []
