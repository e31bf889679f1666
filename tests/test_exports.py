"""The package's public names: __all__ lists exactly what __init__ imports."""

from __future__ import annotations

import ast
from pathlib import Path

import groundcam


def _imported_names() -> list[str]:
    tree = ast.parse(Path(groundcam.__file__).read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_every_export_resolves():
    missing = [name for name in groundcam.__all__ if not hasattr(groundcam, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(groundcam.__all__) == len(set(groundcam.__all__))


def test_exports_are_the_imported_names():
    imported = _imported_names()
    assert len(imported) == len(set(imported))
    assert set(groundcam.__all__) == set(imported)
