"""The package's public names: __all__ lists exactly the names of the export
table, and each resolves, on first access, to the object its module defines."""

from __future__ import annotations

import importlib

import groundcam


def _table_names() -> list[str]:
    return [name for names in groundcam._EXPORTS.values() for name in names]


def test_every_export_resolves():
    for module, names in groundcam._EXPORTS.items():
        owner = importlib.import_module(f"groundcam.{module}")
        for name in names:
            assert getattr(groundcam, name) is getattr(owner, name), name


def test_exports_are_unique():
    assert len(groundcam.__all__) == len(set(groundcam.__all__))


def test_exports_are_the_imported_names():
    table = _table_names()
    assert len(table) == len(set(table))
    assert sorted(groundcam.__all__) == sorted(table)


def test_dir_lists_every_export():
    assert set(dir(groundcam)) >= set(groundcam.__all__)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from groundcam import *", namespace)
    assert all(namespace[name] is getattr(groundcam, name) for name in groundcam.__all__)
