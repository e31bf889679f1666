"""Every public name the package defines has a caller in the package: each
public module-level function or class, and each public method, is
referenced in src/groundcam somewhere outside its own definition. A name
kept only for the tests or for a planned command sits in UNCALLED with its
reason, so an entry point or a switch left behind by a change fails here
instead of waiting for a reader to find it dead."""

from __future__ import annotations

import ast
from pathlib import Path

import groundcam

PACKAGE = Path(groundcam.__file__).parent

UNCALLED = {
    # ROADMAP item 10's evaluate --truth decides the fate of these codecs.
    "evaluation.save_pairs_csv": "the pairs table's writer, for evaluate --truth",
    "evaluation.load_truth_csv": "the truth table's reader, for evaluate --truth",
    "geometry.CameraIntrinsics.with_distortion": "a test convenience",
}


def _public_definitions(module: str, tree: ast.Module):
    """(qualified name, node) of each public top-level function or class and
    each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item


def _uncalled(package: Path = PACKAGE) -> set[str]:
    definitions, references = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        definitions += [(path.stem, *d) for d in _public_definitions(path.stem, tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((node.id, path.stem, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((node.attr, path.stem, node.lineno))
    uncalled = set()
    for module, qualified, node in definitions:
        name = qualified.rsplit(".", 1)[1]
        if not any(
            ref == name and not (where == module and node.lineno <= line <= node.end_lineno)
            for ref, where, line in references
        ):
            uncalled.add(qualified)
    return uncalled


def test_every_public_name_has_a_caller_in_the_package():
    assert _uncalled() == set(UNCALLED)


def test_a_name_used_only_inside_itself_counts_as_uncalled(tmp_path):
    # walk calls only itself and nothing names copy or main; Node and size
    # are named in main, outside their own definitions.
    (tmp_path / "a.py").write_text(
        "def walk(x):\n    return walk(x - 1) if x else 0\n\n\n"
        "class Node:\n    def copy(self):\n        return Node()\n\n"
        "    def size(self):\n        return 1\n\n\n"
        "def main():\n    return Node().size()\n"
    )
    assert _uncalled(tmp_path) == {"a.walk", "a.Node.copy", "a.main"}
