"""The main path (ring, module, quiver, unfold, io, catalog) never imports
the reflection oracles, so that they stay an independent check of it."""

import ast
from pathlib import Path

import pytest

import fqk

MAIN_PATH = ("ring", "module", "quiver", "unfold", "io", "catalog")


def _imported_modules(tree):
    """The absolute or relative name of every module an AST imports; each
    name of a `from` import counts as a submodule too (`from . import x`
    imports `.x`)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            yield base
            yield from (base + ("." if node.module else "") + a.name for a in node.names)


@pytest.mark.parametrize("name", MAIN_PATH)
def test_main_path_does_not_import_reflect(name):
    path = Path(fqk.__file__).parent / f"{name}.py"
    imported = set(_imported_modules(ast.parse(path.read_text())))
    assert not imported & {".reflect", "fqk.reflect"}, name


def test_enumeration_lives_in_unfold():
    for fn in (fqk.enumerate_indecomposables, fqk.fold_root, fqk.unfold_coords):
        assert fn.__module__ == "fqk.unfold"
