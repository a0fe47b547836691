"""The main path (ring, module, quiver, unfold, io, catalog) never imports
the reflection oracles, so that they stay an independent check of it."""

import ast
from pathlib import Path

import pytest

import fqk

MAIN_PATH = ("ring", "module", "quiver", "unfold", "io", "catalog")
PACKAGE, TESTS = Path(fqk.__file__).parent, Path(__file__).parent


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
    path = PACKAGE / f"{name}.py"
    imported = set(_imported_modules(ast.parse(path.read_text())))
    assert not imported & {".reflect", "fqk.reflect"}, name


FLOAT_ROUTE = {"angle_label", "fpdim", "fpdim_of", "perron_eigenpair", "label_fpdim"}


@pytest.mark.parametrize("name", ("quiver", "unfold"))
def test_gamma_modules_import_no_float_route(name):
    """Gamma's modules build it from integer actions only: they import none
    of the FP-dimension functions."""
    path = PACKAGE / f"{name}.py"
    imported = {m.rpartition(".")[2] for m in _imported_modules(ast.parse(path.read_text()))}
    assert not imported & FLOAT_ROUTE, name


def test_enumeration_lives_in_unfold():
    for fn in (fqk.enumerate_indecomposables, fqk.fold_root):
        assert fn.__module__ == "fqk.unfold"


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    + sorted(TESTS.glob("*.py")) + [TESTS / "golden" / "make.py"],
    ids=lambda p: p.stem if p.parent == PACKAGE else str(p.relative_to(TESTS.parent)),
)
def test_every_import_is_used(path):
    """Each name a module imports is read somewhere in that module (as a
    name or as the root of an attribute chain); `annotations` is a
    compiler switch, not a name."""
    tree = ast.parse(path.read_text())
    imported = {
        (a.asname or a.name).partition(".")[0]
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for a in node.names
    } - {"annotations"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, path.name


@pytest.mark.parametrize("path", sorted(Path(__file__).parent.glob("test_*.py")), ids=lambda p: p.stem)
def test_no_test_file_defines_a_name_twice(path):
    """A second class or function of the same name in one scope replaces the
    first, and pytest then never collects the tests of the first."""
    def twice(body):
        names = [n.name for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))]
        nested = [twice(n.body) for n in body if isinstance(n, ast.ClassDef)]
        return {n for n in names if names.count(n) > 1}.union(*nested)

    assert not twice(ast.parse(path.read_text()).body), path.name


# exports that no other package module reads: result types callers inspect,
# the oracles and layer entry points the tests and perfbench call, and the
# BGP reflection of quivers
OWN_EXPORTS = {
    "RingElement", "ModuleElement", "OrdinaryQuiver", "Component", "FiniteTypeVerdict", "UnfoldedQuiver",
    "ExtendedRootReport", "SignCoherenceReport", "NCPolynomial",
    "module_fpdims", "fold_root", "enumerate_by_closure", "extended_positive_roots",
    "qnum_in_ring", "reflect_dimvec", "real_bilinear_form",
    "labeled_graph", "positive_roots_simply_laced",
    "admissible_sink_ordering", "reflect_quiver",
}


def test_no_test_only_exports():
    """Every name the package exports is read by a package module other than
    the one that defines it, or is one of OWN_EXPORTS."""
    exports = {
        a.asname or a.name: node.module or a.name
        for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    }
    read = {  # per module: every name it reads, as a name, an attribute or an import
        path.stem: {
            node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
            else node.name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        }
        for path in PACKAGE.glob("*.py") if path.name != "__init__.py"
    }
    unread = {
        name for name, home in exports.items()
        if not any(name in names for stem, names in read.items() if stem != home)
    }
    assert unread == OWN_EXPORTS
