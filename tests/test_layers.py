"""The package's layering, read off its own source with ast."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dynzeta"


def _imported_names(path: Path) -> set[str]:
    """The dotted dynzeta names the module at path imports, relatively or
    not: dynzeta.words._mul_map for `from .words import _mul_map`."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["dynzeta" if node.level else "", node.module]))
            names += [f"{module}.{alias.name}" for alias in node.names]
    return {name for name in names if name.startswith("dynzeta.")}


def _imports(path: Path) -> set[str]:
    """The dynzeta modules the module at path imports, relatively or not."""
    return {name.split(".")[1] for name in _imported_names(path)}


def test_each_module_imports_only_the_modules_listed_before_it():
    """Each module imports only modules listed before it in the bottom-up
    list of the package docstring, and series and exponents, which both sit
    on words, import nothing from each other."""
    doc = ast.get_docstring(ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")))
    order = re.findall(r"^    (\w+)  ", doc.split("bottom up", 1)[1], flags=re.M)
    modules = {path.stem: path for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    assert sorted(order) == sorted(modules)
    for i, name in enumerate(order):
        above = set(order[:i])
        assert _imports(modules[name]) <= above, (name, _imports(modules[name]) - above)
    assert "exponents" not in _imports(modules["series"])
    assert "series" not in _imports(modules["exponents"])


def test_named_maps_are_built_in_words():
    """The CLI maps names to the constructors in words: it imports nothing
    from arith, and neither map representation from words."""
    names = _imported_names(PACKAGE / "cli.py")
    assert "arith" not in _imports(PACKAGE / "cli.py")
    assert not names & {"dynzeta.words._PrimeMaps", "dynzeta.words._ResidueMap"}
