"""Nothing dead is exported: every name that sparsq/__init__.py re-exports is
used by the library, the scripts or perfbench, or is named in README.md as
library API."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sparsq"


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def _names_used(path):
    """Names that a module loads, reads as an attribute or imports by name."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_export_is_used():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*map(_names_used, sources))
    readme = (ROOT / "README.md").read_text()
    dead = sorted(
        name
        for name in _exports()
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme)
    )
    assert not dead, f"exported but used nowhere: {dead}"
