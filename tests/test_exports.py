"""Each public name has one home, the module that defines it, and nothing
there is dead: every public module-level name of a sparsq module is used by
the library, the scripts or perfbench, or is kept as library API in
LIBRARY_API with its reason, and every module path README.md cites resolves."""

import ast
import importlib
import pathlib
import re
import types

import sparsq

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sparsq"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
README = (ROOT / "README.md").read_text()
# README's inline code spans: where it cites module paths
README_CODE = " ".join(re.findall(r"`([^`\n]+)`", README))
# The public names no run calls that are kept anyway, each with its reason.
# A README mention alone does not keep a name: documented code can be dead.
LIBRARY_API = {
    "bench.load_config": "reads an INI config from Python through the CLI's builder",
    "bench.run_algorithm": "runs one checked cell from Python; run records build on it",
    "problems.cs_desk_instance": "the benchmark's compressive-sensing instance in one call",
    "problems.blur_desk_instance": "the benchmark's deblurring instance in one call",
    "regfun.grad_f": "the data-fit gradient that acceptance criterion 4 checks",
}


def _defined(path):
    """The public names a module's top-level statements define (not import)."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("_")}


def _names_loaded(path):
    """Names that a module reads, reads as an attribute or imports by name."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_export_is_used():
    sources = sorted(PACKAGE.glob("*.py"))
    sources += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*map(_names_loaded, sources))
    unused = {
        f"{module}.{name}"
        for module in MODULES
        for name in _defined(PACKAGE / f"{module}.py")
        if name not in used
    }
    dead = sorted(unused - LIBRARY_API.keys())
    assert not dead, f"public but used nowhere and not kept as library API: {dead}"
    stale = sorted(LIBRARY_API.keys() - unused)
    assert not stale, f"LIBRARY_API keeps names that are used or not defined: {stale}"


def test_readme_module_paths_resolve():
    cited = set(re.findall(rf"\b(?:sparsq\.)?({'|'.join(MODULES)})\.(\w+)", README_CODE))
    assert cited
    missing = sorted(
        f"{module}.{name}"
        for module, name in cited
        if not hasattr(importlib.import_module(f"sparsq.{module}"), name)
    )
    assert not missing, f"README cites paths that do not resolve: {missing}"


def test_package_binds_modules_only():
    # `import sparsq` loads the library's modules and binds no function of its own
    public = {name: value for name, value in vars(sparsq).items() if not name.startswith("_")}
    assert {"linops", "problems", "proxops", "regfun", "solvers"} <= set(public)
    bound = sorted(name for name, value in public.items() if not isinstance(value, types.ModuleType))
    assert not bound, f"sparsq binds names of its modules a second time: {bound}"
