"""Each public name has one home, the module that defines it, and nothing
there is dead: every public module-level name of a sparsq module is used by
the library, the scripts or perfbench, or is kept as library API in
LIBRARY_API with its reason; every optional parameter of a public function
or method is passed by some call there; every field of a result or options
class is read there; and every module path README.md cites resolves."""

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
# The public functions whose optional parameters no run passes that are kept
# anyway, each with its reason.  A default no caller overrides is a setting no
# run uses.  The LIBRARY_API functions are exempt too: no run calls them, so no
# call can pass their options.
OPTIONS_KEPT = {
    "linops.estimate_opnorm_sq": "max_iters, tol and seed are set by tests only; the "
    "function moves to tests/ with ROADMAP item 6, once perfbench stops reading it by name",
}

# The dataclass and NamedTuple fields no run reads as an attribute that are
# kept anyway, by class, each with its reason.
FIELDS_KEPT = {
    "bench.ReportRow": "the report's columns: the CSV writer reads every field by name "
    "through REPORT_COLUMNS, with getattr, so time_ms has no attribute read",
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


def _optional_parameters(path):
    """{name a call uses: [(qualified name, [(position, param)])]} of a
    module's public functions and methods (a class's __init__ under the class
    name), listing each parameter with a default: its index among the
    positional arguments a call gives, or None if keyword-only."""
    found = {}

    def add(node, name, qualified, offset):
        args = node.args
        positional = args.posonlyargs + args.args
        listed = [(i - offset, a.arg) for i, a in enumerate(positional)
                  if i >= len(positional) - len(args.defaults)]
        listed += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                   if d is not None]
        if listed:
            found.setdefault(name, []).append((qualified, listed))

    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            add(node, node.name, f"{path.stem}.{node.name}", 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__":
                    add(item, node.name, f"{path.stem}.{node.name}", 1)
                elif not item.name.startswith("_"):  # self or cls fills position 0
                    add(item, item.name, f"{path.stem}.{node.name}.{item.name}", 1)
    return found


def _calls(path):
    """(callee name, number of positional arguments, keyword names, passes
    everything) of every call in a module; a call with *args or **kwargs
    passes everything."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            yield name, len(node.args), keywords, starred or None in keywords


def _fields(path):
    """{qualified class name: [field]} of a module's dataclasses and NamedTuples."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(getattr(d, "id", None) == "dataclass" for d in decorators) or any(
                getattr(b, "id", None) == "NamedTuple" for b in node.bases):
            found[f"{path.stem}.{node.name}"] = [
                item.target.id for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
    return found


def _attributes_read(path):
    """The attribute names a module reads, as in x.name."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


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


def _sources():
    """The modules whose calls count as uses: the library, scripts/ and perfbench/."""
    return (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
            + sorted((ROOT / "perfbench").glob("*.py")))


def test_every_export_is_used():
    used = set().union(*map(_names_loaded, _sources()))
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


def test_every_optional_parameter_is_passed():
    # an optional parameter no call in src/, scripts/ or perfbench/ passes is
    # a setting no run uses: make it fixed policy, or keep it in OPTIONS_KEPT
    defined = {}
    for module in MODULES:
        for name, defs in _optional_parameters(PACKAGE / f"{module}.py").items():
            defined.setdefault(name, []).extend(defs)
    passed = set()  # (qualified name, param) that some call passes
    for path in _sources():
        for name, n_args, keywords, everything in _calls(path):
            for qualified, listed in defined.get(name, ()):
                for position, param in listed:
                    if everything or param in keywords or (
                            position is not None and position < n_args):
                        passed.add((qualified, param))
    unused = sorted(
        f"{qualified}({param})"
        for defs in defined.values()
        for qualified, listed in defs
        if qualified not in OPTIONS_KEPT and qualified not in LIBRARY_API
        for _, param in listed
        if (qualified, param) not in passed
    )
    assert not unused, f"optional parameters that no call passes: {unused}"
    stale = sorted(set(OPTIONS_KEPT) - {q for defs in defined.values() for q, _ in defs})
    assert not stale, f"OPTIONS_KEPT names functions without optional parameters: {stale}"


def test_every_field_is_read():
    # a field that no code in src/, scripts/ or perfbench/ reads is a result
    # no run looks at, or a setting no run acts on: drop it, or keep its
    # class in FIELDS_KEPT
    read = set().union(*map(_attributes_read, _sources()))
    classes = {}
    for module in MODULES:
        classes.update(_fields(PACKAGE / f"{module}.py"))
    unread = sorted(f"{qualified}.{field}" for qualified, names in classes.items()
                    if qualified not in FIELDS_KEPT for field in names if field not in read)
    assert not unread, f"fields that nothing reads: {unread}"
    stale = sorted(FIELDS_KEPT.keys() - classes.keys())
    assert not stale, f"FIELDS_KEPT names no dataclass or NamedTuple: {stale}"


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
