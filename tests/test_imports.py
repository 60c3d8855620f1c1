"""Every imported name is used, every module-level private function or
class of the package is referenced, every exported name exists, no
package module imports another's private name, and only `lp_core`
builds a `LinearProgram`: a stdlib `ast` scan of the package and the
tests, since no linter is part of the toolchain."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "polyevp").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exempt = _exported(tree)
    if path.name == "__init__.py":
        exempt |= set(imported)  # the package's public names are re-exports
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used and name not in exempt
    ]


def test_no_unused_imports():
    assert [u for path in SOURCES for u in unused_imports(path)] == []


def _referenced(tree: ast.Module) -> set[str]:
    """Every name the module reads, as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def dead_private_definitions() -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    referenced = set().union(*map(_referenced, trees.values()))
    return [
        f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
        for path in PACKAGE
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]


def test_no_dead_private_definitions():
    assert dead_private_definitions() == []


def stale_exports() -> list[str]:
    """`__all__` entries a module does not define, and names the package
    `__init__` imports that are not in the source module's `__all__`."""
    stale = []
    for path in PACKAGE:
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"polyevp.{path.stem}")
        stale += [
            f"{path.name}: __all__ names {name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    init = ROOT / "src" / "polyevp" / "__init__.py"
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = importlib.import_module(f"polyevp.{node.module}").__all__
            stale += [
                f"__init__.py:{node.lineno}: {alias.name} not in {node.module}.__all__"
                for alias in node.names
                if alias.name not in exported
            ]
    return stale


def test_no_stale_exports():
    assert stale_exports() == []


def private_imports() -> list[str]:
    """Underscore names a package module imports from another one."""
    found = []
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "polyevp"
            ):
                found += [
                    f"{path.relative_to(ROOT)}:{node.lineno}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    return found


def test_no_private_names_imported_across_modules():
    assert private_imports() == []


def program_builders() -> list[str]:
    """Calls of `LinearProgram` in package modules other than `lp_core`."""
    found = []
    for path in PACKAGE:
        if path.name == "lp_core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and "LinearProgram" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def test_only_lp_core_builds_programs():
    assert program_builders() == []
