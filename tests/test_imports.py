"""Every imported name is used, every module-level private function or
class of the package is referenced, every method or property a package
class defines is read by a package module, every exported name exists, no
package module reads another's private name, only `lp_core` builds a
`LinearProgram` and within it only `combination_lp` does, only
`lp_core` floor-divides by a name ``det`` (a fraction-free elimination
step), only `geometry` makes and checks halfspace rows, and only
`rational` compares an `idot` product: a stdlib `ast` scan of the
package and the tests, since no linter is part of the toolchain.  Each
module, imported alone, loads exactly the package modules of the layers
below it."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

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


def unread_methods() -> list[str]:
    """Non-dunder methods and properties that a package class defines
    and no package module reads as an attribute: code only tests call,
    which belongs with the tests."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in PACKAGE}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    return [
        f"{path.relative_to(ROOT)}:{node.lineno}: {cls.name}.{node.name}"
        for path, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read
    ]


def test_every_method_is_read_by_the_package():
    assert unread_methods() == []


def stale_exports() -> list[str]:
    """`__all__` entries a module does not define."""
    stale = []
    for path in PACKAGE:
        module = importlib.import_module(
            "polyevp" if path.stem == "__init__" else f"polyevp.{path.stem}"
        )
        stale += [
            f"{path.name}: __all__ names {name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    return stale


def test_no_stale_exports():
    assert stale_exports() == []


def private_imports() -> list[str]:
    """Underscore names a package module imports from another one, or
    reads as ``module._name`` off a package module it imported."""
    modules = {path.stem for path in PACKAGE}
    found = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text(), str(path))
        bound = set()  # local names of imported package modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "polyevp"
            ):
                found += [
                    f"{path.relative_to(ROOT)}:{node.lineno}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
                if node.module in (None, "polyevp"):
                    bound |= {
                        alias.asname or alias.name
                        for alias in node.names
                        if alias.name in modules
                    }
        found += [
            f"{path.relative_to(ROOT)}:{node.lineno}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ]
    return found


def test_no_private_names_imported_across_modules():
    assert private_imports() == []


def _program_calls(tree: ast.AST) -> list[int]:
    """Line numbers of the calls of `LinearProgram` inside ``tree``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "LinearProgram" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def program_builders() -> list[str]:
    """Calls of `LinearProgram` in package modules other than `lp_core`."""
    return [
        f"{path.relative_to(ROOT)}:{line}"
        for path in PACKAGE
        if path.name != "lp_core.py"
        for line in _program_calls(ast.parse(path.read_text(), str(path)))
    ]


def test_only_lp_core_builds_programs():
    assert program_builders() == []


def lp_core_builders() -> list[str]:
    """Calls of `LinearProgram` in `lp_core` outside `combination_lp`,
    the one program builder."""
    path = ROOT / "src" / "polyevp" / "lp_core.py"
    return [
        f"{path.relative_to(ROOT)}:{line}"
        for top in ast.parse(path.read_text(), str(path)).body
        if getattr(top, "name", None) != "combination_lp"
        for line in _program_calls(top)
    ]


def test_only_combination_lp_builds_programs():
    assert lp_core_builders() == []


def det_divisions() -> list[str]:
    """Floor divisions by a name ``det`` in package modules other than
    `lp_core`.  Such a division is a fraction-free elimination step, and
    `lp_core.eliminate` is the one place that takes it."""
    found = []
    for path in PACKAGE:
        if path.name == "lp_core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.BinOp):
                divisor = node.right
            elif isinstance(node, ast.AugAssign):
                divisor = node.value
            else:
                continue
            if isinstance(node.op, ast.FloorDiv) and getattr(divisor, "id", None) == "det":
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def test_only_lp_core_takes_elimination_steps():
    assert det_divisions() == []


def row_makers() -> list[str]:
    """Uses of `cone_halfspaces` or `checked_rows` in package modules
    other than `geometry`, which makes each cone's rows and checks them
    once (`geometry.homogenized_halfspaces`).  A use is a call or any
    other read of the name, such as passing it to `map`."""
    found = []
    for path in PACKAGE:
        if path.name == "geometry.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name in (
                "cone_halfspaces", "checked_rows"
            ):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    return found


def test_only_geometry_makes_and_checks_rows():
    assert row_makers() == []


def idot_comparisons() -> list[str]:
    """Comparisons that take an `idot` call as an operand, in package
    modules other than `rational`.  Such a comparison decides a
    certificate by hand; `rational.nonnegative_on` and
    `rational.combines_to` are the one place that does it."""
    found = []
    for path in PACKAGE:
        if path.name == "rational.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Compare) and any(
                isinstance(e, ast.Call)
                and "idot" in (getattr(e.func, "id", None), getattr(e.func, "attr", None))
                for e in [node.left, *node.comparators]
            ):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def test_only_rational_decides_integer_certificates():
    assert idot_comparisons() == []


# What importing each module alone loads of the package besides itself:
# only the layers below it, never a module beside or above it.
LAYERS = {
    "polyevp": set(),
    "rational": set(),
    "lp_core": {"rational"},
    "geometry": {"lp_core", "rational"},
    "scalarization": {"geometry", "lp_core", "rational"},
    "boundedness": {"geometry", "lp_core", "rational"},
    "evp": {"scalarization", "geometry", "lp_core", "rational"},
    "problemfile": {"evp", "scalarization", "geometry", "lp_core", "rational"},
    "cli": {path.stem for path in PACKAGE} - {"__init__", "cli"},
}


def loaded_modules(name: str) -> set[str]:
    """The package modules a fresh interpreter holds after importing
    ``name`` (a module of the package, or the package itself) from this
    checkout, without the module itself."""
    module = name if name == "polyevp" else f"polyevp.{name}"
    script = (
        "import importlib, sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        f"importlib.import_module({module!r})\n"
        "print(' '.join(m for m in sys.modules if m.startswith('polyevp.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout
    return {m.removeprefix("polyevp.") for m in out.split()} - {name}


def test_layers_cover_every_module():
    modules = {path.stem for path in PACKAGE}
    assert set(LAYERS) == modules - {"__init__"} | {"polyevp"}


@pytest.mark.parametrize("name", LAYERS)
def test_module_loads_only_the_layers_below_it(name):
    assert loaded_modules(name) == LAYERS[name]
