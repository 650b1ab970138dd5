"""Source layout rules checked over the package's own modules."""

import ast
from pathlib import Path

import canvdw

SRC = Path(canvdw.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_modules_use_only_public_names_of_each_other():
    # A module's underscore names are its own.  A helper that another
    # module needs is made public, or the work moves behind a public name.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "canvdw"
            ):
                for alias in node.names:
                    if _private(alias.name):
                        found.append(f"{path.name}:{node.lineno}: imports {alias.name}")
                    if node.module in (None, "canvdw"):
                        modules.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and _private(node.attr)
            ):
                found.append(f"{path.name}:{node.lineno}: uses {node.value.id}.{node.attr}")
    assert found == []


def test_public_names_are_exported_from_the_package():
    # Every public function and class of the library modules is reachable
    # as canvdw.<name>, and is the module's own object.
    missing = []
    for modname in ("coloring", "polynomial", "search", "witness"):
        path = SRC / f"{modname}.py"
        module = getattr(canvdw, modname)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if getattr(canvdw, node.name, None) is not getattr(module, node.name):
                    missing.append(f"{modname}.{node.name}")
    assert missing == []
