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
