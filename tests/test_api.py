"""No public function exists only for its tests: every public name that
``bridgestate/__init__.py`` exports is used by a package module other than
the one defining it, or named in README.md.  Helpers only the tests use
belong in ``tests/oracles.py``."""

import ast
import re
import types
from pathlib import Path

import bridgestate

ROOT = Path(__file__).resolve().parent.parent


def names_read(path: Path) -> set:
    """Every name a module reads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_export_is_used_or_documented():
    modules = {path.stem: names_read(path)
               for path in (ROOT / "src" / "bridgestate").glob("*.py")
               if path.name != "__init__.py"}
    readme = (ROOT / "README.md").read_text()
    unused = [
        name for name, obj in vars(bridgestate).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
        and not any(name in names for module, names in modules.items()
                    if module != obj.__module__.rsplit(".", 1)[-1])
        and not re.search(rf"\b{name}\b", readme)
    ]
    assert unused == []
