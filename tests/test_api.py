"""No public function exists only for its tests: every public name that
``bridgestate/__init__.py`` exports is read by package code outside its own
definition, in its own module or in another.  A mention in README.md does
not count.  Helpers only the tests use belong in ``tests/oracles.py``."""

import ast
import types
from pathlib import Path

import bridgestate

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bridgestate"


def names_read(path: Path) -> list:
    """(name, names) for each top-level statement of a module: the name it
    defines, if it is a def or a class, and every name it reads, reads as
    an attribute or imports."""
    found = []
    for top in ast.parse(path.read_text()).body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        found.append((getattr(top, "name", None), names))
    return found


def test_every_export_is_read_by_package_code():
    modules = {path.stem: names_read(path) for path in PACKAGE.glob("*.py")
               if path.name != "__init__.py"}
    unread = [
        name for name, obj in vars(bridgestate).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
        and not any(name in names for module, tops in modules.items()
                    for defined, names in tops
                    if (module, defined) != (obj.__module__.rsplit(".")[-1],
                                             name))
    ]
    assert unread == []
