"""What the package's modules import from each other, and what ``import
bridgestate.cli`` loads: every layer the benchmark's tracer wraps, and none
of the modules only some outputs need.

The report pass of ``invariants`` and the eliminations of ``state_matrices``
(the oracle and the sparse signature) are independent routes to the same
invariants, and ``checks`` compares them; neither route imports the other,
so neither can call the other's code."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import bridgestate

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bridgestate"

# imported where they are used: fractions only in the methods of
# LaurentPolynomial, which no package code calls, as text output and failure
# messages print from integers; dataclasses and json not at all
NOT_AT_START = ("dataclasses", "inspect", "fractions", "decimal", "json")


def tracer_layers() -> tuple:
    """``LAYERS`` of perfbench/spans.py, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["LAYERS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no LAYERS")


def modules_after(code: str) -> set:
    """The modules a fresh interpreter has loaded once it has run ``code``."""
    # -S: without site, which may import some of these on its own
    src = str(Path(bridgestate.__file__).parent.parent)
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        f"{code}\n"
        "print(' '.join(sorted(sys.modules)), file=sys.stderr)\n"
    )
    return set(subprocess.run([sys.executable, "-S", "-c", code],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, check=True).stderr.split())


def test_cli_import_loads_the_layers_and_nothing_heavier():
    loaded = modules_after("import bridgestate.cli")
    assert [m for m in NOT_AT_START if m in loaded] == []
    layers = tracer_layers()
    assert "invariants" in layers
    assert [m for m in layers if f"bridgestate.{m}" not in loaded] == []


def test_census_does_not_need_the_checks():
    assert "bridgestate.checks" not in modules_after("import bridgestate.census")


def test_surfaces_json_does_not_need_fractions():
    # the expansions of a knot come from its integer targets
    loaded = modules_after("from bridgestate.cli import main\n"
                           "assert main(['surfaces', '5', '2', '--json']) == 0")
    assert "fractions" not in loaded


@pytest.mark.parametrize("command", ["invariants", "surfaces"])
def test_text_output_does_not_need_fractions(command):
    # the tables print every polynomial from its integers (poly_text)
    loaded = modules_after("from bridgestate.cli import main\n"
                           f"assert main([{command!r}, '5', '2']) == 0")
    assert [m for m in ("fractions", "decimal") if m in loaded] == []


@pytest.mark.parametrize("argv", [
    ["invariants", "5", "2", "--json"],
    ["census", "--max-alpha", "5", "--json"],
])
def test_json_output_does_not_need_json(argv):
    # the record templates hold their keys as literals, and no strings
    loaded = modules_after("from bridgestate.cli import main\n"
                           f"assert main({argv!r}) == 0")
    assert "json" not in loaded


def test_a_passing_verify_does_not_need_fractions():
    # the oracle and the negative control compare integer lists
    loaded = modules_after("from bridgestate.cli import main\n"
                           "assert main(['verify', '5', '2']) == 0")
    assert [m for m in ("fractions", "decimal") if m in loaded] == []


def test_only_laurent_imports_fractions():
    # the package builds no Fraction; LaurentPolynomial is the tests' container
    importers = {path.name for path in PACKAGE.glob("*.py")
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Import)
                 and "fractions" in [a.name for a in node.names]
                 or isinstance(node, ast.ImportFrom) and not node.level
                 and node.module == "fractions"}
    assert importers == {"laurent.py"}


def package_imports(source: str) -> set:
    """(module, name) for each import of ``source`` from the package: name
    is None for a whole module, as in ``from . import x`` or ``import
    bridgestate.x``, and the imported name for ``from .x import name``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            base = ("bridgestate." if node.level else "") + (node.module or "")
            if node.level > 1 or base.partition(".")[0] != "bridgestate":
                continue
            module = base.removeprefix("bridgestate").lstrip(".")
            found.update((module, a.name) if module else (a.name, None)
                         for a in node.names)
        elif isinstance(node, ast.Import):
            found.update((a.name.split(".")[1], None) for a in node.names
                         if a.name.startswith("bridgestate."))
    return found


def route_violations(module: str, source: str) -> list:
    """The imports of ``source``, the text of the package module
    ``module``, that break the independence of the two routes:

    * ``invariants`` imports nothing from ``state_matrices``, ``checks``,
      ``census`` or ``cli``;
    * ``state_matrices`` imports from the package only ``errors``,
      ``values`` and the class ``continued_fractions.Expansion``;
    * no module but ``checks`` and ``__init__`` imports ``state_matrices``.
    """
    bad = []
    for target, name in package_imports(source):
        if module == "invariants":
            wrong = target in ("state_matrices", "checks", "census", "cli")
        elif module == "state_matrices":
            wrong = (target not in ("errors", "values")
                     and (target, name) != ("continued_fractions",
                                            "Expansion"))
        else:
            wrong = (target == "state_matrices"
                     and module not in ("checks", "__init__"))
        if wrong:
            bad.append(f"{module} imports {target}"
                       + (f".{name}" if name else ""))
    return sorted(bad)


def test_the_two_routes_do_not_import_each_other():
    assert [bad for path in sorted(PACKAGE.glob("*.py"))
            for bad in route_violations(path.stem, path.read_text())] == []


@pytest.mark.parametrize("module, line, reported", [
    ("state_matrices", "from .invariants import _unpack",
     "state_matrices imports invariants._unpack"),
    ("invariants", "from .state_matrices import _bareiss_update",
     "invariants imports state_matrices._bareiss_update"),
    ("census", "from . import state_matrices",
     "census imports state_matrices"),
    ("cli", "import bridgestate.state_matrices",
     "cli imports state_matrices"),
    ("invariants", "def f():\n    from bridgestate.checks import check_knot",
     "invariants imports checks.check_knot"),
    ("state_matrices", "from .continued_fractions import _targets",
     "state_matrices imports continued_fractions._targets"),
], ids=["recurrence-helper", "elimination-helper", "whole-module",
        "absolute-import", "in-a-function", "other-name"])
def test_an_injected_import_is_reported(module, line, reported):
    source = (PACKAGE / f"{module}.py").read_text()
    assert route_violations(module, source) == []
    assert route_violations(module, f"{source}\n{line}\n") == [reported]
