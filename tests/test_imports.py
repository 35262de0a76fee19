"""What ``import bridgestate.cli`` loads: every layer the benchmark's
tracer wraps, and none of the modules only some outputs need."""

import ast
import subprocess
import sys
from pathlib import Path

import bridgestate

ROOT = Path(__file__).resolve().parent.parent

# imported where they are used: fractions for display, failure messages
# and Fraction input, json for JSON output, and dataclasses not at all
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
