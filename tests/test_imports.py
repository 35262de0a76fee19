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


def test_cli_import_loads_the_layers_and_nothing_heavier():
    # -S: without site, which may import some of these on its own
    src = str(Path(bridgestate.__file__).parent.parent)
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import bridgestate.cli\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    loaded = set(subprocess.run([sys.executable, "-S", "-c", code],
                                stdout=subprocess.PIPE, text=True,
                                check=True).stdout.split())
    assert [m for m in NOT_AT_START if m in loaded] == []
    layers = tracer_layers()
    assert "invariants" in layers
    assert [m for m in layers if f"bridgestate.{m}" not in loaded] == []
