"""The names the benchmark's tracer wraps must resolve in the program.

`perfbench/tracer.py` wraps every (module, attribute path) of its TARGETS
in each loaded `reflext` module, and a missing attribute there stops a
traced benchmark run.  TARGETS is read from the file's syntax tree: the
harness is neither imported nor changed.
"""

import ast
import importlib
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_traced_names_resolve_on_every_loaded_module():
    # the command line leaves out the generic toolkit, which `reflext hom` loads
    for name in ("reflext.cli", "reflext.repkit", "reflext.exterior"):
        importlib.import_module(name)
    targets = _targets()
    assert targets
    for module_name, path in targets:
        home = sys.modules.get(f"reflext.{module_name}")
        if home is None:
            continue  # the tracer skips modules that are not loaded
        owner = home
        for part in path.split("."):
            assert hasattr(owner, part), f"reflext.{module_name} has no {path}"
            owner = getattr(owner, part)
        assert callable(owner), f"reflext.{module_name}.{path} is not callable"
