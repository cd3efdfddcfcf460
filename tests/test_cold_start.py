"""Cold start: sympy and jsonschema load only where they are used, the
generic toolkit (repkit, exterior) only for the commands that use it, and a
catalog entry is built at its first lookup, one entry at a time.

Each check runs in a fresh interpreter, so it sees exactly the modules that
an import or a command loads; nothing here depends on timing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from reflext.catalog import entry
from reflext.repfile import representation_to_document
from reflext.reports import THEOREM_SCHEMA

SRC = Path(__file__).resolve().parent.parent / "src"
TOOLKIT = ("reflext.repkit", "reflext.exterior")
# the names the package leaves to reflext.repkit and reflext.exterior
TOOLKIT_NAMES = (
    "compound", "wedge", "eigen_split", "EigenSplit", "exterior_subspace",
    "minus_basis_from_any_extension", "minus_intersection", "exterior_rep", "hom_dim",
    "dual_rep", "det_twist", "duality_intertwiner",
)


def _run(args, code=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, *args] if code is None else [sys.executable, *args, "-c", code]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120, env=env)


def _loaded_after(statement, modules=("sympy", "jsonschema")):
    code = (
        f"{statement}\n"
        "import sys, json\n"
        f"print(json.dumps([m in sys.modules for m in {modules!r}]))"
    )
    result = _run([], code)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def _command(args, code=0):
    """A statement running the command line on args, which must exit with code."""
    return (
        "from reflext.cli import main\n"
        "try:\n"
        f"    main({args!r})\n"
        "except SystemExit as exc:\n"
        f"    assert exc.code == {code}, exc.code"
    )


def test_import_loads_neither_sympy_nor_jsonschema():
    assert _loaded_after("import reflext") == [False, False]
    assert _loaded_after("import reflext.cli") == [False, False]


def test_no_runtime_dependency_and_simplicity_outside_the_namespace():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    assert any(d.startswith("sympy") for d in project["optional-dependencies"]["test"])
    # the generic oracle and toolkit stay in their modules; the type of
    # HypothesisReport.v_simple is public
    code = (
        "import json, reflext, reflext.repkit, reflext.exterior\n"
        "print(json.dumps(['simplicity' in reflext.__all__, hasattr(reflext, 'simplicity'),\n"
        "    'SimplicityVerdict' in reflext.__all__, callable(reflext.repkit.simplicity)]))\n"
        f"names = {TOOLKIT_NAMES!r}\n"
        "print(json.dumps([[n in reflext.__all__, hasattr(reflext, n)] for n in names]))\n"
        "homes = (reflext.repkit, reflext.exterior)\n"
        "print(json.dumps([any(hasattr(home, n) for home in homes) for n in names]))"
    )
    result = _run([], code)
    assert result.returncode == 0, result.stderr
    first, toolkit, homes = result.stdout.splitlines()
    assert json.loads(first) == [False, False, True, True]
    assert json.loads(toolkit) == [[False, False]] * len(TOOLKIT_NAMES)
    assert json.loads(homes) == [True] * len(TOOLKIT_NAMES)


def test_import_verify_and_analyze_load_no_toolkit():
    for statement in (
        "import reflext",
        "import reflext.cli",
        _command(["verify", "A2", "--json"]),
        _command(["analyze", "A3", "--json"]),
    ):
        assert _loaded_after(statement, TOOLKIT) == [False, False], statement


def test_hom_and_exterior_load_the_toolkit_and_print_as_before():
    exterior_a3_2 = [
        "exterior power d=2 of A3 (dim 3)",
        "  s1:", "    [ -1  0  0 ]", "    [ 0  -1  1 ]", "    [ 0  0  1 ]",
        "  s2:", "    [ -1  1  0 ]", "    [ 0  1  0 ]", "    [ 0  1  -1 ]",
        "  s3:", "    [ 1  0  0 ]", "    [ 1  -1  0 ]", "    [ 0  0  -1 ]",
    ]
    for args, expected in [
        (["hom", "A3:1", "A3:2"], ["dim Hom(A3:1, A3:2) = 0"]),
        (["exterior", "A3", "--d", "2"], exterior_a3_2),
    ]:
        code = _command(args) + f"\nimport sys\nprint([m in sys.modules for m in {TOOLKIT!r}])"
        result = _run([], code)
        assert result.returncode == 0, result.stderr
        *printed, loaded = result.stdout.splitlines()
        assert printed == expected, args
        assert loaded == "[True, True]", args


def test_import_builds_no_catalog_entry():
    code = (
        "import reflext.cli\n"
        "from reflext import catalog\n"
        "print(catalog._build_entries.cache_info().currsize)\n"
        "names = catalog.list_entries()\n"
        "print(catalog._build_entries.cache_info().currsize, names[0], names[-1], len(names))"
    )
    result = _run([], code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["0", "1 A2 dihedral-3-3 24"]


def test_hom_command_does_not_load_sympy():
    assert _loaded_after(_command(["hom", "A3:1", "A3:2", "--json"]))[0] is False


def test_verify_under_optimize_emits_a_valid_document():
    result = _run(["-O", "-m", "reflext.cli", "verify", "A3", "--json"])
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    jsonschema.Draft7Validator(THEOREM_SCHEMA).validate(doc)
    assert doc["conclusion"]["status"] == "TheoremVerified"


def test_simplicity_loads_sympy_on_demand():
    # Burnside (A2) and the trace radical (the reducible module of
    # tests/test_certificates.py::test_search_exhausted_is_never_simple) need
    # no root search; trivial + sign of Z/2 reaches the commutant-kernel step
    code = """
import sys
from fractions import Fraction as F
from reflext.catalog import entry
from reflext.linalg import Matrix
from reflext.repkit import Representation, simplicity
g1 = Matrix.from_rows([[F(17, 2), F(-15, 4), F(3, 4), F(43, 4)], [-1, 11, 4, F(-44, 3)],
                       [F(-35, 2), F(-25, 4), F(-31, 4), F(-49, 12)],
                       [F(-21, 2), F(15, 4), F(-3, 4), F(-55, 4)]])
g2 = Matrix.from_rows([[F(-33, 2), F(-23, 4), F(-25, 4), F(-13, 4)], [23, 12, 10, F(4, 3)],
                       [F(15, 2), F(5, 4), F(7, 4), F(29, 12)],
                       [F(33, 2), F(33, 4), F(27, 4), F(3, 4)]])
for rep in (entry("A2").representation, Representation([g1, g2]),
            Representation([Matrix.from_rows([[1, 0], [0, -1]])])):
    verdict = simplicity(rep)
    print(verdict.status, verdict.method, "sympy" in sys.modules)
"""
    result = _run([], code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "Simple burnside False",
        "Reducible trace-radical False",
        "Reducible commutant-kernel True",
    ]


def test_commands_load_neither_sympy_nor_jsonschema():
    # report validation uses reflext.schema, so no command needs jsonschema
    for args, code in [
        (["verify", "A3", "--json"], 0),
        (["verify", "cond4-fail"], 3),
        (["analyze", "A3", "--json"], 0),
    ]:
        assert _loaded_after(_command(args, code)) == [False, False], args


def test_cli_loads_neither_click_nor_dataclasses():
    # an argparse front end and NamedTuple records; dataclasses would also load inspect
    code = (
        "import sys\n"
        "def loaded():\n"
        "    return [m for m in ('click', 'dataclasses', 'inspect') if m in sys.modules]\n"
        "import reflext.cli\n"
        "print(loaded())\n"
        "for args in (['verify', 'A3', '--json'], ['analyze', 'A3', '--json'],\n"
        "             ['hom', 'A3:1', 'A3:2', '--json']):\n"
        "    try:\n"
        "        reflext.cli.main(args)\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, (args, exc.code)\n"
        "print(loaded(), file=sys.stderr)\n"
    )
    result = _run([], code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == "[]"
    assert result.stderr.strip() == "[]"


def test_lookup_builds_only_the_named_entry(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(representation_to_document(entry("A2").representation)))
    code = (
        "from reflext import catalog\n"
        "from reflext.cli import _load_target\n"
        "built = []\n"
        "class Counted(catalog.Representation):\n"
        "    def __init__(self, *args):\n"
        "        built.append(1)\n"
        "        super().__init__(*args)\n"
        "catalog.Representation = Counted\n"
        "catalog.entry('A3')\n"
        "catalog.entry('A3')\n"
        "print(len(built))\n"
        "try:\n"
        "    catalog.entry('no-such-entry')\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, len(built))\n"
        f"_load_target({str(path)!r})\n"
        "print(len(built), len(catalog.list_entries()))"
    )
    result = _run([], code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["1", "UnknownEntry 1", "1 24"]
