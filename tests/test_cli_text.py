"""Golden text output of the command line, byte for byte.

Each case pins the whole stdout and the exit code of one command in text
mode, including the lines that only failure reports, traces and file
targets print: condition-1 failures, move chains, witness subspaces, the
zero subspace and the catalog entry text."""

import contextlib
import io
import json

import pytest

from reflext.cli import main

TRANSVECTION_DOC = {
    "field": "Q",
    "dim": 2,
    "generators": [
        {"label": "t", "matrix": [["1", "1"], ["0", "1"]]},
        {"label": "s", "matrix": [["-1", "0"], ["0", "1"]]},
    ],
}
LINE_DOC = {"field": "Q", "dim": 1, "generators": [{"label": "r", "matrix": [["-1"]]}]}

GOLDEN = {
    "verify-cond4-fail": (
        ["verify", "cond4-fail"],
        3,
        """\
certification of cond4-fail  (dim 2, 2 generators, field Q)
  condition 1: all generators are generalized reflections
  condition 3: base representation Reducible (commutant dim 1, method reflection-span)
  condition 4: VIOLATED at pairs [[1, 2]]
  conclusion: HypothesisFailed
    reason: condition4: asymmetric fixing of reflection vectors
    witness pairs: [[1, 2]]
  note: generators 1 and 2 are involutions with asymmetric fixing; the order of their product is then forced infinite (not machine-checked)
""",
    ),
    "verify-reducible-direct-sum": (
        ["verify", "reducible-direct-sum"],
        3,
        """\
certification of reducible-direct-sum  (dim 3, 2 generators, field Q)
  condition 1: all generators are generalized reflections
  condition 3: base representation Reducible (commutant dim 2, method reflection-kernel)
  condition 4: holds
  conclusion: HypothesisFailed
    reason: condition3: base representation is reducible
    witness subspace basis:
      [ 0  0  1 ]
""",
    ),
    "verify-B2-trace": (
        ["verify", "B2", "--trace"],
        0,
        """\
certification of B2  (dim 2, 2 generators, field Q)
  condition 1: all generators are generalized reflections
  condition 3: base representation Simple (commutant dim 1, method reflection-criterion)
  condition 4: holds
  graph connected: True
  connected basis subset: [1, 2]
  degree  dim  commutant  verdict   claim-4 lines (by rank of alpha_S)
      0     1         1  Simple    1
      1     2         1  Simple    2
      2     1         1  Simple    1
  hom-space dimensions between exterior powers:
    1  0  0
    0  1  0
    0  0  1
  move trace for d=1 (base [1]):
    to [2]: {1} -> {2}
  conclusion: TheoremVerified
""",
    ),
    "verify-transvection": (
        ["verify", "{transvection}"],
        3,
        """\
certification of {transvection}  (dim 2, 2 generators, field Q)
  condition 1 FAILED: generator 1: NotDiagonalizable: unipotent transvection: eigenvalue 1 on the moving line
  conclusion: HypothesisFailed
    reason: condition1: generator(s) 1 (NotDiagonalizable: unipotent transvection: eigenvalue 1 on the moving line)
""",
    ),
    "analyze-transvection": (
        ["analyze", "{transvection}"],
        3,
        """\
analysis of {transvection}  (dim 2, field Q)
  t: NOT a reflection -- NotDiagonalizable: unipotent transvection: eigenvalue 1 on the moving line
  s: reflection, alpha = (1, 0), eigenvalue = -1
    hyperplane basis:
      [ 0  1 ]
""",
    ),
    "analyze-A3": (
        ["analyze", "A3"],
        0,
        """\
analysis of A3  (dim 3, field Q)
  s1: reflection, alpha = (1, 0, 0), eigenvalue = -1
    hyperplane basis:
      [ 1  2  0 ]
      [ 0  0  1 ]
  s2: reflection, alpha = (0, 1, 0), eigenvalue = -1
    hyperplane basis:
      [ 1  0  -1 ]
      [ 0  1   2 ]
  s3: reflection, alpha = (0, 0, 1), eigenvalue = -1
    hyperplane basis:
      [ 1  0    0 ]
      [ 0  1  1/2 ]
  condition 4 holds (non-fixing relation is symmetric)
  graph: vertices [1, 2, 3], edges {1,2}, {2,3}
""",
    ),
    "analyze-line": (
        ["analyze", "{line}"],
        0,
        """\
analysis of {line}  (dim 1, field Q)
  r: reflection, alpha = (1), eigenvalue = -1
    hyperplane basis:
      (zero subspace)
  condition 4 holds (non-fixing relation is symmetric)
  graph: vertices [1], edges (none)
""",
    ),
    "exterior-A2-d2": (
        ["exterior", "A2", "--d", "2"],
        0,
        """\
exterior power d=2 of A2 (dim 1)
  s1:
    [ -1 ]
  s2:
    [ -1 ]
""",
    ),
    "catalog-show-H2-5": (
        ["catalog", "show", "H2-5"],
        0,
        """\
H2-5: order-10 dihedral reflection representation over Q(sqrt(5))
  field {'quadratic': 5}, dim 2
  s1:
    [ -1  1/2+1/2*sqrt(5) ]
    [ 0  1 ]
  s2:
    [ 1  0 ]
    [ 1/2+1/2*sqrt(5)  -1 ]
""",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cli_text_output_is_golden(case, tmp_path):
    args, code, expected = GOLDEN[case]
    files = {}
    for name, doc in (("transvection", TRANSVECTION_DOC), ("line", LINE_DOC)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        files[name] = str(path)

    def fill(text):
        for name, path in files.items():
            text = text.replace("{%s}" % name, path)
        return text

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main([fill(arg) for arg in args])
    assert exc.value.code == code
    assert out.getvalue() == fill(expected)
    assert err.getvalue() == ""
