import contextlib
import copy
import io
import json
from math import comb
from types import SimpleNamespace

import jsonschema
import pytest

from reflext import cli, repfile, repkit, reports, scalars
from reflext.catalog import _cartan_rep, entry
from reflext.cli import main
from reflext.errors import InternalError, NotConnected, ParseError, SchemaViolation
from reflext.graphs import induced
from reflext.repfile import (
    load_repfile,
    representation_from_document,
    representation_to_document,
)
from reflext.reports import ANALYZE_SCHEMA, THEOREM_SCHEMA

A2_DOC = {
    "field": "Q",
    "dim": 2,
    "generators": [
        {"label": "s1", "matrix": [["-1", "1"], ["0", "1"]]},
        {"label": "s2", "matrix": [["1", "0"], ["1", "-1"]]},
    ],
}


class _Runner:
    """Runs a command in-process: `.invoke(main, args)` returns its
    `.exit_code`, `.output` (stdout) and `.stderr`.  Any exception other
    than SystemExit propagates."""

    @staticmethod
    def invoke(command, args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                command(args)
            except SystemExit as exc:
                code = exc.code
            else:
                code = 0
        return SimpleNamespace(exit_code=code, output=out.getvalue(), stderr=err.getvalue())


@pytest.fixture
def runner():
    return _Runner()


def test_repfile_roundtrip(tmp_path):
    rep = representation_from_document(A2_DOC)
    assert rep.dim == 2
    assert representation_to_document(rep) == A2_DOC

    path = tmp_path / "a2.json"
    path.write_text(json.dumps(A2_DOC))
    loaded = load_repfile(str(path))
    assert loaded.generators == rep.generators


def test_repfile_quadratic_roundtrip():
    doc = representation_to_document(entry("H2-5").representation)
    assert doc["field"] == {"quadratic": 5}
    rep = representation_from_document(doc)
    assert rep.generators == entry("H2-5").representation.generators


def test_repfile_rejects_bad_documents():
    for bad in [
        "not a dict",
        {"field": "Q", "dim": 2},
        {"field": "R", "dim": 2, "generators": []},
        {"field": "Q", "dim": 0, "generators": []},
        {"field": "Q", "dim": 2, "generators": []},
        {"field": "Q", "dim": 2, "generators": [{"matrix": [["1"]]}]},
        {"field": "Q", "dim": 1, "generators": [{"matrix": [[1]]}]},  # non-string entry
        {"field": "Q", "dim": 1, "generators": [{"matrix": [["0"]]}]},  # singular
        {"field": "Q", "dim": 1, "generators": [{"matrix": [["1+1*sqrt(5)"]]}]},
        {"field": "Q", "dim": 1, "generators": [{"label": "s1"}]},  # no matrix
    ]:
        with pytest.raises(ParseError):
            representation_from_document(bad)


@pytest.mark.parametrize(
    "doc",
    [
        {"field": "Q", "dim": 1, "generators": [{"matrix": [["0"]]}]},
        {
            "field": {"quadratic": 5},
            "dim": 2,
            "generators": [{"matrix": [["1+1*sqrt(5)", "2"], ["2", "-1+1*sqrt(5)"]]}],
        },
        {
            "field": "Q",
            "dim": 3,
            "generators": [{"matrix": [["1", "2", "3"], ["2", "4", "6"], ["0", "1", "1"]]}],
        },
    ],
    ids=["zero-over-Q", "singular-over-sqrt5", "rank-2-at-dim-3"],
)
def test_cli_singular_generator_exits_two(runner, tmp_path, doc):
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    for command in (["verify", str(path), "--json"], ["analyze", str(path)]):
        result = runner.invoke(main, command)
        assert result.exit_code == 2
        assert result.output == ""
        assert result.stderr == "error: invalid representation: generators must be invertible\n"


def test_cli_verify_a3_exit_zero(runner):
    result = runner.invoke(main, ["verify", "A3"])
    assert result.exit_code == 0
    assert "TheoremVerified" in result.output


def test_cli_verify_cond4_fail_exit_three(runner):
    result = runner.invoke(main, ["verify", "cond4-fail"])
    assert result.exit_code == 3
    assert "condition4" in result.output


def test_cli_verify_json_schema(runner):
    result = runner.invoke(main, ["verify", "A2", "--json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    jsonschema.validate(doc, THEOREM_SCHEMA)
    assert doc["conclusion"]["status"] == "TheoremVerified"
    hom = doc["pairwise_hom"]
    assert hom == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_cli_verify_trace_replays(runner):
    result = runner.invoke(main, ["verify", "--d", "2", "--trace", "A3", "--json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    (per_d,) = doc["per_degree"]
    assert per_d["d"] == 2
    trace = per_d["claim5_trace"]
    assert trace is not None
    subset = doc["claims"]["claim3_subset"]
    graph = induced(
        __import__("reflext").Graph(
            doc["hypothesis"]["graph"]["vertices"], doc["hypothesis"]["graph"]["edges"]
        ),
        subset,
    )
    import itertools

    covered = {tuple(trace["base"])}
    for seq in trace["sequences"]:
        current = set(trace["base"])
        for st in seq["steps"]:
            assert graph.has_edge(st["removed"], st["added"])
            assert st["removed"] in current and st["added"] not in current
            current.remove(st["removed"])
            current.add(st["added"])
        assert current == set(seq["target"])
        covered.add(tuple(seq["target"]))
    assert covered == set(itertools.combinations(sorted(subset), 2))


def test_cli_directory_target_exits_two(runner, tmp_path):
    for command in ("verify", "analyze"):
        result = runner.invoke(main, [command, str(tmp_path)])
        assert result.exit_code == 2
        assert result.output == ""
        assert result.stderr.startswith(f"error: cannot read {tmp_path}: [Errno 21] Is a directory")
        assert result.stderr.count("\n") == 1


def test_cli_verify_parse_error_exit_two(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert runner.invoke(main, ["verify", str(bad)]).exit_code == 2
    assert runner.invoke(main, ["verify", "missing-entry"]).exit_code == 2


def test_cli_analyze_a2(runner):
    result = runner.invoke(main, ["analyze", "A2"])
    assert result.exit_code == 0
    assert "alpha = (1, 0)" in result.output
    assert "alpha = (0, 1)" in result.output
    assert "eigenvalue = -1" in result.output
    assert "condition 4 holds" in result.output
    assert "{1,2}" in result.output


def test_cli_analyze_condition4_violation(runner):
    result = runner.invoke(main, ["analyze", "cond4-fail"])
    assert result.exit_code == 3
    assert "VIOLATED" in result.output


def test_cli_analyze_non_reflection_generator(runner, tmp_path):
    doc = {
        "field": "Q",
        "dim": 2,
        "generators": [
            {"label": "id", "matrix": [["1", "0"], ["0", "1"]]},
            {"label": "s", "matrix": [["-1", "1"], ["0", "1"]]},
        ],
    }
    path = tmp_path / "nonrefl.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["analyze", str(path)])
    assert result.exit_code == 3
    assert "id: NOT a reflection" in result.output


def test_cli_analyze_json_schema(runner):
    result = runner.invoke(main, ["analyze", "H2-5", "--json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    jsonschema.validate(doc, ANALYZE_SCHEMA)
    assert doc["field"] == {"quadratic": 5}


def test_cli_exterior(runner):
    result = runner.invoke(main, ["exterior", "A2", "--d", "2"])
    assert result.exit_code == 0
    assert result.output.count("[ -1 ]") == 2
    assert runner.invoke(main, ["exterior", "A2", "--d", "5"]).exit_code == 2


def test_cli_hom(runner):
    assert "= 1" in runner.invoke(main, ["hom", "A2:1", "A2:1"]).output
    assert "= 0" in runner.invoke(main, ["hom", "A2:0", "A2:2"]).output
    result = runner.invoke(main, ["hom", "A2", "A2", "--json"])
    assert json.loads(result.output)["hom_dim"] == 1


def test_cli_catalog_list_and_show(runner):
    listing = runner.invoke(main, ["catalog", "list"])
    assert listing.exit_code == 0
    assert "A2" in listing.output and "H2-5" in listing.output

    show = runner.invoke(main, ["catalog", "show", "A2", "--json"])
    assert show.exit_code == 0
    assert json.loads(show.output) == A2_DOC

    assert runner.invoke(main, ["catalog", "show", "nope"]).exit_code == 2


def test_cli_verify_file_roundtrip(runner, tmp_path):
    # a verify run on a file written by catalog show must agree with the entry
    show = runner.invoke(main, ["catalog", "show", "B2", "--json"])
    path = tmp_path / "b2.json"
    path.write_text(show.output)
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 0


def test_cli_verify_quadratic_file_roundtrip(runner, tmp_path):
    # exercise the quadratic wire format end to end
    show = runner.invoke(main, ["catalog", "show", "H2-5", "--json"])
    doc = json.loads(show.output)
    assert doc["field"] == {"quadratic": 5}
    assert any("sqrt(5)" in e for g in doc["generators"] for row in g["matrix"] for e in row)
    path = tmp_path / "h2.json"
    path.write_text(show.output)
    result = runner.invoke(main, ["verify", str(path), "--json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["conclusion"]["status"] == "TheoremVerified"


def test_cli_verify_bad_degree_exit_two(runner):
    assert runner.invoke(main, ["verify", "A2", "--d", "7"]).exit_code == 2


def test_cli_failure_documents_validate_against_schema(runner, tmp_path):
    # failure reports must satisfy the same schema as success reports
    for target in ("cond4-fail", "dihedral-0-0", "reducible-direct-sum"):
        result = runner.invoke(main, ["verify", target, "--json"])
        assert result.exit_code == 3
        doc = json.loads(result.output)
        jsonschema.validate(doc, THEOREM_SCHEMA)
        assert doc["conclusion"]["status"] == "HypothesisFailed"

    nonrefl = {
        "field": "Q",
        "dim": 2,
        "generators": [{"label": "id", "matrix": [["1", "0"], ["0", "1"]]}],
    }
    path = tmp_path / "nr.json"
    path.write_text(json.dumps(nonrefl))
    result = runner.invoke(main, ["verify", str(path), "--json"])
    assert result.exit_code == 3
    doc = json.loads(result.output)
    jsonschema.validate(doc, THEOREM_SCHEMA)
    assert doc["hypothesis"]["condition1"]["ok"] is False


def test_cli_verify_oversized_scalar_exit_two(runner, tmp_path):
    # more digits than int() converts: a parse error, not a traceback
    doc = {"field": "Q", "dim": 1, "generators": [{"matrix": [["1" * 5001]]}]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error:")
    # the same length as a bare JSON integer fails in json.load, not parse_scalar
    path.write_text('{"field": "Q", "dim": %s, "generators": []}' % ("1" * 5001))
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error:")


def _sqrt_dihedral_doc(m):
    # infinite dihedral with a = b = sqrt(m): a * b = m != 4, so it verifies
    root = f"0+1*sqrt({m})"
    return {
        "field": {"quadratic": m},
        "dim": 2,
        "generators": [
            {"label": "s1", "matrix": [["-1", root], ["0", "1"]]},
            {"label": "s2", "matrix": [["1", "0"], [root, "-1"]]},
        ],
    }


def test_cli_verify_large_prime_radicand(runner, tmp_path):
    # a 14-digit prime: trial division stops at its cube root, about 2 * 10**4
    path = tmp_path / "prime14.json"
    path.write_text(json.dumps(_sqrt_dihedral_doc(10000000000037)))
    result = runner.invoke(main, ["verify", str(path), "--json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["conclusion"]["status"] == "TheoremVerified"


def test_cli_verify_radicand_over_limit_exit_two(runner, tmp_path):
    path = tmp_path / "radicand19.json"
    path.write_text(json.dumps(_sqrt_dihedral_doc(1000000000000000003)))
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error:")


def test_cli_verify_boolean_dim_exit_two(runner, tmp_path):
    # bool is an int subclass; "dim": true must not reach the report schema
    doc = {"field": "Q", "dim": True, "generators": [{"matrix": [["2"]]}]}
    path = tmp_path / "booldim.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error:")


def test_schemas_are_valid_draft7():
    jsonschema.Draft7Validator.check_schema(THEOREM_SCHEMA)
    jsonschema.Draft7Validator.check_schema(ANALYZE_SCHEMA)


def test_tampered_documents_are_rejected(runner):
    from reflext.reports import validate_analyze_document, validate_theorem_document

    theorem = json.loads(runner.invoke(main, ["verify", "A3", "--json"]).output)
    analyze = json.loads(runner.invoke(main, ["analyze", "A3", "--json"]).output)
    for validate, doc, key, bad in [
        (validate_theorem_document, theorem, "dim", "3"),
        (validate_analyze_document, analyze, "ok", "yes"),
    ]:
        validate(doc)
        with pytest.raises(SchemaViolation) as info:
            validate(dict(doc, **{key: bad}))
        assert list(info.value.path) == [key]
        validate(doc)
    assert not jsonschema.Draft7Validator(THEOREM_SCHEMA).is_valid(dict(theorem, dim="3"))
    assert not jsonschema.Draft7Validator(ANALYZE_SCHEMA).is_valid(dict(analyze, ok="yes"))
    # nested faults; an extra key is reported at the object that holds it
    for where, bad, path in [
        (["per_degree", 0, "claim4", "ok"], "yes", ["per_degree", 0, "claim4", "ok"]),
        (
            ["hypothesis", "reflections", 1, "alpha", 0],
            "1.5",
            ["hypothesis", "reflections", 1, "alpha", 0],
        ),
        (["conclusion", "extra"], None, ["conclusion"]),
    ]:
        tampered = copy.deepcopy(theorem)
        parent = tampered
        for step in where[:-1]:
            parent = parent[step]
        parent[where[-1]] = bad
        with pytest.raises(SchemaViolation) as info:
            validate_theorem_document(tampered)
        assert list(info.value.path) == path
        assert not jsonschema.Draft7Validator(THEOREM_SCHEMA).is_valid(tampered)


def test_repfile_validates_its_radicand_once(monkeypatch):
    # 64 sqrt entries of the declared field: one square-freeness test, not 65
    p = 999999999999999989  # the largest prime below 10**18
    rows = [
        [f"{int(i == j)}+1*sqrt({p})" for j in range(4)] for i in range(4)
    ]  # I + sqrt(p) J, det 1 + 4 sqrt(p)
    doc = {"field": {"quadratic": p}, "dim": 4, "generators": [{"matrix": rows}] * 4}
    calls = []
    real = scalars._is_square_free
    monkeypatch.setattr(scalars, "_is_square_free", lambda m: calls.append(m) or real(m))
    rep = representation_from_document(doc)
    assert rep.field() == p
    assert calls == [p]


@pytest.mark.parametrize(
    "field, value", [("Q", "1+1*sqrt(4)"), ({"quadratic": 5}, "1+1*sqrt(7)")]
)
def test_cli_verify_entry_outside_declared_field_exit_two(runner, tmp_path, field, value):
    doc = {"field": field, "dim": 1, "generators": [{"matrix": [[value]]}]}
    path = tmp_path / "outside.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error:")
    assert "outside the declared field" in result.stderr


def _chain_file(tmp_path, n):
    cartan = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    path = tmp_path / f"a{n}.json"
    path.write_text(json.dumps(representation_to_document(_cartan_rep(cartan))))
    return str(path)


def _refuse(*args, **kwargs):
    raise AssertionError("a refused request started its computation")


def test_cli_verify_trace_dimension_limit(runner, tmp_path, monkeypatch):
    n = cli.MAX_TRACE_DIM + 1
    monkeypatch.setattr(cli, "verify_theorem", _refuse)
    result = runner.invoke(main, ["verify", _chain_file(tmp_path, n), "--trace"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error:")


def test_cli_exterior_dimension_limit(runner, tmp_path, monkeypatch):
    # C(9, 4) = 126 > 70; C(9, 1) and C(9, 9) stay below
    assert comb(9, 4) > cli.MAX_EXTERIOR_DIM >= comb(9, 1)
    path = _chain_file(tmp_path, 9)
    assert runner.invoke(main, ["exterior", path, "--d", "9"]).exit_code == 0
    monkeypatch.setattr(repkit, "exterior_rep", _refuse)
    result = runner.invoke(main, ["exterior", path, "--d", "4"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error:")


@pytest.mark.parametrize("n, suffix", [(7, ":3"), (21, "")])
def test_cli_hom_dimension_limit(runner, tmp_path, monkeypatch, n, suffix):
    # C(7, 3) = 35 and a plain 21-dim target are both above the limit of 20
    assert min(comb(7, 3), 21) > cli.MAX_HOM_DIM
    target = _chain_file(tmp_path, n) + suffix
    monkeypatch.setattr(repkit, "exterior_rep", _refuse)
    monkeypatch.setattr(repkit, "hom_dim", _refuse)
    for args in (["hom", target, "A2"], ["hom", "A2", target]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stderr.startswith("error:")


def test_cli_hom_degree_with_too_many_digits_exit_two(runner):
    result = runner.invoke(main, ["hom", "A2:" + "1" * 5000, "A2"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error:")


@pytest.mark.parametrize(
    "degree", ["\u0661", "\u00b2"], ids=["arabic-indic-one", "superscript-two"]
)
def test_cli_hom_degree_takes_ascii_digits_only(runner, degree):
    # int() reads the first as 1 and refuses the second; both are a target
    # name here, which is neither a catalog entry nor a file
    result = runner.invoke(main, ["hom", f"A3:{degree}", "A3:1"])
    assert result.exit_code == 2
    message = f"'A3:{degree}' is neither a catalog entry nor an existing file"
    assert result.stderr == f"error: {message}\n"
    assert result.output == ""


def test_cli_deeply_nested_json_exit_two(runner, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    with pytest.raises(ParseError, match="nests its JSON too deeply"):
        load_repfile(str(path))
    for args in (["verify", str(path), "--json"], ["analyze", str(path)], ["hom", str(path), "A2"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stderr.startswith("error:")
        assert result.output == ""


def test_repfile_dimension_limit(runner, tmp_path, monkeypatch):
    n = repfile.MAX_DIM + 1
    # the entries are not even scalars: the limit is checked before any is parsed
    doc = {"field": "Q", "dim": n, "generators": [{"matrix": [["x"] * n] * n}]}
    monkeypatch.setattr(repfile, "Representation", _refuse)
    monkeypatch.setattr(repfile, "parse_scalar_in", _refuse)
    with pytest.raises(ParseError, match="above the limit"):
        representation_from_document(doc)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    for command in ("verify", "analyze"):
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error:")


def test_repfile_dimension_limit_admits_the_limit():
    n = repfile.MAX_DIM
    rows = [["-1" if (r, c) == (0, 0) else "1" if r == c else "0" for c in range(n)] for r in range(n)]
    rep = representation_from_document({"field": "Q", "dim": n, "generators": [{"matrix": rows}]})
    assert rep.dim == n


@pytest.mark.parametrize(
    "text",
    ["{big}", "-{big}", "1/{big}", "1+{big}*sqrt(5)", "1-1/{big}*sqrt(5)"],
    ids=["numerator", "negative", "denominator", "sqrt-coefficient", "sqrt-denominator"],
)
def test_repfile_entry_digit_limit(runner, tmp_path, monkeypatch, text):
    big = "7" * (repfile.MAX_ENTRY_DIGITS + 1)
    matrix = [[text.format(big=big)]]
    doc = {"field": {"quadratic": 5}, "dim": 1, "generators": [{"matrix": matrix}]}
    # refused before the entry is parsed
    monkeypatch.setattr(repfile, "Representation", _refuse)
    monkeypatch.setattr(repfile, "parse_scalar_in", _refuse)
    with pytest.raises(ParseError, match="above the limit"):
        representation_from_document(doc)
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    for command in ("verify", "analyze"):
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error:")


def test_repfile_entry_digit_limit_admits_the_limit():
    digits = "9" * repfile.MAX_ENTRY_DIGITS
    doc = {"field": {"quadratic": 5}, "dim": 1, "generators": [{"matrix": [[f"-{digits}"]]}]}
    assert representation_from_document(doc).generators[0][0, 0] == -int(digits)
    doc["generators"][0]["matrix"] = [[f"1/{digits}+{digits}*sqrt(5)"]]
    representation_from_document(doc)
    # a radicand's digits are not counted: this one fails as a foreign field
    doc["generators"][0]["matrix"] = [[f"1+1*sqrt({'1' * (repfile.MAX_ENTRY_DIGITS + 1)})"]]
    with pytest.raises(ParseError, match="outside the declared field"):
        representation_from_document(doc)


def _first_row_dense(n, first_row):
    """An n x n generator: first_row on top of the identity's other rows."""
    rows = [["1" if r == c else "0" for c in range(n)] for r in range(1, n)]
    return {"field": "Q", "dim": n, "generators": [{"matrix": [first_row, *rows]}]}


@pytest.mark.parametrize(
    "n, admitted, refused, limit",
    [
        # a row's lcm may have 8 digits at dim 64 and 92 at dim 24; 10**8 - 1
        # and 10**92 - 1 are prime to 7
        (64, ["1/" + "9" * 8], ["1/" + "9" * 8, "1/7"], 8),
        (24, ["1/" + "9" * 92], ["1/" + "9" * 92, "1/7"], 92),
        # and 525 at dim 12: five 100-digit denominators, not six
        (12, [f"1/{10**99 + k}" for k in (1, 2, 3, 5, 7)],
         [f"1/{10**99 + k}" for k in (1, 2, 3, 5, 7, 11)], 525),
    ],
)
def test_repfile_lcm_limit_by_dim(n, admitted, refused, limit):
    # integer rows of MAX_ENTRY_DIGITS digits, as benchmarks/dense_repfile.py
    # writes them, have lcm 1 at every dim
    big = "9" * repfile.MAX_ENTRY_DIGITS
    assert representation_from_document(_first_row_dense(n, [big] * n)).dim == n

    def row(denominators):
        return _first_row_dense(n, (denominators + ["0"] * n)[:n])

    assert representation_from_document(row(admitted)).dim == n
    with pytest.raises(ParseError, match=f"generator 1: row 1 has denominators with an lcm "
                       f"above {limit} digits, the limit at dim {n}$"):
        representation_from_document(row(refused))


def test_repfile_lcm_limit_refuses_distinct_denominators(runner, tmp_path, monkeypatch):
    # p/q with distinct 100-digit p and q at dim 24: the first row's lcm has
    # about 2400 digits, refused before any rank
    import random

    rng = random.Random(24)
    low, high = 10 ** (repfile.MAX_ENTRY_DIGITS - 1), 10**repfile.MAX_ENTRY_DIGITS
    row = [f"{rng.randrange(low, high)}/{rng.randrange(low, high)}" for _ in range(24)]
    doc = _first_row_dense(24, row)
    monkeypatch.setattr(repfile, "Representation", _refuse)
    with pytest.raises(ParseError, match="row 1 has denominators .* the limit at dim 24"):
        representation_from_document(doc)
    path = tmp_path / "rational.json"
    path.write_text(json.dumps(doc))
    for command in ("verify", "analyze"):
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: generator 1: row 1 has denominators")


@pytest.mark.parametrize(
    "field, row, admitted",
    [
        ("Q", ["1/9", "1/11"], True),  # lcm 99
        ("Q", ["1/3", "1/100"], False),  # lcm 300
        ({"quadratic": 5}, ["1/9+1/11*sqrt(5)", "0"], True),
        ({"quadratic": 5}, ["1/3+1/100*sqrt(5)", "0"], False),
    ],
)
def test_repfile_lcm_limit_is_on_digits(monkeypatch, field, row, admitted):
    # 2 digits at MAX_DIM = 2: 99 passes, 100 does not
    monkeypatch.setattr(repfile, "MAX_DIM", 2)
    monkeypatch.setattr(repfile, "MAX_LCM_DIGITS", 2)
    doc = {"field": field, "dim": 2, "generators": [{"matrix": [row, ["0", "1"]]}]}
    if admitted:
        assert representation_from_document(doc).dim == 2
    else:
        with pytest.raises(ParseError, match="above 2 digits, the limit at dim 2"):
            representation_from_document(doc)


def test_repfile_generator_limit(runner, tmp_path, monkeypatch):
    def copies(k):
        path = tmp_path / f"copies{k}.json"
        doc = {"field": "Q", "dim": 1, "generators": [{"matrix": [["-1"]]}] * k}
        path.write_text(json.dumps(doc))
        return str(path)

    at_limit = runner.invoke(main, ["verify", copies(repfile.MAX_GENERATORS), "--json"])
    assert at_limit.exit_code == 0
    assert json.loads(at_limit.output)["generator_count"] == repfile.MAX_GENERATORS
    # one more is refused before any entry is parsed
    monkeypatch.setattr(repfile, "Representation", _refuse)
    monkeypatch.setattr(repfile, "parse_scalar_in", _refuse)
    for command in ("verify", "analyze"):
        result = runner.invoke(main, [command, copies(repfile.MAX_GENERATORS + 1)])
        assert result.exit_code == 2
        assert result.stderr == (
            f"error: {repfile.MAX_GENERATORS + 1} generators, "
            f"above the limit {repfile.MAX_GENERATORS}\n"
        )


@pytest.mark.parametrize(
    "field, value",
    [("Q", "-\u0661"), ("Q", "-\u0661/\u0662"), ("Q", "\uff11\uff12"),
     ({"quadratic": 5}, "1+1*sqrt(\u0665)"), ({"quadratic": 5}, "\u0661+1*sqrt(5)")],
    ids=["arabic-indic", "arabic-indic-fraction", "fullwidth", "radicand", "quadratic-head"],
)
def test_cli_verify_non_ascii_digits_exit_two(runner, tmp_path, field, value):
    with pytest.raises(ParseError, match="not a scalar"):
        scalars.parse_scalar(value)
    doc = {"field": field, "dim": 1, "generators": [{"matrix": [[value]]}]}
    path = tmp_path / "digits.json"
    path.write_text(json.dumps(doc))
    for command in ("verify", "analyze"):
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error:")


@pytest.mark.parametrize(
    "args",
    [
        ["bogus", "A2"],
        ["verify"],
        ["verify", "A2", "--bogus"],
        ["verify", "A2", "--d", "x"],
        ["verify", "A2", "--js"],
        ["exterior", "A2"],
    ],
    ids=["unknown-command", "missing-target", "unknown-option", "non-integer-d", "abbreviation",
         "exterior-without-d"],
)
def test_cli_argument_errors_exit_two(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.output == ""
    assert result.stderr.strip()


def test_cli_verify_repeated_degrees(runner):
    result = runner.invoke(main, ["verify", "A3", "--d", "1", "--d", "2", "--json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert [d["d"] for d in doc["per_degree"]] == [1, 2]


@pytest.mark.parametrize(
    "args, code", [(["verify", "A3"], 0), (["verify", "cond4-fail"], 3), (["verify", "nope"], 2)]
)
def test_cli_main_with_prog_name_exits_with_the_command_code(args, code):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with pytest.raises(SystemExit) as exc:
            main(args=args, prog_name="reflext")
    assert exc.value.code == code


@pytest.mark.parametrize("error, code", [(InternalError, 4), (NotConnected, 2)])
@pytest.mark.parametrize(
    "module, name, args",
    [
        (cli, "verify_theorem", ["verify", "A2", "--json"]),
        (cli, "check_hypotheses", ["analyze", "A2"]),
        (repkit, "exterior_rep", ["exterior", "A2", "--d", "1"]),
        (repkit, "hom_dim", ["hom", "A2", "A2:1"]),
    ],
    ids=["verify", "analyze", "exterior", "hom"],
)
def test_cli_error_exit_codes(runner, monkeypatch, module, name, args, error, code):
    # an internal fault exits 4 and any other package error 2, each as one
    # error line on stderr, with no traceback and nothing on stdout
    def fail(*args, **kwargs):
        raise error("injected fault")

    monkeypatch.setattr(module, name, fail)
    result = runner.invoke(main, args)
    assert result.exit_code == code
    assert result.output == ""
    assert result.stderr == "error: injected fault\n"


@pytest.mark.parametrize("args", [["verify", "A2"], ["analyze", "A2", "--json"]])
def test_cli_schema_violation_exits_four(runner, monkeypatch, args):
    # a document that breaks its own schema is a certification fault
    monkeypatch.setattr(reports, "field_doc", lambda m: "R")
    result = runner.invoke(main, args)
    assert result.exit_code == 4
    assert result.output == ""
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1 and "(at ['field'])" in result.stderr
