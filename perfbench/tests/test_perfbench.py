"""Tests of the benchmark's own logic: seeded inputs, the verdicts their
construction forces, the output checker, the tracer and the statistics.

    python3 -m pytest perfbench/tests -q
"""

import random
from fractions import Fraction

import pytest

import reflext
from reflext import Subspace, verify_theorem

from perfbench import inputs, speed, tracer
from perfbench.check import check, from_report, invariant_witness
from perfbench.inputs import FAILED, VERIFIED, Case
from perfbench.run import parse_importtime, tail
from perfbench.workloads import ROOT, cli_cases


def _fingerprint(cases):
    return [(c.id, c.status, c.reason, c.planted, c.rep.generators) for c in cases]


@pytest.mark.parametrize("build", [inputs.ladder, inputs.growth, inputs.sweep])
def test_same_seed_same_inputs(build):
    assert _fingerprint(build(11)) == _fingerprint(build(11))


def test_seeds_differ():
    assert _fingerprint(inputs.sweep(1)) != _fingerprint(inputs.sweep(2))
    assert _fingerprint(inputs.growth(1)) != _fingerprint(inputs.growth(2))
    a, b = cli_cases(1), cli_cases(2)
    assert a["q-simple"].rep != b["q-simple"].rep


KIND_VERDICTS = [
    ("simple", VERIFIED, None),
    ("singular", FAILED, "condition3"),
    ("asymmetric", FAILED, "condition4"),
    ("transvection", FAILED, "condition1"),
    ("rank2", FAILED, "condition1"),
]


def test_every_kind_is_covered():
    assert sorted(k for k, _, _ in KIND_VERDICTS) == sorted(inputs.REASONS)


@pytest.mark.parametrize("kind,status,reason", KIND_VERDICTS)
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("conjugate", [0, 6])
def test_construction_forces_the_verdict(kind, status, reason, n, conjugate):
    rng = random.Random(f"{kind}-{n}-{conjugate}")
    for t in range(3):
        case = inputs.generalized(rng, "x", n, kind, conjugate_steps=conjugate)
        assert (case.status, case.reason) == (status, reason)
        assert check(case, from_report(verify_theorem(case.rep))) is None


def test_singular_functional_matrix_has_zero_determinant():
    rng = random.Random(5)
    for n in (2, 3, 4):
        f, _ = inputs.functional_matrix(rng, n, "singular", lambda: inputs.rational(rng, 3), False, 0.5)
        assert inputs.det(f) == 0
        assert all(f[i][i] not in (0, -1) for i in range(n))


def test_asymmetric_zero_is_the_planted_pair():
    rng = random.Random(9)
    f, planted = inputs.functional_matrix(rng, 3, "asymmetric", lambda: inputs.rational(rng, 2), False, 1.0)
    j, i = planted[0] - 1, planted[1] - 1  # s_(j+1) moves alpha_(i+1), s_(i+1) fixes alpha_(j+1)
    assert f[i][j] == 0 and f[j][i] != 0


def test_quadratic_inputs_live_in_q_sqrt5():
    case = inputs.generalized(random.Random(3), "x", 2, "simple", quadratic=True)
    assert case.rep.field() == 5
    assert check(case, from_report(verify_theorem(case.rep))) is None


def test_cartan_ladder_matches_catalog_convention():
    a3 = reflext.entry("A3").representation
    assert inputs.cartan_rep("A", 3).generators == a3.generators
    assert inputs.det(inputs.cartan_matrix("D", 4)) == 4
    assert inputs.det(inputs.cartan_matrix("F", 4)) == 1


def test_catalog_expectations_come_from_the_catalog():
    cases = {c.id: c for c in inputs.catalog_cases()}
    assert len(cases) == len(reflext.list_entries())
    assert (cases["dihedral-2-2"].status, cases["dihedral-2-2"].reason) == (FAILED, "condition3")


def test_checker_rejects_a_wrong_verdict():
    rng = random.Random(1)
    singular = inputs.generalized(rng, "x", 3, "singular")
    claimed = Case("x", singular.rep, VERIFIED)
    assert check(claimed, from_report(verify_theorem(singular.rep))).startswith("status")


def test_checker_rejects_a_non_invariant_witness():
    case = Case("A2", reflext.entry("A2").representation, FAILED, "condition3")
    assert invariant_witness(case, Subspace.span([[1, 0]], 2)) == "witness subspace is not invariant"
    assert invariant_witness(case, Subspace.full(2)).startswith("witness of dimension")
    assert invariant_witness(case, None) is not None


def test_self_time_of_a_synthetic_span_tree():
    #   a [0, 10]
    #   +- b [1, 4]
    #   |  +- c [2, 3]
    #   +- d [5, 9]
    spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),
        ("d", 5.0, 9.0, 0, 0),
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    snap = {"spans": spans, "sums": {"k": 2}, "maxima": {"m": 5}}
    other = {"spans": [("a", 0.0, 1.0, -1, 1)], "sums": {"k": 1}, "maxima": {"m": 3}}
    summary = tracer.summarize([snap, other])
    assert summary["calls"]["a"] == 2
    assert summary["self_s"]["a"] == pytest.approx(4.0)
    assert summary["sums"]["k"] == 3 and summary["maxima"]["m"] == 5


def test_tracer_rebinds_copied_names_and_restores_them():
    import reflext.linalg
    import reflext.theoremlab

    original = reflext.linalg.rref
    t = tracer.Tracer()
    t.install()
    try:
        assert reflext.linalg.rref is not original
        assert reflext.theoremlab.kernel is reflext.linalg.kernel is reflext.kernel
        assert reflext.exterior.compound is reflext.repkit.compound
        t.begin(7)
        reflext.verify_theorem(reflext.entry("A2").representation)
    finally:
        t.uninstall()
    assert reflext.linalg.rref is original
    summary = tracer.summarize([t.snapshot()])
    assert summary["calls"]["theoremlab.verify_theorem"] == 1
    assert summary["calls"]["linalg.rref"] > 0
    assert summary["sums"]["repkit.simplicity.method.commutant"] == 3
    roots = [s for s in t.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["theoremlab.verify_theorem"]
    assert {s[4] for s in t.spans} == {7}
    own = tracer.self_times(t.spans)
    assert sum(own) == pytest.approx(roots[0][2] - roots[0][1])


def test_scalar_bits_of_rationals_and_quadratics():
    assert tracer.scalar_bits(Fraction(-5, 3)) == 3
    assert tracer.scalar_bits(reflext.QuadExt(Fraction(1, 2), Fraction(9, 4), 5)) == 4


def test_tail_percentile_has_ten_samples_beyond():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3, 0)
    values = list(range(1, 31))
    value, pct, n, beyond = tail(values)
    assert (value, n, beyond) == (20, 30, 10)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 20 / 30)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1432 |     380779 |         sympy",
        "import time:       996 |     438215 |   reflext",
        "import time:       487 |      18684 |   click",
        "import time:       429 |      73093 |       jsonschema",
        "import time:      3091 |     545087 | reflext.cli",
    ])
    assert parse_importtime(text) == {
        "reflext_cli": 0.545087, "sympy": 0.380779, "jsonschema": 0.073093, "click": 0.018684,
    }


def test_reference_seconds_scale_with_the_task_time_around_a_call():
    s = speed.Sampler(ROOT)
    # the task takes REFERENCE_S until t = 1, then twice that
    s.starts = [i * 0.01 for i in range(300)]
    s.tasks = [speed.REFERENCE_S * (1 if t < 1 else 2) for t in s.starts]
    assert s.reference(0.3, 0.5) == pytest.approx(0.2)
    assert s.reference(1.5, 2.5) == pytest.approx(0.5)
    # a call with no task inside still takes the tasks within WINDOW_S of it
    assert s.reference(0.4001, 0.4002) == pytest.approx(0.0001)
    assert s.reference(10.0, 11.0) == pytest.approx(0.5)


def test_growth_conjugates_share_their_core():
    rng = random.Random(3)
    for n, core in inputs.CORES.items():
        p = inputs.signed_permutation(rng, n) @ core @ inputs.signed_permutation(rng, n)
        assert p != core
        assert sorted(abs(x) for x in p.entries) == sorted(abs(x) for x in core.entries)
    assert inputs.growth(1)[2].rep != inputs.growth(2)[2].rep


def test_sampler_process_records_ticks_and_stops():
    import time

    with speed.Sampler(ROOT) as s:
        t0 = time.perf_counter()
        time.sleep(0.1)
        t1 = time.perf_counter()
    assert len(s.starts) >= 5 and s.starts == sorted(s.starts)
    assert s._proc is None
    assert s.reference(t0, t1) > 0


def test_only_the_ladder_calls_an_input_twice(tmp_path):
    from perfbench.workloads import items_for

    for name in ("growth", "sweep", "cli"):
        ids = [i.id for i in items_for(name, 1, str(tmp_path))]
        assert len(ids) == len(set(ids))
    ids = [i.id for i in items_for("ladder", 1, str(tmp_path))]
    assert len(set(ids)) == 10 and len(ids) == 26
    assert ids.count("A4'") == 3 and ids.count("D5") == 1
