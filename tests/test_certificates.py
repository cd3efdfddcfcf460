"""The proof-based certificates of the pipeline against the generic solvers.

verify_theorem derives condition 3, every commutant dimension and every Hom
dimension from the structure of generalized reflections; the generic
simplicity / hom_dim / compound machinery serves as the oracle here.
"""

import ast
import importlib
import inspect
import itertools
import random
import sys
from fractions import Fraction
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest

import reflext
from reflext import fractionfree, linalg, repkit
from reflext.catalog import _cartan_rep, entry, list_entries
from reflext.exterior import compound, wedge
from reflext.linalg import Matrix, Subspace, kernel
from reflext.reflections import is_reflection, recognize_reflection
from reflext.repkit import Representation, exterior_rep, hom_dim, is_invariant, simplicity
from reflext.scalars import QuadExt
from reflext.theoremlab import (
    _characters_separate,
    _cleared_forms,
    _is_invariant,
    check_hypotheses,
    verify_theorem,
)

from conftest import (
    characters_separate_oracle,
    minus_intersection_bruteforce,
    random_invertible,
    reflection_compound_trace,
)

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "reflext"


def _reflection_rep(rows, p=None):
    """s_i = I + e_i f_i^T with f_i the i-th row of F, optionally conjugated by p."""
    n = len(rows)
    gens = []
    for i, f in enumerate(rows):
        e = Matrix(n, 1, [Fraction(int(r == i)) for r in range(n)])
        gens.append(Matrix.identity(n) + e @ Matrix(1, n, [Fraction(x) for x in f]))
    rep = Representation(gens)
    return rep.conjugate(p) if p is not None else rep


def _random_functionals(rng, n, kind):
    """Rows of F: 'simple' (symmetric connected pattern, det F != 0), 'singular'
    (det F = 0) or 'asymmetric' (one one-sided zero); diagonals avoid 0 and -1."""
    while True:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.choice([-3, -2, 1, 2])
        for i in range(n):
            for j in range(i + 1, n):
                if j == i + 1 or rng.random() < 0.4:
                    rows[i][j] = rng.choice([-2, -1, 1, 3])
                    rows[j][i] = rng.choice([-2, -1, 1, 3])
        if kind == "asymmetric":
            i, j = rng.sample(range(n), 2)
            rows[i][j] = 0
            rows[j][i] = rows[j][i] or 1
        if kind == "singular":
            # choose the last column so that every functional vanishes on a
            # vector v with v[last] = 1; redraw if the last diagonal is 0 or -1
            v = [rng.randint(-1, 1) for _ in range(n - 1)]
            for row in rows:
                row[n - 1] = -sum(row[j] * v[j] for j in range(n - 1))
            if rows[n - 1][n - 1] not in (0, -1):
                return rows
        elif Matrix.from_rows(rows).det():
            return rows


def _random_cases(seed, ranks, kinds, count, bound=2):
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.choice(ranks)
        kind = rng.choice(kinds)
        rows = _random_functionals(rng, n, kind)
        cases.append((kind, rows, _reflection_rep(rows, random_invertible(rng, n, bound))))
    return cases


def _verified_catalog():
    out = []
    for name in list_entries():
        rep = entry(name).representation
        report = verify_theorem(rep)
        if report.verified:
            out.append((name, rep, report))
    return out


def _assert_matches_generic(rep, report, label):
    n = rep.dim
    exts = [exterior_rep(rep, d) for d in range(n + 1)]
    for dr in report.per_degree:
        ext = exts[dr.degree]
        assert dr.commutant_dim == hom_dim(ext, ext), (label, dr.degree)
        assert dr.verdict == "Simple", (label, dr.degree)
    for a in range(n + 1):
        for b in range(n + 1):
            assert report.pairwise_hom[a][b] == hom_dim(exts[a], exts[b]), (label, a, b)


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so mathematical checks must raise
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert offenders == []


def _public_functions(body, prefix=""):
    for node in body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from _public_functions(node.body, f"{node.name}.")


def test_one_certification_entry_point_without_private_knobs():
    # the k = n case is verify_theorem's, so there is no second entry point
    assert not hasattr(reflext, "steinberg_mode")
    assert "steinberg_mode" not in reflext.__all__
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, node in _public_functions(tree.body):
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            offenders += [f"{path.name}:{name}({p.arg})" for p in params if p.arg.startswith("_")]
    assert offenders == []
    # the generic oracle has no knobs: no premise, no word length
    assert list(inspect.signature(repkit.simplicity).parameters) == ["rep"]
    # a rank is a rank: the elimination has no early exit for determinants
    assert list(inspect.signature(fractionfree.echelon).parameters) == [
        "rows", "cols", "m", "cleared"
    ]
    assert "semisimplicity_premise" not in repkit.SimplicityVerdict._fields


def test_search_exhausted_is_never_simple():
    # reducible module on which the word and spin search finds no witness
    g1 = Matrix.from_rows([
        [Fraction(17, 2), Fraction(-15, 4), Fraction(3, 4), Fraction(43, 4)],
        [-1, 11, 4, Fraction(-44, 3)],
        [Fraction(-35, 2), Fraction(-25, 4), Fraction(-31, 4), Fraction(-49, 12)],
        [Fraction(-21, 2), Fraction(15, 4), Fraction(-3, 4), Fraction(-55, 4)],
    ])
    g2 = Matrix.from_rows([
        [Fraction(-33, 2), Fraction(-23, 4), Fraction(-25, 4), Fraction(-13, 4)],
        [23, 12, 10, Fraction(4, 3)],
        [Fraction(15, 2), Fraction(5, 4), Fraction(7, 4), Fraction(29, 12)],
        [Fraction(33, 2), Fraction(33, 4), Fraction(27, 4), Fraction(3, 4)],
    ])
    rep = Representation([g1, g2])
    # oracle: ker(g1^2 + 2 g1 - 9 I) is a proper invariant subspace
    w = kernel(g1 @ g1 + g1.scale(2) - Matrix.identity(4).scale(9))
    assert w.dim == 2
    assert all(w.contains(g.apply(v)) for g in rep.generators for v in w.basis_vectors())
    verdict = simplicity(rep)
    assert verdict.status != "Simple"
    if verdict.status == "Reducible":
        ws = verdict.witness
        assert 0 < ws.dim < 4
        assert all(ws.contains(g.apply(v)) for g in rep.generators for v in ws.basis_vectors())
    else:
        assert verdict.status == "Inconclusive" and verdict.method == "search-exhausted"


def test_trace_formula_matches_compound_on_catalog():
    for name in list_entries():
        for g in entry(name).representation.generators:
            if not is_reflection(g):
                continue
            refl = recognize_reflection(g)
            for d in range(g.rows + 1):
                assert reflection_compound_trace(refl, d) == compound(g, d).trace(), (name, d)


def _benchmark_inputs(seed):
    """The seeded ladder, growth and sweep representations of perfbench."""
    if str(ROOT) not in sys.path:
        sys.path.append(str(ROOT))
    inputs = importlib.import_module("perfbench.inputs")
    return [c.rep for build in (inputs.ladder, inputs.growth, inputs.sweep) for c in build(seed)]


def test_closed_form_character_separation_matches_trace_oracle():
    reps = [entry(name).representation for name in list_entries()] + _benchmark_inputs(7)
    checked = 0
    for rep in reps:
        refls = [r for r in check_hypotheses(rep).reflections if r is not None]
        if refls:
            got = _characters_separate(refls)
            assert got is characters_separate_oracle(refls, rep.dim) is True
            checked += 1
    assert checked >= 250
    # unipotent transvections I + e_0 e_(n-1)^T (lambda = 1): no trace tells a from n - a
    for n in range(1, 7):
        alpha = tuple(Fraction(int(i == 0)) for i in range(n))
        functional = tuple(Fraction(int(i == n - 1 and n > 1)) for i in range(n))
        matrix = Matrix.identity(n) + Matrix(n, 1, alpha) @ Matrix(1, n, functional)
        # recognition refuses lambda = 1, so a stand-in carries the data both sides read
        transvection = SimpleNamespace(matrix=matrix, dim=n, eigenvalue=Fraction(1), shift=(0, 1))
        transvections = [transvection] * 2
        assert _characters_separate(transvections) is False
        assert characters_separate_oracle(transvections, n) is False
        mirror = Matrix(n, 1, alpha) @ Matrix(1, n, alpha).scale(2)
        reflection = recognize_reflection(Matrix.identity(n) - mirror)
        assert _characters_separate([*transvections, reflection]) is True
        assert characters_separate_oracle([*transvections, reflection], n) is True


def test_invariance_on_the_forms_agrees_with_the_generator_check():
    # s_i W in W iff f_i vanishes on W or alpha_i lies in W: the witness
    # re-check on the forms against every generator matrix on every basis
    # vector, on each reducible witness, that witness plus one vector, and a
    # random line per input
    if str(ROOT) not in sys.path:
        sys.path.append(str(ROOT))
    sweep = importlib.import_module("perfbench.inputs").sweep(7)
    reps = [entry(name).representation for name in list_entries()] + [c.rep for c in sweep]
    rng = random.Random(1717)
    methods = {"reflection-kernel": 0, "reflection-span": 0}
    rejected = 0
    for rep in reps:
        hyp = check_hypotheses(rep)
        if not hyp.condition1_ok:
            continue
        n = rep.dim
        forms = _cleared_forms(hyp.reflections)
        spaces = [Subspace.span([[Fraction(rng.randint(-3, 3)) for _ in range(n)]], n)]
        if not hyp.v_simple.is_simple:
            witness = hyp.v_simple.witness
            methods[hyp.v_simple.method] += 1
            assert _is_invariant(witness, forms) is is_invariant(rep, witness) is True
            extra = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            spaces.append(Subspace.span([*witness.basis_vectors(), extra], n))
        for space in spaces:
            got = _is_invariant(space, forms)
            assert got is is_invariant(rep, space), (rep, space.basis)
            rejected += not got
    assert min(methods.values()) >= 10, methods
    assert rejected >= 150


def test_derived_certificates_match_generic_on_catalog():
    verified = _verified_catalog()
    assert len(verified) >= 10
    for name, rep, report in verified:
        _assert_matches_generic(rep, report, name)
        assert report.dim_filter_ok


def test_derived_certificates_match_generic_on_random_reflection_reps():
    cases = _random_cases(4242, ranks=[3, 4], kinds=["simple"], count=4, bound=1)
    assert {rep.dim for _, _, rep in cases} == {3, 4}
    for index, (_, rows, rep) in enumerate(cases):
        report = verify_theorem(rep)
        assert report.verified, (index, rows, report.conclusion.reason)
        _assert_matches_generic(rep, report, index)


def test_condition3_agrees_with_generic_simplicity():
    cases = _random_cases(777, ranks=[2, 3], kinds=["simple", "singular", "asymmetric"], count=30)
    assert {kind for kind, _, _ in cases} == {"simple", "singular", "asymmetric"}
    statuses = set()
    for index, (kind, rows, rep) in enumerate(cases):
        exact = check_hypotheses(rep).v_simple
        generic = simplicity(rep)
        assert exact.status == generic.status, (index, kind, rows)
        assert exact.commutant_dim == hom_dim(rep, rep), (index, kind, rows)
        statuses.add(exact.status)
        if kind == "singular":
            assert exact.status == "Reducible"
        if exact.status == "Reducible":
            w = exact.witness
            assert 0 < w.dim < rep.dim
            assert all(
                w.contains(g.apply(v)) for g in rep.generators for v in w.basis_vectors()
            )
    assert statuses == {"Simple", "Reducible"}


def test_condition3_witnesses_of_catalog_failures():
    for name in list_entries():
        e = entry(name)
        if e.expected.failure_reason != "condition3":
            continue
        report = verify_theorem(e.representation)
        assert report.conclusion.reason.startswith("condition3"), name
        w = report.conclusion.witness_subspace
        gens = e.representation.generators
        assert 0 < w.dim < e.representation.dim, name
        assert all(w.contains(g.apply(v)) for g in gens for v in w.basis_vectors()), name
    assert verify_theorem(entry("dihedral-2-2").representation).conclusion.witness_subspace == (
        Subspace.span([(1, 1)], 2)
    )


@pytest.mark.parametrize("order", [None, [6, 2, 0, 4, 1, 5, 3]])
def test_rank_seven_chain_verifies(order):
    n = 7
    cartan = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    rep = _cartan_rep(cartan)
    if order is not None:
        rep = rep.permute(order)
    report = verify_theorem(rep)
    assert report.verified
    assert [d.commutant_dim for d in report.per_degree] == [1] * (n + 1)
    assert report.pairwise_hom == tuple(
        tuple(int(a == b) for b in range(n + 1)) for a in range(n + 1)
    )
    assert all(d.claim4_ok for d in report.per_degree)


def test_claim4_lines_match_bruteforce_eigenspaces():
    # claim 4 as a real check: intersect the eigenspaces of the compounds
    a4 = _cartan_rep([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]])
    checked = 0
    for name, rep, report in _verified_catalog() + [("A4", a4, verify_theorem(a4))]:
        n = rep.dim
        if n > 4:
            continue
        refls = check_hypotheses(rep).reflections
        subset = report.claim3_subset
        for dr in report.per_degree:
            d = dr.degree
            assert (dr.claim4_checked, dr.claim4_ok) == (comb(len(subset), d), True), (name, d)
            if d == 0:  # the empty intersection: wedge^0 V is a line already
                continue
            for t_set in itertools.combinations(subset, d):
                picked = [refls[i - 1] for i in t_set]
                line = Subspace.span([wedge([r.alpha for r in picked])], comb(n, d))
                assert line.dim == 1
                assert minus_intersection_bruteforce(picked, d) == line, (name, t_set)
                checked += 1
    assert checked >= 60  # 46 lines over the catalog entries, 15 for A4


def _affine(n):
    """Affine A_(n-1): the cyclic Cartan matrix on n nodes, reducible, with ker F the null root."""
    cyclic = [[0] * n for _ in range(n)]
    for i in range(n):
        cyclic[i][i] = 2
        cyclic[i][(i + 1) % n] = cyclic[(i + 1) % n][i] = -1
    return _cartan_rep(cyclic)


def _block_reflections(rng, quadratic):
    """Random s_i = I + alpha_i f_i^T, conjugated, whose moves graph splits along
    two or three coordinate blocks: V is reducible, and the commutant has one
    candidate scalar per block.  The blocks are glued by an optional direction
    in ker F, where every alpha has a random part, and an optional direction
    outside span alpha, where every functional has one; these feed the two
    relation terms of the commutant.  Over Q(sqrt 5) when quadratic."""
    values = [1, -1, 2] + ([QuadExt(Fraction(1, 2), Fraction(1, 2), 5)] if quadratic else [])
    while True:
        sizes = [rng.choice([1, 1, 2]) for _ in range(rng.randint(2, 3))]
        glue_kernel, glue_cokernel = rng.randint(0, 1), rng.randint(0, 1)
        n = sum(sizes) + glue_kernel + glue_cokernel
        if n <= 4:
            break

    def draw(coords):
        v = [Fraction(0)] * n
        for c in coords:
            v[c] = rng.choice([0] + values)
        return v

    kernel_coords = range(sum(sizes), sum(sizes) + glue_kernel)
    cokernel_coords = range(sum(sizes) + glue_kernel, n)
    gens, start = [], 0
    for size in sizes:
        block = range(start, start + size)
        start += size
        for _ in range(rng.randint(1, 3)):
            while True:
                alpha, f = draw(block), draw(block)
                f_alpha = sum((x * y for x, y in zip(alpha, f)), Fraction(0))
                if f_alpha not in (0, -1):  # eigenvalue 1 + f(alpha) is neither 1 nor 0
                    break
            alpha = [x + y for x, y in zip(alpha, draw(kernel_coords))]
            f = [x + y for x, y in zip(f, draw(cokernel_coords))]
            gens.append(Matrix.identity(n) + Matrix(n, 1, alpha) @ Matrix(1, n, f))
    return Representation(gens).conjugate(random_invertible(rng, n, 1))


def _reducible_bases():
    reps = [
        (name, entry(name).representation)
        for name in list_entries()
        if entry(name).expected.failure_reason == "condition3"
    ]
    reps += [(f"affine-A{n - 1}", _affine(n)) for n in range(3, 9)]
    rng = random.Random(6006)
    reps += [(f"blocks-{i}", _block_reflections(rng, i % 3 == 0)) for i in range(40)]
    return reps


def test_reducible_base_commutant_matches_generic():
    kinds = set()
    for label, rep in _reducible_bases():
        hyp = check_hypotheses(rep)
        verdict = hyp.v_simple
        generic = hom_dim(rep, rep)
        assert verdict.commutant_dim == generic, label
        k, n = len(rep.generators), rep.dim
        kinds |= {
            "k > n" if k > n else "k < n" if k < n else "k = n",
            "quadratic" if rep.field() else "rational",
            "asymmetric" if hyp.condition4_violations else "symmetric",
            verdict.method,  # reflection-kernel: singular F
        }
        if generic > 1:
            kinds.add("End > scalars")
        assert verdict.status == "Reducible", label
        w = verdict.witness
        assert 0 < w.dim < n, label
        assert all(w.contains(g.apply(v)) for g in rep.generators for v in w.basis_vectors())
        if label.startswith("affine"):
            assert verdict.method == "reflection-kernel"
            assert w == Subspace.span([[1] * n], n)
    assert kinds >= {
        "k > n", "k < n", "k = n", "quadratic", "rational", "asymmetric",
        "reflection-kernel", "reflection-span", "End > scalars",
    }


def test_reducible_base_commutant_solves_no_intertwiner(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return linalg.solve_intertwiner(*args)

    monkeypatch.setattr(repkit, "solve_intertwiner", counted)
    for label, rep in _reducible_bases():
        assert check_hypotheses(rep).v_simple.status == "Reducible", label
    assert calls == []
