"""The whole substrate must work verbatim over Q(sqrt(m)), not just Q."""

import random
from fractions import Fraction
from math import comb

import pytest

from reflext.catalog import entry, infinite_dihedral
from reflext.errors import FieldMismatch
from reflext.exterior import compound, eigen_split
from reflext.linalg import (
    Matrix,
    Subspace,
    image,
    intersect,
    kernel,
    rank,
    rref,
    subspace_sum,
)
from reflext import scalars
from reflext.reflections import recognize_reflection
from reflext.repkit import Representation, simplicity
from reflext.scalars import QuadExt
from reflext.theoremlab import check_hypotheses, verify_theorem

PHI = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)


def quad_matrix(rng, rows, cols, m=5):
    return Matrix(
        rows,
        cols,
        [
            QuadExt(rng.randint(-2, 2), rng.randint(-2, 2), m)
            for _ in range(rows * cols)
        ],
    )


def test_rref_rank_nullity_over_quadratic():
    rng = random.Random(555)
    for _ in range(30):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        mtx = quad_matrix(rng, rows, cols)
        reduced, rk = rref(mtx)
        assert rk + kernel(mtx).dim == cols
        assert image(mtx).dim == rk
        # canonical: reducing again changes nothing
        assert rref(reduced)[0] == reduced


def test_intersection_dimension_formula_over_quadratic():
    rng = random.Random(556)
    for _ in range(20):
        a = Subspace.span([quad_matrix(rng, 1, 4).row(0) for _ in range(rng.randint(0, 3))], 4)
        b = Subspace.span([quad_matrix(rng, 1, 4).row(0) for _ in range(rng.randint(0, 3))], 4)
        assert a.dim + b.dim == intersect(a, b).dim + subspace_sum(a, b).dim


def test_cauchy_binet_over_quadratic():
    rng = random.Random(557)
    for _ in range(10):
        n = rng.randint(1, 4)
        a = quad_matrix(rng, n, n)
        b = quad_matrix(rng, n, n)
        for d in range(n + 1):
            assert compound(a @ b, d) == compound(a, d) @ compound(b, d)


def test_h2_5_eigen_splits():
    rep = entry("H2-5").representation
    for g in rep.generators:
        refl = recognize_reflection(g)
        assert refl.eigenvalue == Fraction(-1)
        for d in range(3):
            split = eigen_split(refl, d)
            assert split.plus.dim == comb(1, d)
            assert split.plus.dim + split.minus.dim == comb(2, d)


def test_h2_5_classical_mode():
    # reflections along a basis of Q(sqrt(5))^2: the basis subset is every generator
    report = verify_theorem(entry("H2-5").representation)
    assert report.verified
    assert report.claim3_subset == (1, 2)


def test_quadratic_affine_dihedral_reducible_with_witness():
    # a * b = 4 inside Q(sqrt(5)): a = phi, b = 4/phi; the fixed line is (a, 2)
    a = PHI
    b = 4 / PHI
    assert a * b == 4
    rep = infinite_dihedral(a, b)
    report = verify_theorem(rep)
    assert report.conclusion.status == "HypothesisFailed"
    assert report.conclusion.reason.startswith("condition3")
    w = report.conclusion.witness_subspace
    assert w is not None and w.dim == 1
    assert w.contains((a, 2))
    for g in rep.generators:
        for v in w.basis_vectors():
            assert w.contains(g.apply(v))


def test_quadratic_generic_dihedral_verifies():
    # a = phi, b = 1: a*b = phi is not 0 or 4, so the theorem applies
    report = verify_theorem(infinite_dihedral(PHI, 1))
    assert report.verified
    assert [d.commutant_dim for d in report.per_degree] == [1, 1, 1]


def test_simplicity_norton_certificate_over_quadratic():
    verdict = simplicity(entry("H2-5").representation)
    assert verdict.status == "Simple"
    assert verdict.commutant_dim == 1


def test_mixed_rational_and_quadratic_entries():
    # rationals and quadratics may share a matrix; the field tag is the radicand
    m = Matrix.from_rows([[Fraction(1), PHI], [0, Fraction(2)]])
    assert m.field() == 5
    assert m.det() == 2
    assert rank(m) == 2


def test_generators_over_two_quadratic_fields_are_refused():
    # each generator is a reflection over its own field; the Cartan products
    # need one Z[sqrt(m)], so the hypothesis check itself refuses the pair
    sqrt2, sqrt3 = (QuadExt(Fraction(0), Fraction(1), m) for m in (2, 3))
    rep = Representation(
        [Matrix.from_rows([[-1, sqrt2], [0, 1]]), Matrix.from_rows([[1, 0], [sqrt3, -1]])]
    )
    for check in (check_hypotheses, verify_theorem):
        with pytest.raises(FieldMismatch, match=r"^cannot mix sqrt\(2\) and sqrt\(3\)$"):
            check(rep)


def test_verify_validates_no_radicand(monkeypatch):
    # the radicand is checked once, when the inputs are built; arithmetic on
    # validated scalars inside the pipeline must not test it again
    h3 = Representation(
        [
            Matrix.from_rows(rows)
            for rows in (
                [[-1, 1, 0], [0, 1, 0], [0, 0, 1]],
                [[1, 0, 0], [1, -1, PHI], [0, 0, 1]],
                [[1, 0, 0], [0, 1, 0], [0, PHI, -1]],
            )
        ]
    )
    h3_conjugate = h3.conjugate(Matrix.from_rows([[1, 2, 0], [0, 1, -1], [1, 1, 0]]))
    inputs = [entry("H2-5").representation, h3_conjugate]
    calls = []
    real = scalars._is_square_free
    monkeypatch.setattr(scalars, "_is_square_free", lambda m: calls.append(m) or real(m))
    for rep in inputs:
        assert verify_theorem(rep).verified
    assert calls == []
