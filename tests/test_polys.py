from fractions import Fraction

from reflext.linalg import Matrix, charpoly
from reflext.repkit import _roots_in_field as roots_in_field
from reflext.scalars import QuadExt


def test_rational_roots():
    # (x - 2)(x + 1/3)(x^2 + 1): only the rational roots come back
    coeffs = [Fraction(1), Fraction(-5, 3), Fraction(1, 3), Fraction(-5, 3), Fraction(-2, 3)]
    roots = roots_in_field(coeffs, None)
    assert sorted(roots) == [Fraction(-1, 3), Fraction(2)]


def test_irrational_roots_invisible_over_q():
    # x^2 - 5 has no rational roots
    assert roots_in_field([Fraction(1), Fraction(0), Fraction(-5)], None) == []


def test_quadratic_field_roots():
    # x^2 - x - 1: golden ratio and conjugate, visible over Q(sqrt(5))
    coeffs = [Fraction(1), Fraction(-1), Fraction(-1)]
    roots = roots_in_field(coeffs, 5)
    phi = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
    assert set(roots) == {phi, phi.conjugate()}
    # ... but not over Q(sqrt(2))
    assert roots_in_field(coeffs, 2) == []


def test_quadratic_coefficients():
    # (x - phi)(x - 2) with phi = (1+sqrt(5))/2
    phi = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
    coeffs = [Fraction(1), -(phi + 2), phi * 2]
    roots = roots_in_field(coeffs, 5)
    assert set(roots) == {phi, Fraction(2)}


def test_charpoly_roots_of_reflection():
    m = Matrix.from_rows([[-1, 1], [0, 1]])
    assert set(roots_in_field(charpoly(m), None)) == {Fraction(1), Fraction(-1)}


def test_degree_zero_edge():
    assert roots_in_field([Fraction(1)], None) == []
