"""Root extraction for exact polynomials, limited to roots inside the working field.

Characteristic polynomials are computed in-house (linalg.charpoly); sympy is
used only to factor the univariate polynomial over Q, or over Q(sqrt(m)) when
the coefficients live in a quadratic extension.  Roots outside the field are
discarded on purpose: they cannot seed exact eigenvector computations.

sympy is imported inside the functions below, not at module level: only the
generic simplicity search reaches them, and the certification pipeline and
the command line start without loading it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .scalars import QuadExt, Scalar


def to_sympy(x: Scalar):
    import sympy

    if isinstance(x, QuadExt):
        return sympy.Rational(x.a) + sympy.Rational(x.b) * sympy.sqrt(x.m)
    return sympy.Rational(x)


def from_sympy(expr, m: int | None) -> Scalar | None:
    """Convert a sympy number to a Scalar in Q (m is None) or Q(sqrt(m)); None if outside."""
    import sympy

    e = sympy.expand(sympy.radsimp(sympy.nsimplify(expr)))
    if e.is_Rational:
        return Fraction(int(e.p), int(e.q))
    if m is None:
        return None
    b = e.coeff(sympy.sqrt(m))
    a = sympy.expand(e - b * sympy.sqrt(m))
    if a.is_Rational and b.is_Rational:
        return QuadExt(Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q)), m)
    return None


def roots_in_field(coeffs: Sequence[Scalar], m: int | None) -> list[Scalar]:
    """Distinct roots, inside Q (m None) or Q(sqrt(m)), of sum coeffs[i] * x^(n-i)."""
    import sympy

    x = sympy.symbols("x")
    n = len(coeffs) - 1
    expr = sympy.Integer(0)
    for i, c in enumerate(coeffs):
        expr += to_sympy(c) * x ** (n - i)
    if m is None:
        poly = sympy.Poly(expr, x, domain="QQ")
    else:
        poly = sympy.Poly(expr, x, extension=sympy.sqrt(m))
    roots: list[Scalar] = []
    for factor, _mult in poly.factor_list()[1]:
        if factor.degree() != 1:
            continue
        c1, c0 = factor.all_coeffs()
        root = from_sympy(-sympy.sympify(c0) / sympy.sympify(c1), m)
        if root is not None and root not in roots:
            roots.append(root)
    return roots
