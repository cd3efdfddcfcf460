from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflext.errors import FieldMismatch, ParseError
from reflext.scalars import (
    QuadExt,
    _is_square_free,
    as_scalar,
    field_tag,
    inv,
    is_zero,
    merge_tags,
    parse_scalar,
    render_scalar,
)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
radicands = st.sampled_from([2, 3, 5, 7])


@st.composite
def quadratics(draw, m=None):
    m = m if m is not None else draw(radicands)
    return QuadExt(draw(rationals), draw(rationals), m)


def scalars(m):
    return st.one_of(rationals, quadratics(m=m))


def test_rational_arithmetic_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(2, 4) == Fraction(1, 2)  # always reduced
    assert Fraction(1, -2).denominator == 2  # positive denominator


def test_golden_ratio_square():
    phi = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
    assert phi * phi == QuadExt(Fraction(3, 2), Fraction(1, 2), 5)


def test_quadratic_inverse_by_conjugate():
    x = QuadExt(2, -1, 2)  # 2 - sqrt(2), norm 4 - 2 = 2
    assert x.inverse() == QuadExt(1, Fraction(1, 2), 2)  # (2 + sqrt(2)) / 2
    assert x * x.inverse() == 1


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        QuadExt(0, 0, 5).inverse()


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        QuadExt(1, 1, 2) + QuadExt(1, 1, 3)
    with pytest.raises(FieldMismatch):
        merge_tags(2, 3)
    assert merge_tags(None, 5) == 5
    assert merge_tags(5, None) == 5


def test_b_zero_quadratic_equals_rational():
    assert QuadExt(Fraction(3, 4), 0, 5) == Fraction(3, 4)
    assert hash(QuadExt(Fraction(3, 4), 0, 5)) == hash(Fraction(3, 4))
    assert QuadExt(1, 0, 2) == QuadExt(1, 0, 3)  # both are the rational 1


def test_radicand_validation():
    with pytest.raises(ParseError):
        QuadExt(1, 1, 4)  # not square-free
    with pytest.raises(ParseError):
        QuadExt(1, 1, 1)
    with pytest.raises(ParseError):
        QuadExt(1, 1, 12)


def test_is_square_free_matches_brute_force():
    def brute(m):
        return all(m % (d * d) for d in range(2, isqrt(m) + 1))

    assert all(_is_square_free(m) == brute(m) for m in range(1, 5000))
    p, q = 1000003, 1000033  # the two least primes above 10**6
    for m in (p, 2 * p, p * q, 2 * p * q):
        assert _is_square_free(m)
    for m in (p * p, 2 * p * p, p * p * q, 3 * q * q):
        assert not _is_square_free(m)


def test_radicand_limit():
    assert QuadExt(1, 1, 10**18 - 11).m == 10**18 - 11  # the largest prime below 10**18
    for text in ("1+1*sqrt(1000000000000000003)", "1+1*sqrt(%s)" % ("7" * 40)):
        with pytest.raises(ParseError, match=r"below 10\*\*18"):
            parse_scalar(text)
    with pytest.raises(ParseError):
        QuadExt(1, 1, 10**18 + 3)


def test_field_tags():
    assert field_tag(Fraction(1)) is None
    assert field_tag(QuadExt(1, 2, 7)) == 7
    assert as_scalar(3) == Fraction(3)
    assert as_scalar("1/2+1/3*sqrt(5)") == QuadExt(Fraction(1, 2), Fraction(1, 3), 5)


def test_parse_examples():
    assert parse_scalar("5") == Fraction(5)
    assert parse_scalar("-7/3") == Fraction(-7, 3)
    assert parse_scalar("0+1*sqrt(2)") == QuadExt(0, 1, 2)
    assert parse_scalar("1/2-1/2*sqrt(5)") == QuadExt(Fraction(1, 2), Fraction(-1, 2), 5)
    for bad in ["", "1.5", "x", "1/0", "1+2*sqrt(4)", "sqrt(5)", "1 + 2*sqrt(5)"]:
        with pytest.raises(ParseError):
            parse_scalar(bad)


@given(scalars(5))
@settings(max_examples=200)
def test_render_parse_roundtrip(x):
    assert parse_scalar(render_scalar(x)) == x


@given(st.one_of(rationals, quadratics()))
@settings(max_examples=200)
def test_render_parse_roundtrip_mixed_radicands(x):
    assert parse_scalar(render_scalar(x)) == x


@given(scalars(2), scalars(2), scalars(2))
@settings(max_examples=150)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x
    assert x * 1 == x
    assert is_zero(x - x)
    assert is_zero(x + (-x))


@given(scalars(3))
@settings(max_examples=150)
def test_multiplicative_inverse(x):
    if is_zero(x):
        return
    assert inv(x) * x == 1
    if isinstance(x, QuadExt):
        assert x * x.conjugate() == x.norm()


@given(quadratics(m=5), scalars(5), st.integers(min_value=-3, max_value=3))
@settings(max_examples=100)
def test_arithmetic_results_keep_fraction_parts(x, y, e):
    # results skip the constructor, so their parts must already be Fractions:
    # b == 0 results then hash and compare like the rational they equal
    results = [x + y, y + x, x - y, y - x, x * y, y * x, -x, +x, x.conjugate(), x + 1, 1 - x]
    results += [2 * x, x * Fraction(1, 3), x ** abs(e)]
    if x:
        results += [x.inverse(), y / x, 1 / x, x ** e]
    if y:
        results.append(x / y)
    for r in results:
        assert type(r.a) is Fraction and type(r.b) is Fraction
        if r.b == 0:
            assert r == r.a and hash(r) == hash(r.a)


@given(quadratics(m=5), rationals)
@settings(max_examples=100)
def test_mixed_kind_arithmetic(q, r):
    assert q + r == QuadExt(q.a + r, q.b, 5)
    assert r + q == q + r
    assert q * r == QuadExt(q.a * r, q.b * r, 5)
    if r != 0:
        assert (q / r) * r == q
