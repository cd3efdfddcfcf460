"""Exact scalars: arbitrary-precision rationals and real quadratic extensions Q(sqrt(m)).

Rationals are plain ``fractions.Fraction``; elements of Q(sqrt(m)) are ``QuadExt``
pairs (a, b) meaning a + b*sqrt(m), with m a square-free integer, 2 <= m < 10**18.
The two kinds interoperate: Fraction + QuadExt promotes to QuadExt, and a
QuadExt with b == 0 compares (and hashes) equal to the corresponding Fraction.
Combining QuadExt values with distinct m raises FieldMismatch.

Division by zero raises the built-in ZeroDivisionError.

Text grammar (bit-exact, used by the CLI wire format):

    rational    :=  "p" | "p/q"          (p integer, q positive integer)
    quadratic   :=  rational ("+"|"-") rational "*sqrt(" m ")"

Digits are the ASCII digits 0-9 only; other Unicode digits are refused.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt
from typing import Union

from .errors import FieldMismatch, ParseError

Scalar = Union[Fraction, "QuadExt"]

MAX_RADICAND = 10**18  # radicands are below this; trial division then stops by 10**6

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _is_square_free(m: int) -> bool:
    """Exact for m >= 1: trial division below the cube root, then one isqrt.

    Each prime d <= cbrt(c) is divided out of the cofactor c; once d^3 > c, c
    has no prime factor below d, so it has at most two prime factors and is
    square-free unless it is a perfect square.
    """
    d = 2
    while d * d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return False
        d += 1 if d == 2 else 2
    r = isqrt(m)
    return m == 1 or r * r != m


def validate_radicand(m: int) -> int:
    """Check a radicand from input: a square-free integer with 2 <= m < MAX_RADICAND."""
    if isinstance(m, int) and m >= MAX_RADICAND:
        raise ParseError(f"radicand must be below 10**18, got {m.bit_length()} bits")
    if not isinstance(m, int) or m < 2 or not _is_square_free(m):
        raise ParseError(f"radicand must be a square-free integer >= 2, got {m!r}")
    return m


class QuadExt:
    """a + b*sqrt(m) with exact rational a, b.

    The constructor converts a and b to Fraction and validates m; arithmetic
    results are built by ``_quad`` from parts that are already both.
    """

    __slots__ = ("a", "b", "m")

    def __init__(self, a, b, m: int):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.m = validate_radicand(m)

    def _coerce(self, other):
        if isinstance(other, QuadExt):
            if other.m != self.m:
                raise FieldMismatch(f"cannot mix sqrt({self.m}) and sqrt({other.m})")
            return other
        if isinstance(other, (int, Fraction)):
            return _quad(other if type(other) is Fraction else Fraction(other), _ZERO, self.m)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _quad(self.a + o.a, self.b + o.b, self.m)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _quad(self.a - o.a, self.b - o.b, self.m)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _quad(o.a - self.a, o.b - self.b, self.m)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _quad(
            self.a * o.a + self.b * o.b * self.m,
            self.a * o.b + self.b * o.a,
            self.m,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return _quad(-self.a, -self.b, self.m)

    def __pos__(self):
        return self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = _quad(_ONE, _ZERO, self.m)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> QuadExt:
        return _quad(self.a, -self.b, self.m)

    def norm(self) -> Fraction:
        """Field norm a^2 - m*b^2; zero only for the zero element."""
        return self.a * self.a - self.b * self.b * self.m

    def inverse(self) -> QuadExt:
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero scalar")
        return _quad(self.a / n, -self.b / n, self.m)

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            if other.m != self.m:
                # disjoint fields only share the rationals
                return self.b == 0 and other.b == 0 and self.a == other.a
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.m))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, {self.m})"

    def __str__(self):
        return render_scalar(self)


def _quad(a: Fraction, b: Fraction, m: int) -> QuadExt:
    """a + b*sqrt(m) from Fraction parts and a validated m, checking neither again."""
    x = object.__new__(QuadExt)
    x.a = a
    x.b = b
    x.m = m
    return x


def as_scalar(value) -> Scalar:
    """Coerce an int/Fraction/QuadExt/scalar-string to a Scalar."""
    if type(value) is Fraction or isinstance(value, QuadExt):
        return value
    if isinstance(value, str):
        return parse_scalar(value)
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"not a scalar: {value!r}")


def is_zero(x: Scalar) -> bool:
    return not x


def inv(x: Scalar) -> Scalar:
    if isinstance(x, QuadExt):
        return x.inverse()
    if x == 0:
        raise ZeroDivisionError("division by zero scalar")
    return Fraction(1) / x


def field_tag(x: Scalar) -> int | None:
    """None for rationals, the radicand m for Q(sqrt(m)) elements."""
    return x.m if isinstance(x, QuadExt) else None


def merge_tags(t1: int | None, t2: int | None) -> int | None:
    if t1 is None:
        return t2
    if t2 is None or t1 == t2:
        return t1
    raise FieldMismatch(f"cannot mix sqrt({t1}) and sqrt({t2})")


_RAT = r"-?\d+(?:/\d+)?"
_SCALAR_RE = re.compile(rf"^({_RAT})(?:([+-])({_RAT})\*sqrt\((\d+)\))?$", re.ASCII)


def _scalar_parts(text: str) -> tuple[Fraction, Fraction, int | None]:
    """a, b and the unchecked radicand (None for a rational) of a scalar string."""
    s = text.strip()
    match = _SCALAR_RE.match(s)
    if match is None:
        raise ParseError(f"not a scalar: {text!r}")
    head, sign, coeff, radicand = match.groups()
    try:
        a = Fraction(head)
        if sign is None:
            return a, _ZERO, None
        b = Fraction(coeff)
        return a, -b if sign == "-" else b, int(radicand)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}") from None
    except ValueError:  # more digits than int() converts
        raise ParseError(f"scalar has too many digits ({len(s)} characters)") from None


def parse_scalar(text: str) -> Scalar:
    """Parse the scalar grammar; inverse of render_scalar."""
    a, b, radicand = _scalar_parts(text)
    return a if radicand is None else _quad(a, b, validate_radicand(radicand))


def parse_scalar_in(text: str, m: int | None) -> Scalar:
    """parse_scalar for an element of Q(sqrt(m)) with m already validated (None for Q).

    The radicand of the text is compared with m as a plain integer and not
    validated again; any other radicand raises FieldMismatch.
    """
    a, b, radicand = _scalar_parts(text)
    if radicand is None:
        return a
    if radicand != m:
        raise FieldMismatch(f"sqrt({radicand}) is not in the declared field")
    return _quad(a, b, m)


def render_scalar(x: Scalar) -> str:
    """Canonical text form; parse_scalar(render_scalar(x)) == x."""
    if isinstance(x, QuadExt):
        if x.b == 0:
            return render_scalar(x.a)
        sign = "-" if x.b < 0 else "+"
        return f"{render_scalar(x.a)}{sign}{render_scalar(abs(x.b))}*sqrt({x.m})"
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
