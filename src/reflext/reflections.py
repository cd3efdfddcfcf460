"""Recognition of generalized reflections.

A generalized reflection is a diagonalizable linear map s with rank(s - I) = 1:
it fixes a hyperplane H pointwise and scales a vector alpha by an eigenvalue
lambda not in {0, 1}.  Every such map satisfies s(v) = v + f(v) * alpha for a
linear functional f, and conversely s = I + alpha f^T.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import NamedTuple, Sequence

from .errors import InternalError, NotDiagonalizable, NotRankOne, SingularMatrix
from .fractionfree import (
    clear,
    difference,
    echelon,
    inner,
    integer,
    primitive,
    quotient,
    times,
    to_scalar,
)
from .linalg import Matrix, Subspace, Vector, dot, kernel, vector
from .scalars import Scalar

_ONE = Fraction(1)


class Forms(NamedTuple):
    """f^ and alpha^ over Z[sqrt(m)] (m None over Q), each vector in its
    fractionfree.primitive form: one reflection's, or stacked."""

    m: int | None
    f: Sequence
    alpha: Sequence


class ReflectionData:
    """The certificate of a reflection s = I + alpha f^T, which only
    recognize_reflection builds: the matrix M, `forms` and `shift` = (S, L).

    f^ and alpha^ are nonzero multiples of f and alpha over Z[sqrt(m)], in
    the entries of reflext.fractionfree (ints over Q, pairs over
    Q(sqrt(m)), the int 0 for zero), each in its fractionfree.primitive
    form.  S in Z[sqrt(m)] and the positive int L give lambda - 1 = f(alpha)
    = S / L.  alpha and lambda are derived from them, canonical as every
    scalar fractionfree hands back, and f read off M, at their first read,
    so a caller that reads only the integers builds no scalar; the fixed
    hyperplane ker f is built at its first read as well.
    M determines everything else, so equality and hashing compare M alone;
    repr shows M, alpha, lambda and f.
    """

    def __init__(self, matrix: Matrix, forms: Forms, shift: tuple):
        self.matrix = matrix
        self.forms = forms
        self.shift = shift

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return "ReflectionData(matrix={!r}, alpha={!r}, eigenvalue={!r}, functional={!r})".format(
            self.matrix, self.alpha, self.eigenvalue, self.functional
        )

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @cached_property
    def alpha(self) -> Vector:
        """Column q of M - I scaled to alpha_p = 1: alpha^ over alpha^_p,
        each entry by fractionfree.quotient."""
        m, form = self.forms.m, self.forms.alpha
        p = self._pivot_row
        return tuple([quotient(x, form[p], m) for x in form])

    @cached_property
    def functional(self) -> Vector:
        """Row p of M - I."""
        n = self.dim
        p = self._pivot_row
        row = list(self.matrix.entries[p * n : (p + 1) * n])
        row[p] = row[p] - _ONE
        return tuple(row)

    @cached_property
    def eigenvalue(self) -> Scalar:
        """1 + S / L."""
        shift, den = self.shift
        return _ONE + to_scalar(shift, den, self.forms.m)

    @property
    def _pivot_row(self) -> int:
        """p: the first moving row of M - I, the leading coordinate of alpha^."""
        return next(i for i, x in enumerate(self.forms.alpha) if x)

    @cached_property
    def hyperplane(self) -> Subspace:
        return kernel(Matrix._of(1, self.dim, tuple(self.functional)))

    def apply(self, v) -> Vector:
        return self.matrix.apply(v)

    def f(self, v) -> Scalar:
        return dot(self.functional, v)


def recognize_reflection(matrix: Matrix) -> ReflectionData:
    """Certify that a square matrix is a generalized reflection, or raise.

    Raises NotRankOne if rank(M - I) != 1, NotDiagonalizable for unipotent
    transvections (eigenvalue 1), SingularMatrix for eigenvalue 0.

    Everything is decided on integers, and no scalar is built: not D = M -
    I, not alpha, f or lambda.  Row i of D is zero exactly when M_ii = 1
    and the rest of row i of M is zero, which _cleared_rows tests on M's
    row; every other row moves, and is cleared from M's row over Z[sqrt(m)]
    to r_i = c_i D_i, c_i the lcm of its denominators.  D is read at its
    pivot (p, q): p is its first moving row and q the first nonzero column
    of row p.  D has rank one exactly when every 2x2 minor D_pq D_ij - D_iq
    D_pj through the pivot vanishes, which _moving_line decides on the
    cleared rows.  A rejection ranks the same cleared rows by
    fractionfree.echelon, to say which rank D has.

    With L the lcm of the moving rows' c_i, S = sum_i r_ii (L / c_i) is
    trace(D) times L, so lambda - 1 = trace(D) = S / L: lambda = 1 is S = 0
    and lambda = 0 is S = -L.  As D = alpha f^T, M alpha = (1 + f(alpha))
    alpha, and the guard that alpha is an eigenvector for lambda, f(alpha) =
    S / L, is the identity f~ . alpha~ = r_pq S in Z[sqrt(m)], since f~ =
    c_p f and alpha~ = alpha r_pq (L / c_p).  The certificate keeps f~ and
    alpha~ each divided by the gcd of its integer components, and (S, L);
    alpha (column q of D scaled to alpha_p = 1, the canonical basis of im
    D), f (row p of D) and lambda are derived from these integers at their
    first read.
    """
    if matrix.rows != matrix.cols:
        raise NotRankOne("reflection candidate must be square")
    n = matrix.rows
    m = matrix.field()
    rows = _cleared_rows(matrix.entries, n, m)
    moving = [i for i, row in enumerate(rows) if row is not None]
    line = _moving_line(rows, moving, m) if moving else None
    if line is None:
        rank = echelon([row for row, _ in filter(None, rows)], n, m)[0]
        if rank == 1:
            raise InternalError("rank-one matrix failed the minor test")
        raise NotRankOne(f"rank(M - I) = {rank}, expected 1")
    cleared_f, cleared_alpha, shift, common = line
    if not shift:
        raise NotDiagonalizable("unipotent transvection: eigenvalue 1 on the moving line")
    if shift == integer(-common, m):
        raise SingularMatrix("matrix is singular: reflection eigenvalue 0")
    r_pq = cleared_f[next(j for j, x in enumerate(cleared_f) if x)]
    if inner(cleared_f, cleared_alpha, m) != times(r_pq, shift, m):  # nonzero, as both are
        raise InternalError("alpha is not an eigenvector for the reflection eigenvalue")
    forms = Forms(m, primitive(cleared_f, m), primitive(cleared_alpha, m))
    return ReflectionData(matrix, forms, (shift, common))


def _cleared_rows(entries: Sequence[Scalar], n: int, m: int | None) -> list[tuple | None]:
    """Each row i of D = M - I as (r_i, c_i), clear()'s r_i = c_i D_i over
    Z[sqrt(m)] with c_i the lcm of its denominators, or None when it is zero.

    Row i of D is zero exactly when M_ii = 1 and the rest of row i of M is
    zero; the zero tests stop at the first nonzero entry, and a moving row
    with M_ii != 1 is read only by its clearing.  M_ii - 1 has the
    denominators of M_ii, so c_i is the lcm of M's row and the diagonal of
    the cleared row loses c_i."""
    rows: list[tuple | None] = []
    for i in range(n):
        row = entries[i * n : (i + 1) * n]
        if row[i] == 1 and not any(row[:i]) and not any(row[i + 1 :]):
            rows.append(None)
            continue
        cleared, den = clear(row, m)
        if m is None:
            cleared[i] -= den
        else:
            cleared[i] = difference(cleared[i], integer(den, m), m)
        rows.append((cleared, den))
    return rows


def _moving_line(rows: list[tuple | None], moving: list[int], m: int | None) -> tuple | None:
    """(f~, alpha~, S, L) from _cleared_rows' rows (r_i, c_i) of D = M - I
    and the indices of its nonzero rows, with p = moving[0] and q the first
    nonzero column of row p; None when D has rank above one.

    The minor through (p, q) is r_pq r_ij - r_iq r_pj over c_p c_i and
    vanishes with it; a moving row with D_iq = 0 fails.  f~ = r_p = c_p f.
    With L the lcm of the c_i, alpha~_i = r_iq (L / c_i) is alpha times
    r_pq (L / c_p), a nonzero element of Z[sqrt(m)] as c_p divides L, and
    S = sum_i r_ii (L / c_i) is L trace(D).
    """
    p = moving[0]
    pivot_row, c_p = rows[p]
    q = next(j for j, x in enumerate(pivot_row) if x)
    r_pq = pivot_row[q]
    scaled = [(p, r_pq, pivot_row[p], c_p)]  # (i, r_iq, r_ii, c_i) for each moving row
    for i in moving[1:]:
        r_i, c_i = rows[i]
        r_iq = r_i[q]
        if not r_iq:
            return None
        if m is None:
            if [r_pq * x for x in r_i] != [r_iq * y for y in pivot_row]:
                return None
        elif [times(r_pq, x, m) for x in r_i] != [times(r_iq, y, m) for y in pivot_row]:
            return None
        scaled.append((i, r_iq, r_i[i], c_i))
    common = lcm(*[c_i for *_, c_i in scaled])
    cleared_alpha: list = [0] * len(rows)
    if m is None:
        shift = 0
        for i, r_iq, r_ii, c_i in scaled:
            k = common // c_i
            cleared_alpha[i] = r_iq * k
            shift += r_ii * k
        return tuple(pivot_row), tuple(cleared_alpha), shift, common
    diagonal, scales = [], []
    for i, r_iq, r_ii, c_i in scaled:
        k = integer(common // c_i, m)
        cleared_alpha[i] = times(r_iq, k, m)
        diagonal.append(r_ii)
        scales.append(k)
    shift = inner(diagonal, scales, m, range(len(scales)))  # no k_i is zero
    return tuple(pivot_row), tuple(cleared_alpha), shift, common


def is_reflection(matrix: Matrix) -> bool:
    try:
        recognize_reflection(matrix)
        return True
    except (NotRankOne, NotDiagonalizable, SingularMatrix):
        return False


def fixes_vector(refl: ReflectionData, v) -> bool:
    """True iff the reflection fixes v, i.e. f(v) = 0: s(v) - v = f(v) alpha, alpha != 0."""
    return not refl.f(v)


def reflection_from_parts(alpha, functional) -> Matrix:
    """Build I + alpha f^T (a reflection when f(alpha) is not 0 or -1)."""
    a = vector(alpha)
    f = vector(functional)
    n = len(a)
    return Matrix.identity(n) + Matrix(n, 1, a) @ Matrix(1, n, f)
