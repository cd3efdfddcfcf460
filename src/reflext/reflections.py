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
from typing import Sequence

from .errors import InternalError, NotDiagonalizable, NotRankOne, SingularMatrix
from .fractionfree import clear
from .linalg import Matrix, Subspace, Vector, dot, kernel, row_rank, vector
from .scalars import QuadExt, Scalar, _quad

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ReflectionData:
    """Canonical data (matrix, alpha, lambda, functional) of a reflection; the
    fixed hyperplane ker f is built at its first read.  Equality, hashing and
    repr use the four data and ignore the cached hyperplane and `cleared`.

    recognize_reflection also keeps `cleared` = (m, f~, alpha~): f and alpha
    scaled by nonzero elements of Z[sqrt(m)] into Z[sqrt(m)], in the entries
    of reflext.fractionfree (ints over Q, pairs over Q(sqrt(m)), the int 0
    for zero), so later ranks and patterns need no second clearing.
    """

    def __init__(
        self,
        matrix: Matrix,
        alpha: Vector,
        eigenvalue: Scalar,
        functional: Vector,
        cleared: tuple | None = None,
    ):
        self.matrix = matrix
        self.alpha = alpha
        self.eigenvalue = eigenvalue
        self.functional = functional
        self.cleared = cleared

    def _key(self) -> tuple:
        return (self.matrix, self.alpha, self.eigenvalue, self.functional)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "ReflectionData(matrix={!r}, alpha={!r}, eigenvalue={!r}, functional={!r})".format(
            *self._key()
        )

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @cached_property
    def hyperplane(self) -> Subspace:
        return kernel(Matrix(1, self.dim, self.functional))

    def apply(self, v) -> Vector:
        return self.matrix.apply(v)

    def f(self, v) -> Scalar:
        return dot(self.functional, v)


def recognize_reflection(matrix: Matrix) -> ReflectionData:
    """Extract ReflectionData from a square matrix, or raise.

    Raises NotRankOne if rank(M - I) != 1, NotDiagonalizable for unipotent
    transvections (eigenvalue 1), SingularMatrix for eigenvalue 0.

    D = M - I is not built from scalars.  Row i of D is zero exactly when
    M_ii = 1 and the rest of row i of M is zero, which is tested on M's row;
    every other row moves, and _moving_line clears it from M's row over
    Z[sqrt(m)].  D is read at its pivot (p, q): p is its first moving row
    and q the first nonzero column of row p.  D has rank one exactly when
    every 2x2 minor D_pq D_ij - D_iq D_pj through the pivot vanishes, which
    is decided on the cleared rows.  Only a rejection builds D and runs the
    fraction-free rank, to say which rank D has.  alpha is column q of D
    scaled to alpha_p = 1 (the canonical basis of im D), f is row p of D and
    lambda = trace(M) - (n - 1) is summed from the integer parts of M's
    diagonal.
    """
    if matrix.rows != matrix.cols:
        raise NotRankOne("reflection candidate must be square")
    n = matrix.rows
    entries = matrix.entries
    m = matrix.field()
    rows = [entries[i * n : (i + 1) * n] for i in range(n)]
    moving = [
        i for i, row in enumerate(rows) if row[i] != 1 or any(row[:i]) or any(row[i + 1 :])
    ]
    line = _moving_line(rows, moving, m) if moving else None
    if line is None:
        diff = matrix.row_list()
        for i in range(n):
            diff[i][i] = diff[i][i] - _ONE
        rank = row_rank(diff, n)
        if rank == 1:
            raise InternalError("rank-one matrix failed the minor test")
        raise NotRankOne(f"rank(M - I) = {rank}, expected 1")
    alpha, cleared_f, cleared_alpha = line
    p = moving[0]
    f_row = list(rows[p])
    f_row[p] = f_row[p] - _ONE
    if type(alpha[p]) is QuadExt:  # f is lifted into Q(sqrt(m)) when alpha_p = 1 is a QuadExt
        f_row = [_quad(x, _ZERO, m) if type(x) is Fraction else x for x in f_row]
    functional = tuple(f_row)
    eigenvalue = _eigenvalue(entries[:: n + 1], m)
    if eigenvalue == 1:
        raise NotDiagonalizable("unipotent transvection: eigenvalue 1 on the moving line")
    if eigenvalue == 0:
        raise SingularMatrix("matrix is singular: reflection eigenvalue 0")
    # M alpha == lambda alpha: M alpha = (1 + f(alpha)) alpha, as M - I == alpha f^T;
    # alpha is zero off the moving rows
    if 1 + dot([functional[i] for i in moving], [alpha[i] for i in moving]) != eigenvalue:
        raise InternalError("alpha is not an eigenvector for the reflection eigenvalue")
    return ReflectionData(matrix, alpha, eigenvalue, functional, (m, cleared_f, cleared_alpha))


def _eigenvalue(diagonal: Sequence[Scalar], m: int | None) -> Scalar:
    """trace(M) - (n - 1) from M's diagonal, summed over the lcm of its
    denominators: a QuadExt exactly when some diagonal entry is one, as
    Matrix.trace() gives."""
    if m is not None and QuadExt not in set(map(type, diagonal)):
        m = None
    cleared, den = clear(diagonal, m)
    shift = (len(diagonal) - 1) * den
    if m is None:
        return Fraction(sum(cleared) - shift, den)
    a = sum(z[0] for z in cleared if z)
    b = sum(z[1] for z in cleared if z)
    return _quad(Fraction(a - shift, den), Fraction(b, den), m)


def _cleared_difference(row: Sequence[Scalar], i: int, m: int | None) -> tuple[list, int]:
    """Row i of M - I over Z[sqrt(m)] as clear() gives it, from row i of M:
    M_ii - 1 has the denominators of M_ii, so the lcm c_i is that of M's row
    and the diagonal loses c_i."""
    cleared, den = clear(row, m)
    if m is None:
        cleared[i] -= den
    else:
        u, v = cleared[i] or (0, 0)
        cleared[i] = (u - den, v) if u != den or v else 0
    return cleared, den


def _moving_line(rows: list[Sequence[Scalar]], moving: list[int], m: int | None) -> tuple | None:
    """(alpha, f~, alpha~) from the rows of M and the indices of the nonzero
    rows of D = M - I, with alpha column q of D over D_pq, p = moving[0] and
    q the first nonzero column of row p; None when D has rank above one.

    Moving row i is cleared to r_i = c_i D_i over Z[sqrt(m)], c_i the lcm of
    its denominators, so the minor through (p, q) is r_pq r_ij - r_iq r_pj
    over c_p c_i and vanishes with it; a moving row with D_iq = 0 fails.
    alpha_p = 1, and each other alpha_i = r_iq c_p / (r_pq c_i) is
    normalized once, over Q(sqrt(m)) through the norm of r_pq.  alpha_i is a
    QuadExt exactly when D_pq or D_iq is one, as D_iq / D_pq would be; D_iq
    has the type of M_iq.

    The integers are kept: f~ = r_p = c_p f, and alpha~_i = r_iq (L / c_i)
    with L the lcm of the c_i, which is alpha times r_pq (L / c_p), a nonzero
    element of Z[sqrt(m)] as c_p divides L.
    """
    p = moving[0]
    pivot_row, c_p = _cleared_difference(rows[p], p, m)
    q = next(j for j, x in enumerate(pivot_row) if x)
    r_pq = pivot_row[q]
    quad_pivot = type(rows[p][q]) is QuadExt
    if m is None:
        alpha = [_ZERO] * len(rows)
    else:
        zero = _quad(_ZERO, _ZERO, m)
        alpha = [zero if quad_pivot or type(row[q]) is QuadExt else _ZERO for row in rows]
        u, v = r_pq
        norm = u * u - m * v * v
    alpha[p] = _quad(_ONE, _ZERO, m) if quad_pivot else _ONE
    scaled = [(p, r_pq, c_p)]  # (i, r_iq, c_i) for each moving row
    for i in moving[1:]:
        r_i, c_i = _cleared_difference(rows[i], i, m)
        r_iq = r_i[q]
        if not r_iq:
            return None
        scaled.append((i, r_iq, c_i))
        if m is None:
            if [r_pq * x for x in r_i] != [r_iq * y for y in pivot_row]:
                return None
            alpha[i] = Fraction(r_iq * c_p, r_pq * c_i)
            continue
        if [_times(r_pq, x, m) for x in r_i] != [_times(r_iq, y, m) for y in pivot_row]:
            return None
        a, b = r_iq
        den = norm * c_i
        x = Fraction((a * u - m * b * v) * c_p, den)
        if quad_pivot or type(rows[i][q]) is QuadExt:
            x = _quad(x, Fraction((b * u - a * v) * c_p, den), m)
        alpha[i] = x
    common = lcm(*[c_i for _, _, c_i in scaled])
    cleared_alpha: list = [0] * len(rows)
    for i, r_iq, c_i in scaled:
        k = common // c_i
        cleared_alpha[i] = r_iq * k if m is None else (r_iq[0] * k, r_iq[1] * k)
    return tuple(alpha), tuple(pivot_row), tuple(cleared_alpha)


def _times(x, y, m: int) -> tuple[int, int]:
    """The product of two elements of Z[sqrt(m)], each a pair or the int 0."""
    a, b = x or (0, 0)
    c, d = y or (0, 0)
    return a * c + m * b * d, a * d + b * c


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
