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

from .errors import InternalError, NotDiagonalizable, NotRankOne, SingularMatrix
from .fractionfree import clear
from .linalg import Matrix, Subspace, Vector, dot, row_rank, vector
from .scalars import QuadExt, Scalar, _quad, inv

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
        return _kernel_of_functional(self.functional)

    def apply(self, v) -> Vector:
        return self.matrix.apply(v)

    def f(self, v) -> Scalar:
        return dot(self.functional, v)


def recognize_reflection(matrix: Matrix) -> ReflectionData:
    """Extract ReflectionData from a square matrix, or raise.

    Raises NotRankOne if rank(M - I) != 1, NotDiagonalizable for unipotent
    transvections (eigenvalue 1), SingularMatrix for eigenvalue 0.

    D = M - I is read at its pivot (p, q): p is its first nonzero row and q
    the first nonzero column of row p.  D has rank one exactly when every
    2x2 minor D_pq D_ij - D_iq D_pj through the pivot vanishes, which
    _moving_line decides on the cleared rows.  Only a rejection runs the
    fraction-free rank, to say which rank D has.  alpha is column q of D
    scaled to alpha_p = 1 (the canonical basis of im D) and f is row p of D.
    """
    if matrix.rows != matrix.cols:
        raise NotRankOne("reflection candidate must be square")
    n = matrix.rows
    diff = [list(matrix.row(i)) for i in range(n)]
    for i in range(n):
        diff[i][i] = diff[i][i] - _ONE
    m = matrix.field()
    p = next((i for i in range(n) if any(diff[i])), None)
    line = None if p is None else _moving_line(diff, p, m)
    if line is None:
        rank = row_rank(diff, n)
        if rank == 1:
            raise InternalError("rank-one matrix failed the minor test")
        raise NotRankOne(f"rank(M - I) = {rank}, expected 1")
    alpha, cleared_f, cleared_alpha = line
    # f is row p of D, lifted into Q(sqrt(m)) when alpha_p = 1 is a QuadExt
    lift = type(alpha[p]) is QuadExt
    functional = tuple(_quad(x, _ZERO, m) if lift and type(x) is Fraction else x for x in diff[p])
    eigenvalue = matrix.trace() - (n - 1)
    if eigenvalue == 1:
        raise NotDiagonalizable("unipotent transvection: eigenvalue 1 on the moving line")
    if eigenvalue == 0:
        raise SingularMatrix("matrix is singular: reflection eigenvalue 0")
    # M alpha == lambda alpha: M alpha = (1 + f(alpha)) alpha, as M - I == alpha f^T
    if 1 + dot(functional, alpha) != eigenvalue:
        raise InternalError("alpha is not an eigenvector for the reflection eigenvalue")
    return ReflectionData(matrix, alpha, eigenvalue, functional, (m, cleared_f, cleared_alpha))


def _moving_line(diff: list[list[Scalar]], p: int, m: int | None) -> tuple | None:
    """(alpha, f~, alpha~), with alpha column q of D over D_pq, q the first
    nonzero column of row p; None when D has rank above one.

    Row i is cleared to r_i = c_i D_i over Z[sqrt(m)], c_i the lcm of its
    denominators, so the minor through (p, q) is r_pq r_ij - r_iq r_pj over
    c_p c_i and vanishes with it.  A row with D_iq = 0 passes exactly when
    it is zero, and is not cleared.  Each alpha_i = r_iq c_p / (r_pq c_i) is
    normalized once, over Q(sqrt(m)) through the norm of r_pq; it is a
    QuadExt exactly when D_pq or D_iq is one, as D_iq / D_pq would be.

    The integers are kept: f~ = r_p = c_p f, and alpha~_i = r_iq (L / c_i)
    with L the lcm of the c_i, which is alpha times r_pq (L / c_p), a nonzero
    element of Z[sqrt(m)] as c_p divides L.
    """
    pivot_row, c_p = clear(diff[p], m)
    q = next(j for j, x in enumerate(pivot_row) if x)
    quad_pivot = type(diff[p][q]) is QuadExt
    r_pq = pivot_row[q]
    if m is not None:
        u, v = r_pq
        norm = u * u - m * v * v
    alpha = []
    moving = []  # (i, r_iq, c_i) for each row with D_iq != 0
    for i, row in enumerate(diff):
        quad = quad_pivot or type(row[q]) is QuadExt
        if not row[q]:
            if i > p and any(row):  # rows above row p are zero
                return None
            alpha.append(_quad(_ZERO, _ZERO, m) if quad else _ZERO)
            continue
        r_i, c_i = (pivot_row, c_p) if i == p else clear(row, m)
        r_iq = r_i[q]
        moving.append((i, r_iq, c_i))
        if m is None:
            if any(r_pq * x != r_iq * y for x, y in zip(r_i, pivot_row)):
                return None
            alpha.append(Fraction(r_iq * c_p, r_pq * c_i))
            continue
        if any(_times(r_pq, x, m) != _times(r_iq, y, m) for x, y in zip(r_i, pivot_row)):
            return None
        a, b = r_iq
        den = norm * c_i
        x = Fraction((a * u - m * b * v) * c_p, den)
        alpha.append(_quad(x, Fraction((b * u - a * v) * c_p, den), m) if quad else x)
    common = lcm(*[c_i for _, _, c_i in moving])
    cleared_alpha: list = [0] * len(diff)
    for i, r_iq, c_i in moving:
        k = common // c_i
        cleared_alpha[i] = r_iq * k if m is None else (r_iq[0] * k, r_iq[1] * k)
    return tuple(alpha), tuple(pivot_row), tuple(cleared_alpha)


def _times(x, y, m: int) -> tuple[int, int]:
    """The product of two elements of Z[sqrt(m)], each a pair or the int 0."""
    a, b = x or (0, 0)
    c, d = y or (0, 0)
    return a * c + m * b * d, a * d + b * c


def _kernel_of_functional(functional: Vector) -> Subspace:
    """ker f in canonical RREF: with l the last index where f is nonzero, the
    rows e_j - (f_j / f_l) e_l for j != l, in increasing j."""
    n = len(functional)
    last = max(j for j in range(n) if functional[j])
    ratio = inv(functional[last])
    rows = []
    for j in range(n):
        if j != last:
            row = [_ZERO] * n
            row[j] = _ONE
            if functional[j]:
                row[last] = -(functional[j] * ratio)
            rows.extend(row)
    return Subspace(n, Matrix(n - 1, n, rows))


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
