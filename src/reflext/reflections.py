"""Recognition of generalized reflections.

A generalized reflection is a diagonalizable linear map s with rank(s - I) = 1:
it fixes a hyperplane H pointwise and scales a vector alpha by an eigenvalue
lambda not in {0, 1}.  Every such map satisfies s(v) = v + f(v) * alpha for a
linear functional f, and conversely s = I + alpha f^T.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .errors import InternalError, NotDiagonalizable, NotRankOne, SingularMatrix
from .linalg import Matrix, Subspace, Vector, dot, is_zero_vector, row_rank, vector
from .scalars import Scalar, _quad, field_tag, inv

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ReflectionData:
    """Canonical data (matrix, alpha, lambda, functional) of a reflection; the
    fixed hyperplane ker f is built at its first read.  Equality and hashing
    use the four data and ignore the cached hyperplane."""

    def __init__(self, matrix: Matrix, alpha: Vector, eigenvalue: Scalar, functional: Vector):
        self.matrix = matrix
        self.alpha = alpha
        self.eigenvalue = eigenvalue
        self.functional = functional

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

    The rank of D = M - I comes from the fraction-free kernel.  On a
    reflection its first pivot is the first nonzero entry p of the first
    nonzero column q, and that one step forms the 2x2 minors
    D_pq D_ij - D_iq D_pj, which all vanish exactly when D = alpha f^T; a
    row with D_iq = 0 is left as it is, so a zero row costs only a zero
    test.  alpha is column q of D scaled to alpha_p = 1 (the canonical basis
    of im D) and f is row p of D.
    """
    if matrix.rows != matrix.cols:
        raise NotRankOne("reflection candidate must be square")
    n = matrix.rows
    diff = [list(matrix.row(i)) for i in range(n)]
    for i in range(n):
        diff[i][i] = diff[i][i] - _ONE
    rank = row_rank(diff, n)
    if rank != 1:
        raise NotRankOne(f"rank(M - I) = {rank}, expected 1")
    # for D = alpha f^T, row p is the first nonzero row and q the first j with f_j != 0
    p = next(i for i in range(n) if not is_zero_vector(diff[i]))
    q = next(j for j in range(n) if diff[p][j])
    column = [row[q] for row in diff]
    scale = inv(column[p])
    alpha = tuple(scale * x for x in column)
    # f is row p of D, lifted into Q(sqrt(m)) when alpha_p = 1 is a QuadExt
    m = field_tag(alpha[p])
    functional = tuple(
        _quad(x, _ZERO, m) if m is not None and type(x) is Fraction else x for x in diff[p]
    )
    eigenvalue = matrix.trace() - (n - 1)
    if eigenvalue == 1:
        raise NotDiagonalizable("unipotent transvection: eigenvalue 1 on the moving line")
    if eigenvalue == 0:
        raise SingularMatrix("matrix is singular: reflection eigenvalue 0")
    # M alpha == lambda alpha: M alpha = (1 + f(alpha)) alpha, as M - I == alpha f^T
    if 1 + dot(functional, alpha) != eigenvalue:
        raise InternalError("alpha is not an eigenvector for the reflection eigenvalue")
    return ReflectionData(matrix, alpha, eigenvalue, functional)


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
