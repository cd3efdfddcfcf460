"""Recognition of generalized reflections.

A generalized reflection is a diagonalizable linear map s with rank(s - I) = 1:
it fixes a hyperplane H pointwise and scales a vector alpha by an eigenvalue
lambda not in {0, 1}.  Every such map satisfies s(v) = v + f(v) * alpha for a
linear functional f, and conversely s = I + alpha f^T.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import InternalError, NotDiagonalizable, NotRankOne, SingularMatrix
from .linalg import Matrix, Subspace, Vector, dot, is_zero_vector, rank, vector
from .scalars import Scalar, inv

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class ReflectionData:
    """Canonical data (matrix, alpha, lambda, functional) of a reflection; the
    fixed hyperplane ker f is built at its first read."""

    matrix: Matrix
    alpha: Vector
    eigenvalue: Scalar
    functional: Vector

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

    No elimination runs on a reflection: alpha is the first nonzero column of
    D = M - I scaled to first nonzero coordinate p = 1 (the canonical basis of
    im D), f is row p of D, and D == alpha f^T entry by entry is the rank-one
    test.  Only a failed test reduces D, for its rank.
    """
    if matrix.rows != matrix.cols:
        raise NotRankOne("reflection candidate must be square")
    n = matrix.rows
    diff = Matrix(
        n, n, [x - _ONE if k % (n + 1) == 0 else x for k, x in enumerate(matrix.entries)]
    )
    column = next((c for c in map(diff.col, range(n)) if not is_zero_vector(c)), None)
    if column is None:
        raise NotRankOne("rank(M - I) = 0, expected 1")
    p = next(i for i in range(n) if column[i])
    scale = inv(column[p])
    alpha = tuple(scale * x for x in column)
    # alpha[p] is 1; multiplying by it puts f in Q(sqrt(m)) whenever alpha is
    unit = inv(alpha[p])
    functional = tuple(x * unit for x in diff.row(p))
    # D == alpha f^T row by row; row p is f itself
    if not all(
        diff.row(i) == tuple(a * x for x in functional) if a else is_zero_vector(diff.row(i))
        for i, a in enumerate(alpha)
        if i != p
    ):
        raise NotRankOne(f"rank(M - I) = {rank(diff)}, expected 1")
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
