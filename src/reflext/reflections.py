"""Recognition of generalized reflections.

A generalized reflection is a diagonalizable linear map s with rank(s - I) = 1:
it fixes a hyperplane H pointwise and scales a vector alpha by an eigenvalue
lambda not in {0, 1}.  Every such map satisfies s(v) = v + f(v) * alpha for a
linear functional f, and conversely s = I + alpha f^T.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError, NotDiagonalizable, NotRankOne, SingularMatrix
from .linalg import Matrix, Subspace, Vector, dot, image, kernel, rref, vector
from .scalars import Scalar, inv


@dataclass(frozen=True)
class ReflectionData:
    """Canonical data (matrix, alpha, lambda, hyperplane, functional) of a reflection."""

    matrix: Matrix
    alpha: Vector
    eigenvalue: Scalar
    hyperplane: Subspace
    functional: Vector

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def apply(self, v) -> Vector:
        return self.matrix.apply(v)

    def f(self, v) -> Scalar:
        return dot(self.functional, v)


def recognize_reflection(matrix: Matrix) -> ReflectionData:
    """Extract ReflectionData from a square matrix, or raise.

    Raises NotRankOne if rank(M - I) != 1, NotDiagonalizable for unipotent
    transvections (eigenvalue 1), SingularMatrix for eigenvalue 0.
    """
    if matrix.rows != matrix.cols:
        raise NotRankOne("reflection candidate must be square")
    n = matrix.rows
    diff = matrix - Matrix.identity(n)
    reduced, rk = rref(diff)
    if rk != 1:
        raise NotRankOne(f"rank(M - I) = {rk}, expected 1")
    eigenvalue = matrix.trace() - (n - 1)
    if eigenvalue == 1:
        raise NotDiagonalizable("unipotent transvection: eigenvalue 1 on the moving line")
    if eigenvalue == 0:
        raise SingularMatrix("matrix is singular: reflection eigenvalue 0")

    # alpha spans im(M - I); the canonical generator has first nonzero coord 1.
    alpha = image(diff).basis.row(0)
    # M - I = alpha f^T, so f^T is the row of M - I at alpha's leading position,
    # scaled by 1/alpha[p] (= 1 by normalization).
    p = next(j for j in range(n) if alpha[j])
    functional = tuple(diff[p, j] * inv(alpha[p]) for j in range(n))

    hyperplane = kernel(diff)
    # exact self-checks: decomposition and eigenvector property
    rebuilt = Matrix.identity(n) + Matrix(n, 1, alpha) @ Matrix(1, n, functional)
    if rebuilt != matrix:
        raise NotRankOne("M - I is not a rank-one outer product")  # unreachable if rk == 1
    if matrix.apply(alpha) != tuple(eigenvalue * a for a in alpha):
        raise InternalError("alpha is not an eigenvector for the reflection eigenvalue")
    return ReflectionData(matrix, alpha, eigenvalue, hyperplane, functional)


def is_reflection(matrix: Matrix) -> bool:
    try:
        recognize_reflection(matrix)
        return True
    except (NotRankOne, NotDiagonalizable, SingularMatrix):
        return False


def fixes_vector(refl: ReflectionData, v) -> bool:
    """True iff the reflection fixes v, i.e. f(v) = 0."""
    vv = vector(v)
    return refl.apply(vv) == vv


def reflection_from_parts(alpha, functional) -> Matrix:
    """Build I + alpha f^T (a reflection when f(alpha) is not 0 or -1)."""
    a = vector(alpha)
    f = vector(functional)
    n = len(a)
    return Matrix.identity(n) + Matrix(n, 1, a) @ Matrix(1, n, f)
