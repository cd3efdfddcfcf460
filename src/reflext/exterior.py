"""Exterior powers: compound matrices, wedge coordinates, eigen-splits and
intersections of minus-eigenspaces.

Coordinates on the d-th exterior power are indexed by the lexicographically
ordered d-subsets of {0..n-1} (see linalg.wedge_index_sets); all sign
conventions flow from minor expansion in that order.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from math import comb
from typing import NamedTuple, Sequence

from .errors import BadDegree, DependentAlphas, InternalError, NotABasis
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    _check_degree,
    kernel,
    row_rank,
    vector,
    wedge_index_sets,
)
from .reflections import ReflectionData
from .scalars import Scalar


def compound(matrix: Matrix, d: int) -> Matrix:
    """d-th compound: the matrix of d x d minors in lexicographic subset order.

    Entry (J, I) is det of the submatrix on rows J, columns I, so the compound
    realizes the action of the matrix on the d-th exterior power.  Column I
    holds every minor on the columns I, which is the wedge of those columns.
    """
    if matrix.rows != matrix.cols:
        raise BadDegree("compound of non-square matrix")
    n = matrix.rows
    _check_degree(n, d)
    columns = [wedge([matrix.col(i) for i in col_set]) for col_set in wedge_index_sets(n, d)]
    size = len(columns)
    return Matrix(size, size, [col[j] for j in range(size) for col in columns])


def wedge(vectors: Sequence[Sequence]) -> Vector:
    """Coordinates of v_1 ^ ... ^ v_d on the lexicographic wedge basis.

    The d coordinates are the d x d minors of the n x d stack; the zero vector
    comes back exactly when the inputs are dependent.
    """
    vecs = [vector(v) for v in vectors]
    d = len(vecs)
    if d == 0:
        return (Fraction(1),)
    n = len(vecs[0])
    if any(len(v) != n for v in vecs):
        raise NotABasis("wedge factors must share one ambient dimension")
    _check_degree(n, d)
    # minors[rows]: the nonzero minors of the first c factors on those sorted
    # rows.  Laplace expansion along factor c, whose entry in row r sits at
    # position pos of the grown row set, extends each one by one row.
    minors: dict[tuple[int, ...], Scalar] = {(): Fraction(1)}
    for c, v in enumerate(vecs):
        support = [r for r in range(n) if v[r]]
        grown: dict[tuple[int, ...], Scalar] = {}
        for rows, minor in minors.items():
            for r in support:
                if r in rows:
                    continue
                pos = bisect_left(rows, r)
                key = rows[:pos] + (r,) + rows[pos:]
                term = v[r] * minor if (pos + c) % 2 == 0 else -(v[r] * minor)
                grown[key] = grown[key] + term if key in grown else term
        minors = {rows: m for rows, m in grown.items() if m}
    zero = Fraction(0)
    return tuple(minors.get(rows, zero) for rows in wedge_index_sets(n, d))


class EigenSplit(NamedTuple):
    """The 1- and lambda-eigenspaces of a reflection acting on the d-th exterior power."""

    plus: Subspace
    minus: Subspace
    degree: int
    reflection: ReflectionData


def eigen_split(refl: ReflectionData, d: int) -> EigenSplit:
    """Eigen-decomposition of the d-th exterior power under a reflection.

    plus is spanned by wedges of d hyperplane-basis vectors, minus by
    alpha ^ (d-1 hyperplane-basis vectors); both are cross-checked against the
    eigen-kernels of the compound matrix.
    """
    n = refl.dim
    _check_degree(n, d)
    ambient = comb(n, d)
    plus = exterior_subspace(refl.hyperplane, d)
    minus_vecs = minus_basis_from_any_extension(refl, refl.hyperplane.basis_vectors(), d)
    minus = Subspace.span(minus_vecs, ambient)

    # oracle: the formulas must agree with the kernels of the compound matrix
    cmp_mat = compound(refl.matrix, d)
    ident = Matrix.identity(ambient)
    if plus != kernel(cmp_mat - ident):
        raise InternalError("plus-eigenspace formula disagrees with compound kernel")
    if minus != kernel(cmp_mat - ident.scale(refl.eigenvalue)):
        raise InternalError("minus-eigenspace formula disagrees with compound kernel")
    return EigenSplit(plus=plus, minus=minus, degree=d, reflection=refl)


def minus_basis_from_any_extension(
    refl: ReflectionData, ext_basis: Sequence[Sequence], d: int
) -> list[Vector]:
    """Wedges alpha ^ (d-1 of the extension vectors), for any extension of alpha to a basis.

    Their span equals the minus-eigenspace of the d-th exterior power.
    """
    n = refl.dim
    _check_degree(n, d)
    ext = [vector(v) for v in ext_basis]
    if len(ext) != n - 1 or row_rank([refl.alpha, *ext], n) != n:
        raise NotABasis("alpha together with the extension must form a basis")
    if d == 0:
        return []
    return _wedges([refl.alpha], ext, d - 1)


def extend_to_basis(vectors: Sequence[Vector], n: int) -> list[Vector]:
    """Greedily extend independent vectors to a basis of F^n using standard basis vectors."""
    if row_rank(vectors, n) != len(vectors):
        raise DependentAlphas("vectors to extend are dependent")
    return _extend_independent(vectors, n)


def _extend_independent(vectors: Sequence[Vector], n: int) -> list[Vector]:
    """extend_to_basis for vectors already known to be independent."""
    out = list(vectors)
    for j in range(n):
        if len(out) == n:
            break
        e = tuple(Fraction(1) if i == j else Fraction(0) for i in range(n))
        if row_rank([*out, e], n) == len(out) + 1:
            out.append(e)
    return out


def minus_intersection(refls: Sequence[ReflectionData], d: int) -> Subspace:
    """Intersection of the minus-eigenspaces of k reflections with independent alphas.

    Zero for d < k; for d >= k the span of alpha_1 ^ ... ^ alpha_k ^ (d-k
    extension vectors) over any extension of the alphas to a basis.  The empty
    family yields the whole exterior power.
    """
    if not refls:
        raise ValueError("minus_intersection needs the ambient dimension; pass at least one reflection")
    n = refls[0].dim
    _check_degree(n, d)
    k = len(refls)
    alphas = [r.alpha for r in refls]
    if row_rank(alphas, n) != k:
        raise DependentAlphas("reflection vectors are linearly dependent")
    ambient = comb(n, d)
    if d < k:
        return Subspace.zero(ambient)
    extension = _extend_independent(alphas, n)[k:] if d > k else []
    return Subspace.span(_wedges(alphas, extension, d - k), ambient)


def exterior_subspace(space: Subspace, d: int) -> Subspace:
    """The d-th exterior power of a subspace, inside the exterior power of the ambient space."""
    n = space.ambient_dim
    _check_degree(n, d)
    return Subspace.span(_wedges([], space.basis_vectors(), d), comb(n, d))


def _wedges(head: Sequence[Vector], tail: Sequence[Vector], r: int) -> list[Vector]:
    """head ^ (r of the tail vectors), one wedge per r-subset of the tail in
    lexicographic order."""
    return [
        wedge([*head, *(tail[i] for i in c)])
        for c in itertools.combinations(range(len(tail)), r)
    ]
