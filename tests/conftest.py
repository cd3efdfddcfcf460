"""Shared helpers for the test suite."""

import itertools
from collections import deque
from fractions import Fraction
from math import comb, gcd
from typing import NamedTuple

import pytest

from reflext.errors import (
    InternalError,
    NotConnected,
    NotDiagonalizable,
    NotRankOne,
    NotSpanning,
    SingularMatrix,
)
from reflext.exterior import compound
from reflext.fractionfree import to_scalar
from reflext.graphs import deletable_vertex, induced, is_connected
from reflext.linalg import Matrix, Subspace, intersect_all, kernel, rank, row_rank
from reflext.repkit import duality_intertwiner
from reflext.scalars import _quad, field_tag, inv


def random_matrix(rng, rows, cols, bound=4):
    return Matrix(rows, cols, [Fraction(rng.randint(-bound, bound)) for _ in range(rows * cols)])


def random_invertible(rng, n, bound=4):
    while True:
        m = random_matrix(rng, n, n, bound)
        if m.det():
            return m


def random_subspace(rng, ambient, max_dim=None, bound=3):
    max_dim = ambient if max_dim is None else max_dim
    dim = rng.randint(0, max_dim)
    vectors = [
        [Fraction(rng.randint(-bound, bound)) for _ in range(ambient)] for _ in range(dim)
    ]
    return Subspace.span(vectors, ambient)


def minus_intersection_bruteforce(refls, d):
    """Oracle for exterior.minus_intersection: intersect the lambda-eigenspaces
    of the compound matrices directly."""
    ambient = comb(refls[0].dim, d)
    spaces = [
        kernel(compound(r.matrix, d) - Matrix.identity(ambient).scale(r.eigenvalue))
        for r in refls
    ]
    return intersect_all(spaces, ambient)


def gauss_jordan_oracle(rows, n_cols):
    """Oracle for fractionfree.gauss_jordan: Gauss-Jordan on the scalars.

    Reduces the rows in place to canonical RREF, pivots 1 with zeros above
    and below and zero rows at the bottom; returns the pivot columns.
    """
    n_rows = len(rows)
    pivots = []
    for col in range(n_cols):
        lead = len(pivots)
        if lead == n_rows:
            break
        pivot = next((r for r in range(lead, n_rows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[lead], rows[pivot] = rows[pivot], rows[lead]
        pivot_row = rows[lead]
        piv_inv = inv(pivot_row[col])
        for j in range(col, n_cols):
            pivot_row[j] = piv_inv * pivot_row[j]
        for r in range(n_rows):
            row = rows[r]
            if r != lead and row[col]:
                factor = row[col]
                for j in range(col, n_cols):
                    row[j] = row[j] - factor * pivot_row[j]
        pivots.append(col)
    return pivots


def rref_oracle(matrix):
    """Oracle for linalg.rref: the canonical RREF and rank by gauss_jordan_oracle."""
    rows = matrix.row_list()
    rk = len(gauss_jordan_oracle(rows, matrix.cols))
    return Matrix(matrix.rows, matrix.cols, [e for row in rows for e in row]), rk


def kernel_two_pass(matrix):
    """Oracle for linalg.kernel: the scalar RREF of M, one null vector per
    free column, and a second scalar RREF of those vectors."""
    reduced, rk = rref_oracle(matrix)
    n = matrix.cols
    pivots = []
    col = 0
    for r in range(rk):
        while not reduced[r, col]:
            col += 1
        pivots.append(col)
        col += 1
    basis_rows = []
    for f in (j for j in range(n) if j not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r, f]
        basis_rows.append(v)
    basis, dim = rref_oracle(Matrix(len(basis_rows), n, [x for v in basis_rows for x in v]))
    return Subspace(n, basis.submatrix(range(dim), range(n)))


def reflection_compound_trace(refl, d):
    """Trace of the d-th compound of a reflection, without forming it.

    The eigenvalues are 1 (n - 1 times) and lambda, so the trace is their d-th
    elementary symmetric function C(n-1, d) + lambda * C(n-1, d-1).
    """
    n = refl.dim
    moving = refl.eigenvalue * comb(n - 1, d - 1) if d else Fraction(0)
    return Fraction(comb(n - 1, d)) + moving


def characters_separate_oracle(refls, n):
    """Oracle for theoremlab._characters_separate: compare the traces of
    every two degrees of equal dimension, generator by generator."""
    return all(
        any(reflection_compound_trace(r, a) != reflection_compound_trace(r, b) for r in refls)
        for a, b in itertools.combinations(range(n + 1), 2)
        if comb(n, a) == comb(n, b)
    )


def duality_holds(rep, d):
    """Exact generator-by-generator check of the duality intertwining identity
    phi @ compound(g, n-d) == det(g) * compound(g, d)^{-T} @ phi."""
    phi = duality_intertwiner(rep, d)
    for g in rep.generators:
        left = phi @ compound(g, rep.dim - d)
        right = compound(g, d).inverse().transpose().scale(g.det()) @ phi
        if left != right:
            return False
    return True


def naive_dot(u, v):
    """Oracle for linalg.dot: the fold of `+` and `*` from Fraction(0)."""
    total = Fraction(0)
    for a, b in zip(u, v, strict=True):
        total = total + a * b
    return total


class ScalarReflection(NamedTuple):
    """The Bareiss oracle's reflection: its scalars, printed as ReflectionData."""

    matrix: Matrix
    alpha: tuple
    eigenvalue: object
    functional: tuple

    def __repr__(self):
        return "ReflectionData(matrix={!r}, alpha={!r}, eigenvalue={!r}, functional={!r})".format(
            *self
        )


def is_primitive_form(form, vector, m):
    """Whether form is a nonzero multiple of the nonzero scalar vector over
    Z[sqrt(m)], in reflext.fractionfree's entries (ints over Q, pairs of
    ints over Q(sqrt(m)), the int 0 for zero), with coprime integer
    components."""
    if m is None:
        in_ring = all(type(z) is int for z in form)
        components = list(form)
    else:
        in_ring = all(z == 0 and type(z) is int or type(z) is tuple and len(z) == 2 for z in form)
        components = [c for z in form if z for c in z]
    if not in_ring or not all(type(c) is int for c in components):
        return False
    k = next(i for i, x in enumerate(vector) if x)
    scale = to_scalar(form[k], 1, m) / vector[k]
    return scale != 0 and gcd(*components) == 1 and [to_scalar(z, 1, m) for z in form] == [
        scale * x for x in vector
    ]


def recognize_reflection_bareiss(matrix):
    """Oracle for reflections.recognize_reflection: the rank of D = M - I
    from the fraction-free kernel, then alpha = column q of D times
    1 / D_pq, f = row p of D, and the trace and f(alpha) by naive_dot."""
    if matrix.rows != matrix.cols:
        raise NotRankOne("reflection candidate must be square")
    n = matrix.rows
    diff = [list(matrix.row(i)) for i in range(n)]
    for i in range(n):
        diff[i][i] = diff[i][i] - 1
    rank = row_rank(diff, n)
    if rank != 1:
        raise NotRankOne(f"rank(M - I) = {rank}, expected 1")
    p = next(i for i in range(n) if any(diff[i]))
    q = next(j for j in range(n) if diff[p][j])
    scale = inv(diff[p][q])
    alpha = tuple(scale * row[q] for row in diff)
    m = field_tag(alpha[p])
    functional = tuple(
        _quad(x, Fraction(0), m) if m is not None and type(x) is Fraction else x
        for x in diff[p]
    )
    eigenvalue = naive_dot([matrix[i, i] for i in range(n)], [1] * n) - (n - 1)
    if eigenvalue == 1:
        raise NotDiagonalizable("unipotent transvection: eigenvalue 1 on the moving line")
    if eigenvalue == 0:
        raise SingularMatrix("matrix is singular: reflection eigenvalue 0")
    if 1 + naive_dot(functional, alpha) != eigenvalue:
        raise InternalError("alpha is not an eigenvector for the reflection eigenvalue")
    return ScalarReflection(matrix, alpha, eigenvalue, functional)


def connected_basis_subset_oracle(alphas, graph):
    """Oracle for theoremlab.connected_basis_subset: a rank and, while the
    stack is dependent, a separate dependency kernel at every step."""
    n = len(alphas[0])
    stacked = Matrix.from_rows([list(a) for a in alphas])
    stacked_rank = rank(stacked)
    if stacked_rank != n:
        raise NotSpanning("reflection vectors do not span the space")
    if not is_connected(graph):
        raise NotConnected("non-fixing graph must be connected")
    if graph.vertices != tuple(range(1, len(alphas) + 1)):
        raise ValueError("one vertex per vector expected")
    current = list(graph.vertices)
    while stacked_rank != len(current):
        dep_space = kernel(stacked.transpose())
        if dep_space.dim == 0:
            raise InternalError("dependent vectors without a dependency")
        dependency = dep_space.basis.row(0)
        support = [current[pos] for pos, c in enumerate(dependency) if c]
        current.remove(deletable_vertex(induced(graph, current), support))
        stacked = Matrix.from_rows([list(alphas[i - 1]) for i in current])
        stacked_rank = rank(stacked)
    return tuple(current)


def shortest_path_oracle(graph, source, target):
    """Oracle for graphs.shortest_path: its own BFS, neighbours in increasing order."""
    if source == target:
        return [source]
    adj = graph.adjacency()
    prev = {source: source}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in sorted(adj[v]):
            if w not in prev:
                prev[w] = v
                if w == target:
                    path = [w]
                    while path[-1] != source:
                        path.append(prev[path[-1]])
                    return path[::-1]
                queue.append(w)
    return None


def distances_from_oracle(graph, source):
    """Oracle for the graph distances behind graphs.deletable_vertex."""
    adj = graph.adjacency()
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def reachable_oracle(moves, start):
    """Oracle for reachability in the moves digraph: the indices i reachable
    from start along j -> i whenever moves[i][j]."""
    seen = {start}
    stack = [start]
    while stack:
        j = stack.pop()
        for i, row in enumerate(moves):
            if row[j] and i not in seen:
                seen.add(i)
                stack.append(i)
    return seen


@pytest.fixture
def rng():
    import random

    return random.Random(987654321)
