"""Shared helpers for the test suite."""

from fractions import Fraction
from math import comb

import pytest

from reflext.exterior import compound
from reflext.linalg import Matrix, Subspace, intersect_all, kernel


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


@pytest.fixture
def rng():
    import random

    return random.Random(987654321)
