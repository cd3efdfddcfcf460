import random
from fractions import Fraction

import pytest

from reflext.errors import (
    AmbientMismatch,
    EmptyGeneratorList,
    FieldMismatch,
    LengthMismatch,
    SingularMatrix,
)
from reflext.linalg import (
    Matrix,
    Subspace,
    charpoly,
    dot,
    image,
    intersect,
    kernel,
    rank,
    rref,
    solve_intertwiner,
    subspace_sum,
    unvec,
)
from reflext.scalars import QuadExt

from conftest import canonical, kernel_two_pass, naive_dot, random_matrix

A2_GENS = [Matrix.from_rows([[-1, 1], [0, 1]]), Matrix.from_rows([[1, 0], [1, -1]])]


def test_rref_examples():
    reduced, rk = rref(Matrix.from_rows([[1, 1], [1, 1]]))
    assert reduced == Matrix.from_rows([[1, 1], [0, 0]])
    assert rk == 1

    ident = Matrix.identity(3)
    assert rref(ident) == (ident, 3)

    reduced, rk = rref(Matrix.from_rows([[0, 2], [1, 0]]))
    assert reduced == Matrix.identity(2)
    assert rk == 2


def test_kernel_image_examples():
    assert kernel(Matrix.from_rows([[1, 1], [1, 1]])).basis == Matrix.from_rows([[1, -1]])
    assert image(Matrix.from_rows([[-2, 1], [0, 0]])).basis == Matrix.from_rows([[1, 0]])
    for n in (1, 2, 4):
        assert kernel(Matrix.identity(n)).dim == 0


def test_rank_nullity_random(rng):
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        assert rank(m) + kernel(m).dim == cols
        assert image(m).dim == rank(m)


def test_subspace_canonical_equality():
    a = Subspace.span([[1, 2, 0], [0, 0, 1]], 3)
    b = Subspace.span([[2, 4, 2], [-1, -2, 3]], 3)
    assert a == b  # same subspace, same canonical basis matrix
    assert a.basis == b.basis


def test_intersect_sum_examples():
    e = Matrix.identity(3)
    span12 = Subspace.span([e.row(0), e.row(1)], 3)
    span23 = Subspace.span([e.row(1), e.row(2)], 3)
    meet = intersect(span12, span23)
    assert meet == Subspace.span([e.row(1)], 3)
    assert intersect(span12, span12) == span12

    summed = subspace_sum(Subspace.span([[1, 2, 0]], 3), Subspace.span([[0, 0, 1]], 3))
    assert summed.dim == 2


def test_intersect_dimension_formula(rng):
    from conftest import random_subspace

    for _ in range(50):
        a = random_subspace(rng, 5)
        b = random_subspace(rng, 5)
        meet = intersect(a, b)
        join = subspace_sum(a, b)
        assert a.dim + b.dim == meet.dim + join.dim
        for v in meet.basis_vectors():
            assert a.contains(v) and b.contains(v)


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        intersect(Subspace.full(2), Subspace.full(3))


def _oracle_intertwiner_dim(gens_left, gens_right):
    """Independent path: sympy nullspace of the same linear conditions."""
    import sympy

    n_l = gens_left[0].rows
    n_r = gens_right[0].rows
    x = sympy.MatrixSymbol("X", n_r, n_l)
    rows = []
    for left, right in zip(gens_left, gens_right):
        ls = sympy.Matrix([[sympy.Rational(e) for e in left.row(i)] for i in range(n_l)])
        rs = sympy.Matrix([[sympy.Rational(e) for e in right.row(i)] for i in range(n_r)])
        expr = sympy.Matrix(x) * ls - rs * sympy.Matrix(x)
        rows.extend(expr)
    variables = list(sympy.Matrix(x))
    system = sympy.Matrix([[e.coeff(v) for v in variables] for e in rows])
    return len(system.nullspace())


def test_intertwiner_a2_commutant():
    space = solve_intertwiner(A2_GENS, A2_GENS)
    assert space.dim == 1
    assert space.dim == _oracle_intertwiner_dim(A2_GENS, A2_GENS)
    # the one commutant element is a scalar matrix
    x = unvec(space.basis.row(0), 2, 2)
    assert x == Matrix.identity(2).scale(x[0, 0])


def test_intertwiner_contains_identity(rng):
    from conftest import random_invertible

    for _ in range(10):
        n = rng.randint(1, 3)
        gens = [random_invertible(rng, n) for _ in range(2)]
        space = solve_intertwiner(gens, gens)
        assert space.contains(tuple(Matrix.identity(n).entries))
        assert space.dim >= 1


def test_intertwiner_trivial_vs_sign():
    one = [Matrix.from_rows([[1]]), Matrix.from_rows([[1]])]
    sign = [Matrix.from_rows([[-1]]), Matrix.from_rows([[-1]])]
    assert solve_intertwiner(one, sign).dim == 0
    assert solve_intertwiner(one, one).dim == 1


def test_intertwiner_empty_list():
    with pytest.raises(EmptyGeneratorList):
        solve_intertwiner([], [])


def test_inverse_and_det(rng):
    from conftest import random_invertible

    for _ in range(20):
        n = rng.randint(1, 4)
        m = random_invertible(rng, n)
        assert m @ m.inverse() == Matrix.identity(n)
        assert m.inverse().det() * m.det() == 1
    with pytest.raises(SingularMatrix):
        Matrix.from_rows([[1, 2], [2, 4]]).inverse()


def test_charpoly_examples():
    m = Matrix.from_rows([[2, 0], [0, 3]])
    # x^2 - 5x + 6
    assert charpoly(m) == [Fraction(1), Fraction(-5), Fraction(6)]
    s1 = A2_GENS[0]
    # reflection: x^2 - 1 (eigenvalues 1 and -1)
    assert charpoly(s1) == [Fraction(1), Fraction(0), Fraction(-1)]


def test_charpoly_cayley_hamilton(rng):
    for _ in range(15):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        coeffs = charpoly(m)
        total = Matrix.zero(n, n)
        power = Matrix.identity(n)
        for c in reversed(coeffs):
            total = total + power.scale(c)
            power = power @ m
        assert total.is_zero()


def _dot_scalars(rng, m):
    a = Fraction(rng.randint(-40, 40), rng.randint(1, 30))
    kind = rng.random()
    if kind < 0.2:
        return Fraction(0)
    if m is None or kind < 0.5:
        return a if kind < 0.45 else rng.randint(-5, 5)
    b = 0 if kind < 0.6 else Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    return QuadExt(a, b, m)


def test_dot_matches_the_fraction_fold():
    rng = random.Random(1019)
    matrix_rng = random.Random(1021)  # its own stream, so u and v stay as they were
    for t in range(1500):
        m = (None, 5, 1000000007)[t % 3]
        n = rng.randint(0, 8)
        u = [_dot_scalars(rng, m) for _ in range(n)]
        v = [_dot_scalars(rng, m) for _ in range(n)]
        assert repr(dot(u, v)) == repr(canonical(naive_dot(u, v))), (u, v)
        diagonal = Matrix(n, n, [u[i] if i == j else 0 for i in range(n) for j in range(n)])
        assert repr(diagonal.trace()) == repr(canonical(naive_dot(u, [1] * n)))
        # @ and apply clear each row and column once, yet every entry is the
        # fold's value: a Fraction exactly when its sqrt(m) part is zero
        rows, cols = matrix_rng.randint(0, 4), matrix_rng.randint(0, 4)
        left = Matrix(rows, n, [_dot_scalars(matrix_rng, m) for _ in range(rows * n)])
        right = Matrix(n, cols, [_dot_scalars(matrix_rng, m) for _ in range(n * cols)])
        expected = [naive_dot(left.row(i), right.col(j)) for i in range(rows) for j in range(cols)]
        assert repr((left @ right).entries) == repr(tuple(map(canonical, expected))), (left, right)
        applied = [canonical(naive_dot(left.row(i), v)) for i in range(rows)]
        assert repr(left.apply(v)) == repr(tuple(applied))


def test_dot_edge_cases():
    assert repr(dot((), ())) == "Fraction(0, 1)"
    rational_quad = QuadExt(Fraction(3, 2), 0, 5)
    assert repr(dot([rational_quad], [Fraction(2)])) == "Fraction(3, 1)"
    assert repr(dot([Fraction(0), 1], [rational_quad, 0])) == "Fraction(0, 1)"
    assert repr(dot([QuadExt(1, 1, 5)], [QuadExt(1, -1, 5)])) == "Fraction(-4, 1)"
    assert repr(dot([QuadExt(0, 1, 5)], [1])) == "QuadExt(Fraction(0, 1), Fraction(1, 1), 5)"
    with pytest.raises(LengthMismatch):
        dot([1], [])
    for u, v in [
        ([QuadExt(1, 1, 2)], [QuadExt(1, 1, 3)]),
        ([QuadExt(1, 1, 2), 1], [1, QuadExt(0, 1, 3)]),
        ([QuadExt(1, 0, 2), 0], [0, QuadExt(1, 0, 3)]),
    ]:
        with pytest.raises(FieldMismatch):
            dot(u, v)
        with pytest.raises(FieldMismatch):
            naive_dot(u, v)


def _kernel_input(rng, m):
    """A seeded matrix, rank-deficient through a thinner middle factor; over
    Q(sqrt m) some entries stay Fractions.  Shapes include 0 x n and n x 0."""
    rows, cols = rng.randint(0, 6), rng.randint(0, 7)

    def entry():
        if rng.random() < 0.35:
            return Fraction(0)
        x = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        return QuadExt(x, Fraction(rng.randint(-3, 3), rng.randint(1, 4)), m) if m else x

    if rows and cols and rng.random() < 0.5:
        middle = rng.randint(0, min(rows, cols))
        left = Matrix(rows, middle, [entry() for _ in range(rows * middle)])
        right = Matrix(middle, cols, [entry() for _ in range(middle * cols)])
        return left @ right if middle else Matrix.zero(rows, cols)
    return Matrix(rows, cols, [entry() for _ in range(rows * cols)])


@pytest.mark.parametrize("m", [None, 5], ids=["Q", "sqrt5"])
def test_kernel_matches_two_pass_oracle(m):
    rng = random.Random(1601 if m is None else 1605)
    deficient = zero = empty = 0
    for _ in range(600):
        matrix = _kernel_input(rng, m)
        got = kernel(matrix)
        expected = kernel_two_pass(matrix)
        assert got == expected, matrix
        assert repr(got.basis) == repr(expected.basis)
        assert all(not x for v in got.basis_vectors() for x in matrix.apply(v))
        rk = rank(matrix)
        deficient += 0 < rk < min(matrix.rows, matrix.cols)
        zero += matrix.rows * matrix.cols > 0 and matrix.is_zero()
        empty += matrix.rows == 0 or matrix.cols == 0
    assert min(deficient, zero, empty) >= 20, (deficient, zero, empty)


def _kronecker_system(gens_left, gens_right):
    """The Hom system of solve_intertwiner built on the scalars, one equation
    (X L)[a, b] - (R X)[a, b] = 0 per pair and entry, unknown X[a, c] at a n_l + c."""
    n_l, n_r = gens_left[0].rows, gens_right[0].rows
    equations = []
    for left, right in zip(gens_left, gens_right):
        for a in range(n_r):
            for b in range(n_l):
                row = [Fraction(0)] * (n_r * n_l)
                for c in range(n_l):
                    row[a * n_l + c] = row[a * n_l + c] + left[c, b]
                for c in range(n_r):
                    row[c * n_l + b] = row[c * n_l + b] - right[a, c]
                equations.append(row)
    return Matrix(len(equations), n_r * n_l, [x for row in equations for x in row])


def _denominators(matrices):
    parts = [(x.a, x.b) if type(x) is QuadExt else (x,) for g in matrices for x in g.entries]
    return {Fraction(p).denominator for pair in parts for p in pair}


@pytest.mark.parametrize("m", [None, 5], ids=["Q", "sqrt5"])
def test_intertwiner_matches_the_scalar_kronecker_system(m):
    # the left side's entries have denominators 2 and 3, the conjugating
    # matrix 5 and 7, so the two sides of an equation clear differently
    rng = random.Random(1901 if m is None else 1905)

    def entry(dens):
        if rng.random() < 0.3:
            return Fraction(0)
        x = Fraction(rng.randint(-3, 3), rng.choice(dens))
        return QuadExt(x, Fraction(rng.randint(-2, 2), rng.choice(dens)), m) if m else x

    def square(n, dens):
        return Matrix(n, n, [entry(dens) for _ in range(n * n)])

    def invertible(n):
        while True:
            q = square(n, (5, 7))
            if q.det():
                return q

    def block(a, b):
        n, k = a.rows, b.rows
        return Matrix(n + k, n + k, [
            (a[i, j] if i < n and j < n else b[i - n, j - n] if i >= n and j >= n else 0)
            for i in range(n + k) for j in range(n + k)
        ])

    zero = nonzero = split = 0
    for trial in range(150):
        n, k, count = rng.randint(1, 3), rng.randint(0, 2), rng.randint(1, 3)
        gens = [square(n, (1, 2, 3)) for _ in range(count)]
        if trial % 3 == 0:
            others = [square(n + k, (1, 5, 7)) for _ in range(count)]
        else:
            # the conjugate of gens (+) S: Hom contains the embedding Q [I; 0]
            q = invertible(n + k)
            others = [q @ block(g, square(k, (1, 2))) @ q.inverse() for g in gens]
        left, right = (gens, others) if trial % 2 else (others, gens)
        space = solve_intertwiner(left, right)
        expected = kernel_two_pass(_kronecker_system(left, right))
        assert space == expected and repr(space.basis) == repr(expected.basis)
        for v in space.basis_vectors():
            x = unvec(v, right[0].rows, left[0].rows)
            assert all(x @ l == r @ x for l, r in zip(left, right))
        zero += space.dim == 0
        nonzero += space.dim > 0
        split += _denominators(left) != _denominators(right)
    assert min(zero, nonzero) >= 20 and split >= 100, (zero, nonzero, split)


def test_mixed_radicands_raise_field_mismatch():
    mixed = Matrix.from_rows([[QuadExt(1, 1, 5), 1], [2, QuadExt(0, 1, 2)]])
    with pytest.raises(FieldMismatch):
        rref(mixed)
    with pytest.raises(FieldMismatch):
        kernel(mixed)
    with pytest.raises(FieldMismatch):
        Subspace.span([mixed.row(0), mixed.row(1)], 2)
    with pytest.raises(FieldMismatch):
        solve_intertwiner([mixed], [mixed])
    sqrt5 = Matrix.from_rows([[QuadExt(1, 1, 5)]])
    sqrt2 = Matrix.from_rows([[QuadExt(0, 1, 2)]])
    with pytest.raises(FieldMismatch):
        solve_intertwiner([sqrt5], [sqrt2])
    with pytest.raises(FieldMismatch):
        solve_intertwiner([sqrt5, Matrix.identity(1)], [Matrix.identity(1), sqrt2])


def test_built_matrices_hold_what_the_public_constructor_would():
    # arithmetic, transposes, identities and canonical bases skip the
    # public constructor's conversion; their entries must already be its output
    a = Matrix(2, 3, [1, "1/2", QuadExt(1, 1, 5), 0, -3, "2/7"])
    b = Matrix(3, 2, [Fraction(2, 3), 0, 1, QuadExt(0, 2, 5), -1, 4])
    built = [
        a @ b,
        a + a,
        a - a,
        -a,
        a.scale(3),
        a.transpose(),
        a.submatrix([1, 0], [2, 0]),
        a.stack(a),
        a.augment(Matrix.identity(2)),
        Matrix.identity(3),
        Matrix.zero(2, 2),
        rref(a)[0],
        kernel(a).basis,
    ]
    for matrix in built:
        assert len(matrix.entries) == matrix.rows * matrix.cols
        assert all(type(x) in (Fraction, QuadExt) for x in matrix.entries)
        assert matrix == Matrix(matrix.rows, matrix.cols, matrix.entries)
