"""The fraction-free kernel behind rank, det, the rank-one test and the Cartan rank.

Oracles: the scalar Gauss-Jordan of `conftest.rref_oracle` for ranks and
canonical bases, and the Fraction/QuadExt Gaussian elimination that
`Matrix.det` used before the kernel, kept here, for determinants.  The
seeded matrices are over Q, Q(sqrt 5) and Q(sqrt p) for the 10-digit prime
p = 1000000007; they are rectangular, rank-deficient (products through a
thinner middle), have zero rows and columns, 200-bit entries, and mix
Fraction with QuadExt entries.
"""

import math
import random
from fractions import Fraction

import pytest

from reflext import fractionfree
from reflext.errors import FieldMismatch, InternalError, NotRankOne
from reflext.fractionfree import clear, echelon, field_of, pairing_pattern
from reflext.linalg import Matrix, Subspace, dot, kernel, rank, row_rank, rref
from reflext.reflections import reflection_from_parts, recognize_reflection
from reflext.scalars import QuadExt, field_tag, inv
from reflext.theoremlab import _cleared_forms

from conftest import is_primitive_form, kernel_two_pass, rref_oracle

P10 = 1000000007
FIELDS = [None, 5, P10]


def old_det(matrix):
    """Gaussian elimination over Fraction/QuadExt with zero-row skipping."""
    n = matrix.rows
    rows = matrix.row_list()
    result = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            result = -result
        result = result * rows[c][c]
        piv_inv = inv(rows[c][c])
        for r in range(c + 1, n):
            if rows[r][c]:
                factor = rows[r][c] * piv_inv
                for j in range(c, n):
                    rows[r][j] = rows[r][j] - factor * rows[c][j]
    return result


def scalar(rng, m, bits=4, zero_share=0.3):
    if rng.random() < zero_share:
        return Fraction(0)

    def rational():
        return Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits))

    # over Q(sqrt m) some entries stay plain Fractions: mixed entries
    if m is not None and rng.random() < 0.7:
        return QuadExt(rational(), rational(), m)
    return rational()


def seeded_matrix(rng, m, rows, cols, bits=4):
    shape = rng.random()
    if shape < 0.35 and rows and cols:
        # rank at most k: a product through a k-dimensional middle
        k = rng.randint(0, min(rows, cols))
        left = Matrix(rows, k, [scalar(rng, m, bits) for _ in range(rows * k)])
        right = Matrix(k, cols, [scalar(rng, m, bits) for _ in range(k * cols)])
        return left @ right if k else Matrix.zero(rows, cols)
    entries = [scalar(rng, m, bits) for _ in range(rows * cols)]
    if shape < 0.6 and rows and cols:
        # a zero row and a zero column
        i, j = rng.randrange(rows), rng.randrange(cols)
        entries = [
            Fraction(0) if r == i or c == j else entries[r * cols + c]
            for r in range(rows)
            for c in range(cols)
        ]
    return Matrix(rows, cols, entries)


@pytest.mark.parametrize("m", FIELDS, ids=["Q", "sqrt5", "sqrt-10-digit-prime"])
def test_rank_equals_rref_rank(m):
    rng = random.Random(9001 if m is None else m)
    for _ in range(400):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        matrix = seeded_matrix(rng, m, rows, cols)
        expected = rref_oracle(matrix)[1]
        assert rank(matrix) == rref(matrix)[1] == expected, matrix
        assert row_rank([matrix.row(i) for i in range(rows)], cols) == expected


@pytest.mark.parametrize("m", FIELDS, ids=["Q", "sqrt5", "sqrt-10-digit-prime"])
def test_rank_with_200_bit_entries(m):
    rng = random.Random(77 if m is None else m + 77)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        matrix = seeded_matrix(rng, m, rows, cols, bits=200)
        assert rank(matrix) == rref(matrix)[1] == rref_oracle(matrix)[1]


def test_rank_of_empty_and_zero_matrices():
    assert rank(Matrix(0, 4, [])) == 0
    assert rank(Matrix(3, 0, [])) == 0
    assert rank(Matrix.zero(3, 5)) == 0
    assert rank(Matrix(1, 1, [QuadExt(0, 0, 5)])) == 0
    assert rank(Matrix.identity(6)) == 6


@pytest.mark.parametrize("m", FIELDS, ids=["Q", "sqrt5", "sqrt-10-digit-prime"])
def test_det_equals_fraction_elimination(m):
    rng = random.Random(4242 if m is None else m + 1)
    for trial in range(300):
        big = trial % 10 == 0
        n = rng.randint(0, 4 if big else 7)
        matrix = seeded_matrix(rng, m, n, n, bits=200 if big else 4)
        det = matrix.det()
        assert det == old_det(matrix), matrix
        # the field of the entries decides the type, whatever the value
        assert field_tag(det) == matrix.field()
    # singular by construction: a product through a middle of dimension k < n
    for trial in range(100):
        n = rng.randint(1, 7)
        k = rng.randint(0, n - 1)
        bits = 200 if trial % 10 == 0 else 4
        left = Matrix(n, k, [scalar(rng, m, bits) for _ in range(n * k)])
        right = Matrix(k, n, [scalar(rng, m, bits) for _ in range(k * n)])
        matrix = left @ right if k else Matrix.zero(n, n)
        det = matrix.det()
        assert det == 0 and old_det(matrix) == 0, matrix
        assert field_tag(det) == matrix.field()


def test_det_of_empty_matrix_is_one():
    det = Matrix(0, 0, []).det()
    assert det == 1 and type(det) is Fraction


def test_mixed_radicands_raise_field_mismatch():
    mixed = Matrix.from_rows([[QuadExt(0, 1, 2), 0], [0, QuadExt(0, 1, 3)]])
    with pytest.raises(FieldMismatch):
        rank(mixed)
    with pytest.raises(FieldMismatch):
        mixed.det()
    with pytest.raises(FieldMismatch):
        field_of([QuadExt(1, 1, 2), QuadExt(1, 1, 3)])


def test_inexact_division_is_an_internal_error():
    # 3 / 2 in Z, (1 + sqrt 5) / 2 and 1 / (1 + sqrt 5) in Z[sqrt 5]
    with pytest.raises(InternalError, match="inexact division"):
        fractionfree.combine([3], 1, 0, [0], 2, range(1), None)
    with pytest.raises(InternalError, match="inexact division"):
        fractionfree.combine([(1, 1)], (1, 0), 0, [0], (2, 0), range(1), 5)
    with pytest.raises(InternalError, match="inexact division"):
        fractionfree.combine([(1, 0)], (1, 0), 0, [0], (1, 1), range(1), 5)
    row = [(6, 2)]  # (6 + 2 sqrt 5) / (1 + sqrt 5) = 1 + sqrt 5
    fractionfree.combine(row, (1, 0), 0, [0], (1, 1), range(1), 5)
    assert row == [(1, 1)]


def test_rows_with_a_zero_pivot_entry_are_not_cleared(monkeypatch):
    cleared = []
    clear = fractionfree.clear

    def counting_clear(row, m):
        cleared.append(len(row))
        return clear(row, m)

    monkeypatch.setattr(fractionfree, "clear", counting_clear)
    # M - I = alpha f^T in dimension 8 with alpha = (0, 1, 0, 2, 0, ...): the
    # one step clears rows 1 and 3 and leaves the six zero rows alone
    n = 8
    f = [Fraction(c - 4, 3) for c in range(n)]
    diff = [[Fraction(0)] * n for _ in range(n)]
    diff[1], diff[3] = f, [2 * x for x in f]
    assert row_rank(diff, n) == 1
    assert cleared == [n, n]
    # a Cartan generator of A_8: a pivot row that eliminates nothing is read
    # only at its pivot, so only rows 2 and 3 are cleared whole
    cleared.clear()
    generator = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    generator[3][2:5] = [Fraction(1), Fraction(-1), Fraction(1)]
    assert Matrix.from_rows(generator).det() == -1
    assert sorted(cleared) == [1] * (n - 2) + [n, n]


@pytest.mark.parametrize("m", FIELDS, ids=["Q", "sqrt5", "sqrt-10-digit-prime"])
def test_pairing_pattern_matches_the_scalar_products(m):
    rng = random.Random(31 if m is None else m + 31)
    for _ in range(200):
        n, k = rng.randint(1, 5), rng.randint(1, 6)
        left = [[scalar(rng, m, zero_share=0.5) for _ in range(n)] for _ in range(k)]
        right = [[scalar(rng, m, zero_share=0.5) for _ in range(n)] for _ in range(k)]
        products = [[sum((a * b for a, b in zip(f, v)), Fraction(0)) for v in right] for f in left]
        field = field_of([x for v in left + right for x in v])
        support, rk = pairing_pattern(
            [clear(v, field)[0] for v in left], [clear(v, field)[0] for v in right], field
        )
        assert support == [[bool(x) for x in row] for row in products]
        assert rk == rref_oracle(Matrix.from_rows(products))[1]


def old_reflection_data(matrix):
    """alpha, f and lambda as recognize_reflection built them before the kernel."""
    n = matrix.rows
    diff = Matrix(n, n, [x - 1 if k % (n + 1) == 0 else x for k, x in enumerate(matrix.entries)])
    column = next(c for c in map(diff.col, range(n)) if any(c))
    p = next(i for i in range(n) if column[i])
    scale = inv(column[p])
    alpha = tuple(scale * x for x in column)
    unit = inv(alpha[p])
    return alpha, tuple(x * unit for x in diff.row(p)), matrix.trace() - (n - 1)


@pytest.mark.parametrize("m", FIELDS, ids=["Q", "sqrt5", "sqrt-10-digit-prime"])
def test_reflection_data_and_rank_two_perturbations(m):
    rng = random.Random(555 if m is None else m + 555)
    checked = 0
    while checked < 60:
        n = rng.randint(1, 6)
        alpha = [scalar(rng, m, zero_share=0.4) for _ in range(n)]
        f = [scalar(rng, m, zero_share=0.4) for _ in range(n)]
        lam = 1 + sum((a * b for a, b in zip(f, alpha)), Fraction(0))
        if not any(alpha) or not any(f) or lam in (0, 1):
            continue
        matrix = reflection_from_parts(alpha, f)
        data = recognize_reflection(matrix)
        expected = old_reflection_data(matrix)
        got = (data.alpha, data.functional, data.eigenvalue)
        assert got == expected
        assert [list(map(field_tag, x)) for x in got[:2]] == [
            list(map(field_tag, x)) for x in expected[:2]
        ]
        # one more rank-one term along an independent direction: rank(M - I) = 2
        u = [scalar(rng, m, zero_share=0.4) for _ in range(n)]
        g = [scalar(rng, m, zero_share=0.4) for _ in range(n)]
        perturbed = matrix + reflection_from_parts(u, g) - Matrix.identity(n)
        if rref(perturbed - Matrix.identity(n))[1] == 2:
            with pytest.raises(NotRankOne) as info:
                recognize_reflection(perturbed)
            assert str(info.value) == "rank(M - I) = 2, expected 1"
        checked += 1
    with pytest.raises(NotRankOne) as info:
        recognize_reflection(Matrix.identity(3))
    assert str(info.value) == "rank(M - I) = 0, expected 1"


def _recognized(rng, n, m):
    """A recognized reflection I + alpha f^T over Q or Q(sqrt m)."""
    while True:
        alpha = [scalar(rng, m, zero_share=0.4) for _ in range(n)]
        f = [scalar(rng, m, zero_share=0.4) for _ in range(n)]
        lam = 1 + sum((a * b for a, b in zip(f, alpha)), Fraction(0))
        if any(alpha) and any(f) and lam not in (0, 1):
            return recognize_reflection(reflection_from_parts(alpha, f))


@pytest.mark.parametrize("kind", ["Q", "sqrt5", "Q-in-sqrt5"])
def test_stored_integer_forms_give_the_scalar_pattern_and_ranks(kind):
    """Recognition's forms f^ and alpha^ are primitive multiples of f and
    alpha, and the Cartan pattern, its rank and the alpha_S rank read off
    them equal those of the scalar vectors (by `dot` and `row_rank`, which
    share no loop with `pairing_pattern`); a rational generator is lifted
    into Q(sqrt 5)."""
    rng = random.Random({"Q": 1611, "sqrt5": 1612, "Q-in-sqrt5": 1613}[kind])
    lifted = 0
    for _ in range(400):
        n, k = rng.randint(1, 5), rng.randint(1, 6)
        fields = [
            None if kind == "Q" or (kind != "sqrt5" and rng.random() < 0.5) else 5
            for _ in range(k)
        ]
        refls = [_recognized(rng, n, m) for m in fields]
        for r in refls:
            m, f_form, alpha_form = r.forms
            assert m == r.matrix.field()
            assert is_primitive_form(f_form, r.functional, m)
            assert is_primitive_form(alpha_form, r.alpha, m)
        m, functionals, alphas = _cleared_forms(refls)
        lifted += m is not None and None in {r.forms[0] for r in refls}
        support, cartan_rank = pairing_pattern(functionals, alphas, m)
        cartan = [[dot(r.functional, s.alpha) for s in refls] for r in refls]
        assert support == [[bool(x) for x in row] for row in cartan]
        assert cartan_rank == row_rank(cartan, k)
        subset = rng.sample(refls, rng.randint(1, k))
        m_s, _, alphas_s = _cleared_forms(subset)
        assert echelon(alphas_s, n, m_s, cleared=True)[0] == row_rank([r.alpha for r in subset], n)
    assert kind != "Q-in-sqrt5" or lifted >= 100


@pytest.mark.parametrize("m", FIELDS, ids=["Q", "sqrt5", "sqrt-10-digit-prime"])
def test_gauss_jordan_bases_match_the_scalar_oracles(m):
    # the fraction-free reduction's canonical bases, and linalg's read off
    # it, equal the scalar Gauss-Jordan oracle's; zero entries leave rows
    # above and below a pivot at an older level, so their next update
    # divides by that level's pivot
    rng = random.Random(1701 if m is None else m + 1701)
    deficient = zero = empty = plain = 0
    for trial in range(400):
        rows, cols = rng.randint(0, 6), rng.randint(0, 7)
        if trial % 8 == 7:
            # plain ints, cleared as they are
            entries = [rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(rows * cols)]
            matrix = Matrix(rows, cols, entries)
            cleared = [entries[r * cols : (r + 1) * cols] for r in range(rows)]
            field = None
            plain += 1
        else:
            matrix = seeded_matrix(rng, m, rows, cols)
            field = matrix.field()
            cleared = [clear(matrix.row(r), field)[0] for r in range(rows)]
        before = [list(row) for row in cleared]
        null_basis = fractionfree.null_space(cleared, cols, field)
        expected = kernel(matrix)
        assert Matrix(len(null_basis), cols, [x for v in null_basis for x in v]) == expected.basis
        assert expected == kernel_two_pass(matrix), matrix
        # the rank and the first null vector's support, with no vector divided out
        first = [t for t, x in enumerate(null_basis[0]) if x] if null_basis else []
        assert fractionfree.first_null_support(cleared, cols, field) == (
            cols - len(null_basis),
            first,
        )
        row_basis = fractionfree.row_space(cleared, cols, field)
        reduced, rk = rref_oracle(matrix)
        oracle_basis = reduced.submatrix(range(rk), range(cols))
        assert Matrix(len(row_basis), cols, [x for v in row_basis for x in v]) == oracle_basis
        assert Subspace.span([matrix.row(r) for r in range(rows)], cols).basis == oracle_basis
        assert rref(matrix) == (reduced, rk)
        assert all(type(x) in (Fraction, QuadExt) for v in null_basis + row_basis for x in v)
        assert cleared == before  # both read copies
        pivots = fractionfree.gauss_jordan(cleared, cols, field)
        assert len(pivots) == len(row_basis) == cols - len(null_basis)
        rk = len(pivots)
        deficient += 0 < rk < min(rows, cols)
        zero += rows * cols > 0 and matrix.is_zero()
        empty += rows == 0 or cols == 0
    assert min(deficient, zero, empty, plain) >= 20, (deficient, zero, empty, plain)


def _element(rng, m, bits=64, zero_share=0.2):
    """A seeded element of Z[sqrt(m)] in fractionfree's format: an int over
    Q, a pair of ints over Q(sqrt m), zero the int 0 in both."""
    if rng.random() < zero_share:
        return 0
    if m is None:
        return rng.choice([-1, 1]) * rng.randint(1, 2**bits)
    a, b = rng.randint(-(2**bits), 2**bits), rng.randint(-(2**bits), 2**bits)
    # some elements are rational, some pure multiples of sqrt(m)
    a, b = (a, 0) if rng.random() < 0.2 else (0, b) if rng.random() < 0.2 else (a, b)
    return (a, b) if a or b else 0


def _value(z, m):
    """The scalar an element stands for, by Fraction/QuadExt arithmetic."""
    if m is None:
        return Fraction(z)
    a, b = z or (0, 0)
    return QuadExt(a, b, m)


def _is_element(z, m):
    """z is in fractionfree's format: the int 0 for zero, else an int over Q
    and a pair of ints, not both 0, over Q(sqrt m)."""
    if type(z) is int:
        return m is None or z == 0
    return m is not None and len(z) == 2 and all(type(x) is int for x in z) and any(z)


def _components(vector, m):
    """The integer components of a vector's elements: both parts of each pair."""
    return [z for e in vector for z in ((e,) if m is None else e or ())]


@pytest.mark.parametrize("m", FIELDS, ids=["Q", "sqrt5", "sqrt-10-digit-prime"])
def test_element_helpers_match_scalar_arithmetic(m):
    rng = random.Random(23 if m is None else m)
    zero_products = 0
    for _ in range(400):
        x, y = _element(rng, m), _element(rng, m)
        product = fractionfree.times(x, y, m)
        assert _is_element(product, m) and _value(product, m) == _value(x, m) * _value(y, m)
        zero_products += product == 0
        assert fractionfree.times(x, 0, m) == fractionfree.times(0, y, m) == 0

        k = rng.choice([0, rng.randint(-(2**64), 2**64)])
        assert _is_element(fractionfree.integer(k, m), m)
        assert _value(fractionfree.integer(k, m), m) == k

        ints = [rng.choice([0, rng.randint(-99, 99)]) for _ in range(rng.randint(0, 6))]
        lifted = fractionfree.lift(tuple(ints), m)
        assert type(lifted) is list and all(_is_element(z, m) for z in lifted)
        assert [_value(z, m) for z in lifted] == ints

        if y:
            q = fractionfree.quotient(x, y, m)
            assert type(q) is (Fraction if m is None else QuadExt)
            assert q == _value(x, m) * inv(_value(y, m))

        # a nonzero vector times a common factor: primitive divides it back out
        vector = [_element(rng, m, bits=16, zero_share=0.4) for _ in range(rng.randint(1, 6))]
        vector[rng.randrange(len(vector))] = fractionfree.integer(rng.randint(1, 9), m)
        factor = rng.randint(1, 50)
        scaled = tuple(fractionfree.times(z, fractionfree.integer(factor, m), m) for z in vector)
        reduced = fractionfree.primitive(scaled, m)
        assert type(reduced) is tuple and all(_is_element(z, m) for z in reduced)
        assert math.gcd(*_components(reduced, m)) == 1
        common = math.gcd(*_components(scaled, m))
        assert common % factor == 0
        assert [_value(z, m) * common for z in reduced] == [_value(z, m) for z in scaled]
    assert zero_products >= 100, zero_products
