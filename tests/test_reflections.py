import importlib
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reflext import reflections
from reflext.catalog import entry, list_entries
from reflext.errors import InternalError, NotDiagonalizable, NotRankOne, SingularMatrix
from reflext.graphs import Graph
from reflext.linalg import Matrix, Subspace, dot, image, kernel, rank
from reflext.reflections import (
    fixes_vector,
    is_reflection,
    recognize_reflection,
    reflection_from_parts,
)
from reflext.repkit import Representation
from reflext.scalars import QuadExt

from conftest import is_primitive_form, recognize_reflection_bareiss

S1 = Matrix.from_rows([[-1, 1], [0, 1]])


def test_recognize_a2_generator_against_direct_computation():
    data = recognize_reflection(S1)
    diff = S1 - Matrix.identity(2)
    # oracle: alpha spans im(M - I), hyperplane is ker(M - I)
    assert Subspace.span([data.alpha], 2) == image(diff)
    assert data.hyperplane == kernel(diff)
    assert data.alpha == (Fraction(1), Fraction(0))
    assert data.eigenvalue == Fraction(-1)
    assert data.hyperplane == Subspace.span([[1, 2]], 2)
    # M - I == alpha f^T, solved by hand: f(x, y) = -2x + y
    assert data.functional == (Fraction(-2), Fraction(1))
    rebuilt = Matrix(2, 1, data.alpha) @ Matrix(1, 2, data.functional)
    assert rebuilt == diff


def test_identity_is_not_a_reflection():
    for n in (1, 2, 3):
        with pytest.raises(NotRankOne):
            recognize_reflection(Matrix.identity(n))


def test_transvection_rejected():
    with pytest.raises(NotDiagonalizable):
        recognize_reflection(Matrix.from_rows([[1, 1], [0, 1]]))


def test_singular_rejected():
    # rank(M - I) = 1 with trace n - 1, i.e. eigenvalue 0
    with pytest.raises(SingularMatrix):
        recognize_reflection(Matrix.from_rows([[0, 0], [0, 1]]))


def test_fixes_vector_examples():
    data = recognize_reflection(S1)
    assert fixes_vector(data, (1, 2))
    assert not fixes_vector(data, data.alpha)  # s . alpha = -alpha
    assert fixes_vector(data, (0, 0))


small = st.integers(min_value=-4, max_value=4)


@st.composite
def reflection_parts(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    alpha = draw(
        st.lists(small, min_size=n, max_size=n).filter(lambda v: any(v))
    )
    f = draw(st.lists(small, min_size=n, max_size=n))
    f_alpha = sum(a * b for a, b in zip(alpha, f))
    # eigenvalue is 1 + f(alpha); exclude degenerate 0 and transvection -... cases
    if f_alpha in (0, -1) or all(x == 0 for x in f):
        return None
    return alpha, f


@given(reflection_parts())
@settings(max_examples=150)
def test_reflection_roundtrip_and_scale_stability(parts):
    if parts is None:
        return
    alpha, f = parts
    m = reflection_from_parts(alpha, f)
    data = recognize_reflection(m)
    n = len(alpha)
    f_alpha = sum(a * b for a, b in zip(alpha, f))
    assert data.eigenvalue == 1 + f_alpha
    # invariants: M = I + alpha f^T, M alpha = lambda alpha, lambda = 1 + f(alpha)
    assert m.apply(data.alpha) == tuple(data.eigenvalue * a for a in data.alpha)
    assert data.f(data.alpha) == data.eigenvalue - 1
    assert data.hyperplane.dim == n - 1
    for v in data.hyperplane.basis_vectors():
        assert fixes_vector(data, v)
    # scale stability: (c * alpha, f / c) builds the same matrix, hence same data
    c = Fraction(3, 2)
    scaled = reflection_from_parts(
        [c * a for a in alpha], [x / c for x in f]
    )
    assert scaled == m
    data2 = recognize_reflection(scaled)
    assert data2.alpha == data.alpha  # canonical normalization
    assert data2.eigenvalue == data.eigenvalue


def test_dim_one_reflection():
    m = Matrix.from_rows([[-2]])
    data = recognize_reflection(m)
    assert data.alpha == (Fraction(1),)
    assert data.eigenvalue == Fraction(-2)
    assert data.hyperplane.dim == 0


def test_is_reflection_predicate():
    assert is_reflection(S1)
    assert not is_reflection(Matrix.identity(2))
    assert not is_reflection(Matrix.from_rows([[1, 1], [0, 1]]))


# Oracles for the elimination-free recognition, over Q and over Q(sqrt(5)):
# entries mix Fractions with QuadExt values, some of them rational.
PHI = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
FIELDS = {
    "Q": rationals,
    "Q(sqrt 5)": st.one_of(
        rationals, st.builds(lambda a, b: a + b * PHI, rationals, st.integers(-2, 2))
    ),
}


def scalar_lists(field, n):
    return st.lists(FIELDS[field], min_size=n, max_size=n)


@st.composite
def reflections_with_vector(draw):
    field = draw(st.sampled_from(sorted(FIELDS)))
    n = draw(st.integers(min_value=1, max_value=4))
    alpha = draw(scalar_lists(field, n).filter(any))
    f = draw(scalar_lists(field, n).filter(any))
    assume(dot(alpha, f) not in (0, -1))  # eigenvalue 1 + f(alpha) must not be 1 or 0
    m = reflection_from_parts(alpha, f)
    # v = w + shift alpha has f(v) = c f(alpha): fixed exactly when c == 0
    w = draw(scalar_lists(field, n))
    c = draw(st.one_of(st.just(Fraction(0)), FIELDS[field]))
    shift = c - dot(f, w) / dot(f, alpha)
    v = tuple(x + shift * a for x, a in zip(w, alpha))
    return m, v


@given(reflections_with_vector())
@settings(max_examples=100, deadline=None)
def test_recognition_matches_elimination(case):
    m, v = case
    data = recognize_reflection(m)
    diff = m - Matrix.identity(m.rows)
    assert data.hyperplane == kernel(diff)
    assert Subspace.span([data.alpha], m.rows) == image(diff)
    assert data.alpha == image(diff).basis.row(0)  # the canonical generator
    assert Matrix(m.rows, 1, data.alpha) @ Matrix(1, m.rows, data.functional) == diff
    assert fixes_vector(data, v) == (data.apply(v) == v)


@given(st.sampled_from(sorted(FIELDS)), st.sampled_from([0, 2, 3]), st.data())
@settings(max_examples=50, deadline=None)
def test_rank_other_than_one_keeps_message(field, r, data):
    n = data.draw(st.integers(min_value=max(r, 1), max_value=4))
    left = Matrix(n, r, data.draw(scalar_lists(field, n * r)))
    right = Matrix(r, n, data.draw(scalar_lists(field, r * n)))
    diff = left @ right
    assume(rank(diff) == r)
    with pytest.raises(NotRankOne) as exc:
        recognize_reflection(Matrix.identity(n) + diff)
    assert str(exc.value) == f"rank(M - I) = {r}, expected 1"


def test_plain_classes_compare_their_fields():
    a, b = recognize_reflection(S1), recognize_reflection(S1)
    a.hyperplane  # the cached hyperplane is not compared
    assert a == b and hash(a) == hash(b)
    assert a != recognize_reflection(Matrix.from_rows([[1, 0], [1, -1]]))
    assert Graph([2, 1], [(2, 1)]) == Graph.on_range(2, [(1, 2)])
    assert len({Graph([1, 2], [(1, 2)]), Graph.on_range(2, [(2, 1)])}) == 1
    assert Graph.on_range(2) != Graph.on_range(2, [(1, 2)])
    rep = Representation([S1])
    assert rep == Representation([S1], ["s1"]) and hash(rep) == hash(Representation([S1]))
    assert rep != Representation([S1], ["t"])
    assert rep != (1, (S1,), ("s1",))


# Differential test against the Bareiss-based recognition kept in conftest:
# seeded matrices over Q, Q(sqrt 5) and Q(sqrt 1000000007), mixing Fractions
# with QuadExt entries (some with b = 0), so that scalar types are compared too.
def _scalar(rng, m, zero_share=0.3):
    if rng.random() < zero_share:
        return Fraction(0) if m is None or rng.random() < 0.7 else QuadExt(0, 0, m)
    a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    kind = rng.random() if m is not None else 0
    if kind < 0.4:
        return a
    b = 0 if kind < 0.55 else Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
    return QuadExt(a, b, m)


def _outer_plus_identity(alpha, f):
    n = len(alpha)
    return Matrix(n, n, [alpha[i] * f[j] + (i == j) for i in range(n) for j in range(n)])


def _with_f_alpha(rng, m, n, value):
    """alpha and f with f(alpha) = value, alpha_k != 0 solving for f_k."""
    alpha = [_scalar(rng, m) for _ in range(n)]
    k = rng.randrange(n)
    while not alpha[k]:
        alpha[k] = _scalar(rng, m, zero_share=0)
    f = [_scalar(rng, m) for _ in range(n)]
    rest = sum((f[j] * alpha[j] for j in range(n) if j != k), Fraction(0))
    f[k] = (value - rest) / alpha[k]
    return alpha, f


def recognition_corpus(seed, count):
    """(kind, matrix) pairs: reflections (some with a rational pivot column
    in a quadratic matrix), lambda in {0, 1}, rank 0, perturbed rank-one
    matrices of rank at least 2 and dense random ones; sparse Cartan-type
    generators up to n = 12, unit rows and one moving row; and rational
    reflections over Q(sqrt m) whose unit rows have the diagonal
    QuadExt(1, 0, m), so lambda is a QuadExt that no moving row shows."""
    rng = random.Random(seed)
    kinds = [
        "rank1", "rank1", "rational column", "lambda0", "lambda1", "rank0", "perturbed", "dense",
        "sparse cartan", "quadratic unit diagonal",
    ]
    for t in range(count):
        m = (None, 5, 1000000007)[t % 3]
        n = rng.randint(1, 5)
        kind = kinds[rng.randrange(len(kinds))]
        if kind == "rank0":
            one = QuadExt(1, 0, m) if m is not None and rng.random() < 0.5 else Fraction(1)
            zero = _scalar(rng, m, zero_share=1)
            yield kind, Matrix(n, n, [one if i == j else zero for i in range(n) for j in range(n)])
        elif kind == "dense":
            yield kind, Matrix(n, n, [_scalar(rng, m) for _ in range(n * n)])
        elif kind in ("lambda0", "lambda1"):
            alpha, f = _with_f_alpha(rng, m, n, -1 if kind == "lambda0" else 0)
            yield kind, _outer_plus_identity(alpha, f)
        elif kind == "sparse cartan":  # s = I + e_i f^T
            n = rng.randint(2, 12)
            i = rng.randrange(n)
            f = [_scalar(rng, m) for _ in range(n)]
            f[i] = _scalar(rng, m, zero_share=0)
            entries = [Fraction(int(r == c)) for r in range(n) for c in range(n)]
            entries[i * n : (i + 1) * n] = [x + (c == i) for c, x in enumerate(f)]
            yield kind, Matrix(n, n, entries)
        elif kind == "quadratic unit diagonal":
            m = m or 5
            n = rng.randint(2, 5)
            alpha = [_scalar(rng, None) for _ in range(n)]
            moving, fixed = rng.sample(range(n), 2)
            alpha[moving], alpha[fixed] = Fraction(rng.randint(1, 5)), Fraction(0)
            f = [_scalar(rng, None) for _ in range(n)]
            entries = list(_outer_plus_identity(alpha, f).entries)
            for j in range(n):
                if not alpha[j]:
                    entries[j * n + j] = QuadExt(1, 0, m)
            yield kind, Matrix(n, n, entries)
        else:
            alpha = [_scalar(rng, m) for _ in range(n)]
            f = [_scalar(rng, m) for _ in range(n)]
            if kind == "rational column":  # D_iq = alpha_i f_q all Fractions
                alpha = [Fraction(x.a) if type(x) is QuadExt else x for x in alpha]
                f[next((j for j, x in enumerate(f) if x), 0)] = Fraction(rng.randint(1, 5))
            matrix = _outer_plus_identity(alpha, f)
            if kind == "perturbed":
                entries = list(matrix.entries)
                entries[rng.randrange(n * n)] += _scalar(rng, m, zero_share=0)
                matrix = Matrix(n, n, entries)
            yield kind, matrix


def _outcome(recognize, matrix):
    try:
        return repr(recognize(matrix))
    except (NotRankOne, NotDiagonalizable, SingularMatrix) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_recognition_matches_bareiss_oracle():
    """Reprs equal the oracle's, and the forms are primitive nonzero
    multiples of f and alpha over Z[sqrt(m)] (reprs leave them out)."""
    seen = Counter()
    for kind, matrix in recognition_corpus(20261019, 3000):
        got = _outcome(recognize_reflection, matrix)
        assert got == _outcome(recognize_reflection_bareiss, matrix), (kind, matrix)
        if got.startswith("NotRankOne"):
            seen["rank 0" if "= 0," in got else "rank 2+"] += 1
        elif not got.startswith("ReflectionData"):
            seen[got.split(":")[0]] += 1  # lambda = 1 or lambda = 0
        else:
            data = recognize_reflection(matrix)
            m = data.forms.m
            assert m == matrix.field()
            assert is_primitive_form(data.forms.f, data.functional, m), (kind, matrix)
            assert is_primitive_form(data.forms.alpha, data.alpha, m), (kind, matrix)
            diff = matrix - Matrix.identity(matrix.rows)
            q = next(j for j, x in enumerate(data.functional) if x)
            moving = [i for i in range(diff.rows) if any(diff.row(i))]
            seen["zero row"] += len(moving) < diff.rows
            seen["rational pivot column, quadratic matrix"] += (
                matrix.field() is not None and set(map(type, diff.col(q))) == {Fraction}
            )
            seen["mixed alpha types"] += len(set(map(type, data.alpha))) == 2
            seen["sparse, n > 5"] += kind == "sparse cartan" and matrix.rows > 5
            seen["QuadExt lambda off the moving rows"] += type(data.eigenvalue) is QuadExt and all(
                type(matrix[i, i]) is Fraction for i in moving
            )
    cases = [
        "rank 0", "rank 2+", "NotDiagonalizable", "SingularMatrix", "zero row",
        "rational pivot column, quadratic matrix", "mixed alpha types", "sparse, n > 5",
        "QuadExt lambda off the moving rows",
    ]
    assert min(seen[case] for case in cases) >= 20, seen


ROOT = Path(__file__).resolve().parent.parent
FIELD_ORDERS = list(itertools.permutations(("alpha", "functional", "eigenvalue")))


def _workload_generators():
    """(source, generator) for every generator of the catalog and of the
    seed-7 ladder, growth and sweep inputs of perfbench."""
    if str(ROOT) not in sys.path:
        sys.path.append(str(ROOT))
    inputs = importlib.import_module("perfbench.inputs")
    reps = [("catalog", entry(name).representation) for name in list_entries()]
    for build in (inputs.ladder, inputs.growth, inputs.sweep):
        reps += [(build.__name__, case.rep) for case in build(7)]
    return [(source, g) for source, rep in reps for g in rep.generators]


def test_lazy_fields_match_the_oracle_on_workload_generators():
    """alpha, f and lambda, derived at their first read from recognition's
    integers, equal the scalar oracle's in value and in type, whichever field
    is read first, and so do reprs; recognizing an equal matrix gives an
    equal certificate with an equal hash."""
    seen = Counter()
    previous = None
    for index, (source, matrix) in enumerate(_workload_generators()):
        expected = _outcome(recognize_reflection_bareiss, matrix)
        assert _outcome(recognize_reflection, matrix) == expected, (source, matrix)
        if not expected.startswith("ReflectionData"):
            continue
        oracle = recognize_reflection_bareiss(matrix)
        for order in (FIELD_ORDERS[index % 6], FIELD_ORDERS[(index + 3) % 6]):
            data = recognize_reflection(matrix)
            for name in order:
                got, want = getattr(data, name), getattr(oracle, name)
                assert got == want and repr(got) == repr(want), (source, name, matrix)
            assert repr(data) == expected
        again = recognize_reflection(Matrix(matrix.rows, matrix.cols, list(matrix.entries)))
        assert data == again and hash(data) == hash(again)
        assert previous is None or (data == previous) is (matrix == previous.matrix)
        previous = data
        seen[source] += 1
        if len(set(map(type, matrix.entries))) == 2:
            seen[f"{source}, mixed Fraction and QuadExt"] += 1
    assert seen["growth, mixed Fraction and QuadExt"] >= 4, seen
    assert min(seen[s] for s in ("catalog", "ladder", "growth", "sweep")) >= 40, seen


def _plus_one(z):
    """z + 1 in Z[sqrt(m)], for z an int or a pair."""
    return z + 1 if type(z) is int else (z[0] + 1, z[1])


def _double(z):
    """2 z in Z[sqrt(m)], for a nonzero z, an int or a pair."""
    return 2 * z if type(z) is int else (2 * z[0], 2 * z[1])


# Involutions over Q and over Q(sqrt 5): lambda - 1 = -2, so a doubled S is
# neither 0 nor -L and still reaches the eigenvector guard.
GUARD_CASES = [S1, entry("H2-5").representation.generators[1]]


@pytest.mark.parametrize("part", ["alpha", "shift"])
@pytest.mark.parametrize("matrix", GUARD_CASES, ids=["A2", "H2-5"])
def test_integer_eigenvector_guard_catches_corrupted_recognition(monkeypatch, part, matrix):
    moving_line = reflections._moving_line

    def corrupted(rows, moving, m):
        cleared_f, cleared_alpha, shift, common = moving_line(rows, moving, m)
        if part == "shift":
            return cleared_f, cleared_alpha, _double(shift), common
        # f~_q = r_pq != 0, so this changes f~ . alpha~
        q = next(j for j, x in enumerate(cleared_f) if x)
        cleared_alpha = list(cleared_alpha)
        cleared_alpha[q] = _plus_one(cleared_alpha[q] or (0 if m is None else (0, 0)))
        return cleared_f, tuple(cleared_alpha), shift, common

    recognize_reflection(matrix)
    monkeypatch.setattr(reflections, "_moving_line", corrupted)
    with pytest.raises(InternalError, match="eigenvector"):
        recognize_reflection(matrix)


def test_integer_eigenvector_guard_survives_python_O():
    script = (
        "import sys\n"
        "from reflext import reflections\n"
        "from reflext.catalog import entry\n"
        "from reflext.errors import InternalError\n"
        "assert False, 'asserts are live'\n"
        "line = reflections._moving_line\n"
        "def corrupted(rows, moving, m):\n"
        "    f, alpha, shift, common = line(rows, moving, m)\n"
        "    return f, alpha, 2 * shift, common\n"
        "reflections._moving_line = corrupted\n"
        "try:\n"
        "    reflections.recognize_reflection(entry('A2').representation.generators[0])\n"
        "except InternalError as exc:\n"
        "    print(sys.flags.optimize, exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1 alpha is not an eigenvector for the reflection eigenvalue\n"
