"""Micro-benchmarks of the hypothesis layer: reflection recognition (a
generator of A5, of the H3 conjugate and of A60, and a dense 16x16
reflection whose alpha and f have 99-digit rational entries), alone and
with alpha, f and lambda read, which recognition derives at their first
read, the rejection of a dense rational 16x16 matrix with rank(M - I) =
2, the hypothesis checks on simple bases (up to A60 and the dense
dim-32 representation file of benchmarks/dense_repfile.py --digits 100)
and on reducible affine bases
up to affine A29 (where the witness and the base commutant are counted),
one Q(sqrt(m)) multiply for m = 5 and for a 10-digit prime, one dot
product of dense length-16 vectors over Q and over Q(sqrt(5)), and one
matrix product, dense 16x16 over Q and dense 8x8 over Q(sqrt(5)); of the
fraction-free kernel: rank of the H4 Cartan matrix and of a dense 16x16
matrix over Q(sqrt(5)), and the determinant of a dense 32x32 integer matrix;
of the null space of a rank-8 rational 20x40 matrix, the inverse of a dense
rational 8x8 matrix and the Hom system of A6:3 with itself (400 unknowns,
the MAX_HOM_DIM limit of `reflext hom`); of the generic simplicity oracle
on the exterior squares of A4 and H4 and on a reducible 4x4 module; of
input construction:
building A60 (one diagonal entry read per generator) and loading the dense dim-32
representation file of benchmarks/dense_repfile.py; of the whole certifier,
verify_theorem on the H3 conjugate and on F4, A16, A40 and A60, on 16
reflections of Q(sqrt 5)^8 from benchmarks/dense_repfile.py --sqrt5 16
--digits 100 (k > n with f_iq in Z[sqrt 5] of 98 digits), on the
small catalog shapes A2, cond4-fail and reducible-direct-sum, on A6 with
three conjugated extra reflections (k = 9 > n = 6, so the basis subset
comes from the deletion lemma), on every reflection of F4, D6 and H4
(k = 24, 30, 60: one dependency kernel per deletion), and with trace=True
on A12, whose 4095 move sequences make it the one caller of shortest_path
at scale; of report validation: one theorem document (A3, and B2 with
--trace) and one analyze document (cond4-fail) against its schema; and of
the command line, one cold `python -B -m reflext.cli verify A2 --json`
process on a copy of the package without bytecode, so every round compiles
`reflext` from source.

    PYTHONPATH=src python -m pytest benchmarks/bench_layers.py --benchmark-json=BENCH_<label>.json

A certifier that counts claim 5 by a search over all 2^n subsets does not
finish the A40 and A60 rungs of test_verify_theorem; deselect them there
with -k "not (verify_theorem and (A40 or A60))".

The tier-1 suite does not collect this file (testpaths is tests/), and the
file name does not match pytest's test_*.py pattern; it runs when named.
The committed BENCH_*.json files keep pytest-benchmark's statistics and drop
its per-round samples (``stats.data``).  From BENCH_pr17 on, each side runs
twice, alternating with the other side, and its file is the second run with
both runs' medians in each benchmark's ``extra_info``.
"""

import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dense_repfile import dense_document, sqrt5_document
from reflext.catalog import _cartan_rep, entry
from reflext.errors import NotRankOne
from reflext.linalg import Matrix, dot, kernel, rank
from reflext.reflections import recognize_reflection, reflection_from_parts
from reflext.repfile import load_repfile, representation_from_document
from reflext.repkit import Representation, exterior_rep, hom_dim, simplicity
from reflext.reports import (
    analyze_document,
    theorem_document,
    validate_analyze_document,
    validate_theorem_document,
)
from reflext.scalars import QuadExt
from reflext.theoremlab import check_hypotheses, verify_theorem

PHI = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)  # 2 cos(pi/5)


def chain(k: int, last=-1) -> list[list]:
    """Cartan matrix of a path on k nodes; the last edge carries `last`."""
    c = [[2 if i == j else 0 for j in range(k)] for i in range(k)]
    for i in range(k - 1):
        c[i][i + 1] = c[i + 1][i] = last if i == k - 2 else -1
    return c


def cycle(k: int) -> list[list]:
    """Cartan matrix of affine A_(k-1): a cycle on k nodes, so V is reducible."""
    c = [[2 if i == j else 0 for j in range(k)] for i in range(k)]
    for i in range(k):
        c[i][(i + 1) % k] = c[(i + 1) % k][i] = -1
    return c


A5 = _cartan_rep(chain(5))
H4 = _cartan_rep(chain(4, -PHI))
H3_CONJUGATE = _cartan_rep(chain(3, -PHI)).conjugate(
    Matrix.from_rows([[1, 2, 0], [0, 1, -1], [1, 1, 0]])
)
A12, A16, A40, A60 = (_cartan_rep(chain(k)) for k in (12, 16, 40, 60))
F4 = _cartan_rep([[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]])


def all_reflections(rep: Representation) -> Representation:
    """Every reflection of the group rep generates, in the order the closure
    of its generators under conjugation by them first reaches it: more
    reflections than the dimension, k >> n, as the ROADMAP's k > n item
    measures them."""
    gens = list(rep.generators)
    seen = set(gens)
    pairs = [(s, s.inverse()) for s in gens]
    for g in gens:  # gens grows while it is walked
        for s, s_inverse in pairs:
            conjugate = s @ g @ s_inverse
            if conjugate not in seen:
                seen.add(conjugate)
                gens.append(conjugate)
    return Representation(gens)


def with_conjugates(rep: Representation, pairs) -> Representation:
    """rep plus s_i s_j s_i^(-1) for each (i, j): more reflections than the
    dimension, so verify_theorem picks its basis subset by the deletion lemma."""
    gens = rep.generators
    extra = [gens[i] @ gens[j] @ gens[i].inverse() for i, j in pairs]
    return Representation([*gens, *extra])


A6_REDUNDANT = with_conjugates(_cartan_rep(chain(6)), [(0, 1), (2, 3), (4, 5)])
D6 = chain(6)  # the path 1 - 2 - 3 - 4 - 5 with 6 joined to 4
D6[4][5] = D6[5][4] = 0
D6[3][5] = D6[5][3] = -1
# k = 24, 30 and 60 reflections; the basis subsets are the ones verify_theorem picked before
ALL_REFLECTIONS = {
    "F4": (all_reflections(F4), (21, 22, 23, 24)),
    "D6": (all_reflections(_cartan_rep(D6)), (22, 25, 27, 28, 29, 30)),
    "H4": (all_reflections(H4), (57, 58, 59, 60)),
}

_rng = random.Random(9)
H4_CARTAN = Matrix.from_rows(chain(4, -PHI))
DENSE16_SQRT5 = Matrix(
    16,
    16,
    [
        QuadExt(Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)), _rng.randint(-9, 9), 5)
        for _ in range(256)
    ],
)
DENSE32 = Matrix(32, 32, [_rng.randint(-99, 99) for _ in range(1024)])
DOT_Q16 = [
    tuple(Fraction(_rng.randint(-99, 99), _rng.randint(1, 99)) for _ in range(16)) for _ in range(2)
]
DOT_SQRT5_16 = [
    tuple(
        QuadExt(Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)), _rng.randint(-9, 9), 5)
        for _ in range(16)
    )
    for _ in range(2)
]

_kernel_rng = random.Random(16)  # its own stream, so the inputs above stay as they were
RANK8_20X40 = Matrix(
    20, 8, [Fraction(_kernel_rng.randint(-9, 9), _kernel_rng.randint(1, 9)) for _ in range(160)]
) @ Matrix(
    8, 40, [Fraction(_kernel_rng.randint(-9, 9), _kernel_rng.randint(1, 9)) for _ in range(320)]
)


_dense_rng = random.Random(18)  # its own stream, so the inputs above stay as they were


def _digits99() -> Fraction:
    return Fraction(_dense_rng.randint(10**98, 10**99 - 1), _dense_rng.randint(10**98, 10**99 - 1))


# I + alpha f^T with positive entries a/q, a and q of 99 digits: lambda = 1 + f(alpha) > 1
DENSE16_REFLECTION = reflection_from_parts(
    [_digits99() for _ in range(16)], [_digits99() for _ in range(16)]
)

DENSE32_DIGITS100 = representation_from_document(dense_document(32, 0, 100))
SQRT5_DIM8_K16 = representation_from_document(sqrt5_document(8, 16, 0, 100))

_inverse_rng = random.Random(19)  # its own stream, so the inputs above stay as they were
DENSE8_Q = Matrix(
    8, 8, [Fraction(_inverse_rng.randint(-9, 9), _inverse_rng.randint(1, 9)) for _ in range(64)]
)
A6_WEDGE3 = exterior_rep(_cartan_rep(chain(6)), 3)

_rejected_rng = random.Random(25)  # its own stream, so the inputs above stay as they were


def _dense_q(rows: int, cols: int) -> Matrix:
    """rows x cols entries +-a/q with a, q in 1..99: no entry is zero."""
    rng = _rejected_rng
    return Matrix(
        rows,
        cols,
        [
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 99))
            for _ in range(rows * cols)
        ],
    )


# I + A F with A 16 x 2 and F 2 x 16: rank(M - I) = 2, which recognition rejects
DENSE16_RANK2 = Matrix.identity(16) + _dense_q(16, 2) @ _dense_q(2, 16)

_matmul_rng = random.Random(23)  # its own stream, so the inputs above stay as they were
MATMUL_Q16 = Matrix(
    16, 16, [Fraction(_matmul_rng.randint(-99, 99), _matmul_rng.randint(1, 99)) for _ in range(256)]
)
MATMUL_SQRT5_8 = Matrix(
    8,
    8,
    [
        QuadExt(
            Fraction(_matmul_rng.randint(-9, 9), _matmul_rng.randint(1, 9)),
            _matmul_rng.randint(-9, 9),
            5,
        )
        for _ in range(64)
    ],
)


@pytest.mark.parametrize("u, v", [DOT_Q16, DOT_SQRT5_16], ids=["dense16-Q", "dense16-sqrt5"])
def test_dot(benchmark, u, v):
    assert benchmark(dot, u, v) == sum((a * b for a, b in zip(u, v)), Fraction(0))


@pytest.mark.parametrize(
    "matrix", [MATMUL_Q16, MATMUL_SQRT5_8], ids=["dense16-Q", "dense8-sqrt5"]
)
def test_matmul(benchmark, matrix):
    n = matrix.rows
    expected = [
        sum((matrix[i, t] * matrix[t, j] for t in range(n)), Fraction(0))
        for i in range(n)
        for j in range(n)
    ]
    assert benchmark(matrix.__matmul__, matrix) == Matrix(n, n, expected)


@pytest.mark.parametrize(
    "matrix", [H4_CARTAN, DENSE16_SQRT5], ids=["H4-cartan", "dense16-sqrt5"]
)
def test_rank(benchmark, matrix):
    assert benchmark(rank, matrix) == matrix.rows


def test_det(benchmark):
    assert benchmark(DENSE32.det) != 0


def test_kernel(benchmark):
    assert benchmark(kernel, RANK8_20X40).dim == 32


def test_inverse(benchmark):
    assert DENSE8_Q @ benchmark(DENSE8_Q.inverse) == Matrix.identity(8)


@pytest.mark.parametrize("rep", [A6_WEDGE3], ids=["A6:3"])
def test_hom_dim(benchmark, rep):
    assert benchmark(hom_dim, rep, rep) == 1


# a reducible 4 x 4 module that no spin of a basis vector or of an
# eigenvector of a short word reveals; its words span 12 dimensions
REDUCIBLE_4X4 = Representation([
    Matrix.from_rows([
        [Fraction(17, 2), Fraction(-15, 4), Fraction(3, 4), Fraction(43, 4)],
        [-1, 11, 4, Fraction(-44, 3)],
        [Fraction(-35, 2), Fraction(-25, 4), Fraction(-31, 4), Fraction(-49, 12)],
        [Fraction(-21, 2), Fraction(15, 4), Fraction(-3, 4), Fraction(-55, 4)],
    ]),
    Matrix.from_rows([
        [Fraction(-33, 2), Fraction(-23, 4), Fraction(-25, 4), Fraction(-13, 4)],
        [23, 12, 10, Fraction(4, 3)],
        [Fraction(15, 2), Fraction(5, 4), Fraction(7, 4), Fraction(29, 12)],
        [Fraction(33, 2), Fraction(33, 4), Fraction(27, 4), Fraction(3, 4)],
    ]),
])
SIMPLICITY = {
    "wedge2-A4": (exterior_rep(_cartan_rep(chain(4)), 2), True),
    "wedge2-H4": (exterior_rep(H4, 2), True),
    "reducible-4x4": (REDUCIBLE_4X4, False),
}


@pytest.mark.parametrize("name", list(SIMPLICITY))
def test_simplicity(benchmark, name):
    rep, simple = SIMPLICITY[name]
    assert benchmark(simplicity, rep).is_simple is simple


def test_build_a60(benchmark):
    assert benchmark(_cartan_rep, chain(60)).dim == 60


def test_load_dense_repfile(benchmark, tmp_path):
    path = tmp_path / "dense32.json"
    path.write_text(json.dumps(dense_document(32, 0)))
    assert benchmark(load_repfile, str(path)).dim == 32


RECOGNIZED = [A5.generators[2], H3_CONJUGATE.generators[1], A60.generators[30], DENSE16_REFLECTION]
RECOGNIZED_IDS = ["A5", "H3-conjugate", "A60", "dense16-99-digit"]


def recognize_or_reject(generator: Matrix):
    try:
        return recognize_reflection(generator)
    except NotRankOne as exc:
        return exc


@pytest.mark.parametrize(
    "generator", [*RECOGNIZED, DENSE16_RANK2], ids=[*RECOGNIZED_IDS, "dense16-rank2"]
)
def test_recognize_reflection(benchmark, generator):
    outcome = benchmark(recognize_or_reject, generator)
    if generator is DENSE16_RANK2:
        assert str(outcome) == "rank(M - I) = 2, expected 1"
    else:
        assert outcome.matrix == generator


def recognize_and_read(generator: Matrix) -> tuple:
    data = recognize_reflection(generator)
    return data.alpha, data.functional, data.eigenvalue


@pytest.mark.parametrize("generator", RECOGNIZED, ids=RECOGNIZED_IDS)
def test_recognize_and_read(benchmark, generator):
    alpha, functional, eigenvalue = benchmark(recognize_and_read, generator)
    assert reflection_from_parts(alpha, functional) == generator
    assert eigenvalue == 1 + dot(functional, alpha)


@pytest.mark.parametrize(
    "rep", [A5, H4, A60, DENSE32_DIGITS100], ids=["A5", "H4", "A60", "dense32-100-digit"]
)
def test_check_hypotheses(benchmark, rep):
    hyp = benchmark(check_hypotheses, rep)
    assert hyp.condition4_holds and hyp.v_simple.is_simple


@pytest.mark.parametrize(
    "k", [4, 6, 10, 30], ids=["affine-A3", "affine-A5", "affine-A9", "affine-A29"]
)
def test_check_hypotheses_reducible(benchmark, k):
    hyp = benchmark(check_hypotheses, _cartan_rep(cycle(k)))
    assert hyp.v_simple.status == "Reducible" and hyp.v_simple.commutant_dim == 1


@pytest.mark.parametrize(
    "rep",
    [H3_CONJUGATE, F4, A16, A40, A60, SQRT5_DIM8_K16],
    ids=["H3-conjugate", "F4", "A16", "A40", "A60", "sqrt5-dim8-k16"],
)
def test_verify_theorem(benchmark, rep):
    assert benchmark(verify_theorem, rep).verified


# the small shapes the perfbench sweep workload certifies: a rational 2x2
# simple base, a condition-4 failure and a reducible base with its witness
SMALL_SHAPES = {
    "A2": "TheoremVerified",
    "cond4-fail": "HypothesisFailed",
    "reducible-direct-sum": "HypothesisFailed",
}


@pytest.mark.parametrize("name", sorted(SMALL_SHAPES))
def test_verify_theorem_small(benchmark, name):
    report = benchmark(verify_theorem, entry(name).representation)
    assert report.conclusion.status == SMALL_SHAPES[name]


def test_verify_theorem_redundant(benchmark):
    report = benchmark(verify_theorem, A6_REDUNDANT)
    assert report.verified and len(report.claim3_subset) == 6


@pytest.mark.parametrize("name", sorted(ALL_REFLECTIONS))
def test_verify_theorem_all_reflections(benchmark, name):
    rep, subset = ALL_REFLECTIONS[name]
    report = benchmark(verify_theorem, rep)
    assert report.verified and report.claim3_subset == subset


@pytest.mark.parametrize("rep", [A12], ids=["A12"])
def test_verify_theorem_trace(benchmark, rep):
    report = benchmark(verify_theorem, rep, trace=True)
    assert report.verified and len(report.per_degree[6].claim5_trace.sequences) == 923


@pytest.mark.parametrize("m", [5, 1000000007], ids=["sqrt5", "sqrt-10-digit-prime"])
def test_quadext_multiply(benchmark, m):
    x = QuadExt(Fraction(3, 7), Fraction(-5, 11), m)
    y = QuadExt(Fraction(1, 2), Fraction(1, 2), m)
    assert benchmark(x.__mul__, y) == x * y


@pytest.mark.parametrize("name, trace", [("A3", False), ("B2", True)], ids=["A3", "B2-trace"])
def test_validate_theorem_document(benchmark, name, trace):
    rep = entry(name).representation
    doc = theorem_document(verify_theorem(rep, trace=trace), rep, name)
    benchmark(validate_theorem_document, doc)


def test_validate_analyze_document(benchmark):
    rep = entry("cond4-fail").representation
    benchmark(validate_analyze_document, analyze_document(rep, check_hypotheses(rep), "cond4-fail"))


def test_cold_cli_verify(benchmark, tmp_path):
    src = Path(__file__).resolve().parent.parent / "src" / "reflext"
    shutil.copytree(src, tmp_path / "reflext", ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    command = [sys.executable, "-B", "-m", "reflext.cli", "verify", "A2", "--json"]
    result = benchmark.pedantic(
        subprocess.run,
        args=(command,),
        kwargs={"capture_output": True, "text": True, "env": env, "cwd": tmp_path},
        rounds=30,
        warmup_rounds=1,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["conclusion"]["status"] == "TheoremVerified"
