"""Seeded benchmark inputs whose verdicts follow from how they are built.

Every input is a representation generated by s_i = I + e_i f_i^T, where f_i is
row i of a square matrix F (the alpha_i are the standard basis vectors e_i and
the diagonal entry F[i][i] is lambda_i - 1).  For such a representation:

* s_i fixes alpha_j exactly when F[i][j] == 0, so a symmetric zero pattern
  satisfies condition 4 and an asymmetric zero at (i, j) violates it;
* an invariant subspace either contains some alpha_i or lies in every
  hyperplane ker f_i; with a connected zero pattern the first case spans V,
  so V is simple iff det F != 0, and det F == 0 makes ker F a proper
  invariant subspace (condition 3);
* lambda_i == 1 (a transvection) or a rank-2 generator breaks condition 1;
* conjugating every generator by one invertible P keeps every verdict.

A Cartan matrix C gives the classical reflection representation as F = -C.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from reflext import Matrix, QuadExt, Representation, entry, list_entries

VERIFIED = "TheoremVerified"
FAILED = "HypothesisFailed"

# the hypothesis each kind of generated input fails (None: verified)
REASONS = {
    "simple": None,
    "singular": "condition3",
    "asymmetric": "condition4",
    "transvection": "condition1",
    "rank2": "condition1",
}


@dataclass(frozen=True)
class Case:
    """One input with the verdict its construction forces.

    `planted` is the 1-based generator index that breaks condition 1, or the
    ordered violation pair (moving generator, fixing generator) of condition 4.
    """

    id: str
    rep: Representation
    status: str
    reason: Optional[str] = None
    planted: tuple[int, ...] = ()


def reflection_rep(f_rows) -> Representation:
    """Generators s_i = I + e_i f_i^T for the rows f_i of a square matrix."""
    n = len(f_rows)
    gens = []
    for i in range(n):
        rows = [[int(r == c) + (f_rows[i][c] if r == i else 0) for c in range(n)] for r in range(n)]
        gens.append(Matrix.from_rows(rows))
    return Representation(gens)


def cartan_matrix(kind: str, n: int) -> list[list[int]]:
    """Cartan matrix of type A_n, B_n, D_n or F_4 (Bourbaki numbering)."""
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    chain = [(i, i + 1) for i in range(n - 1)]
    if kind == "D":
        chain = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    for i, j in chain:
        c[i][j] = c[j][i] = -1
    if kind == "B":
        c[n - 2][n - 1] = -2
    elif kind == "F":
        c[1][2] = -2
    elif kind not in ("A", "D"):
        raise ValueError(f"unknown Cartan type {kind!r}")
    return c


def cartan_rep(kind: str, n: int) -> Representation:
    return reflection_rep([[-x for x in row] for row in cartan_matrix(kind, n)])


GOLDEN = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)


def h_cartan(n: int) -> list[list]:
    """Cartan matrix of H3 or H4 over Q(sqrt(5)): a chain whose last edge has label 5."""
    c: list[list] = cartan_matrix("A", n)
    c[n - 2][n - 1] = c[n - 1][n - 2] = -GOLDEN
    return c


def h_rep(n: int) -> Representation:
    return reflection_rep([[-x for x in row] for row in h_cartan(n)])


def det(rows) -> Fraction:
    """Exact determinant by Gaussian elimination (independent of reflext)."""
    a = [[Fraction(x) if isinstance(x, int) else x for x in r] for r in rows]
    n = len(a)
    result = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            result = -result
        result = result * a[c][c]
        for r in range(c + 1, n):
            if a[r][c]:
                factor = a[r][c] / a[c][c]
                a[r] = [x - factor * y for x, y in zip(a[r], a[c])]
    return result


def rational(rng: random.Random, bits: int) -> Fraction:
    """Nonzero rational whose numerator and denominator have exactly `bits` bits."""
    lo, hi = 1 << (bits - 1), 1 << bits
    return Fraction(rng.choice((-1, 1)) * rng.randrange(lo, hi), rng.randrange(lo, hi))


def quadratic_scalar(rng: random.Random, bits: int) -> QuadExt:
    return QuadExt(rational(rng, bits), rational(rng, bits), 5)


def connected_pattern(rng: random.Random, n: int, extra: float) -> set[tuple[int, int]]:
    """Edges (i < j) of a random spanning tree plus each other edge with probability `extra`."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for pos in range(1, n):
        a, b = order[pos], order[rng.randrange(pos)]
        edges.add((min(a, b), max(a, b)))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < extra:
                edges.add((i, j))
    return edges


def functional_matrix(
    rng: random.Random, n: int, kind: str, scalar, involutive: bool, extra: float
):
    """Rows f_i for one input of the given kind, plus the planted defect.

    `scalar()` draws a nonzero entry.  Diagonals avoid lambda in {0, 1};
    involutive inputs use lambda = -1 on every generator.
    """
    edges = connected_pattern(rng, n, extra)
    while True:
        f = [[0] * n for _ in range(n)]
        for i in range(n):
            f[i][i] = -2 if involutive else scalar()
            while f[i][i] in (0, -1):
                f[i][i] = scalar()
        for i, j in edges:
            f[i][j], f[j][i] = scalar(), scalar()
        planted: tuple[int, ...] = ()
        if kind == "singular":
            # det F is affine in one diagonal entry: solve for det F == 0
            k = rng.randrange(n)
            f[k][k] = 0
            minor = det([[f[r][c] for c in range(n) if c != k] for r in range(n) if r != k])
            if not minor:
                continue
            f[k][k] = -det(f) / minor
            if f[k][k] in (0, -1):
                continue
        elif kind == "asymmetric":
            i, j = sorted(edges)[rng.randrange(len(edges))]
            if rng.random() < 0.5:
                i, j = j, i
            f[i][j] = 0  # s_i now fixes alpha_j while s_j still moves alpha_i
            planted = (j + 1, i + 1)
        elif kind == "transvection":
            k = rng.randrange(n)
            f[k][k] = 0
            planted = (k + 1,)
        elif kind not in ("simple", "rank2"):
            raise ValueError(f"unknown kind {kind!r}")
        if kind == "simple" and not det(f):
            continue
        return f, planted


def rank2_generator(rng: random.Random, rep: Representation, k: int, scalar) -> Representation:
    """Replace generator k by I + e_k f^T + u g^T of rank(s - I) == 2."""
    n = rep.dim
    while True:
        f = [scalar() for _ in range(n)]
        u = [scalar() for _ in range(n)]
        g = [scalar() for _ in range(n)]
        rows = [
            [int(r == c) + (f[c] if r == k else 0) + u[r] * g[c] for c in range(n)]
            for r in range(n)
        ]
        if not det(rows) or _rank_minus_identity(rows) != 2:
            continue
        gens = list(rep.generators)
        gens[k] = Matrix.from_rows(rows)
        return Representation(gens)


def _rank_minus_identity(rows) -> int:
    n = len(rows)
    a = [[rows[r][c] - Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    rank = 0
    for c in range(n):
        pivot = next((r for r in range(rank, n) if a[r][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for r in range(n):
            if r != rank and a[r][c]:
                factor = a[r][c] / a[rank][c]
                a[r] = [x - factor * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def signed_permutation(rng: random.Random, n: int) -> Matrix:
    perm = list(range(n))
    rng.shuffle(perm)
    return Matrix.from_rows(
        [[rng.choice((-1, 1)) if perm[r] == c else 0 for c in range(n)] for r in range(n)]
    )


def relabel(rng: random.Random, rep: Representation) -> Representation:
    """Conjugate by a random signed permutation and reorder the generators:
    the same group on a relabelled basis, with the same integer entries."""
    order = list(range(len(rep.generators)))
    p = signed_permutation(rng, rep.dim)
    rng.shuffle(order)
    return rep.conjugate(p).permute(order)


def unimodular(rng: random.Random, n: int, steps: int) -> Matrix:
    """Integer matrix of determinant 1 from `steps` random elementary row operations."""
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return Matrix.from_rows(rows)


def generalized(
    rng: random.Random,
    case_id: str,
    n: int,
    kind: str,
    *,
    bits: int = 3,
    quadratic: bool = False,
    involutive: bool = False,
    conjugate_steps: int = 0,
    extra_edges: float = 0.3,
) -> Case:
    """A random generalized Cartan representation of the given kind, over Q or
    (with `quadratic`) over Q(sqrt(5))."""
    draw = quadratic_scalar if quadratic else rational

    def scalar():
        return draw(rng, bits)

    f, planted = functional_matrix(
        rng, n, "simple" if kind == "rank2" else kind, scalar, involutive, extra_edges
    )
    rep = reflection_rep(f)
    if kind == "rank2":
        k = rng.randrange(n)
        rep = rank2_generator(rng, rep, k, scalar)
        planted = (k + 1,)
    if conjugate_steps:
        rep = rep.conjugate(unimodular(rng, n, conjugate_steps))
    reason = REASONS[kind]
    return Case(case_id, rep, VERIFIED if reason is None else FAILED, reason, planted)


def catalog_cases() -> list[Case]:
    """Every catalog entry, with the catalog's own recorded expectation."""
    out = []
    for name in list_entries():
        e = entry(name)
        status = VERIFIED if e.expected.theorem_applies else FAILED
        out.append(Case(name, e.representation, status, e.expected.failure_reason))
    return out


RANK4 = (("A", 4), ("B", 4), ("D", 4), ("F", 4))
RANK5 = (("A", 5), ("D", 5))


def ladder(seed: int) -> list[Case]:
    """Integer Cartan representations beyond the catalog's rank 3: every
    rank-4 type as given and relabelled by the seed, then A5 and D5."""
    rng = random.Random(seed)
    cases = []
    for k, n in RANK4:
        rep = cartan_rep(k, n)
        cases += [Case(f"{k}{n}", rep, VERIFIED), Case(f"{k}{n}'", relabel(rng, rep), VERIFIED)]
    return cases + [Case(f"{k}{n}", cartan_rep(k, n), VERIFIED) for k, n in RANK5]


H3_CONJUGATES = 36
# The growth conjugates are by S @ CORES[n] @ T for seeded signed
# permutations S and T: the seed changes how the fixed core meets the basis,
# not the size of its entries, so each seed's inputs cost about the same.
CORES = {3: unimodular(random.Random(5), 3, 6), 4: unimodular(random.Random(4), 4, 8)}


def core_conjugate(rng: random.Random, rep: Representation) -> Representation:
    n = rep.dim
    return rep.conjugate(signed_permutation(rng, n) @ CORES[n] @ signed_permutation(rng, n))


def growth(seed: int) -> list[Case]:
    """H3 and H4 over Q(sqrt(5)), integer conjugates of H3, and integer
    conjugates of simple rational generalized Cartan representations."""
    rng = random.Random(seed)
    cases = [Case("H3", h_rep(3), VERIFIED), Case("H4", h_rep(4), VERIFIED)]
    # enough of them that the median input is one of many alike
    for t in range(H3_CONJUGATES):
        cases.append(Case(f"H3^P{t}", core_conjugate(rng, h_rep(3)), VERIFIED))
    for n, count in ((3, 5), (4, 2)):
        for t in range(count):
            case = generalized(rng, f"gc{n}^P{t}", n, "simple", bits=3, extra_edges=1.0)
            cases.append(replace(case, rep=core_conjugate(rng, case.rep)))
    return cases


SWEEP_MIX = (
    # (rank, kind, involutive, conjugated, count)
    (2, "simple", False, False, 32),
    (2, "simple", True, True, 16),
    (2, "singular", False, False, 16),
    (2, "asymmetric", False, True, 16),
    (2, "transvection", False, False, 16),
    (2, "rank2", False, False, 16),
    (3, "simple", False, False, 24),
    (3, "simple", True, True, 16),
    (3, "singular", False, True, 16),
    (3, "asymmetric", False, False, 16),
    (3, "transvection", False, True, 8),
    (3, "rank2", False, False, 8),
)


def sweep(seed: int) -> list[Case]:
    """All catalog entries plus a fixed mix of seeded rank-2/3 inputs."""
    rng = random.Random(seed)
    cases = catalog_cases()
    for n, kind, involutive, conjugated, count in SWEEP_MIX:
        for t in range(count):
            cases.append(
                generalized(
                    rng,
                    f"r{n}-{kind}{'-inv' if involutive else ''}{'^P' if conjugated else ''}-{t}",
                    n,
                    kind,
                    bits=2,
                    involutive=involutive,
                    conjugate_steps=2 * n if conjugated else 0,
                )
            )
    return cases
