import itertools
from fractions import Fraction
from math import comb

import pytest

from reflext.catalog import entry, list_entries
from reflext.errors import BadDegree, DependentAlphas, NotABasis
from reflext.exterior import (
    compound,
    eigen_split,
    exterior_subspace,
    extend_to_basis,
    minus_basis_from_any_extension,
    minus_intersection,
    wedge,
)
from reflext.linalg import Matrix, Subspace, intersect, intersect_all, kernel, rank
from reflext.reflections import recognize_reflection

from conftest import minus_intersection_bruteforce, random_matrix, random_subspace

S1 = Matrix.from_rows([[-1, 1], [0, 1]])
S2 = Matrix.from_rows([[1, 0], [1, -1]])


def catalog_reflections():
    """(entry name, recognized reflections) for every catalog entry whose
    generators are all reflections."""
    out = []
    for name in list_entries():
        rep = entry(name).representation
        try:
            refls = [recognize_reflection(g) for g in rep.generators]
        except Exception:
            continue
        out.append((name, rep, refls))
    return out


def test_compound_determinant_and_degree_one():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert compound(m, 2) == Matrix.from_rows([[-2]])
    assert compound(m, 1) == m
    assert compound(m, 0) == Matrix.from_rows([[1]])


def test_compound_bad_degree():
    m = Matrix.identity(3)
    with pytest.raises(BadDegree):
        compound(m, -1)
    with pytest.raises(BadDegree):
        compound(m, 4)


def test_cauchy_binet_functoriality(rng):
    for _ in range(40):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n)
        b = random_matrix(rng, n, n)
        for d in range(n + 1):
            assert compound(a @ b, d) == compound(a, d) @ compound(b, d)
        assert compound(Matrix.identity(n), d) == Matrix.identity(comb(n, d))


def test_wedge_examples():
    assert wedge([(1, 0, 0), (0, 1, 0)]) == (Fraction(1), Fraction(0), Fraction(0))
    v = (2, 3, -1)
    assert wedge([v, v]) == (Fraction(0),) * 3
    e1, e2 = (1, 0, 0), (0, 1, 0)
    assert wedge([e2, e1]) == tuple(-x for x in wedge([e1, e2]))
    assert wedge([]) == (Fraction(1),)


def test_wedge_zero_iff_dependent(rng):
    for _ in range(30):
        n = rng.randint(2, 5)
        d = rng.randint(2, n)
        vecs = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(d)]
        w = wedge(vecs)
        dependent = rank(Matrix.from_rows(vecs)) < d
        assert all(x == 0 for x in w) == dependent


def test_eigen_split_a2_example():
    data = recognize_reflection(S1)
    split = eigen_split(data, 1)
    assert split.plus == Subspace.span([[1, 2]], 2)
    assert split.minus == Subspace.span([[1, 0]], 2)


def test_eigen_split_extreme_degrees():
    data = recognize_reflection(S1)
    split0 = eigen_split(data, 0)
    assert split0.plus == Subspace.full(1)
    assert split0.minus.dim == 0
    split2 = eigen_split(data, 2)
    assert split2.plus.dim == 0
    assert split2.minus == Subspace.full(1)


def test_eigen_split_dimensions_and_direct_sum_catalog():
    from reflext.linalg import subspace_sum

    for name, rep, refls in catalog_reflections():
        n = rep.dim
        for refl in refls:
            for d in range(n + 1):
                split = eigen_split(refl, d)
                assert split.plus.dim == comb(n - 1, d)
                assert split.minus.dim == comb(n - 1, d - 1) if d >= 1 else split.minus.dim == 0
                assert intersect(split.plus, split.minus).dim == 0
                assert subspace_sum(split.plus, split.minus).dim == comb(n, d)


def test_eigen_split_matches_compound_kernels():
    # eigen_split self-checks against the kernels; re-derive one case explicitly
    data = recognize_reflection(S2)
    split = eigen_split(data, 1)
    cmp_mat = compound(S2, 1)
    assert split.plus == kernel(cmp_mat - Matrix.identity(2))
    assert split.minus == kernel(cmp_mat - Matrix.identity(2).scale(data.eigenvalue))


def test_minus_basis_from_any_extension():
    data = recognize_reflection(S1)
    # extension by e2; d = 1 gives alpha itself
    vectors = minus_basis_from_any_extension(data, [(0, 1)], 1)
    assert vectors == [(Fraction(1), Fraction(0))]
    assert Subspace.span(vectors, 2) == eigen_split(data, 1).minus

    # extension inside the hyperplane reproduces the lemma basis verbatim
    h = data.hyperplane.basis_vectors()
    vectors_h = minus_basis_from_any_extension(data, h, 2)
    split = eigen_split(data, 2)
    assert Subspace.span(vectors_h, 1) == split.minus

    with pytest.raises(NotABasis):
        minus_basis_from_any_extension(data, [data.alpha], 1)


def test_minus_basis_extension_spans_minus_for_catalog():
    for name, rep, refls in catalog_reflections():
        n = rep.dim
        for refl in refls:
            ext = extend_to_basis([refl.alpha], n)[1:]
            for d in range(n + 1):
                vecs = minus_basis_from_any_extension(refl, ext, d)
                assert len(vecs) == (comb(n - 1, d - 1) if d >= 1 else 0)
                assert Subspace.span(vecs, comb(n, d)) == eigen_split(refl, d).minus


def test_minus_intersection_a2():
    r1 = recognize_reflection(S1)
    r2 = recognize_reflection(S2)
    top = minus_intersection([r1, r2], 2)
    assert top.dim == 1
    assert top == Subspace.span([wedge([r1.alpha, r2.alpha])], 1)
    assert minus_intersection([r1, r2], 1).dim == 0  # d < k


def test_minus_intersection_dependent_alphas():
    r1 = recognize_reflection(S1)
    with pytest.raises(DependentAlphas):
        minus_intersection([r1, r1], 2)


def test_minus_intersection_equals_bruteforce_catalog():
    for name, rep, refls in catalog_reflections():
        n = rep.dim
        for size in range(1, len(refls) + 1):
            for team in itertools.combinations(refls, size):
                alphas = Matrix.from_rows([list(r.alpha) for r in team])
                if rank(alphas) != size:
                    continue
                for d in range(n + 1):
                    assert minus_intersection(list(team), d) == \
                        minus_intersection_bruteforce(list(team), d), (name, size, d)


def test_minus_intersection_top_power_a3():
    rep = entry("A3").representation
    refls = [recognize_reflection(g) for g in rep.generators]
    # oracle: intersect the two minus eigenspaces directly at d = n = 3
    got = minus_intersection(refls[:2], 3)
    oracle = intersect(eigen_split(refls[0], 3).minus, eigen_split(refls[1], 3).minus)
    assert got == oracle
    assert got == Subspace.full(1)


def test_exterior_subspace_equals_plus_eigenspace():
    for name, rep, refls in catalog_reflections():
        n = rep.dim
        for refl in refls:
            for d in range(n + 1):
                assert exterior_subspace(refl.hyperplane, d) == eigen_split(refl, d).plus


def test_exterior_subspace_top_power():
    h = Subspace.span([[1, 0, 2], [0, 1, 1]], 3)
    top = exterior_subspace(h, 2)
    assert top.dim == 1
    assert exterior_subspace(h, 3).dim == 0  # d exceeds dim H


def test_wedge_intersection_lemma_random_families(rng):
    # intersection of exterior powers == exterior power of intersection
    for _ in range(25):
        spaces = [random_subspace(rng, 5) for _ in range(3)]
        for d in (2, 3):
            lhs = intersect_all([exterior_subspace(h, d) for h in spaces], comb(5, d))
            rhs = exterior_subspace(intersect_all(spaces, 5), d)
            assert lhs == rhs


def test_coordinate_subspace_intersection(rng):
    # for subspaces spanned by subsets of one fixed basis, intersection of spans
    # is the span of the intersection of the subsets
    from conftest import random_invertible

    for _ in range(20):
        n = rng.randint(2, 5)
        basis = random_invertible(rng, n)
        rows = [basis.row(i) for i in range(n)]
        families = []
        for _ in range(rng.randint(2, 4)):
            families.append(frozenset(i for i in range(n) if rng.random() < 0.6))
        spans = [Subspace.span([rows[i] for i in fam], n) for fam in families]
        lhs = intersect_all(spans, n)
        common = frozenset.intersection(*families)
        rhs = Subspace.span([rows[i] for i in common], n)
        assert lhs == rhs


def test_desk_scale_limit_dimension_eight():
    """The machinery stays exact and responsive at the largest supported size:
    dimension 8, a 70-dimensional middle exterior power."""
    import random

    rng = random.Random(7)
    n = 8

    def random_reflection():
        alpha = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        alpha[rng.randint(0, n - 1)] = Fraction(1)
        f = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        while sum(a * b for a, b in zip(alpha, f)) in (0, -1):
            f = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        from reflext.reflections import reflection_from_parts

        return recognize_reflection(reflection_from_parts(alpha, f))

    refl = random_reflection()
    split = eigen_split(refl, 4)  # includes the compound-kernel cross-check
    assert split.plus.dim == comb(7, 4)
    assert split.minus.dim == comb(7, 3)

    team = [refl, random_reflection(), random_reflection()]
    if rank(Matrix.from_rows([list(r.alpha) for r in team])) == 3:
        got = minus_intersection(team, 3)
        assert got.dim == 1  # d = k: the single line on alpha_1 ^ alpha_2 ^ alpha_3
        assert got == minus_intersection_bruteforce(team, 3)
