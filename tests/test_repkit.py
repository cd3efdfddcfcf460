import itertools
from fractions import Fraction
from math import comb

import pytest

from reflext.catalog import entry, list_entries
from reflext import linalg, repkit
from reflext.errors import (
    BadDegree,
    EmptyGeneratorList,
    InternalError,
    LengthMismatch,
    SingularMatrix,
)
from reflext.exterior import compound, eigen_split, exterior_subspace
from reflext.linalg import Matrix, Subspace, intersect_all, kernel
from reflext.reflections import recognize_reflection
from reflext.scalars import QuadExt
from reflext.repkit import (
    Representation,
    det_twist,
    dual_rep,
    duality_intertwiner,
    exterior_rep,
    hom_dim,
    simplicity,
    spin,
)

from conftest import duality_holds

A2 = entry("A2").representation


def all_catalog_reps():
    return [(name, entry(name).representation) for name in list_entries()]


def test_exterior_rep_degree_zero_and_top():
    ext0 = exterior_rep(A2, 0)
    assert all(g == Matrix.from_rows([[1]]) for g in ext0.generators)
    ext2 = exterior_rep(A2, 2)
    assert all(g == Matrix.from_rows([[-1]]) for g in ext2.generators)  # det of each
    assert exterior_rep(A2, 1).generators == A2.generators
    with pytest.raises(BadDegree):
        exterior_rep(A2, 3)


# singular generators: det (1 + sqrt 5)(-1 + sqrt 5) - 2 * 2 = 0 over Q(sqrt 5),
# and rank 2 at dim 3 (the second row is twice the first)
SINGULAR_SQRT5 = [["1+1*sqrt(5)", "2"], ["2", "-1+1*sqrt(5)"]]
RANK_TWO_DIM_THREE = [["1", "2", "3"], ["2", "4", "6"], ["0", "1", "1"]]


def test_singular_generators_are_rejected_with_one_message():
    for rows in (SINGULAR_SQRT5, RANK_TWO_DIM_THREE):
        g = Matrix.from_rows(rows)
        for gens in ([g], [Matrix.identity(g.rows), g]):
            with pytest.raises(SingularMatrix) as info:
                Representation(gens)
            assert str(info.value) == "generators must be invertible"
    assert Matrix.from_rows(SINGULAR_SQRT5).det() == QuadExt(0, 0, 5)


def test_derived_representations_are_not_ranked_again(monkeypatch):
    # conjugates, reorderings, inverse transposes and nonzero multiples of
    # invertible generators are invertible, so no constructor ranks them
    expected = {
        "conjugate": A2.conjugate(Matrix.from_rows([[1, 1], [0, 1]])),
        "permute": A2.permute([1, 0]),
        "dual": dual_rep(A2),
        "det_twist": det_twist(A2, A2),
    }

    def refuse(*args):
        raise AssertionError("rank called")

    monkeypatch.setattr(linalg, "rank", refuse)
    derived = {
        "conjugate": A2.conjugate(Matrix.from_rows([[1, 1], [0, 1]])),
        "permute": A2.permute([1, 0]),
        "dual": dual_rep(A2),
        "det_twist": det_twist(A2, A2),
    }
    assert derived == expected
    assert derived["permute"].labels == ("s2", "s1")
    with pytest.raises(EmptyGeneratorList):
        A2.permute(())


def test_dual_of_orthogonal_rep_is_itself():
    rot = Matrix.from_rows([[0, -1], [1, 0]])
    flip = Matrix.from_rows([[1, 0], [0, -1]])
    rep = Representation([rot, flip])
    assert dual_rep(rep).generators == rep.generators


def test_dual_involution():
    assert dual_rep(dual_rep(A2)).generators == A2.generators


def test_det_twist_example():
    triv = Representation([Matrix.from_rows([[1]]), Matrix.from_rows([[1]])])
    twisted = det_twist(triv, A2)
    # determinant of each A2 generator is -1 (cofactor oracle)
    for g, a2g in zip(twisted.generators, A2.generators):
        cofactor_det = a2g[0, 0] * a2g[1, 1] - a2g[0, 1] * a2g[1, 0]
        assert cofactor_det == Fraction(-1)
        assert g == Matrix.from_rows([[-1]])
    with pytest.raises(LengthMismatch):
        det_twist(triv, Representation([Matrix.from_rows([[1]])]))


def test_hom_dim_examples():
    assert hom_dim(A2, A2) == 1
    assert hom_dim(exterior_rep(A2, 0), exterior_rep(A2, 2)) == 0


def test_duality_intertwiner_n2_d1():
    phi = duality_intertwiner(A2, 1)
    # pairing e_i ^ e_j: phi[j-index, k-index] = sign of e_k ^ e_j on e_1 ^ e_2
    assert phi == Matrix.from_rows([[0, -1], [1, 0]])
    assert duality_holds(A2, 1)


def test_duality_intertwiner_extreme_degrees():
    phi0 = duality_intertwiner(A2, 0)
    assert phi0 == Matrix.from_rows([[1]])
    phi2 = duality_intertwiner(A2, 2)
    assert phi2 == Matrix.from_rows([[1]])
    assert duality_holds(A2, 0)
    assert duality_holds(A2, 2)


def test_duality_identity_all_catalog_reps():
    for name, rep in all_catalog_reps():
        n = rep.dim
        for d in range(n + 1):
            assert duality_holds(rep, d), (name, d)
            phi = duality_intertwiner(rep, d)
            assert phi.det() != 0  # invertible pairing


def test_duality_partner_admits_intertwiner():
    for name, rep in all_catalog_reps():
        n = rep.dim
        for d in range(n + 1):
            partner = det_twist(dual_rep(exterior_rep(rep, d)), rep)
            assert hom_dim(exterior_rep(rep, n - d), partner) >= 1, (name, d)


def test_simplicity_a2_no_premise():
    verdict = simplicity(A2)
    assert verdict.status == "Simple"
    assert verdict.commutant_dim == 1
    # spin-up oracle: from e1 the generators reach both basis vectors
    grown = spin(A2, [(Fraction(1), Fraction(0))])
    assert grown.dim == 2


def test_simplicity_reducible_with_witness():
    rep = Representation(
        [Matrix.from_rows([[-1, 1], [0, 1]]), Matrix.from_rows([[1, 0], [0, -1]])]
    )
    verdict = simplicity(rep)
    assert verdict.status == "Reducible"
    assert verdict.witness is not None
    # exhaustive line search oracle: the only invariant lines are found among
    # common eigenvector candidates; span{e1} is one and must be invariant
    w = verdict.witness
    assert 0 < w.dim < 2
    for g in rep.generators:
        for v in w.basis_vectors():
            assert w.contains(g.apply(v))


def test_simplicity_with_premise_exterior_square_a3():
    ext = exterior_rep(entry("A3").representation, 2)
    assert hom_dim(ext, ext) == 1


def test_simplicity_premise_reducible_produces_witness():
    # direct sum of the trivial and sign characters of Z/2: semisimple, commutant dim 2
    rep = Representation([Matrix.from_rows([[1, 0], [0, -1]])])
    verdict = simplicity(rep)
    assert verdict.status == "Reducible"
    assert verdict.witness is not None
    assert verdict.commutant_dim == 2
    for g in rep.generators:
        for v in verdict.witness.basis_vectors():
            assert verdict.witness.contains(g.apply(v))


def test_simplicity_inconclusive_for_rational_rotation():
    # 2-dim rotation of order 4 over Q: simple, but its endomorphism ring is
    # Q(i); no exact witness exists and no certificate applies
    rep = Representation([Matrix.from_rows([[0, -1], [1, 0]])])
    verdict = simplicity(rep)
    assert verdict.commutant_dim == 2
    assert (verdict.status, verdict.method) == ("Inconclusive", "no-field-eigenvalue")


def test_impossible_commutants_raise_internal_error(monkeypatch):
    # words spanning End(F^n) leave only scalars to commute with them, and a
    # semisimple module whose words fall short of End(F^n) has a larger commutant
    z2 = Representation([Matrix.from_rows([[1, 0], [0, -1]])])
    scalars = Subspace.span([Matrix.identity(2).entries], 4)
    monkeypatch.setattr(repkit, "solve_intertwiner", lambda *_: Subspace.full(4))
    with pytest.raises(InternalError):
        simplicity(A2)
    monkeypatch.setattr(repkit, "solve_intertwiner", lambda *_: scalars)
    with pytest.raises(InternalError):
        simplicity(z2)


def test_fixed_space_proposition_catalog():
    # the pointwise-fixed part of the d-th power is the exterior power of the
    # intersection of the hyperplanes, for every subset of catalog reflections
    for name, rep in all_catalog_reps():
        try:
            refls = [recognize_reflection(g) for g in rep.generators]
        except Exception:
            continue
        n = rep.dim
        for size in range(1, len(refls) + 1):
            for team in itertools.combinations(refls, size):
                for d in range(n + 1):
                    ambient = comb(n, d)
                    fixed = intersect_all(
                        [
                            kernel(compound(r.matrix, d) - Matrix.identity(ambient))
                            for r in team
                        ],
                        ambient,
                    )
                    hyper = intersect_all([r.hyperplane for r in team], n)
                    assert fixed == exterior_subspace(hyper, d), (name, size, d)


def test_plus_eigenspace_is_exterior_hyperplane():
    for name, rep in all_catalog_reps():
        try:
            refls = [recognize_reflection(g) for g in rep.generators]
        except Exception:
            continue
        for r in refls:
            for d in range(rep.dim + 1):
                assert eigen_split(r, d).plus == exterior_subspace(r.hyperplane, d)


def test_conjugated_rep_has_same_hom_dims(rng):
    from conftest import random_invertible

    p = random_invertible(rng, 2)
    conj = A2.conjugate(p)
    for a in range(3):
        for b in range(3):
            assert hom_dim(exterior_rep(A2, a), exterior_rep(A2, b)) == hom_dim(
                exterior_rep(conj, a), exterior_rep(conj, b)
            )
