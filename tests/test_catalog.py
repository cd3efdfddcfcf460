from fractions import Fraction

import pytest

from reflext.catalog import _cartan_rep, entry, infinite_dihedral, list_entries
from reflext.errors import EmptyGeneratorList, SingularMatrix, UnknownEntry
from reflext.linalg import Matrix, Representation
from reflext.reflections import fixes_vector, is_reflection, recognize_reflection
from reflext.theoremlab import verify_theorem


def test_required_entries_present():
    names = set(list_entries())
    required = {"A2", "A3", "B2", "G2", "H2-5", "cond4-fail", "reducible-direct-sum",
                "A2-redundant"}
    required |= {f"dihedral-{a}-{b}" for a in range(4) for b in range(4)}
    assert required <= names


def test_a2_entry_matrices():
    rep = entry("A2").representation
    assert rep.generators[0] == Matrix.from_rows([[-1, 1], [0, 1]])
    assert rep.generators[1] == Matrix.from_rows([[1, 0], [1, -1]])
    # (s1 s2)^3 = identity, by direct multiplication
    prod = rep.generators[0] @ rep.generators[1]
    assert prod @ prod @ prod == Matrix.identity(2)


def test_h2_5_entry_is_quadratic():
    rep = entry("H2-5").representation
    assert rep.field() == 5
    # the rotation s1 s2 has order 5 (dihedral group of order 10)
    prod = rep.generators[0] @ rep.generators[1]
    power = prod
    for _ in range(4):
        power = power @ prod
    assert power == Matrix.identity(2)


def test_unknown_entry():
    with pytest.raises(UnknownEntry):
        entry("nope")


def test_cartan_rep_reads_invertibility_off_the_diagonal():
    # s_i = I - e_i c_i^T has determinant 1 - c_ii
    cartan = [[2, -1, 0], [-3, 0, Fraction(1, 2)], [0, -1, 3]]
    rep = _cartan_rep(cartan)
    assert [g.det() for g in rep.generators] == [-1, 1, -2]
    assert rep == Representation(rep.generators)
    with pytest.raises(SingularMatrix, match="^generators must be invertible$"):
        _cartan_rep([[1]])
    with pytest.raises(SingularMatrix, match="^generators must be invertible$"):
        _cartan_rep([[2, -1], [-1, 1]])
    with pytest.raises(EmptyGeneratorList, match="^a representation needs at least one generator$"):
        _cartan_rep([])


def test_every_expected_verdict_matches_pipeline():
    """Every catalog expectation is asserted against the live pipeline.

    The expectations are written down independently of the pipeline; for the
    dihedral grid they follow from 4 - a*b (see `_build_entries`).
    """
    for name in list_entries():
        e = entry(name)
        report = verify_theorem(e.representation)
        applies = report.conclusion.status == "TheoremVerified"
        assert applies == e.expected.theorem_applies, (name, report.conclusion)
        if not applies:
            assert report.conclusion.reason.startswith(e.expected.failure_reason), name


def test_infinite_dihedral_generators_always_reflections(rng):
    for _ in range(10):
        a = rng.randint(-3, 3)
        b = rng.randint(-3, 3)
        rep = infinite_dihedral(a, b)
        assert all(is_reflection(g) for g in rep.generators)


def test_infinite_dihedral_1_1_verifies():
    report = verify_theorem(infinite_dihedral(1, 1))
    assert report.verified


def test_infinite_dihedral_0_0_reducible():
    report = verify_theorem(infinite_dihedral(0, 0))
    assert report.conclusion.status == "HypothesisFailed"
    assert report.conclusion.reason.startswith("condition3")
    # condition 4 itself holds vacuously-symmetrically
    assert report.hypothesis.condition4_holds


def test_infinite_dihedral_0_1_condition4():
    rep = infinite_dihedral(0, 1)
    report = verify_theorem(rep)
    assert report.conclusion.status == "HypothesisFailed"
    assert report.conclusion.reason.startswith("condition4")
    # derived: s1 fixes alpha2 exactly because a = 0
    r1 = recognize_reflection(rep.generators[0])
    r2 = recognize_reflection(rep.generators[1])
    assert fixes_vector(r1, r2.alpha)
    assert not fixes_vector(r2, r1.alpha)


def test_all_failing_entries_carry_validating_witnesses():
    for name in list_entries():
        e = entry(name)
        if e.expected.theorem_applies:
            continue
        report = verify_theorem(e.representation)
        concl = report.conclusion
        if concl.witness_subspace is not None:
            w = concl.witness_subspace
            assert 0 < w.dim < e.representation.dim, name
            for g in e.representation.generators:
                for v in w.basis_vectors():
                    assert w.contains(g.apply(v)), name
        if concl.witness_pairs:
            refls = report.hypothesis.reflections
            for i, j in concl.witness_pairs:
                assert refls[i - 1].apply(refls[j - 1].alpha) != refls[j - 1].alpha
                assert refls[j - 1].apply(refls[i - 1].alpha) == refls[i - 1].alpha
        assert concl.witness_subspace is not None or concl.witness_pairs, name
