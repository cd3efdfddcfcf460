import itertools
import random
from fractions import Fraction

import pytest

from reflext.catalog import entry, infinite_dihedral
from reflext.errors import NotSpanning, ReflextError
from reflext.graphs import Graph, induced, is_connected
from reflext.linalg import Matrix, Subspace, rank
from reflext.reflections import recognize_reflection, reflection_from_parts
from reflext.repkit import Representation
from reflext.scalars import QuadExt
from reflext.theoremlab import check_hypotheses, connected_basis_subset, verify_theorem

A2 = entry("A2").representation


def test_check_hypotheses_a2():
    hyp = check_hypotheses(A2)
    assert hyp.condition1_ok
    assert hyp.v_simple.status == "Simple"
    assert hyp.condition4_holds
    assert hyp.graph == Graph.on_range(2, [(1, 2)])
    # derived: s1 . alpha2 = alpha2 + alpha1 != alpha2, both directions
    r1, r2 = hyp.reflections
    assert r1.apply(r2.alpha) != r2.alpha
    assert r2.apply(r1.alpha) != r1.alpha


def test_check_hypotheses_condition4_violation():
    rep = entry("cond4-fail").representation
    hyp = check_hypotheses(rep)
    assert hyp.condition1_ok
    assert not hyp.condition4_holds
    assert hyp.condition4_violations == ((1, 2),)
    assert hyp.graph is None
    # witness validates: s1 moves alpha2 while s2 fixes alpha1
    r1, r2 = hyp.reflections
    assert r1.apply(r2.alpha) != r2.alpha
    assert r2.apply(r1.alpha) == r1.alpha
    # both generators are involutions, so the infinite-order remark is recorded
    assert hyp.remarks


def test_check_hypotheses_one_dim():
    rep = Representation([Matrix.from_rows([[-5]])])
    hyp = check_hypotheses(rep)
    assert hyp.condition1_ok
    assert hyp.condition4_holds
    assert hyp.graph == Graph.on_range(1)
    report = verify_theorem(rep)
    assert report.verified
    assert [d.commutant_dim for d in report.per_degree] == [1, 1]


def test_check_hypotheses_non_reflection_generator():
    rep = Representation([Matrix.identity(2), A2.generators[0]])
    hyp = check_hypotheses(rep)
    assert not hyp.condition1_ok
    assert hyp.condition1_failures[0][0] == 1
    report = verify_theorem(rep)
    assert report.conclusion.status == "HypothesisFailed"
    assert report.conclusion.reason.startswith("condition1")


def test_connected_basis_subset_independent_input():
    refls = [recognize_reflection(g) for g in A2.generators]
    graph = Graph.on_range(2, [(1, 2)])
    assert connected_basis_subset([r.alpha for r in refls], graph) == (1, 2)


# (alphas, functionals) of k > n reflections on which the f_i pick another
# basis subset than the alpha_i: on the first both subsets are bases for both,
# on the second the f of the alpha subset are dependent, and so are the alpha
# of the f subset
F_PICKS_ANOTHER_SUBSET = [
    (
        [(1, 0, 0), (-1, 2, 2), (0, 1, 1), (0, 1, 0)],
        [(1, 1, 1), (1, -1, -1), (-1, 0, 2), (2, 1, -1)],
    ),
    ([(-1, 0), (1, 2), (1, 2)], [(-1, 0), (1, 2), (1, 0)]),
]


def test_connected_basis_subset_redundant_generators():
    reps = [entry("A2-redundant").representation] + [
        Representation([reflection_from_parts(a, f) for a, f in zip(alphas, functionals)])
        for alphas, functionals in F_PICKS_ANOTHER_SUBSET
    ]
    for index, rep in enumerate(reps):
        n, k = rep.dim, len(rep.generators)
        hyp = check_hypotheses(rep)
        alphas = [r.alpha for r in hyp.reflections if r is not None]
        subset = connected_basis_subset(alphas, hyp.graph)
        assert len(subset) == n
        # oracle: exhaustive over all n-subsets; chosen one must be a basis with a
        # connected induced subgraph
        chosen = Matrix.from_rows([list(alphas[i - 1]) for i in subset])
        assert rank(chosen) == n
        assert is_connected(induced(hyp.graph, subset))
        valid = [
            part
            for part in itertools.combinations(range(1, k + 1), n)
            if rank(Matrix.from_rows([list(alphas[i - 1]) for i in part])) == n
            and is_connected(induced(hyp.graph, part))
        ]
        assert tuple(subset) in valid
        # verify_theorem picks the same subset off the alpha^ forms
        assert verify_theorem(rep).claim3_subset == subset
        if index:
            # the f_i pick another one, and on the last input the f of this one are dependent
            functionals = [r.functional for r in hyp.reflections]
            assert connected_basis_subset(functionals, hyp.graph) != subset
            f_rank = rank(Matrix.from_rows([list(functionals[i - 1]) for i in subset]))
            assert (f_rank < n) == (index == len(reps) - 1)


def test_connected_basis_subset_single_vector():
    graph = Graph.on_range(1)
    assert connected_basis_subset([(1,)], graph) == (1,)


def test_connected_basis_subset_not_spanning():
    graph = Graph.on_range(2, [(1, 2)])
    with pytest.raises(NotSpanning):
        connected_basis_subset([(1, 0), (2, 0)], graph)


def test_connected_basis_subset_ragged_vectors():
    graph = Graph.on_range(3, [(1, 2), (2, 3)])
    with pytest.raises(ValueError, match="ragged rows"):
        connected_basis_subset([(1, 0), (0, 1), (1,)], graph)


def _seeded_family(rng, n, k, m):
    """k > n vectors spanning F^n: n independent ones, then random vectors and
    combinations of one to three of the vectors so far, in random order; over
    Q(sqrt m) when m is given."""

    def scalar():
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if m is None or rng.random() < 0.3:
            return a
        return QuadExt(a, Fraction(rng.randint(-2, 2), rng.randint(1, 2)), m)

    vectors = []
    while rank(Matrix(len(vectors), n, [x for v in vectors for x in v])) < n:
        vectors = [tuple(scalar() for _ in range(n)) for _ in range(n)]
    while len(vectors) < k:
        if rng.random() < 0.5:
            vectors.append(tuple(scalar() for _ in range(n)))
            continue
        parts = rng.sample(vectors, rng.randint(1, min(3, len(vectors))))
        coefficients = [scalar() or Fraction(1) for _ in parts]
        vectors.append(tuple(sum(c * v[t] for c, v in zip(coefficients, parts)) for t in range(n)))
    rng.shuffle(vectors)
    return vectors


def _seeded_connected_graph(rng, k, density):
    edges = {(rng.randint(1, v - 1), v) for v in range(2, k + 1)}  # a spanning tree
    edges |= {e for e in itertools.combinations(range(1, k + 1), 2) if rng.random() < density}
    return Graph.on_range(k, edges)


def _outcome(fn, alphas, graph):
    try:
        return fn(alphas, graph)
    except (ReflextError, ValueError) as exc:  # the type and message are the outcome
        return (type(exc), str(exc))


@pytest.mark.parametrize("m", [None, 5], ids=["Q", "sqrt5"])
def test_connected_basis_subset_matches_oracle_on_redundant_families(m):
    # one dependency kernel per step reads the same rank and dependency as the
    # oracle's separate rank and kernel, k > n on every input
    from conftest import connected_basis_subset_oracle

    rng = random.Random(1515 if m is None else 1515 + m)
    results = 0
    for trial in range(120):
        n = rng.randint(1, 4)
        k = rng.randint(n + 1, n + 4)
        alphas = _seeded_family(rng, n, k, m)
        graph = _seeded_connected_graph(rng, k, rng.choice([0.0, 0.4, 0.7, 1.0]))
        if trial % 20 == 19:
            graph = Graph.on_range(k)  # disconnected
        expected = _outcome(connected_basis_subset_oracle, alphas, graph)
        assert _outcome(connected_basis_subset, alphas, graph) == expected, (alphas, graph)
        results += type(expected[0]) is int
    assert results >= 50


def test_verify_theorem_a3():
    report = verify_theorem(entry("A3").representation)
    assert report.verified
    assert [d.commutant_dim for d in report.per_degree] == [1, 1, 1, 1]
    assert all(d.verdict == "Simple" for d in report.per_degree)
    hom = report.pairwise_hom
    for a in range(4):
        for b in range(4):
            assert hom[a][b] == (1 if a == b else 0)
    assert all(d.claim4_ok for d in report.per_degree)


def test_verify_theorem_dihedral_2_3():
    report = verify_theorem(infinite_dihedral(2, 3))
    assert report.verified
    assert [d.degree for d in report.per_degree] == [0, 1, 2]


def test_verify_theorem_condition4_failure():
    report = verify_theorem(entry("cond4-fail").representation)
    assert report.conclusion.status == "HypothesisFailed"
    assert report.conclusion.reason.startswith("condition4")
    assert report.conclusion.witness_pairs == ((1, 2),)


def test_verify_theorem_reducible_witness_validates():
    report = verify_theorem(entry("dihedral-0-0").representation)
    assert report.conclusion.status == "HypothesisFailed"
    assert report.conclusion.reason.startswith("condition3")
    w = report.conclusion.witness_subspace
    assert w is not None and 0 < w.dim < 2
    for g in entry("dihedral-0-0").representation.generators:
        for v in w.basis_vectors():
            assert w.contains(g.apply(v))


def test_verify_affine_dihedral_reducible():
    # a*b = 4 is the degenerate member: alpha1 + alpha2 is fixed by both
    report = verify_theorem(infinite_dihedral(2, 2))
    assert report.conclusion.status == "HypothesisFailed"
    assert report.conclusion.reason.startswith("condition3")
    w = report.conclusion.witness_subspace
    assert w == Subspace.span([(1, 1)], 2)


def test_verify_theorem_trace_replay():
    report = verify_theorem(entry("A3").representation, trace=True)
    for dr in report.per_degree:
        t = dr.claim5_trace
        assert t is not None
        graph = induced(report.hypothesis.graph, report.claim3_subset)
        subsets = set(itertools.combinations(sorted(report.claim3_subset), dr.degree))
        covered = {t.base}
        for seq in t.sequences:
            current = set(t.base)
            for st in seq.steps:
                assert graph.has_edge(st.removed, st.added)
                assert st.removed in current and st.added not in current
                assert tuple(sorted(current)) == st.before
                current.remove(st.removed)
                current.add(st.added)
                assert tuple(sorted(current)) == st.after
            assert current == set(seq.target)
            covered.add(seq.target)
        assert covered == subsets


def test_verify_restricted_degrees():
    report = verify_theorem(entry("A3").representation, degrees=[2])
    assert [d.degree for d in report.per_degree] == [2]
    assert report.verified


def test_steinberg_mode_a2():
    # k = n, the case of Steinberg's theorem: the basis subset is every generator
    report = verify_theorem(A2)
    assert report.verified
    assert report.claim3_subset == (1, 2)


def test_steinberg_mode_b2():
    report = verify_theorem(entry("B2").representation)
    assert report.verified
    assert report.claim3_subset == (1, 2)
    # derived: s1 s2 has trace 0 and det 1, hence order 4
    s1, s2 = entry("B2").representation.generators
    prod = s1 @ s2
    assert prod.trace() == 0 and prod.det() == 1
    assert prod @ prod @ prod @ prod == Matrix.identity(2)


def test_verdicts_invariant_under_generator_permutation():
    base = verify_theorem(entry("A3").representation)
    permuted = verify_theorem(entry("A3").representation.permute([2, 0, 1]))
    assert permuted.verified == base.verified
    assert [d.commutant_dim for d in permuted.per_degree] == [
        d.commutant_dim for d in base.per_degree
    ]
    assert permuted.pairwise_hom == base.pairwise_hom


def test_verdicts_invariant_under_conjugation(rng):
    from conftest import random_invertible

    p = random_invertible(rng, 2)
    base = verify_theorem(A2)
    conj = verify_theorem(A2.conjugate(p))
    assert conj.verified and base.verified
    assert [d.commutant_dim for d in conj.per_degree] == [
        d.commutant_dim for d in base.per_degree
    ]
    assert conj.pairwise_hom == base.pairwise_hom


def test_rank_four_chain_verifies():
    # one size up from the catalog: the A4-pattern Cartan chain in dimension 4
    from reflext.catalog import _cartan_rep

    cartan = [
        [2, -1, 0, 0],
        [-1, 2, -1, 0],
        [0, -1, 2, -1],
        [0, 0, -1, 2],
    ]
    report = verify_theorem(_cartan_rep(cartan))
    assert report.verified
    assert [d.commutant_dim for d in report.per_degree] == [1] * 5
    assert [d.space_dim for d in report.per_degree] == [1, 4, 6, 4, 1]
    assert all(d.claim4_ok for d in report.per_degree)
