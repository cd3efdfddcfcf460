"""Oracles for the two certificates that replaced searches:

- condition 3 from the Cartan matrix C_ij = f_i(alpha_j) (Simple iff the
  moves digraph is strongly connected and rank C = n), against the
  reflection criterion it replaced: ker F = 0 and every reachable span is V;
- claim 5 from its lemma (moves connect all d-subsets of a connected graph),
  against a breadth-first count of the components of the move graph.
"""

import itertools
import random
from collections import deque
from fractions import Fraction

import pytest

from reflext import fractionfree, theoremlab
from reflext.catalog import _cartan_rep, entry, list_entries
from reflext.errors import InternalError
from reflext.graphs import Graph, induced, is_connected
from reflext.linalg import Matrix, Subspace, kernel, rank
from reflext.reflections import recognize_reflection, reflection_from_parts
from reflext.repkit import Representation, SimplicityVerdict, dual_rep
from reflext.scalars import QuadExt
from reflext.theoremlab import check_hypotheses, verify_theorem

SQRT5 = QuadExt(0, 1, 5)
KINDS = ("generic", "wide", "singular-F", "narrow-alpha", "disconnected", "sparse")


def chain(k):
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(k)] for i in range(k)]


def reflection_criterion(rep: Representation) -> bool:
    """ker F = 0 and the alphas reachable from each j along "s_i moves alpha_j" span V."""
    refls = [recognize_reflection(g) for g in rep.generators]
    n, k = rep.dim, len(refls)
    if kernel(Matrix.from_rows([list(r.functional) for r in refls])).dim:
        return False
    for start in range(k):
        reached, stack = {start}, [start]
        while stack:
            j = stack.pop()
            for i in range(k):
                if i not in reached and refls[i].f(refls[j].alpha):
                    reached.add(i)
                    stack.append(i)
        if Subspace.span([refls[i].alpha for i in reached], n).dim < n:
            return False
    return True


def move_components(graph: Graph, members, d: int) -> int:
    """Components of the move graph on d-subsets of members: two subsets are
    adjacent when they differ by swapping i out for j along an edge {i, j}."""
    adj = graph.adjacency()
    unseen = {frozenset(c) for c in itertools.combinations(members, d)}
    components = 0
    while unseen:
        components += 1
        queue = deque([unseen.pop()])
        while queue:
            subset = queue.popleft()
            for i in subset:
                for j in adj[i] - subset:
                    moved = subset - {i} | {j}
                    if moved in unseen:
                        unseen.remove(moved)
                        queue.append(moved)
    return components


def seeded_input(seed: int) -> tuple[str, Representation]:
    """One of KINDS, over Q or Q(sqrt 5), maybe conjugated; the label says which."""
    rng = random.Random(seed)
    kind = KINDS[seed % len(KINDS)]
    quadratic = rng.random() < 0.5
    conjugated = rng.random() < 0.4
    n = rng.randint(2, 4)
    k = n + rng.randint(1, 2) if kind == "wide" else n

    def scalar(zero_share):
        if rng.random() < zero_share:
            return Fraction(0)
        x = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
        return x + rng.randint(-1, 1) * SQRT5 if quadratic else x

    blocks = [range(n)]
    if kind == "disconnected":
        cut = rng.randint(1, n - 1)
        blocks = [range(cut), range(cut, n)]
    gens = []
    for i in range(k):
        block = blocks[i % len(blocks)]
        zero_share = 0.6 if kind == "sparse" else 0.25
        while True:
            alpha = [scalar(zero_share) if t in block else 0 for t in range(n)]
            f = [scalar(zero_share) if t in block else 0 for t in range(n)]
            if kind == "singular-F":
                f[-1] = 0
            if kind == "narrow-alpha":
                alpha[-1] = 0
            c = sum((a * b for a, b in zip(alpha, f)), Fraction(0))
            if c != 0 and c != -1:
                break
        gens.append(reflection_from_parts(alpha, f))
    rep = Representation(gens)
    label = kind + ("/sqrt5" if quadratic else "/Q") + ("/conjugated" if conjugated else "")
    if conjugated:
        rows = [[int(a == b) for b in range(n)] for a in range(n)]
        for _ in range(2 * n):  # unimodular: add +-1 times row j to row i
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        rep = rep.conjugate(Matrix.from_rows(rows))
    return label, rep


SEEDS = range(60)


@pytest.mark.parametrize("name", list_entries())
def test_cartan_rank_matches_reflection_criterion_on_catalog(name):
    rep = entry(name).representation
    verdict = check_hypotheses(rep).v_simple
    assert verdict.is_simple == reflection_criterion(rep)


def test_cartan_rank_matches_reflection_criterion_on_seeded_inputs():
    outcomes = {kind: set() for kind in KINDS}
    simple_labels = []
    asymmetric = set()
    for seed in SEEDS:
        label, rep = seeded_input(seed)
        kind = label.split("/")[0]
        hyp = check_hypotheses(rep)
        verdict = hyp.v_simple
        if not hyp.condition4_holds:
            asymmetric.add(verdict.is_simple)
        assert verdict.is_simple == reflection_criterion(rep), (seed, label)
        if verdict.is_simple:
            assert (verdict.commutant_dim, verdict.method) == (1, "reflection-criterion")
            simple_labels.append(label)
        else:
            w = verdict.witness
            assert 0 <= w.dim < rep.dim
            assert all(w.contains(g.apply(v)) for g in rep.generators for v in w.basis_vectors())
        outcomes[kind].add(verdict.is_simple)
    assert outcomes["singular-F"] == outcomes["narrow-alpha"] == outcomes["disconnected"] == {False}
    assert outcomes["generic"] == outcomes["sparse"] == {False, True}
    assert True in outcomes["wide"]
    assert asymmetric == {False, True}
    for part in ("/Q", "/sqrt5", "/conjugated"):
        assert any(part in label for label in simple_labels)


@pytest.fixture(scope="module")
def verified_reports():
    reps = [entry(name).representation for name in list_entries()]
    reps += [_cartan_rep(chain(n)) for n in range(2, 11)]
    reps += [seeded_input(seed)[1] for seed in SEEDS]
    reports = [verify_theorem(rep) for rep in reps]
    return [r for r in reports if r.verified]


def test_every_verified_report_has_independent_alpha_s(verified_reports):
    assert len(verified_reports) > 30
    assert any(len(r.hypothesis.reflections) > len(r.claim3_subset) for r in verified_reports)
    for report in verified_reports:
        alphas = [report.hypothesis.reflections[i - 1].alpha for i in report.claim3_subset]
        assert rank(Matrix.from_rows([list(a) for a in alphas])) == len(report.claim3_subset)


def test_verified_commutant_dims_match_move_graph_count(verified_reports):
    for report in verified_reports:
        members = sorted(report.claim3_subset)
        if len(members) > 10:
            continue
        graph = induced(report.hypothesis.graph, members)
        assert [d.commutant_dim for d in report.per_degree] == [
            move_components(graph, members, d.degree) for d in report.per_degree
        ]


def _random_connected_graph(rng, size):
    edges = {(rng.randint(1, v - 1), v) for v in range(2, size + 1)}  # a spanning tree
    edges |= {pair for pair in itertools.combinations(range(1, size + 1), 2) if rng.random() < 0.2}
    return Graph.on_range(size, edges)


def test_move_graph_is_connected_on_connected_graphs():
    rng = random.Random(20081)
    graphs = [Graph.on_range(n, [(i, i + 1) for i in range(1, n)]) for n in range(2, 11)]
    graphs += [_random_connected_graph(rng, rng.randint(1, 10)) for _ in range(40)]
    graphs += [
        h.graph
        for h in map(check_hypotheses, (entry(name).representation for name in list_entries()))
        if h.graph is not None and is_connected(h.graph)
    ]
    for graph in graphs:
        assert is_connected(graph)
        members = graph.vertices
        assert all(move_components(graph, members, d) == 1 for d in range(len(members) + 1))


def test_move_graph_splits_on_a_disconnected_graph():
    graph = Graph.on_range(5, [(1, 2), (3, 4), (4, 5)])
    assert not is_connected(graph)
    assert move_components(graph, graph.vertices, 1) == 2
    assert move_components(graph, graph.vertices, 2) == 3  # 2+0, 1+1 and 0+2 vertices per side


def test_disconnected_basis_subset_is_an_internal_error(monkeypatch):
    # A3 and a second copy of s1 (k = 4 > n = 3), so the pipeline asks
    # _basis_subset, the reduction behind connected_basis_subset, for S; 1 and
    # 3 are not adjacent in the chain 1 - 2 - 3
    a3 = entry("A3").representation
    rep = Representation(list(a3.generators) + [a3.generators[0]])
    assert verify_theorem(rep).verified
    monkeypatch.setattr(theoremlab, "_basis_subset", lambda alphas, m, graph: (1, 3))
    with pytest.raises(InternalError, match="disconnected"):
        verify_theorem(rep)


def test_dependent_basis_subset_is_an_internal_error(monkeypatch):
    # the rank(alpha_S) guard on the forms: (1, 2, 4) induces a connected
    # graph, but alpha_4 = alpha_1 (generator 4 is a second copy of s1)
    a3 = entry("A3").representation
    rep = Representation(list(a3.generators) + [a3.generators[0]])
    monkeypatch.setattr(theoremlab, "_basis_subset", lambda alphas, m, graph: (1, 2, 4))
    with pytest.raises(InternalError, match="not independent"):
        verify_theorem(rep)


def _simple_base(*args):
    return SimplicityVerdict("Simple", 1, method="reflection-criterion")


def test_disconnected_steinberg_graph_is_an_internal_error(monkeypatch):
    # k = n = 2 with no edge: S is every generator, and a base wrongly
    # called simple meets the connectivity guard on the graph itself
    rep = entry("dihedral-0-0").representation
    assert check_hypotheses(rep).graph.edges == frozenset()
    monkeypatch.setattr(theoremlab, "_base_simplicity", _simple_base)
    with pytest.raises(InternalError, match="disconnected"):
        verify_theorem(rep)


def test_dependent_steinberg_alphas_are_an_internal_error(monkeypatch):
    # k = n = 3 on a triangle: the dual of the affine A2 Cartan
    # representation, whose three alphas span a plane, meets the
    # rank(alpha_S) guard once its base is wrongly called simple
    rep = dual_rep(_cartan_rep([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]))
    hyp = check_hypotheses(rep)
    assert len(hyp.graph.edges) == 3 and hyp.v_simple.witness.dim == 2
    monkeypatch.setattr(theoremlab, "_base_simplicity", _simple_base)
    with pytest.raises(InternalError, match="not independent"):
        verify_theorem(rep)


@pytest.mark.parametrize("name", ["A4", "H3-conjugate"])
def test_steinberg_case_recognizes_once_and_ranks_twice(monkeypatch, name):
    # k = n: one recognition per generator, and two ranks, of the Cartan
    # matrix and of alpha_S
    if name == "A4":
        rep = _cartan_rep(chain(4))
    else:
        phi = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
        h3 = _cartan_rep([[2, -phi, 0], [-phi, 2, -1], [0, -1, 2]])
        rep = h3.conjugate(Matrix.from_rows([[1, 2, 0], [0, 1, -1], [1, 1, 0]]))
    calls = {"recognize_reflection": 0, "echelon": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        theoremlab, "recognize_reflection", counting("recognize_reflection", recognize_reflection)
    )
    # pairing_pattern calls echelon by fractionfree's name, the guard by theoremlab's
    echelon = counting("echelon", fractionfree.echelon)
    monkeypatch.setattr(fractionfree, "echelon", echelon)
    monkeypatch.setattr(theoremlab, "echelon", echelon)
    assert verify_theorem(rep).verified
    assert calls == {"recognize_reflection": rep.dim, "echelon": 2}


def test_non_invariant_witness_is_an_internal_error(monkeypatch):
    # the witness re-check on the forms: s1 moves e1 + e2 off its line
    rep = entry("reducible-direct-sum").representation
    assert check_hypotheses(rep).v_simple.method == "reflection-kernel"
    line = [[Fraction(1), Fraction(1), Fraction(0)]]
    monkeypatch.setattr(theoremlab, "null_space", lambda rows, cols, m: line)
    with pytest.raises(InternalError, match="witness is not invariant"):
        check_hypotheses(rep)
