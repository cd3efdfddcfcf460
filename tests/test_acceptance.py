"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact arithmetic; the only tolerance anywhere is equality.
Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import itertools
import random
from math import comb

from reflext.catalog import entry, infinite_dihedral, list_entries
from reflext.exterior import (
    compound,
    eigen_split,
    exterior_subspace,
    minus_intersection,
)
from reflext.graphs import (
    Graph,
    apply_moves,
    deletable_vertex,
    induced,
    is_connected,
    move_sequence,
)
from reflext.linalg import (
    Matrix,
    Subspace,
    intersect,
    intersect_all,
    kernel,
    rank,
    subspace_sum,
)
from reflext.reflections import recognize_reflection
from reflext.repkit import (
    det_twist,
    dual_rep,
    exterior_rep,
    hom_dim,
)
from reflext.theoremlab import verify_theorem

from conftest import (
    duality_holds,
    minus_intersection_bruteforce,
    random_invertible,
    random_matrix,
    random_subspace,
)


def _report(number: int, ok: bool, description: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number}: {status} -- {description}"
    if detail and detail != "[]":
        line += f" ({detail})"
    print(line)
    assert ok, line


def _catalog_reflection_sets():
    """(name, dim, recognized reflections) for entries whose generators are reflections."""
    out = []
    for name in list_entries():
        rep = entry(name).representation
        try:
            refls = [recognize_reflection(g) for g in rep.generators]
        except Exception:
            continue
        out.append((name, rep.dim, refls))
    return out


def test_criterion_1_dimension_formulas():
    """Wedge-basis and eigen-split dimension formulas, exact, all catalog reflections."""
    failures = []
    for name, n, refls in _catalog_reflection_sets():
        for refl in refls:
            for d in range(n + 1):
                split = eigen_split(refl, d)
                total = comb(n, d)
                ok = (
                    split.plus.dim == comb(n - 1, d)
                    and split.minus.dim == (comb(n - 1, d - 1) if d >= 1 else 0)
                    and split.plus.dim + split.minus.dim == total
                    and intersect(split.plus, split.minus).dim == 0
                    and subspace_sum(split.plus, split.minus).dim == total
                )
                if not ok:
                    failures.append((name, d))
    _report(1, not failures, "eigen-split dimension formulas and direct sums", str(failures))


def test_criterion_2_cauchy_binet():
    """compound(AB, d) == compound(A, d) @ compound(B, d), 200 random pairs, n <= 5."""
    rng = random.Random(1001)
    bad = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n)
        b = random_matrix(rng, n, n)
        for d in range(n + 1):
            if compound(a @ b, d) != compound(a, d) @ compound(b, d):
                bad += 1
    _report(2, bad == 0, "Cauchy-Binet functoriality on 200 random pairs", f"{bad} mismatches")


def test_criterion_3_minus_intersection_oracle():
    """Formula-based minus-intersections equal brute-force eigenspace intersections."""
    checked = 0
    failures = []
    for name, n, refls in _catalog_reflection_sets():
        for size in range(1, len(refls) + 1):
            for team in itertools.combinations(refls, size):
                if rank(Matrix.from_rows([list(r.alpha) for r in team])) != size:
                    continue
                for d in range(n + 1):
                    checked += 1
                    if minus_intersection(list(team), d) != minus_intersection_bruteforce(
                        list(team), d
                    ):
                        failures.append((name, size, d))
    _report(
        3,
        not failures,
        f"minus-eigenspace intersection formula vs brute force ({checked} cases)",
        str(failures),
    )


def test_criterion_4_wedge_intersection_and_fixed_space():
    """Exterior power of an intersection vs intersection of exterior powers,
    on random families and on catalog hyperplanes (fixed-space form)."""
    rng = random.Random(2002)
    failures = []
    for i in range(100):
        spaces = [random_subspace(rng, 5) for _ in range(3)]
        for d in (2, 3):
            lhs = intersect_all([exterior_subspace(h, d) for h in spaces], comb(5, d))
            rhs = exterior_subspace(intersect_all(spaces, 5), d)
            if lhs != rhs:
                failures.append(("random", i, d))
    for name, n, refls in _catalog_reflection_sets():
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
                    if fixed != exterior_subspace(hyper, d):
                        failures.append((name, size, d))
    _report(4, not failures, "wedge-intersection lemma and fixed-space description", str(failures))


def test_criterion_5_duality():
    """Wedge-pairing intertwining identity, plus hom >= 1 with the dual-det-twist partner."""
    failures = []
    for name in list_entries():
        rep = entry(name).representation
        n = rep.dim
        for d in range(n + 1):
            if not duality_holds(rep, d):
                failures.append((name, d, "identity"))
            partner = det_twist(dual_rep(exterior_rep(rep, d)), rep)
            if hom_dim(exterior_rep(rep, n - d), partner) < 1:
                failures.append((name, d, "hom"))
    _report(5, not failures, "duality intertwiner identity on every catalog entry", str(failures))


def _connected_graphs_up_to(k_max):
    for k in range(1, k_max + 1):
        all_edges = list(itertools.combinations(range(1, k + 1), 2))
        for mask in range(1 << len(all_edges)):
            edges = [e for i, e in enumerate(all_edges) if mask >> i & 1]
            g = Graph.on_range(k, edges)
            if is_connected(g):
                yield g


def test_criterion_6_graph_lemmas():
    """Move sequences replay-validate (exhaustive <= 6 vertices plus 500 random
    <= 8); deletion lemma BFS-verified on 500 hypothesis-satisfying instances."""
    rng = random.Random(3003)
    failures = []
    n_graphs = 0
    for g in _connected_graphs_up_to(6):
        n_graphs += 1
        k = g.vertex_count
        for d in range(k + 1):
            start = set(rng.sample(g.vertices, d))
            goal = set(rng.sample(g.vertices, d))
            steps = move_sequence(g, start, goal)
            if apply_moves(start, steps, g) != goal:
                failures.append(("exhaustive", g, start, goal))

    random_count = 0
    while random_count < 500:
        k = rng.randint(1, 8)
        edges = [e for e in itertools.combinations(range(1, k + 1), 2) if rng.random() < 0.5]
        g = Graph.on_range(k, edges)
        if not is_connected(g):
            continue
        random_count += 1
        for d in range(k + 1):
            start = set(rng.sample(g.vertices, d))
            goal = set(rng.sample(g.vertices, d))
            steps = move_sequence(g, start, goal)
            if apply_moves(start, steps, g) != goal:
                failures.append(("random", g, start, goal))

    deletions = 0
    while deletions < 500:
        k = rng.randint(2, 8)
        edges = [e for e in itertools.combinations(range(1, k + 1), 2) if rng.random() < 0.5]
        g = Graph.on_range(k, edges)
        if not is_connected(g):
            continue
        size = rng.randint(2, k)
        subset = set(rng.sample(g.vertices, size))
        if any(
            len(g.neighbors(t) & subset) == 1 for t in g.vertices if t not in subset
        ):
            continue
        deletions += 1
        s = deletable_vertex(g, subset)
        if s not in subset or not is_connected(induced(g, set(g.vertices) - {s})):
            failures.append(("deletion", g, subset, s))

    _report(
        6,
        not failures,
        f"graph lemmas ({n_graphs} exhaustive graphs, 500 random, 500 deletions)",
        str(failures[:3]),
    )


def test_criterion_7_main_theorem_end_to_end():
    """verify() on the named entries and the (a,b) in {1,2,3}^2 dihedral grid.

    The named entries and every irreducible grid member must verify.  The
    reflection functionals of infinite_dihedral(a, b) are f1 = (2, -a) and
    f2 = (-b, 2); with a, b nonzero an invariant line must lie in their common
    kernel, which is nonzero exactly when 4 - a*b = 0.  So the a*b = 4 member
    is reducible, outside the theorem, and must be rejected at condition 3
    with the invariant line ker [[2, -a], [-b, 2]] as its witness.
    """
    targets = [(name, entry(name).representation) for name in ("A2", "A3", "B2", "G2", "H2-5")]
    reducible = {}
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            name = f"dihedral({a},{b})"
            targets.append((name, infinite_dihedral(a, b)))
            if 4 - a * b == 0:
                reducible[name] = kernel(Matrix.from_rows([[2, -a], [-b, 2]]))
    assert list(reducible) == ["dihedral(2,2)"]
    assert reducible["dihedral(2,2)"] == Subspace.span([(1, 1)], 2)

    failures = []
    for name, rep in targets:
        report = verify_theorem(rep)
        if name in reducible:
            conclusion = report.conclusion
            w = conclusion.witness_subspace
            if conclusion.status != "HypothesisFailed" or not conclusion.reason.startswith(
                "condition3"
            ):
                failures.append(f"{name}: {conclusion.status} ({conclusion.reason}), not condition3")
            elif w is None or not (0 < w.dim < rep.dim):
                failures.append(f"{name}: no proper witness subspace")
            elif w != reducible[name]:
                failures.append(f"{name}: witness is not the common kernel of f1, f2")
            elif any(
                not w.contains(g.apply(v)) for g in rep.generators for v in w.basis_vectors()
            ):
                failures.append(f"{name}: witness is not invariant")
            continue
        if not report.verified:
            failures.append(f"{name}: {report.conclusion.status} ({report.conclusion.reason})")
            continue
        if any(d.commutant_dim != 1 for d in report.per_degree):
            failures.append(f"{name}: commutant dims {[d.commutant_dim for d in report.per_degree]}")
        hom = report.pairwise_hom
        size = rep.dim + 1
        if any(hom[a][b] != 0 for a in range(size) for b in range(size) if a != b):
            failures.append(f"{name}: nonzero off-diagonal hom dimension")
    _report(
        7,
        not failures,
        "end-to-end certification on the named entries and the dihedral grid",
        "; ".join(failures),
    )


def test_criterion_8_negative_soundness():
    """Failure reports carry witnesses that re-validate exactly."""
    problems = []

    report = verify_theorem(entry("cond4-fail").representation)
    if report.conclusion.status != "HypothesisFailed" or not report.conclusion.reason.startswith(
        "condition4"
    ):
        problems.append("cond4-fail did not fail at condition 4")
    else:
        refls = report.hypothesis.reflections
        for i, j in report.conclusion.witness_pairs:
            moves = refls[i - 1].apply(refls[j - 1].alpha) != refls[j - 1].alpha
            fixes = refls[j - 1].apply(refls[i - 1].alpha) == refls[i - 1].alpha
            if not (moves and fixes):
                problems.append(f"witness pair ({i},{j}) does not validate")

    rep00 = infinite_dihedral(0, 0)
    report00 = verify_theorem(rep00)
    w = report00.conclusion.witness_subspace
    if report00.conclusion.status != "HypothesisFailed" or w is None:
        problems.append("dihedral(0,0) did not produce an invariant-subspace witness")
    else:
        if not (0 < w.dim < 2):
            problems.append("dihedral(0,0) witness is not proper")
        for g in rep00.generators:
            for v in w.basis_vectors():
                if not w.contains(g.apply(v)):
                    problems.append("dihedral(0,0) witness is not invariant")

    redundant = verify_theorem(entry("A2-redundant").representation)
    if not redundant.verified:
        problems.append("redundant-generator entry failed to verify")
    else:
        subset = redundant.claim3_subset
        hyp = redundant.hypothesis
        alphas = [r.alpha for r in hyp.reflections if r is not None]
        chosen = Matrix.from_rows([list(alphas[i - 1]) for i in subset])
        if len(subset) != 2 or rank(chosen) != 2:
            problems.append("redundant entry: claim-3 subset is not a basis")
        if not is_connected(induced(hyp.graph, subset)):
            problems.append("redundant entry: claim-3 subset not connected")

    _report(8, not problems, "negative soundness witnesses re-validate", "; ".join(problems))


def test_criterion_9_similarity_invariance():
    """Conjugating a verifying entry by a fixed invertible matrix preserves the report."""
    rng = random.Random(4004)
    conjugators = {}
    failures = []
    for name in list_entries():
        e = entry(name)
        if not e.expected.theorem_applies:
            continue
        rep = e.representation
        n = rep.dim
        if n not in conjugators:
            conjugators[n] = random_invertible(rng, n)
        base = verify_theorem(rep)
        conj = verify_theorem(rep.conjugate(conjugators[n]))
        same = (
            base.conclusion.status == conj.conclusion.status
            and [d.commutant_dim for d in base.per_degree]
            == [d.commutant_dim for d in conj.per_degree]
            and [d.verdict for d in base.per_degree] == [d.verdict for d in conj.per_degree]
            and base.pairwise_hom == conj.pairwise_hom
            and [d.claim4_ok for d in base.per_degree] == [d.claim4_ok for d in conj.per_degree]
        )
        if not (same and conj.verified):
            failures.append(name)
    _report(9, not failures, "similarity invariance of all verifying entries", str(failures))
