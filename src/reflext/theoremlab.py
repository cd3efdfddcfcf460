"""End-to-end certification pipeline, following the paper's proof.

Given generators acting by generalized reflections s_i = I + alpha_i f_i^T,
checks the hypotheses (reflection recognition, irreducibility of the base
space, the symmetry condition on fixed reflection vectors), builds the
non-fixing graph, extracts a connected basis subset, and certifies for every
degree d that the d-th exterior power is simple, plus pairwise non-isomorphy.
No generic commutant or Hom system is solved on the theorem path:

- Condition 3 (base simplicity) is decided exactly from s_i(w) - w =
  f_i(w) alpha_i and the Cartan matrix C_ij = f_i(alpha_j): V is simple iff
  "s_i moves alpha_j" (C_ij != 0) is strongly connected and rank C = n.
  A reducible base's witness and End(V) come from the same data: one scalar
  per component of the "moves" graph, cut down by the dependencies of the
  alpha_i and of the f_i, plus Hom(V / span alpha, ker F).
- The claim-4 lines alpha_I, each the intersection of the eigenspaces of
  wedge^d s_i over i in I, rest on one rank: alpha_S independent.
- End(wedge^d V) is scalar because an endomorphism preserves every claim-4
  line alpha_I and has equal coefficients on subsets one claim-5 move apart,
  and on a connected graph the moves connect all d-subsets (claim 5).
- Distinct degrees of equal dimension have different characters, since
  tr(wedge^d s) = C(n-1, d) + lambda C(n-1, d-1) for every generator s.

All failures are structured report values carrying re-checkable witnesses.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import NamedTuple, Optional, Sequence

from .errors import (
    AlphasNotABasis,
    BadDegree,
    InternalError,
    NotConnected,
    NotDiagonalizable,
    NotRankOne,
    NotSpanning,
    SingularMatrix,
)
from .exterior import reflection_compound_trace
from .fractionfree import pairing_pattern
from .graphs import Graph, deletable_vertex, induced, is_connected, move_sequence
from .linalg import Matrix, Subspace, Vector, dot, kernel, rank
from .reflections import ReflectionData, recognize_reflection
from .repkit import Representation, SimplicityVerdict, is_invariant
from .scalars import Scalar


class HypothesisReport(NamedTuple):
    """Outcome of checking the four hypotheses on the input generators."""

    reflections: tuple[Optional[ReflectionData], ...]
    condition1_failures: tuple[tuple[int, str], ...]
    generation_assumed: bool
    v_simple: Optional[SimplicityVerdict]
    condition4_evaluated: bool
    condition4_violations: tuple[tuple[int, int], ...]
    graph: Optional[Graph]
    remarks: tuple[str, ...] = ()

    @property
    def condition1_ok(self) -> bool:
        return not self.condition1_failures

    @property
    def condition4_holds(self) -> bool:
        return self.condition4_evaluated and not self.condition4_violations

    def alphas(self) -> list[Vector]:
        return [r.alpha for r in self.reflections if r is not None]


class TraceStep(NamedTuple):
    removed: int
    added: int
    before: tuple[int, ...]
    after: tuple[int, ...]

    @property
    def edge(self) -> tuple[int, int]:
        return (min(self.removed, self.added), max(self.removed, self.added))


class TraceSequence(NamedTuple):
    target: tuple[int, ...]
    steps: tuple[TraceStep, ...]


class ClaimFiveTrace(NamedTuple):
    """Move-sequence demonstration that the wedge coefficients are constant.

    Each step carries two d-subsets differing by one graph edge; the scalar
    attached to the first wedge therefore equals the scalar attached to the
    second, and the sequences reach every d-subset from the base one.
    """

    degree: int
    base: tuple[int, ...]
    sequences: tuple[TraceSequence, ...]


class DegreeReport(NamedTuple):
    degree: int
    space_dim: int
    commutant_dim: int
    verdict: str
    claim4_checked: int
    claim4_exhaustive: bool
    claim4_ok: bool
    claim5_trace: Optional[ClaimFiveTrace] = None
    witness: Optional[Subspace] = None


class Conclusion(NamedTuple):
    status: str  # TheoremVerified | HypothesisFailed | CertificationFailed
    reason: Optional[str] = None
    witness_subspace: Optional[Subspace] = None
    witness_pairs: tuple[tuple[int, int], ...] = ()


class TheoremReport(NamedTuple):
    hypothesis: HypothesisReport
    claim1_connected: Optional[bool] = None
    claim2_spanning: Optional[bool] = None
    n_le_k: Optional[bool] = None
    claim3_subset: Optional[tuple[int, ...]] = None
    per_degree: tuple[DegreeReport, ...] = ()
    pairwise_hom: Optional[tuple[tuple[int, ...], ...]] = None
    dim_filter_ok: Optional[bool] = None
    conclusion: Conclusion = Conclusion("CertificationFailed")
    classical_mode: bool = False

    @property
    def verified(self) -> bool:
        return self.conclusion.status == "TheoremVerified"


def check_hypotheses(rep: Representation) -> HypothesisReport:
    """Run conditions 1-4; failures are values, never exceptions.

    Condition 2 (the group is generated by the inputs) is definitional for
    this artifact and recorded as assumed.
    """
    refls: list[Optional[ReflectionData]] = []
    failures: list[tuple[int, str]] = []
    for i, g in enumerate(rep.generators, start=1):
        try:
            refls.append(recognize_reflection(g))
        except (NotRankOne, NotDiagonalizable, SingularMatrix) as exc:
            refls.append(None)
            failures.append((i, f"{type(exc).__name__}: {exc}"))
    if failures:
        return HypothesisReport(
            reflections=tuple(refls),
            condition1_failures=tuple(failures),
            generation_assumed=True,
            v_simple=None,
            condition4_evaluated=False,
            condition4_violations=(),
            graph=None,
        )

    k = len(rep.generators)
    # the Cartan matrix C_ij = f_i(alpha_j): its zero pattern and its rank
    support, cartan_rank = pairing_pattern([r.functional for r in refls], [r.alpha for r in refls])
    # moves[i][j]: s_i moves alpha_j; the one relation behind conditions 3 and 4
    moves = [[i != j and support[i][j] for j in range(k)] for i in range(k)]
    violations: list[tuple[int, int]] = []
    edges: list[tuple[int, int]] = []
    for i, j in itertools.combinations(range(k), 2):
        if moves[i][j] != moves[j][i]:
            violations.append((i + 1, j + 1) if moves[i][j] else (j + 1, i + 1))
        elif moves[i][j]:
            edges.append((i + 1, j + 1))

    remarks: list[str] = []
    for i, j in violations:
        # s^2 = I + (2 + f(alpha)) alpha f^T, so a reflection is an involution iff lambda = -1
        if refls[i - 1].eigenvalue == -1 and refls[j - 1].eigenvalue == -1:
            remarks.append(
                f"generators {i} and {j} are involutions with asymmetric fixing; "
                "the order of their product is then forced infinite (not machine-checked)"
            )

    graph = Graph.on_range(k, edges) if not violations else None
    v_simple = _base_simplicity(rep, refls, moves, cartan_rank)
    return HypothesisReport(
        reflections=tuple(refls),
        condition1_failures=(),
        generation_assumed=True,
        v_simple=v_simple,
        condition4_evaluated=True,
        condition4_violations=tuple(violations),
        graph=graph,
        remarks=tuple(remarks),
    )


def _base_simplicity(
    rep: Representation,
    refls: Sequence[ReflectionData],
    moves: Sequence[Sequence[bool]],
    cartan_rank: int,
) -> SimplicityVerdict:
    """Condition 3 decided exactly for reflections s_i = I + alpha_i f_i^T.

    moves[i][j] says that s_i moves alpha_j, i.e. C_ij = f_i(alpha_j) != 0.
    Since s_i(w) - w = f_i(w) alpha_i, a nonzero invariant W either lies in
    every hyperplane f_i = 0, or contains some alpha_j and with it every
    alpha_i reachable from j along "s_i moves alpha_j".  The common kernel of
    the f_i and each such reachable span are invariant themselves, so V is
    simple iff the kernel is 0 and every reachable span is V.

    One rank decides this.  With A the matrix of columns alpha_i and F that
    of rows f_i, C = F A, so rank C = n forces ker F = 0 and span alpha = V;
    if moreover the moves digraph is strongly connected, every reachable set
    is all of S and V is simple.  Conversely, if V is simple then ker F = 0,
    so F is injective and rank C = rank A = n, and every reachable set R is
    all of S: for i not in R, f_i vanishes on span alpha_R = V, but f_i != 0.

    Otherwise V is reducible, and the first proper subspace among the common
    kernel and the reachable spans is the witness.

    End(V) is read off the same structure, with no n^2-unknown solve.
    T s_i = s_i T says (T alpha_i) f_i^T = alpha_i (f_i^T T), and as alpha_i,
    f_i != 0 this means T alpha_i = c_i alpha_i and f_i^T T = c_i f_i^T for
    one scalar c_i; applying f_i to T alpha_j then gives c_i = c_j whenever
    s_i moves alpha_j.  So T -> c is linear, with kernel Hom(V / span alpha,
    ker F), and its image Gamma is the set of c that are constant on each
    component of the undirected moves graph, make alpha_i -> c_i alpha_i well
    defined (sum_i a_i c_i alpha_i = 0 for a in ker A), and let F T = D_c F be
    solved off span alpha (sum_i y_i c_i f_i = 0 for y in ker F^T):

        dim End(V) = dim Gamma + (n - rank A)(n - rank F),

    with one unknown per component in Gamma; when the alphas are a basis it
    is the number of components.  In the simple case it is 1.
    """
    n = rep.dim
    k = len(refls)
    reversed_moves = [list(col) for col in zip(*moves)]
    if (
        len(_reachable(moves, 0)) == k
        and len(_reachable(reversed_moves, 0)) == k
        and cartan_rank == n
    ):
        return SimplicityVerdict("Simple", 1, method="reflection-criterion")
    functionals = Matrix.from_rows([list(r.functional) for r in refls])
    common_kernel = kernel(functionals)
    witness, method = common_kernel, "reflection-kernel"
    if common_kernel.dim == 0:
        method = "reflection-span"
        spans: dict[frozenset[int], Subspace] = {}
        for start in range(k):
            reached = frozenset(_reachable(moves, start))
            if reached not in spans:
                spans[reached] = Subspace.span([refls[i].alpha for i in reached], n)
            if spans[reached].dim < n:
                witness = spans[reached]
                break
        else:
            raise InternalError("every reachable span is V, yet rank C < n or moves disconnect")
    if not is_invariant(rep, witness):
        raise InternalError(f"{method} witness is not invariant")
    return SimplicityVerdict(
        "Reducible",
        _commutant_dim(refls, moves, functionals, n - common_kernel.dim),
        witness=witness,
        method=method,
    )


def _commutant_dim(
    refls: Sequence[ReflectionData],
    moves: Sequence[Sequence[bool]],
    functionals: Matrix,
    rank_f: int,
) -> int:
    """dim End(V) = dim Gamma + (n - rank A)(n - rank F), as in _base_simplicity.

    For c constant on components, sum_i a_i c_i alpha_i always lies in ker F
    and sum_i y_i c_i f_i vanishes on span alpha, so the first relation is
    imposed only when ker F != 0 and the second only when span alpha != V.
    """
    k, n = functionals.rows, functionals.cols
    undirected = [[a or b for a, b in zip(row, col)] for row, col in zip(moves, zip(*moves))]
    components: list[set[int]] = []
    for start in range(k):
        if not any(start in c for c in components):
            components.append(_reachable(undirected, start))
    alphas = [r.alpha for r in refls]
    dependencies = kernel(Matrix.from_rows([list(a) for a in alphas]).transpose())
    rank_a = k - dependencies.dim
    free = (n - rank_a) * (n - rank_f)
    if len(components) == 1:
        return 1 + free
    rows: list[list[Scalar]] = []
    if rank_f < n:
        rows += _grouped_relations(dependencies, alphas, components)
    if rank_a < n:
        rows += _grouped_relations(
            kernel(functionals.transpose()), [r.functional for r in refls], components
        )
    bound = rank(Matrix.from_rows(rows)) if rows else 0
    return len(components) - bound + free


def _grouped_relations(
    relations: Subspace, vectors: Sequence[Vector], components: Sequence[set[int]]
) -> list[list[Scalar]]:
    """sum_i r_i c_i v_i = 0 for each relation r, as rows in the one value of c per component."""
    return [
        [dot([r[i] for i in c], [vectors[i][t] for i in c]) for c in components]
        for r in relations.basis_vectors()
        for t in range(len(vectors[0]))
    ]


def _reachable(moves: Sequence[Sequence[bool]], start: int) -> set[int]:
    """Indices i reachable from start along j -> i whenever s_i moves alpha_j."""
    seen = {start}
    stack = [start]
    while stack:
        j = stack.pop()
        for i, row in enumerate(moves):
            if row[j] and i not in seen:
                seen.add(i)
                stack.append(i)
    return seen


def connected_basis_subset(alphas: Sequence[Vector], graph: Graph) -> tuple[int, ...]:
    """Indices I with {alpha_i : i in I} a basis and the induced subgraph connected.

    Constructive: while the current vectors are dependent, pick a dependency
    with all-nonzero coefficients on its support, apply the deletion lemma to
    the support inside the current subgraph, and drop the returned vertex.
    """
    n = len(alphas[0])
    stacked = Matrix.from_rows([list(a) for a in alphas])
    stacked_rank = rank(stacked)
    if stacked_rank != n:
        raise NotSpanning("reflection vectors do not span the space")
    if not is_connected(graph):
        raise NotConnected("non-fixing graph must be connected")
    if graph.vertices != tuple(range(1, len(alphas) + 1)):
        raise ValueError("one vertex per vector expected")

    # vertex i is alpha_(i-1), so the first stack is the spanning one above
    current = list(graph.vertices)
    while stacked_rank != len(current):
        dependency = _full_support_dependency(stacked)
        support = [current[pos] for pos, c in enumerate(dependency) if c]
        subgraph = induced(graph, current)
        drop = deletable_vertex(subgraph, support)
        current.remove(drop)
        stacked = Matrix.from_rows([list(alphas[i - 1]) for i in current])
        stacked_rank = rank(stacked)
    return tuple(current)


def _full_support_dependency(stacked: Matrix) -> Vector:
    """A nonzero kernel vector of the transposed stack: coefficients of a dependency."""
    dep_space = kernel(stacked.transpose())
    if dep_space.dim == 0:
        raise InternalError("dependent vectors without a dependency")
    return dep_space.basis.row(0)


def _characters_separate(refls: Sequence[ReflectionData], n: int) -> bool:
    """Every two degrees of equal dimension differ in the trace of some generator."""
    return all(
        any(reflection_compound_trace(r, a) != reflection_compound_trace(r, b) for r in refls)
        for a, b in itertools.combinations(range(n + 1), 2)
        if comb(n, a) == comb(n, b)
    )


def _claim5_trace(graph: Graph, subset: Sequence[int], d: int) -> ClaimFiveTrace:
    """Cover every d-subset of the certified set by explicit move sequences from a base."""
    members = sorted(subset)
    sub_graph = induced(graph, members)
    subsets = list(itertools.combinations(members, d))
    base = subsets[0]
    sequences: list[TraceSequence] = []
    for target in subsets[1:]:
        raw = move_sequence(sub_graph, base, target)
        cur = set(base)
        steps: list[TraceStep] = []
        for st in raw:
            before = tuple(sorted(cur))
            cur.remove(st.removed)
            cur.add(st.added)
            steps.append(TraceStep(st.removed, st.added, before, tuple(sorted(cur))))
        sequences.append(TraceSequence(target=target, steps=tuple(steps)))
    return ClaimFiveTrace(degree=d, base=base, sequences=tuple(sequences))


def _hypothesis_failure(hyp: HypothesisReport, classical: bool) -> TheoremReport:
    if not hyp.condition1_ok:
        indices = ", ".join(f"{i} ({why})" for i, why in hyp.condition1_failures)
        return TheoremReport(
            hypothesis=hyp,
            conclusion=Conclusion("HypothesisFailed", f"condition1: generator(s) {indices}"),
            classical_mode=classical,
        )
    if not hyp.condition4_holds:
        return TheoremReport(
            hypothesis=hyp,
            conclusion=Conclusion(
                "HypothesisFailed",
                "condition4: asymmetric fixing of reflection vectors",
                witness_pairs=hyp.condition4_violations,
            ),
            classical_mode=classical,
        )
    raise InternalError("not a hypothesis failure")


def verify_theorem(
    rep: Representation,
    *,
    trace: bool = False,
    degrees: Sequence[int] | None = None,
    _preset_subset: tuple[int, ...] | None = None,
    _classical: bool = False,
    _hyp: HypothesisReport | None = None,
) -> TheoremReport:
    """Full pipeline; every failure mode is a structured conclusion, never an
    exception (malformed requests like out-of-range degrees still raise).

    Each exterior power is certified by the claim-5 lemma and non-isomorphy
    by comparing characters.  On a connected graph, the moves "swap i in I
    for a neighbour j not in I" connect all d-subsets, for every d (the
    constructive proof is graphs.move_sequence, replayed under trace=True).
    An endomorphism of wedge^d V keeps every claim-4 line alpha_I and has
    equal coefficients on subsets one move apart, so one check that the
    basis subset S induces a connected graph makes End(wedge^d V) the
    scalars in every degree.  The step from scalar End to simple is the
    FromSimpleBase premise, which is sound in characteristic 0: the Zariski
    closure of a group acting irreducibly on V is reductive, so every
    wedge^d V is semisimple, and a semisimple module with scalar End is
    simple.  Schur's lemma then makes Hom between different degrees 0.

    S is all generators when k = n: the Simple verdict on V includes
    rank C = n, so the alphas are a basis, and the graph of a simple base is
    connected.  For k > n, connected_basis_subset picks S.  A simple base
    with either choice cannot give a disconnected S, so one is an
    InternalError.

    Claim 4 is certified by one rank.  For s_i = I + alpha_i f_i^T with
    eigenvalue lambda_i = 1 + f_i(alpha_i) != 1, V = F alpha_i (+) ker f_i, so
    the lambda_i-eigenspace of wedge^d s_i is alpha_i ^ wedge^(d-1) V.  For
    independent alpha_I the intersection of these eigenspaces over I is
    alpha_I ^ wedge^(d-|I|) V, the line spanned by alpha_I when |I| = d.  So
    rank(alpha_S) = |S| makes every one of the C(|S|, d) d-subsets of S a
    claim-4 line, in every degree at once; it is checked again here even
    where rank C = n already implies it.
    """
    n = rep.dim
    k = len(rep.generators)
    if degrees is not None:
        for d in degrees:
            if d < 0 or d > n:
                raise BadDegree(f"degree {d} outside 0..{n}")
    hyp = _hyp if _hyp is not None else check_hypotheses(rep)
    if not hyp.condition1_ok or not hyp.condition4_holds:
        return _hypothesis_failure(hyp, _classical)
    if hyp.v_simple is None or hyp.graph is None:
        raise InternalError("hypotheses passed without a condition-3 verdict or a graph")
    if not hyp.v_simple.is_simple:
        return TheoremReport(
            hypothesis=hyp,
            conclusion=Conclusion(
                "HypothesisFailed",
                "condition3: base representation is reducible",
                witness_subspace=hyp.v_simple.witness,
            ),
            classical_mode=_classical,
        )

    refls = [r for r in hyp.reflections if r is not None]
    if _preset_subset is not None:
        subset = _preset_subset
    elif k == n:
        subset = hyp.graph.vertices
    else:
        subset = connected_basis_subset([r.alpha for r in refls], hyp.graph)
    if not is_connected(induced(hyp.graph, subset)):
        raise InternalError("basis subset of a simple base induces a disconnected graph")
    alphas_s = Matrix.from_rows([list(refls[i - 1].alpha) for i in subset])
    if rank(alphas_s) != len(subset):
        raise InternalError("connected basis subset is not independent")

    degree_list = sorted(set(degrees)) if degrees is not None else list(range(n + 1))
    per_degree = [
        DegreeReport(
            degree=d,
            space_dim=comb(n, d),
            commutant_dim=1,
            verdict="Simple",
            claim4_checked=comb(len(subset), d),
            claim4_exhaustive=True,
            claim4_ok=True,
            claim5_trace=_claim5_trace(hyp.graph, subset, d) if trace else None,
        )
        for d in degree_list
    ]

    dim_filter_ok = _characters_separate(refls, n)
    hom_matrix = None
    if dim_filter_ok:
        hom_matrix = tuple(tuple(int(a == b) for b in range(n + 1)) for a in range(n + 1))
        conclusion = Conclusion("TheoremVerified")
    else:
        conclusion = Conclusion(
            "CertificationFailed", "characters do not separate two degrees of equal dimension"
        )
    return TheoremReport(
        hypothesis=hyp,
        claim1_connected=True,
        claim2_spanning=True,
        n_le_k=n <= k,
        claim3_subset=subset,
        per_degree=tuple(per_degree),
        pairwise_hom=hom_matrix,
        dim_filter_ok=dim_filter_ok,
        conclusion=conclusion,
        classical_mode=_classical,
    )


def steinberg_mode(
    rep: Representation, *, trace: bool = False, degrees: Sequence[int] | None = None
) -> TheoremReport:
    """Classical setting: reflections along a basis; the connected basis subset is all of S."""
    n = rep.dim
    k = len(rep.generators)
    if k != n:
        raise AlphasNotABasis(f"classical mode needs k = n, got k = {k}, n = {n}")
    hyp = check_hypotheses(rep)
    if not hyp.condition1_ok:
        return _hypothesis_failure(hyp, True)
    alphas = hyp.alphas()
    if rank(Matrix.from_rows([list(a) for a in alphas])) != n:
        raise AlphasNotABasis("reflection vectors do not form a basis")
    return verify_theorem(
        rep,
        trace=trace,
        degrees=degrees,
        _preset_subset=tuple(range(1, n + 1)),
        _classical=True,
        _hyp=hyp,
    )
