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

Each input's integer forms are stacked once.  A failed hypothesis is a
report value with a re-checkable witness; a failed certificate step on an
input meeting every hypothesis is an InternalError.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb
from typing import NamedTuple, Optional, Sequence

from .errors import (
    InternalError,
    NotConnected,
    NotDiagonalizable,
    NotRankOne,
    NotSpanning,
    SingularMatrix,
)
from .fractionfree import (
    clear,
    echelon,
    field_of,
    first_null_support,
    inner,
    integer,
    lift,
    null_space,
    null_vectors,
    pairing_pattern,
    row_space,
)
from .graphs import (
    Graph,
    apply_move,
    breadth_first,
    deletable_vertex,
    induced,
    is_connected,
    move_chain,
)
from .linalg import Representation, Subspace, Vector, _canonical_subspace, _check_degree
from .reflections import Forms, ReflectionData, recognize_reflection
from .scalars import merge_tags


class SimplicityVerdict(NamedTuple):
    """Outcome of simplicity certification, with the `method` that decided it.

    status 'Simple' or 'Reducible' (with a generator-invariant witness) or
    'Inconclusive' when no exact certificate or witness decides.
    """

    status: str  # Simple | Reducible | Inconclusive
    commutant_dim: int
    witness: Optional[Subspace] = None
    method: str = ""

    @property
    def is_simple(self) -> bool:
        return self.status == "Simple"


class HypothesisReport(NamedTuple):
    """Outcome of checking the four hypotheses on the input generators."""

    reflections: tuple[Optional[ReflectionData], ...]
    condition1_failures: tuple[tuple[int, str], ...]
    v_simple: Optional[SimplicityVerdict]
    condition4_violations: tuple[tuple[int, int], ...]
    graph: Optional[Graph]
    remarks: tuple[str, ...] = ()
    forms: Optional[Forms] = None  # stacked, for verify_theorem; no document reads it

    @property
    def condition1_ok(self) -> bool:
        return not self.condition1_failures

    @property
    def condition4_holds(self) -> bool:
        return self.condition1_ok and not self.condition4_violations


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
    claim4_ok: bool
    claim5_trace: Optional[ClaimFiveTrace] = None


class Conclusion(NamedTuple):
    status: str  # TheoremVerified | HypothesisFailed
    reason: Optional[str] = None
    witness_subspace: Optional[Subspace] = None
    witness_pairs: tuple[tuple[int, int], ...] = ()


class TheoremReport(NamedTuple):
    hypothesis: HypothesisReport
    conclusion: Conclusion
    claim3_subset: Optional[tuple[int, ...]] = None
    per_degree: tuple[DegreeReport, ...] = ()
    pairwise_hom: Optional[tuple[tuple[int, ...], ...]] = None
    dim_filter_ok: Optional[bool] = None

    @property
    def verified(self) -> bool:
        return self.conclusion.status == "TheoremVerified"


def check_hypotheses(rep: Representation) -> HypothesisReport:
    """Run conditions 1-4; failures are values, never exceptions.

    Condition 2 (the group is generated by the inputs) is definitional for
    this artifact; the documents record it as assumed.
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
            v_simple=None,
            condition4_violations=(),
            graph=None,
        )

    k = len(rep.generators)
    # the Cartan matrix C_ij = f_i(alpha_j): its zero pattern and its rank,
    # from the integer forms recognition cleared
    forms = _stacked_forms(refls)
    support, cartan_rank = pairing_pattern(forms.f, forms.alpha, forms.m)
    # moving[i]: the j != i with s_i moving alpha_j, increasing; the one
    # relation behind conditions 3 and 4, built once
    moving = [[j for j, x in enumerate(row) if x and j != i] for i, row in enumerate(support)]
    violations = [
        (i + 1, j + 1) if support[i][j] else (j + 1, i + 1)
        for i in range(k)
        for j in range(i + 1, k)
        if support[i][j] != support[j][i]
    ]

    remarks: list[str] = []
    for i, j in violations:
        # s^2 = I + (2 + f(alpha)) alpha f^T, so a reflection is an involution iff lambda = -1
        if _is_involution(refls[i - 1]) and _is_involution(refls[j - 1]):
            remarks.append(
                f"generators {i} and {j} are involutions with asymmetric fixing; "
                "the order of their product is then forced infinite (not machine-checked)"
            )

    if violations:
        graph = None
        moved = [[i for i in range(k) if support[i][j] and i != j] for j in range(k)]
    else:
        # a symmetric relation is the graph's adjacency, and its own transpose
        graph = Graph._of({i + 1: tuple([j + 1 for j in row]) for i, row in enumerate(moving)})
        moved = moving
    v_simple = _base_simplicity(rep.dim, moving, moved, cartan_rank, forms)
    return HypothesisReport(
        reflections=tuple(refls),
        condition1_failures=(),
        v_simple=v_simple,
        condition4_violations=tuple(violations),
        graph=graph,
        remarks=tuple(remarks),
        forms=forms,
    )


def _is_involution(refl: ReflectionData) -> bool:
    """lambda = -1, i.e. S = -2L for lambda - 1 = S / L."""
    shift, den = refl.shift
    return shift == integer(-2 * den, refl.forms.m)


def _base_simplicity(
    n: int,
    moving: Sequence[Sequence[int]],
    moved: Sequence[Sequence[int]],
    cartan_rank: int,
    forms: Forms,
) -> SimplicityVerdict:
    """Condition 3 decided exactly for reflections s_i = I + alpha_i f_i^T.

    moving[i] lists the j != i that s_i moves, i.e. C_ij = f_i(alpha_j) !=
    0, and moved[j] the i that move alpha_j, both in increasing order; a
    symmetric relation is passed as one list for both, and searched once.
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
    kernel and the reachable spans is the witness.  Both are read off the
    fraction-free Gauss-Jordan reduction of the cleared forms (m, f~, alpha~),
    which scale each f_i and alpha_i by a nonzero constant, and the witness
    is checked again on the forms by _is_invariant.

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
    k = len(moving)
    # s_i moves alpha_j: an arrow j -> i, searched forwards and backwards
    if (
        cartan_rank == n
        and len(breadth_first(moved, 0)) == k
        and (moved is moving or len(breadth_first(moving, 0)) == k)
    ):
        return SimplicityVerdict("Simple", 1, method="reflection-criterion")
    common_kernel = null_space(forms.f, n, forms.m)
    witness, method = common_kernel, "reflection-kernel"
    if not common_kernel:
        method = "reflection-span"
        spans: dict[frozenset[int], list] = {}
        for start in range(k):
            reached = frozenset(breadth_first(moved, start))
            if reached not in spans:
                spans[reached] = row_space([forms.alpha[i] for i in reached], n, forms.m)
            if len(spans[reached]) < n:
                witness = spans[reached]
                break
        else:
            raise InternalError("every reachable span is V, yet rank C < n or moves disconnect")
    witness_space = _canonical_subspace(witness, n)
    if not _is_invariant(witness_space, forms):
        raise InternalError(f"{method} witness is not invariant")
    return SimplicityVerdict(
        "Reducible",
        _commutant_dim(moving, moved, n, n - len(common_kernel), forms),
        witness=witness_space,
        method=method,
    )


def _is_invariant(space: Subspace, forms: Forms) -> bool:
    """True iff every s_i = I + alpha_i f_i^T maps the subspace into itself.

    s_i(w) - w = f_i(w) alpha_i, so s_i W is in W iff f_i vanishes on a
    basis of W or alpha_i lies in W.  Both are decided on the cleared forms
    (m, f~, alpha~) and W's basis cleared over Z[sqrt(m)], as scaling a
    vector by a nonzero constant changes neither.
    """
    m = forms.m
    n = space.ambient_dim
    basis = [clear(w, m)[0] for w in space.basis_vectors()]
    return all(
        not any(inner(f, w, m) for w in basis)
        or echelon([*map(list, basis), list(a)], n, m, cleared=True)[0] == len(basis)
        for f, a in zip(forms.f, forms.alpha)
    )


def _commutant_dim(
    moving: Sequence[Sequence[int]],
    moved: Sequence[Sequence[int]],
    n: int,
    rank_f: int,
    forms: Forms,
) -> int:
    """dim End(V) = dim Gamma + (n - rank A)(n - rank F), as in _base_simplicity.

    For c constant on components, sum_i a_i c_i alpha_i always lies in ker F
    and sum_i y_i c_i f_i vanishes on span alpha, so the first relation is
    imposed only when ker F != 0 and the second only when span alpha != V.
    The relations are those of the cleared forms: scaling each alpha_i (or
    f_i) by a nonzero constant scales a_i (or y_i) inversely and leaves
    every sum_i a_i c_i alpha_i unchanged.
    """
    m = forms.m
    k = len(moving)
    undirected = [sorted({*moving[j], *moved[j]}) for j in range(k)]
    components: list[set[int]] = []
    for start in range(k):
        if not any(start in c for c in components):
            components.append(set(breadth_first(undirected, start)))
    rank_a = echelon([list(a) for a in forms.alpha], n, m, cleared=True)[0]
    free = (n - rank_a) * (n - rank_f)
    if len(components) == 1:
        return 1 + free
    rows: list[list] = []
    if rank_f < n:
        rows += _grouped_relations(forms.alpha, components, m)
    if rank_a < n:
        rows += _grouped_relations(forms.f, components, m)
    return len(components) - echelon(rows, len(components), m, cleared=True)[0] + free


def _grouped_relations(
    vectors: Sequence[Sequence], components: Sequence[set[int]], m: int | None
) -> list[list]:
    """sum_i r_i c_i v_i = 0 for each dependency r of vectors over
    Z[sqrt(m)], as rows over Z[sqrt(m)] in the one value of c per component.
    The dependencies are fractionfree.null_vectors of the transposed stack:
    nonzero multiples of its canonical null basis, which scale the rows."""
    return [
        [inner([r[i] for i in c], [vectors[i][t] for i in c], m) for c in components]
        for r in null_vectors(list(zip(*vectors)), len(vectors), m)
        for t in range(len(vectors[0]))
    ]


def connected_basis_subset(alphas: Sequence[Vector], graph: Graph) -> tuple[int, ...]:
    """Indices I with {alpha_i : i in I} a basis and the induced subgraph
    connected: the vectors cleared of denominators, then _basis_subset."""
    n = len(alphas[0])
    if any(len(a) != n for a in alphas):
        raise ValueError("ragged rows")
    m = field_of(x for a in alphas for x in a)
    return _basis_subset([clear(a, m)[0] for a in alphas], m, graph)


def _basis_subset(cleared: Sequence[Sequence], m: int | None, graph: Graph) -> tuple[int, ...]:
    """connected_basis_subset for vectors over Z[sqrt(m)], each a nonzero
    multiple of its alpha_i.

    Constructive: while the current vectors are dependent, pick a dependency
    with all-nonzero coefficients on its support, apply the deletion lemma to
    the support inside the current subgraph, and drop the returned vertex.
    Each stack's rank and the support of the first canonical dependency
    come from one reduction (first_null_support), and that support is the
    scalar vectors' own, since each vector is a multiple of its alpha_i.
    """
    n = len(cleared[0])
    rank, support = first_null_support(list(zip(*cleared)), len(cleared), m)
    if rank != n:
        raise NotSpanning("reflection vectors do not span the space")
    if not is_connected(graph):
        raise NotConnected("non-fixing graph must be connected")
    if graph.vertices != tuple(range(1, len(cleared) + 1)):
        raise ValueError("one vertex per vector expected")

    # vertex i is alpha_(i-1), so the first reduction is the spanning one above
    current = list(graph.vertices)
    while support:
        drop = deletable_vertex(induced(graph, current), [current[pos] for pos in support])
        current.remove(drop)
        stack = [cleared[i - 1] for i in current]
        _, support = first_null_support(list(zip(*stack)), len(stack), m)
    return tuple(current)


def _stacked_forms(refls: Sequence[ReflectionData]) -> Forms:
    """The reflections' primitive forms f^_i and alpha^_i stacked over one
    Z[sqrt(m)], a rational generator's ints lifted to pairs (x, 0) in a
    Q(sqrt(m)) representation; two radicands raise FieldMismatch.  The stacks
    are tuples, so an elimination, which reduces in place, takes copies."""
    forms = [r.forms for r in refls]
    m = None
    for x in forms:
        if x.m != m:
            m = merge_tags(m, x.m)
    return Forms(
        m,
        tuple([x.f if x.m == m else tuple(lift(x.f, m)) for x in forms]),
        tuple([x.alpha if x.m == m else tuple(lift(x.alpha, m)) for x in forms]),
    )


def _characters_separate(refls: Sequence[ReflectionData]) -> bool:
    """Every two degrees of equal dimension differ in the trace of some generator.

    For reflections of F^n (n >= 1, as recognition needs), C(n, a) = C(n,
    b) with a < b forces b = n - a, so 2a < n, and as tr(wedge^d s) =
    C(n-1, d) + lambda C(n-1, d-1) for a reflection s with eigenvalue
    lambda, tr(wedge^a s) - tr(wedge^(n-a) s) = (1 - lambda)(C(n-1, a) -
    C(n-1, a-1)), with C(n-1, -1) = 0.  A product in a field is nonzero
    exactly when both factors are, and the second never vanishes:
    C(n-1, a) = C(n-1, a-1) needs a + (a - 1) = n - 1, i.e. 2a = n.  The
    pair a = 0, b = n always occurs, so the degrees are separated exactly
    when some lambda_i != 1, which is S != 0 for lambda_i - 1 = S / L.
    """
    return any(r.shift[0] for r in refls)


def _claim5_trace(graph: Graph, subset: Sequence[int], d: int) -> ClaimFiveTrace:
    """Cover every d-subset of the certified set by explicit move sequences
    from a base.  verify_theorem has checked that the set induces a
    connected graph, and each chain is replayed once, validating every move
    and the goal while the before/after subsets are recorded."""
    members = sorted(subset)
    sub_graph = induced(graph, members)
    subsets = list(itertools.combinations(members, d))
    base = subsets[0]
    sequences: list[TraceSequence] = []
    for target in subsets[1:]:
        goal = set(target)
        cur = set(base)
        before = base
        steps: list[TraceStep] = []
        for st in move_chain(sub_graph, cur, goal):
            apply_move(cur, st, sub_graph)
            after = tuple(sorted(cur))
            steps.append(TraceStep(st.removed, st.added, before, after))
            before = after
        if cur != goal:
            raise InternalError("move sequence does not reach the goal subset")
        sequences.append(TraceSequence(target=target, steps=tuple(steps)))
    return ClaimFiveTrace(degree=d, base=base, sequences=tuple(sequences))


@lru_cache(maxsize=256)
def _degree_reports(n: int, size: int, degrees: tuple[int, ...]) -> tuple[DegreeReport, ...]:
    """The certified DegreeReports of a basis subset of this size in V of
    dimension n, without traces: they depend on nothing else, and are
    immutable, so every report shares them."""
    return tuple(
        DegreeReport(
            degree=d,
            space_dim=comb(n, d),
            commutant_dim=1,
            verdict="Simple",
            claim4_checked=comb(size, d),
            claim4_ok=True,
        )
        for d in degrees
    )


@lru_cache(maxsize=256)
def _identity_pattern(n: int) -> tuple[tuple[int, ...], ...]:
    """dim Hom(wedge^a V, wedge^b V) for a, b in 0..n once every degree is
    simple and no two are isomorphic: the identity."""
    return tuple(tuple(int(a == b) for b in range(n + 1)) for a in range(n + 1))


def _failed_hypothesis(hyp: HypothesisReport) -> Optional[Conclusion]:
    """The conclusion for the first of conditions 1, 4 and 3 that fails, or None."""
    if not hyp.condition1_ok:
        indices = ", ".join(f"{i} ({why})" for i, why in hyp.condition1_failures)
        return Conclusion("HypothesisFailed", f"condition1: generator(s) {indices}")
    if not hyp.condition4_holds:
        return Conclusion(
            "HypothesisFailed",
            "condition4: asymmetric fixing of reflection vectors",
            witness_pairs=hyp.condition4_violations,
        )
    if hyp.v_simple is None or hyp.graph is None or hyp.forms is None:
        raise InternalError("hypotheses passed without a condition-3 verdict, a graph or forms")
    if not hyp.v_simple.is_simple:
        return Conclusion(
            "HypothesisFailed",
            "condition3: base representation is reducible",
            witness_subspace=hyp.v_simple.witness,
        )
    return None


def verify_theorem(
    rep: Representation,
    *,
    trace: bool = False,
    degrees: Sequence[int] | None = None,
) -> TheoremReport:
    """Full pipeline; a failed hypothesis is a structured conclusion, never an
    exception (malformed requests like out-of-range degrees still raise).
    A certificate step that no input meeting every hypothesis can fail is an
    InternalError guard: character separation needs only some lambda_i != 1,
    and condition 1 refuses lambda_i = 1.

    Each exterior power is certified by the claim-5 lemma and non-isomorphy
    by comparing characters.  On a connected graph, the moves "swap i in I
    for a neighbour j not in I" connect all d-subsets, for every d (the
    constructive proof is graphs.move_chain, replayed under trace=True).
    An endomorphism of wedge^d V keeps every claim-4 line alpha_I and has
    equal coefficients on subsets one move apart, so one check that the
    basis subset S induces a connected graph makes End(wedge^d V) the
    scalars in every degree.  The step from scalar End to simple is the
    FromSimpleBase premise, which is sound in characteristic 0: the Zariski
    closure of a group acting irreducibly on V is reductive, so every
    wedge^d V is semisimple, and a semisimple module with scalar End is
    simple.  Schur's lemma then makes Hom between different degrees 0.

    S is all generators when k = n, the case of Steinberg's theorem
    (Endomorphisms of linear algebraic groups, 1968): the Simple verdict on
    V includes rank C = n, so the alphas are a basis, and the graph of a
    simple base is connected.  For k > n, connected_basis_subset picks S.  A
    simple base with either choice cannot give a disconnected S, so one is
    an InternalError.

    Claim 4 is certified by one rank.  For s_i = I + alpha_i f_i^T with
    eigenvalue lambda_i = 1 + f_i(alpha_i) != 1, V = F alpha_i (+) ker f_i, so
    the lambda_i-eigenspace of wedge^d s_i is alpha_i ^ wedge^(d-1) V.  For
    independent alpha_I the intersection of these eigenspaces over I is
    alpha_I ^ wedge^(d-|I|) V, the line spanned by alpha_I when |I| = d.  So
    rank(alpha_S) = |S| makes every one of the C(|S|, d) d-subsets of S a
    claim-4 line, in every degree at once; it is checked again here, on
    the alpha^ that check_hypotheses stacked, even where rank C = n already
    implies it.
    """
    n = rep.dim
    k = len(rep.generators)
    for d in degrees or ():
        _check_degree(n, d)
    hyp = check_hypotheses(rep)
    failed = _failed_hypothesis(hyp)
    if failed is not None:
        return TheoremReport(hypothesis=hyp, conclusion=failed)

    m, alphas = hyp.forms.m, hyp.forms.alpha
    if k == n:
        subset = hyp.graph.vertices
        connected = is_connected(hyp.graph)
    else:
        subset = _basis_subset(alphas, m, hyp.graph)
        alphas = [alphas[i - 1] for i in subset]
        connected = is_connected(induced(hyp.graph, subset))
    if not connected:
        raise InternalError("basis subset of a simple base induces a disconnected graph")
    if echelon([list(a) for a in alphas], n, m, cleared=True)[0] != len(subset):
        raise InternalError("connected basis subset is not independent")

    per_degree = _degree_reports(
        n, len(subset), tuple(sorted(set(degrees))) if degrees is not None else tuple(range(n + 1))
    )
    if trace:
        per_degree = tuple(
            r._replace(claim5_trace=_claim5_trace(hyp.graph, subset, r.degree)) for r in per_degree
        )

    if not _characters_separate(hyp.reflections):
        raise InternalError("characters do not separate two degrees of equal dimension")
    return TheoremReport(
        hypothesis=hyp,
        conclusion=Conclusion("TheoremVerified"),
        claim3_subset=subset,
        per_degree=per_degree,
        pairwise_hom=_identity_pattern(n),
        dim_filter_ok=True,
    )
