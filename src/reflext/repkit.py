"""The generic toolkit on representations given by generator matrices
(`linalg.Representation`): exterior/dual/determinant-twist constructions, hom
spaces, the wedge-pairing duality, and the generic simplicity decision from
the algebra the generators span.  The certifier and `import reflext` do not
load it.

Groups are never enumerated; intertwining with the generators is equivalent to
intertwining with every word, which keeps infinite groups (e.g. infinite
dihedral) in scope.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from .errors import InternalError, LengthMismatch
from .exterior import compound
from .fractionfree import clear, extend_echelon, field_of
from .linalg import (
    Matrix,
    Representation,
    Subspace,
    Vector,
    _check_degree,
    _invertible_rep,
    charpoly,
    kernel,
    solve_intertwiner,
    unvec,
    wedge_index_sets,
)
from .scalars import QuadExt, Scalar, merge_tags
from .theoremlab import SimplicityVerdict


def exterior_rep(rep: Representation, d: int) -> Representation:
    """Generators replaced by their d-th compounds; dimension C(n, d).

    det C_d(g) = det(g)^C(n-1, d-1), so the compounds of the invertible
    generators are invertible and are not ranked again.
    """
    _check_degree(rep.dim, d)
    return _invertible_rep([compound(g, d) for g in rep.generators], rep.labels)


def dual_rep(rep: Representation) -> Representation:
    """Inverse-transpose generators."""
    return _invertible_rep([g.inverse().transpose() for g in rep.generators], rep.labels)


def det_twist(rep: Representation, det_source: Representation) -> Representation:
    """Multiply each generator by the determinant of the corresponding det_source generator."""
    if len(rep.generators) != len(det_source.generators):
        raise LengthMismatch("det twist needs matching generator lists")
    return _invertible_rep(
        [g.scale(h.det()) for g, h in zip(rep.generators, det_source.generators)],
        rep.labels,
    )


def hom_dim(left: Representation, right: Representation) -> int:
    if len(left.generators) != len(right.generators):
        raise LengthMismatch("hom space needs matching generator lists")
    return solve_intertwiner(list(left.generators), list(right.generators)).dim


def _complement_sign(k_set: tuple[int, ...], j_set: tuple[int, ...]) -> Scalar:
    """Sign of e_K ^ e_J relative to e_0 ^ ... ^ e_{n-1} for complementary K, J."""
    inversions = sum(1 for a in k_set for b in j_set if a > b)
    return Fraction(-1) ** inversions


def duality_intertwiner(rep: Representation, d: int) -> Matrix:
    """Matrix of u -> (u ^ .) pairing the (n-d)-th power against the d-th.

    Rows are indexed by d-subsets (dual coordinates), columns by (n-d)-subsets;
    entry (J, K) is the coefficient of e_K ^ e_J on the top wedge.  Satisfies
    phi @ compound(g, n-d) == det(g) * compound(g, d)^{-T} @ phi exactly for
    every generator g.
    """
    n = rep.dim
    _check_degree(n, d)
    rows = wedge_index_sets(n, d)
    cols = wedge_index_sets(n, n - d)
    entries: list[Scalar] = []
    for j_set in rows:
        j_elems = set(j_set)
        for k_set in cols:
            if j_elems & set(k_set):
                entries.append(Fraction(0))
            else:
                entries.append(_complement_sign(k_set, j_set))
    return Matrix(comb(n, d), comb(n, n - d), entries)


def _closure(seeds: Sequence[Matrix], maps: Sequence, m: int | None, cap: int) -> list[Matrix]:
    """A basis of the smallest space containing the seeds and closed under
    the linear maps, or its first `cap` elements.  Breadth-first, a seed or
    an image of a kept element is kept only when its entries are independent
    of the kept ones, by one incremental reduction (`extend_echelon`)."""
    reduced: list = []
    kept = [x for x in seeds if extend_echelon(reduced, clear(x.entries, m)[0], m)]
    for x in kept:  # kept grows while it is walked
        for f in maps:
            if len(kept) >= cap:
                return kept
            y = f(x)
            if extend_echelon(reduced, clear(y.entries, m)[0], m):
                kept.append(y)
    return kept


def spin(rep: Representation, seeds: Sequence[Vector]) -> Subspace:
    """Smallest generator-invariant subspace containing the seeds."""
    n = rep.dim
    columns = [Matrix(n, 1, v) for v in seeds]
    m = merge_tags(rep.field(), field_of(e for c in columns for e in c.entries))
    kept = _closure(columns, [g.__matmul__ for g in rep.generators], m, n)
    return Subspace.span([c.entries for c in kept], n)


def is_invariant(rep: Representation, space: Subspace) -> bool:
    """True iff every generator maps the subspace into itself."""
    return all(
        space.contains(g.apply(v)) for g in rep.generators for v in space.basis_vectors()
    )


def _witness_from_commutant(rep: Representation, commutant: Subspace) -> Optional[Subspace]:
    """Proper invariant subspace from a non-scalar commutant element, if a field
    eigenvalue exists (kernels of commutant elements are submodules)."""
    n = rep.dim
    field_m = rep.field()
    candidates = [unvec(v, n, n) for v in commutant.basis_vectors()]
    candidates += [a + b for a, b in itertools.combinations(candidates, 2)]
    for x in candidates:
        if x == Matrix.identity(n).scale(x[0, 0]):
            continue  # a scalar
        for mu in _roots_in_field(charpoly(x), field_m):
            ker = kernel(x - Matrix.identity(n).scale(mu))
            if 0 < ker.dim < n:
                if not is_invariant(rep, ker):
                    raise InternalError("kernel of a commutant element is not invariant")
                return ker
    return None


def _roots_in_field(coeffs: Sequence[Scalar], m: int | None) -> list[Scalar]:
    """Distinct roots, inside Q (m None) or Q(sqrt(m)), of sum coeffs[i] * x^(n-i).

    sympy factors the polynomial over the field; roots outside it cannot
    seed exact eigenvector searches and are dropped.  sympy is imported
    here, so the certification pipeline and the command line never load it.
    """
    import sympy

    x = sympy.symbols("x")
    n = len(coeffs) - 1
    expr = sympy.Integer(0)
    for i, c in enumerate(coeffs):
        if isinstance(c, QuadExt):
            term = sympy.Rational(c.a) + sympy.Rational(c.b) * sympy.sqrt(c.m)
        else:
            term = sympy.Rational(c)
        expr += term * x ** (n - i)
    if m is None:
        poly = sympy.Poly(expr, x, domain="QQ")
    else:
        poly = sympy.Poly(expr, x, extension=sympy.sqrt(m))
    roots: list[Scalar] = []
    for factor, _mult in poly.factor_list()[1]:
        if factor.degree() != 1:
            continue
        c1, c0 = factor.all_coeffs()
        root = _from_sympy(-sympy.sympify(c0) / sympy.sympify(c1), m)
        if root is not None and root not in roots:
            roots.append(root)
    return roots


def _from_sympy(expr, m: int | None) -> Scalar | None:
    """A sympy number as a Scalar in Q (m is None) or Q(sqrt(m)); None if outside."""
    import sympy

    e = sympy.expand(sympy.radsimp(sympy.nsimplify(expr)))
    if e.is_Rational:
        return Fraction(int(e.p), int(e.q))
    if m is None:
        return None
    b = e.coeff(sympy.sqrt(m))
    a = sympy.expand(e - b * sympy.sqrt(m))
    if a.is_Rational and b.is_Rational:
        return QuadExt(Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q)), m)
    return None


def _algebra_basis(rep: Representation) -> list[Matrix]:
    """Words in the generators forming a basis of the algebra A they span,
    the identity first and shorter words before longer ones; n^2 words when
    A = End(F^n).  A word w is followed by the words w @ g."""
    maps = [lambda w, g=g: w @ g for g in rep.generators]
    return _closure([Matrix.identity(rep.dim)], maps, rep.field(), rep.dim**2)


def simplicity(rep: Representation) -> SimplicityVerdict:
    """Decide simplicity of W = F^n from the algebra A the generator words span.

    If A = End(W), W is absolutely simple (Burnside's theorem), and the n^2
    words of `_algebra_basis` are the certificate.  Otherwise, in
    characteristic 0, rad A is the radical of the trace form tr(xy) on A
    (Dickson's criterion), and a nonzero r in it spins a nonzero column r e_j
    into a submodule inside rad(A) W != W.  With rad A = 0, W is semisimple
    and A != End(W), so End_A(W) != F: a field eigenvalue of a commutant
    element gives a witness, and without one the verdict is Inconclusive.
    """
    n = rep.dim
    commutant = solve_intertwiner(list(rep.generators), list(rep.generators))
    cdim = commutant.dim

    def reducible(witness: Subspace, method: str) -> SimplicityVerdict:
        if not (0 < witness.dim < n and is_invariant(rep, witness)):
            raise InternalError(f"{method} produced no proper invariant subspace")
        return SimplicityVerdict("Reducible", cdim, witness=witness, method=method)

    if n == 1:
        return SimplicityVerdict("Simple", cdim, method="dimension-one")
    words = _algebra_basis(rep)
    if len(words) == n * n:
        if cdim != 1:
            raise InternalError("words span End(F^n) but the commutant is not the scalars")
        return SimplicityVerdict("Simple", cdim, method="burnside")
    # T_ij = tr(w_i w_j) = vec(w_i) . vec(w_j^T)
    flat = Matrix._of(len(words), n * n, tuple([e for w in words for e in w.entries]))
    columns = tuple([w[b, a] for a in range(n) for b in range(n) for w in words])
    radical = kernel(flat @ Matrix._of(n * n, len(words), columns))
    if radical.dim:
        r = unvec((Matrix._of(1, len(words), radical.basis.row(0)) @ flat).entries, n, n)
        seed = next(r.col(j) for j in range(n) if any(r.col(j)))
        return reducible(spin(rep, [seed]), "trace-radical")
    if cdim == 1:
        raise InternalError("words short of End(F^n) with a zero radical, but scalar commutant")
    witness = _witness_from_commutant(rep, commutant)
    if witness is not None:
        return reducible(witness, "commutant-kernel")
    return SimplicityVerdict("Inconclusive", cdim, method="no-field-eigenvalue")
