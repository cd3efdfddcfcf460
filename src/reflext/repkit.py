"""The generic toolkit on representations given by generator matrices
(`linalg.Representation`): exterior/dual/determinant-twist constructions, hom
spaces, the wedge-pairing duality, and simplicity certification.  The
certifier and `import reflext` do not load it.

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
    subspace_sum,
    unvec,
    wedge_index_sets,
)
from .scalars import QuadExt, Scalar
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


def spin(rep: Representation, seeds: Sequence[Vector], transpose: bool = False) -> Subspace:
    """Smallest generator-invariant subspace containing the seeds.

    With transpose=True the generators act by their transposes (dual module up
    to inverse, which spans the same invariant subspaces).
    """
    n = rep.dim
    gens = [g.transpose() if transpose else g for g in rep.generators]
    space = Subspace.span(seeds, n)
    queue = list(space.basis_vectors())
    while queue:
        v = queue.pop()
        for g in gens:
            w = g.apply(v)
            if not space.contains(w):
                space = subspace_sum(space, Subspace.span([w], n))
                queue.append(w)
    return space


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
        # skip scalar multiples of the identity
        diag = x[0, 0]
        if x == Matrix.identity(n).scale(diag):
            continue
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


def _word_matrices(rep: Representation, max_length: int) -> list[Matrix]:
    """Distinct matrices of generator words up to the given length, short words first."""
    seen = {Matrix.identity(rep.dim)}
    frontier = [Matrix.identity(rep.dim)]
    out: list[Matrix] = []
    for _ in range(max_length):
        new_frontier = []
        for w in frontier:
            for g in rep.generators:
                m = w @ g
                if m not in seen:
                    seen.add(m)
                    new_frontier.append(m)
                    out.append(m)
        frontier = new_frontier
    return out


def simplicity(rep: Representation) -> SimplicityVerdict:
    """Certify simplicity or produce a reducibility witness.

    Runs a spin-up search: kernels of non-scalar commutant elements, standard
    basis seeds, kernels of (word - mu*I) for words up to length 4 with mu
    extracted from the characteristic polynomial, and their transposed (dual)
    counterparts.  A nullity-one kernel whose primal and dual spin-ups both
    fill the space is a rigorous irreducibility certificate.  A search that
    ends without a certificate or a witness is Inconclusive, whatever the
    commutant dimension: commutant dimension 1 alone does not rule out a
    submodule.
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

    # kernels of commutant elements are submodules
    if cdim > 1:
        witness = _witness_from_commutant(rep, commutant)
        if witness is not None:
            return reducible(witness, "commutant-kernel")

    basis_seeds = [
        tuple(Fraction(1) if i == j else Fraction(0) for i in range(n)) for j in range(n)
    ]
    for seed in basis_seeds:
        grown = spin(rep, [seed])
        if grown.dim < n:
            return reducible(grown, "spin-basis")

    field_m = rep.field()
    for word in _word_matrices(rep, 4):
        for mu in _roots_in_field(charpoly(word), field_m):
            shifted = word - Matrix.identity(n).scale(mu)
            ker = kernel(shifted)
            if ker.dim == n:
                continue  # word is scalar
            for v in ker.basis_vectors():
                grown = spin(rep, [v])
                if grown.dim < n:
                    return reducible(grown, "spin-eigen")
            if ker.dim == 1:
                dual_ker = kernel(shifted.transpose())
                dual_grown = spin(rep, dual_ker.basis_vectors(), transpose=True)
                if dual_grown.dim < n:
                    return reducible(dual_grown.perp(), "dual-spin-eigen")
                # nullity-one kernel, primal and dual spin both fill the space:
                # no proper submodule can exist (Norton's criterion)
                return SimplicityVerdict("Simple", cdim, method="norton")
    for seed in basis_seeds:
        dual_grown = spin(rep, [seed], transpose=True)
        if dual_grown.dim < n:
            return reducible(dual_grown.perp(), "dual-spin-basis")
    return SimplicityVerdict("Inconclusive", cdim, method="search-exhausted")
