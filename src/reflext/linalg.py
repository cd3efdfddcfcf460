"""Dense exact linear algebra over Q or Q(sqrt(m)).

Matrices are immutable, stored row-major as tuples of exact scalars.  A
Subspace is identified with its canonical reduced-row-echelon basis (zero rows
dropped), so subspace equality is literal matrix equality.  A Representation
is a dimension plus labeled invertible generator matrices.

Every canonical basis (rref, kernel, Subspace.span, the intertwiner
solver) and every rank and determinant comes from the fraction-free kernel
of `reflext.fractionfree`: the rows are cleared into Z[sqrt(m)], and RREF
bases are read off its one Gauss-Jordan reduction.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import AmbientMismatch, BadDegree, EmptyGeneratorList, LengthMismatch, SingularMatrix
from .fractionfree import (
    clear,
    difference,
    echelon,
    field_of,
    inner,
    null_space,
    row_space,
    to_scalar,
)
from .scalars import QuadExt, Scalar, as_scalar

Vector = tuple[Scalar, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def vector(entries: Iterable) -> Vector:
    return tuple(as_scalar(e) for e in entries)


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    """u . v, by fractionfree: both vectors cleared into Z[sqrt(m)], their
    inner product there, and one scalar over the product of the two lcms.

    So the result is a QuadExt exactly when some entry is one, as a fold of
    `+` and `*` would give, and entries from two quadratic fields raise
    FieldMismatch.
    """
    if len(u) != len(v):
        raise LengthMismatch("dot product of vectors of different lengths")
    m = field_of(itertools.chain(u, v))
    left, d = clear(u, m)
    right, e = clear(v, m)
    return to_scalar(inner(left, right, m), d * e, m)


class Matrix:
    """Immutable dense exact matrix.

    The public constructor converts and checks every entry; the private
    `_of` takes a tuple of entries the package computed itself, already
    Fraction or QuadExt and of the right length."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        self.rows = rows
        self.cols = cols
        self.entries = tuple(as_scalar(e) for e in entries)
        if len(self.entries) != rows * cols:
            raise ValueError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def _of(cls, rows: int, cols: int, entries: tuple) -> "Matrix":
        """A matrix on entries from the package's own exact routines, unchecked."""
        matrix = object.__new__(cls)
        matrix.rows = rows
        matrix.cols = cols
        matrix.entries = entries
        return matrix

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, [e for row in rows for e in row])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(n, n, tuple([_ONE if i == j else _ZERO for i in range(n) for j in range(n)]))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls._of(rows, cols, (_ZERO,) * (rows * cols))

    def __getitem__(self, ij: tuple[int, int]) -> Scalar:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self) -> list[list[Scalar]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def field(self) -> int | None:
        return field_of(self.entries)

    def transpose(self) -> "Matrix":
        columns = [self.entries[j :: self.cols] for j in range(self.cols)]
        return Matrix._of(self.cols, self.rows, tuple([e for column in columns for e in column]))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LengthMismatch("matrix addition shape mismatch")
        return Matrix._of(
            self.rows, self.cols, tuple([a + b for a, b in zip(self.entries, other.entries)])
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LengthMismatch("matrix subtraction shape mismatch")
        return Matrix._of(
            self.rows, self.cols, tuple([a - b for a, b in zip(self.entries, other.entries)])
        )

    def __neg__(self) -> "Matrix":
        return Matrix._of(self.rows, self.cols, tuple([-a for a in self.entries]))

    def scale(self, c) -> "Matrix":
        c = as_scalar(c)
        return Matrix._of(self.rows, self.cols, tuple([c * a for a in self.entries]))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise LengthMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # dot with each row and column cleared once; over Q(sqrt(m)), a
        # rational row times a rational column is a Fraction, as dot gives
        m = field_of(self.entries + other.entries)
        columns = []
        for j in range(other.cols):
            c = other.entries[j :: other.cols]
            rational = m is not None and QuadExt not in set(map(type, c))
            columns.append((*clear(c, m), [t for t, x in enumerate(c) if x], rational))
        out = []
        for i in range(self.rows):
            row = self.row(i)
            r, d = clear(row, m)
            rational_row = QuadExt not in set(map(type, row))
            for c, e, support, rational_column in columns:
                x = to_scalar(inner(r, c, m, support), d * e, m)
                out.append(x.a if rational_row and rational_column else x)
        return Matrix._of(self.rows, other.cols, tuple(out))

    def apply(self, v: Sequence[Scalar]) -> Vector:
        """Matrix times column vector, by @ on v as one column, cleared once;
        the column never leaves this call."""
        if self.cols != len(v):
            raise LengthMismatch("matrix/vector size mismatch")
        return (self @ Matrix._of(len(v), 1, tuple(v))).entries

    def trace(self) -> Scalar:
        """Sum of the diagonal, by dot's one normalization."""
        if self.rows != self.cols:
            raise LengthMismatch("trace of non-square matrix")
        return dot(self.entries[:: self.cols + 1], (1,) * self.rows)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        return Matrix._of(
            len(row_idx),
            len(col_idx),
            tuple([self.entries[i * self.cols + j] for i in row_idx for j in col_idx]),
        )

    def stack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise LengthMismatch("vertical stack needs equal column counts")
        return Matrix._of(self.rows + other.rows, self.cols, self.entries + other.entries)

    def augment(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise LengthMismatch("augment needs equal row counts")
        out = []
        for i in range(self.rows):
            out.extend(self.row(i))
            out.extend(other.row(i))
        return Matrix._of(self.rows, self.cols + other.cols, tuple(out))

    def det(self) -> Scalar:
        """Determinant after one fraction-free reduction, zero below full rank:
        a QuadExt exactly when some entry is one, a Fraction otherwise."""
        if self.rows != self.cols:
            raise LengthMismatch("determinant of non-square matrix")
        n = self.rows
        m = field_of(self.entries)
        rank, pivot, sign, scale = echelon([self.row(i) for i in range(n)], n, m)
        return to_scalar(pivot if rank == n else 0, sign * scale, m)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise LengthMismatch("inverse of non-square matrix")
        n = self.rows
        reduced, rank = rref(self.augment(Matrix.identity(n)))
        if rank < n or any(reduced[i, i] != 1 for i in range(n)):
            raise SingularMatrix("matrix is not invertible")
        return reduced.submatrix(range(n), range(n, 2 * n))

    def is_zero(self) -> bool:
        return all(not e for e in self.entries)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(a == b for a, b in zip(self.entries, other.entries))
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        from .scalars import render_scalar

        body = "; ".join(
            " ".join(render_scalar(e) for e in self.row(i)) for i in range(self.rows)
        )
        return f"Matrix[{body}]"


class Representation:
    """Dimension plus an ordered list of labeled invertible generator matrices.

    Two representations are equal when their generators and labels are."""

    __slots__ = ("dim", "generators", "labels")

    def __init__(self, generators: Sequence[Matrix], labels: Sequence[str] | None = None):
        gens = tuple(generators)
        if not gens:
            raise EmptyGeneratorList("a representation needs at least one generator")
        n = gens[0].rows
        for g in gens:
            if g.rows != g.cols or g.rows != n:
                raise LengthMismatch("generators must be square matrices of one size")
            if rank(g) < n:
                raise SingularMatrix("generators must be invertible")
        if labels is None:
            labels = tuple(f"s{i + 1}" for i in range(len(gens)))
        else:
            labels = tuple(labels)
            if len(labels) != len(gens):
                raise LengthMismatch("one label per generator")
        self.dim: int = n
        self.generators: tuple[Matrix, ...] = gens
        self.labels: tuple[str, ...] = labels

    def _key(self) -> tuple:
        return (self.dim, self.generators, self.labels)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Representation(dim={!r}, generators={!r}, labels={!r})".format(*self._key())

    def field(self) -> int | None:
        return field_of(e for g in self.generators for e in g.entries)

    def conjugate(self, p: Matrix) -> "Representation":
        p_inv = p.inverse()
        return _invertible_rep([p @ g @ p_inv for g in self.generators], self.labels)

    def permute(self, order: Sequence[int]) -> "Representation":
        if not order:
            raise EmptyGeneratorList("a representation needs at least one generator")
        return _invertible_rep(
            [self.generators[i] for i in order], tuple(self.labels[i] for i in order)
        )


def _invertible_rep(generators: Sequence[Matrix], labels: tuple[str, ...]) -> Representation:
    """A Representation of square generators of one size, known to be
    invertible, with one label each: built without Representation's checks.

    Every derived representation is built here: a conjugate, reordering,
    inverse transpose, nonzero multiple or compound of an invertible matrix
    is invertible, so its generators are not ranked again."""
    rep = object.__new__(Representation)
    rep.dim = generators[0].rows
    rep.generators = tuple(generators)
    rep.labels = labels
    return rep


def rref(matrix: Matrix) -> tuple[Matrix, int]:
    """Canonical reduced row echelon form and rank."""
    m = matrix.field()
    basis = row_space(_cleared(matrix.row_list(), m), matrix.cols, m)
    zeros = [_ZERO] * ((matrix.rows - len(basis)) * matrix.cols)
    entries = tuple([e for row in basis for e in row] + zeros)
    return Matrix._of(matrix.rows, matrix.cols, entries), len(basis)


def _cleared(rows: Iterable[Sequence[Scalar]], m: int | None) -> list[list]:
    """Each row over Z[sqrt(m)], times the lcm of its denominators: scaling a
    row keeps the row space and the null space."""
    return [clear(row, m)[0] for row in rows]


def rank(matrix: Matrix) -> int:
    """Rank by the fraction-free kernel."""
    return row_rank([matrix.row(i) for i in range(matrix.rows)], matrix.cols)


def row_rank(rows: Sequence[Sequence[Scalar]], cols: int) -> int:
    """Rank of the matrix with these rows, by the fraction-free kernel."""
    if any(len(row) != cols for row in rows):
        raise ValueError("ragged rows")
    m = field_of(itertools.chain.from_iterable(rows))
    return echelon(list(rows), cols, m)[0]


class Subspace(NamedTuple):
    """Subspace of F^ambient_dim, identified with its canonical RREF basis."""

    ambient_dim: int
    basis: Matrix

    @classmethod
    def span(cls, vectors: Iterable[Sequence], ambient_dim: int) -> "Subspace":
        rows = [vector(v) for v in vectors]
        if any(len(r) != ambient_dim for r in rows):
            raise AmbientMismatch("spanning vector of wrong length")
        m = field_of(itertools.chain.from_iterable(rows))
        return _canonical_subspace(row_space(_cleared(rows, m), ambient_dim, m), ambient_dim)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return _canonical_subspace([], ambient_dim)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_vectors(self) -> list[Vector]:
        return [self.basis.row(i) for i in range(self.dim)]

    def contains(self, v: Sequence[Scalar]) -> bool:
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector of wrong length")
        residual = list(as_scalar(x) for x in v)
        for i in range(self.dim):
            row = self.basis.row(i)
            pivot = next(j for j in range(self.ambient_dim) if row[j])
            if residual[pivot]:
                c = residual[pivot]
                residual = [x - c * y for x, y in zip(residual, row)]
        return all(not x for x in residual)

    def perp(self) -> "Subspace":
        """Annihilator: all c with <c, v> = 0 for every v in the subspace."""
        return kernel(self.basis)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient_dim})"


def _canonical_subspace(basis: Sequence[Sequence[Scalar]], ambient_dim: int) -> Subspace:
    """The Subspace of F^ambient_dim whose canonical RREF basis is these rows."""
    entries = tuple([e for v in basis for e in v])
    return Subspace(ambient_dim, Matrix._of(len(basis), ambient_dim, entries))


def kernel(matrix: Matrix) -> Subspace:
    """Exact null space {x : M x = 0} as a canonical Subspace of F^cols."""
    m = matrix.field()
    basis = null_space(_cleared(matrix.row_list(), m), matrix.cols, m)
    return _canonical_subspace(basis, matrix.cols)


def image(matrix: Matrix) -> Subspace:
    """Exact column space as a canonical Subspace of F^rows."""
    return Subspace.span(
        [matrix.col(j) for j in range(matrix.cols)], matrix.rows
    )


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of stacked dual constraints."""
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch("subspaces live in different ambient spaces")
    constraints = a.perp().basis.stack(b.perp().basis)
    return kernel(constraints)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch("subspaces live in different ambient spaces")
    return Subspace.span(a.basis_vectors() + b.basis_vectors(), a.ambient_dim)


def intersect_all(spaces: Sequence[Subspace], ambient_dim: int | None = None) -> Subspace:
    """Intersection of a family; the empty family gives the full space."""
    spaces = list(spaces)
    if not spaces:
        if ambient_dim is None:
            raise ValueError("empty intersection needs an explicit ambient dimension")
        return Subspace.full(ambient_dim)
    result = spaces[0]
    for s in spaces[1:]:
        result = intersect(result, s)
    return result


def solve_intertwiner(
    gens_left: Sequence[Matrix], gens_right: Sequence[Matrix]
) -> Subspace:
    """All X with X @ L_i == R_i @ X, as a subspace of the row-major vec(X) space.

    X is shaped (right dim) x (left dim); the result's dimension is
    dim Hom(left module, right module).  The system is built over
    Z[sqrt(m)]: each pair (L, R) is cleared over one common denominator,
    which scales its equations and keeps the kernel.
    """
    if not gens_left or not gens_right:
        raise EmptyGeneratorList("intertwiner system needs at least one generator pair")
    if len(gens_left) != len(gens_right):
        raise LengthMismatch("generator lists differ in length")
    n_l = gens_left[0].rows
    n_r = gens_right[0].rows
    for g in gens_left:
        if g.rows != g.cols or g.rows != n_l:
            raise LengthMismatch("left generators must be square and same-sized")
    for g in gens_right:
        if g.rows != g.cols or g.rows != n_r:
            raise LengthMismatch("right generators must be square and same-sized")

    m = field_of(e for g in (*gens_left, *gens_right) for e in g.entries)
    unknowns = n_r * n_l
    equations = []
    for left, right in zip(gens_left, gens_right):
        cleared, _ = clear(left.entries + right.entries, m)
        lt = [cleared[b : n_l * n_l : n_l] for b in range(n_l)]  # rows of L~^T
        r = cleared[n_l * n_l :]
        neg_r = [difference(0, x, m) for x in r]
        for a in range(n_r):
            for b in range(n_l):
                # (X L)[a, b] - (R X)[a, b] = 0: L~^T row b in block a, -R~ row a at stride n_l
                row = [0] * unknowns
                row[a * n_l : (a + 1) * n_l] = lt[b]
                row[b :: n_l] = neg_r[a * n_r : (a + 1) * n_r]
                row[a * n_l + b] = difference(lt[b][b], r[a * n_r + a], m)
                equations.append(row)
    return _canonical_subspace(null_space(equations, unknowns, m), unknowns)


def unvec(flat: Sequence[Scalar], rows: int, cols: int) -> Matrix:
    """Inverse of the row-major vectorization used by solve_intertwiner."""
    return Matrix(rows, cols, list(flat))


def charpoly(matrix: Matrix) -> list[Scalar]:
    """Monic characteristic polynomial coefficients [1, c1, ..., cn]
    via the Faddeev-LeVerrier recursion (valid in characteristic 0)."""
    if matrix.rows != matrix.cols:
        raise LengthMismatch("characteristic polynomial of non-square matrix")
    n = matrix.rows
    coeffs: list[Scalar] = [_ONE]
    mk = matrix
    for k in range(1, n + 1):
        ck = -(mk.trace() / Fraction(k))
        coeffs.append(ck)
        if k < n:
            mk = matrix @ (mk + Matrix.identity(n).scale(ck))
    return coeffs


def _check_degree(n: int, d: int) -> None:
    if d < 0 or d > n:
        raise BadDegree(f"degree {d} outside 0..{n}")


def wedge_index_sets(n: int, d: int) -> list[tuple[int, ...]]:
    """Lexicographically ordered d-subsets of range(n): coordinate order of the d-th exterior power."""
    return list(itertools.combinations(range(n), d))
