"""Fraction-free elimination over Z[sqrt(m)]: the kernel behind linalg's
rank, det, rref, kernel and Hom system, the rank-one test of a reflection,
the Cartan-matrix checks and the canonical bases of a reducible base's
witness and dependencies.  `echelon` and `gauss_jordan` are two views of
one Bareiss loop, and `gauss_jordan` gives the package's one canonical RREF.

A row of scalars is multiplied by the lcm of its denominators, which puts it
in Z[sqrt(m)] (Z over Q), and rows are reduced by Bareiss elimination on
Python ints.  An element a + b*sqrt(m) of Z[sqrt(m)] is an int over Q (m is
None) and the pair (a, b) of ints over Q(sqrt(m)), except that zero is the
int 0 in both: truthiness is then the zero test for scalars and cleared
entries alike.  A scalar handed back is a Fraction or a QuadExt, and
`null_vectors` leaves its null vectors in Z[sqrt(m)].

This module is the one home of that format.  Elements enter by `clear`,
`integer` and `lift`, are combined by `inner`, `times`, `difference`,
`primitive` and the eliminations, and leave as scalars by `to_scalar` and
`quotient`; other modules compare, test and pass them on, and never build,
unpack or index a pair.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .errors import InternalError
from .scalars import QuadExt, Scalar, _quad, merge_tags

_ZERO = Fraction(0)
_ONE = Fraction(1)


def pairing_pattern(
    left: Sequence[Sequence], right: Sequence[Sequence], m: int | None
) -> tuple[list[list[bool]], int]:
    """Zero pattern and rank of the matrix P_ij = left_i . right_j.

    The vectors are over Z[sqrt(m)]: scalar vectors scaled by nonzero
    scalars into Z[sqrt(m)], as theoremlab keeps each f and alpha.  The
    products G_ij = l_i . r_j form P with row i and column j so scaled, so
    G has P's zero pattern and rank.  Each product runs over the support of
    its right factor, inline over Z and by inner over Z[sqrt(m)].
    """
    supports = [[t for t, x in enumerate(r) if x] for r in right]
    if m is None:
        gram = [
            [sum([l_vec[t] * r_vec[t] for t in support]) for r_vec, support in zip(right, supports)]
            for l_vec in left
        ]
    else:
        gram = [
            [inner(l_vec, r_vec, m, support) for r_vec, support in zip(right, supports)]
            for l_vec in left
        ]
    pattern = [[bool(x) for x in row] for row in gram]
    return pattern, echelon(gram, len(right), m, cleared=True)[0]


def inner(left: Sequence, right: Sequence, m: int | None, support: Iterable[int] | None = None):
    """left . right in Z[sqrt(m)] for vectors over Z[sqrt(m)], summed over
    the support of right: the coordinates t with right_t != 0, or `support`
    when a caller already holds them."""
    if support is None:
        support = [t for t, x in enumerate(right) if x]
    if m is None:
        return sum([left[t] * right[t] for t in support])
    u = v = 0
    for t in support:
        x = left[t]
        if x:
            a, b = x
            c, e = right[t]
            u += a * c + m * b * e
            v += a * e + b * c
    return (u, v) if u or v else 0


def field_of(entries: Iterable[Scalar]) -> int | None:
    """The radicand m of the QuadExt entries, None if there are none.

    Entries from different quadratic fields raise FieldMismatch.
    """
    entries = tuple(entries)
    if QuadExt not in set(map(type, entries)):
        return None
    m = None
    for tag in {x.m for x in entries if type(x) is QuadExt}:
        m = merge_tags(m, tag)
    return m


def clear(row: Sequence[Scalar], m: int | None) -> tuple[list, int]:
    """The row over Z[sqrt(m)] times the lcm of its denominators, and that lcm."""
    if m is None:
        ratios = [x.as_integer_ratio() for x in row]
        den = lcm(*[b for _, b in ratios])
        return [a * (den // b) for a, b in ratios], den
    # (a, d, b, e) with x = a / d + (b / e) sqrt(m)
    parts = [
        (*x.a.as_integer_ratio(), *x.b.as_integer_ratio())
        if type(x) is QuadExt
        else (*x.as_integer_ratio(), 0, 1)
        for x in row
    ]
    den = lcm(*[d for _, d, _, _ in parts], *[e for _, _, _, e in parts])
    out: list = []
    for a, d, b, e in parts:
        u = a * (den // d)
        v = b * (den // e)
        out.append((u, v) if u or v else 0)
    return out, den


def to_scalar(z, den: int, m: int | None) -> Scalar:
    """The scalar z / den for z in Z[sqrt(m)] and a nonzero int den."""
    if m is None:
        return Fraction(z, den)
    a, b = z or (0, 0)
    return _quad(Fraction(a, den), Fraction(b, den), m)


def integer(k: int, m: int | None):
    """The int k as an element of Z[sqrt(m)]."""
    return (k, 0) if m is not None and k else k


def lift(row: Iterable[int], m: int | None) -> list:
    """A row over Z as a fresh list over Z[sqrt(m)]."""
    return list(row) if m is None else [(x, 0) if x else 0 for x in row]


def times(x, y, m: int | None):
    """x y in Z[sqrt(m)]."""
    if m is None:
        return x * y
    if not x or not y:
        return 0
    a, b = x
    c, e = y
    return a * c + m * b * e, a * e + b * c


def primitive(v: tuple, m: int | None) -> tuple:
    """A nonzero vector over Z[sqrt(m)] over the gcd of its integer components."""
    if m is None:
        g = gcd(*v)
        return tuple(x // g for x in v) if g != 1 else v
    g = gcd(*[gcd(*x) for x in v if x])
    return tuple((x[0] // g, x[1] // g) if x else 0 for x in v) if g != 1 else v


def quotient(z, d, m: int | None) -> Scalar:
    """The scalar z / d for z and a nonzero d in Z[sqrt(m)]: z times the
    conjugate of d, over the norm of d."""
    if m is None:
        return Fraction(z, d)
    a, b = z or (0, 0)
    c, e = d
    return to_scalar((a * c - m * b * e, b * c - a * e), c * c - m * e * e, m)


def difference(x, y, m: int | None):
    """x - y in Z[sqrt(m)]."""
    if m is None:
        return x - y
    a, b = x or (0, 0)
    c, e = y or (0, 0)
    return (a - c, b - e) if a != c or b != e else 0


def combine(row: list, p, q, other: list, d, columns: range, m: int | None) -> None:
    """row[j] = (p row[j] - q other[j]) / d in Z[sqrt(m)] for j in columns.

    The division must be exact; a remainder is an InternalError.
    """
    if m is None:
        for j in columns:
            x = p * row[j] - q * other[j]
            if d != 1:
                x, rem = divmod(x, d)
                if rem:
                    raise InternalError("inexact division in fraction-free elimination")
            row[j] = x
        return
    p1, p2 = p
    q1, q2 = q or (0, 0)
    d1, d2 = d
    # (u + v sqrt m) / d = (u + v sqrt m)(d1 - d2 sqrt m) / (d1^2 - m d2^2)
    divisor = d1 * d1 - m * d2 * d2 if d2 else d1
    for j in columns:
        a, b = row[j] or (0, 0)
        c, e = other[j] or (0, 0)
        u = p1 * a + m * (p2 * b - q2 * e) - q1 * c
        v = p1 * b + p2 * a - q1 * e - q2 * c
        if d2:
            u, v = u * d1 - m * v * d2, v * d1 - u * d2
        if divisor != 1:
            u, rem_u = divmod(u, divisor)
            v, rem_v = divmod(v, divisor)
            if rem_u or rem_v:
                raise InternalError("inexact division in fraction-free elimination")
        row[j] = (u, v) if u or v else 0


def echelon(
    rows: list, cols: int, m: int | None, cleared: bool = False
) -> tuple[int, object, int, int]:
    """Fraction-free row echelon form over Z[sqrt(m)] (Bareiss 1968).

    `rows` holds rows of scalars, or with `cleared` rows over Z[sqrt(m)];
    it is reduced in place, by `_bareiss` with no row above a pivot touched.
    Returns the rank, the last pivot, the sign of the row permutation and
    the product of the row scales: for a square matrix of full rank, sign *
    pivot / scale is its determinant.

    A row is cleared of denominators when a step first reads it, so a zero
    row costs only zero tests.  A pivot row that eliminates nothing is read
    only at its pivot, which is all that is cleared of it: every later minor
    depends on that row only through this entry, since the row is zero in
    the earlier pivot columns and every row below is zero in this one.
    """
    pivots, last, sign, scale = _bareiss(rows, cols, m, cleared, False)
    return len(pivots), last, sign, scale


def gauss_jordan(rows: list, cols: int, m: int | None) -> list[int]:
    """Fraction-free reduced row echelon form over Z[sqrt(m)]: the pivot columns.

    `rows` holds rows over Z[sqrt(m)] and is reduced in place, by `_bareiss`
    with the rows above each pivot eliminated as well (fraction-free
    Gauss-Jordan).  Afterwards row r has its pivot in column pivots[r], is
    zero left of it and in every other pivot column, and the rows below the
    rank are zero, so row r divided by its own pivot is row r of the
    canonical RREF.
    """
    return _bareiss(rows, cols, m, True, True)[0]


def _bareiss(
    rows: list, cols: int, m: int | None, cleared: bool, reduced: bool
) -> tuple[list[int], object, int, int]:
    """The one fraction-free elimination loop behind `echelon` and
    `gauss_jordan`: the pivot columns, the last pivot (1 at rank 0), the
    sign of the row permutation and the product of the row scales.

    Without `cleared` a row of scalars is cleared when a step first reads
    it, as `echelon` describes; with `reduced`, which takes cleared rows,
    each step also eliminates the rows above its pivot.  Were every row
    updated at every step, each would hold (k + 1)-minors of the cleared
    rows after step k, so dividing by the previous pivot is exact.  A row
    whose entry in the pivot column is zero, above the pivot or below it,
    is left untouched.  Bareiss would multiply it by p_k / p_(k-1); its
    level (the last step that touched it) keeps that factor implicit, so
    its next update divides by the pivot of its own level instead, and a
    pivot row catches up before it is used, on its pivot alone when nothing
    reads the rest: in `echelon`, when no row below is nonzero in its
    column.
    """
    n_rows = len(rows)
    is_cleared = [cleared] * n_rows
    level = [0] * n_rows
    steps = [1 if m is None else (1, 0)]  # steps[k] is the pivot of step k
    pivots: list[int] = []
    sign = 1
    scale = 1
    for col in range(cols):
        lead = len(pivots)
        if lead == n_rows:
            break
        pivot = next((r for r in range(lead, n_rows) if rows[r][col]), None)
        if pivot is None:
            continue
        if pivot != lead:
            rows[lead], rows[pivot] = rows[pivot], rows[lead]
            level[lead], level[pivot] = level[pivot], level[lead]
            is_cleared[lead], is_cleared[pivot] = is_cleared[pivot], is_cleared[lead]
            sign = -sign
        # with `reduced`, the rows above the pivot are targets as well; a
        # loop, not a comprehension, since most calls reduce 2 or 3 rows
        targets = []
        for r in range(0 if reduced else lead + 1, n_rows):
            if r != lead and rows[r][col]:
                targets.append(r)
        if not cleared:
            if not is_cleared[lead] and not targets:
                (entry,), den = clear([rows[lead][col]], m)
                rows[lead] = [0] * cols
                rows[lead][col] = entry
                scale *= den
                is_cleared[lead] = True
            for r in [lead, *targets]:
                if not is_cleared[r]:
                    rows[r], den = clear(rows[r], m)
                    scale *= den
                    is_cleared[r] = True
        pivot_row = rows[lead]
        if level[lead] != lead:
            width = range(col, cols if targets or reduced else col + 1)
            combine(pivot_row, steps[lead], 0, pivot_row, steps[level[lead]], width, m)
        p = pivot_row[col]
        for r in targets:
            row = rows[r]
            # an earlier pivot row is nonzero from its own pivot on
            start = pivots[r] if r < lead else col
            combine(row, p, row[col], pivot_row, steps[level[r]], range(start, cols), m)
            level[r] = lead + 1
        level[lead] = lead + 1
        steps.append(p)
        pivots.append(col)
    return pivots, steps[-1], sign, scale


def extend_echelon(basis: list, row: list, m: int | None) -> bool:
    """Append a row over Z[sqrt(m)], reduced in place, to an incremental
    echelon basis when it is independent of the basis; True when appended.

    `basis` holds (pivot column, row) pairs, each row zero left of its pivot
    and at the earlier pivots, with an int pivot entry.  The row is reduced at
    each pivot c in turn, row := b[c] row - row[c] b, which keeps it zero at
    the earlier pivots.  A remainder joins times the conjugate of its pivot
    entry and over the gcd of its integer components: with int pivots that
    gcd keeps the entries small over Z[sqrt(m)] too.
    """
    for col, b in basis:
        if row[col]:
            combine(row, b[col], row[col], b, integer(1, m), range(len(row)), m)
    lead = next((c for c, x in enumerate(row) if x), None)
    if lead is None:
        return False
    if m is not None and row[lead][1]:
        a, e = row[lead]
        row = [times(x, (a, -e), m) for x in row]
    basis.append((lead, list(primitive(tuple(row), m))))
    return True


def row_space(rows: Sequence[Sequence], cols: int, m: int | None) -> list[list[Scalar]]:
    """The canonical RREF basis of the span of rows over Z[sqrt(m)]."""
    rows = [list(row) for row in rows]
    pivots = gauss_jordan(rows, cols, m)
    return [
        [quotient(x, row[p], m) if x else _ZERO for x in row] for row, p in zip(rows, pivots)
    ]


def null_space(rows: Sequence[Sequence], cols: int, m: int | None) -> list[list[Scalar]]:
    """The canonical RREF basis of {x : M x = 0} for M with rows over Z[sqrt(m)]."""
    basis = []
    for lead, entries in _null_walk(rows, cols, m)[2]:
        v: list[Scalar] = [_ZERO] * cols
        v[lead] = _ONE
        for t, x, d in entries:
            v[t] = -quotient(x, d, m)
        basis.append(v)
    return basis


def null_vectors(rows: Sequence[Sequence], cols: int, m: int | None) -> list[list]:
    """null_space's basis over Z[sqrt(m)]: each canonical vector times the
    last pivot D of the reduction.  A pivot row of level l is the fully
    reduced row times p_l / D, and R[r, p_r] = p_l, so -R[r, g] D / R[r,
    p_r] is an entry of the fully reduced row, a minor of M: the division
    is exact, and a remainder is an InternalError."""
    _, scale, walk = _null_walk(rows, cols, m)
    minus = difference(0, scale, m)
    basis = []
    for lead, entries in walk:
        v: list = [0] * cols
        v[lead] = scale
        for t, x, d in entries:
            v[t] = x
            combine(v, minus, 0, v, d, range(t, t + 1), m)
        basis.append(v)
    return basis


def first_null_support(rows: Sequence[Sequence], cols: int, m: int | None) -> tuple[int, list[int]]:
    """The rank of M, with rows over Z[sqrt(m)], and the support of the first
    vector of null_space's canonical basis (empty when M has full column
    rank), read off the same walk without dividing out any null vector."""
    rank, _, walk = _null_walk(rows, cols, m)
    lead, entries = next(walk, (None, ()))
    return rank, [] if lead is None else sorted([lead, *[t for t, _, _ in entries]])


def _null_walk(rows: Sequence[Sequence], cols: int, m: int | None) -> tuple[int, object, Iterator]:
    """The rank of M, the last pivot D of its reduction (1 at rank 0) and a
    lazy walk of the canonical basis of its null space.

    One reduction, of M with its columns reversed.  With R that reduction,
    each free column g gives the null vector with 1 at g and -R[r, g] / R[r,
    p_r] at each pivot column p_r < g and 0 at the other free columns.
    Reversed back, its leading entry is that 1, and it is zero at the leading
    entry of every other such vector, so taken in decreasing g they are
    already the canonical RREF basis.  The walk divides nothing: it yields
    each as its leading column and the (column, R[r, g], R[r, p_r]) of its
    other nonzero entries, reversed back."""
    reduced = [list(reversed(row)) for row in rows]
    pivots = gauss_jordan(reduced, cols, m)

    def walk():
        pivot_set = set(pivots)
        for g in reversed(range(cols)):
            if g in pivot_set:
                continue
            entries = []
            for row, p in zip(reduced, pivots):
                if p > g:
                    break
                if row[g]:
                    entries.append((cols - 1 - p, row[g], row[p]))
            yield cols - 1 - g, entries

    scale = reduced[len(pivots) - 1][pivots[-1]] if pivots else integer(1, m)
    return len(pivots), scale, walk()
