"""Built-in example representations.

Crystallographic entries use Cartan-matrix reflection actions so the scalars
stay rational; the order-10 dihedral entry lives in Q(sqrt(5)).  The
two-parameter family infinite_dihedral(a, b) is the stress test for the
no-invariant-bilinear-form setting: the pipeline must succeed on it without
ever touching an inner product.

Expected verdicts recorded here are asserted against the live pipeline by the
test suite on every run; they are never regenerated from its output.  For the
dihedral grid they follow from the mathematics: with a, b nonzero the
functionals f1 = (2, -a) and f2 = (-b, 2) share a kernel exactly when
a * b == 4, which makes the plane reducible (condition 3).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple, Optional

from .errors import UnknownEntry
from .linalg import Matrix, Representation
from .scalars import QuadExt, as_scalar


class Expected(NamedTuple):
    theorem_applies: bool
    failure_reason: Optional[str] = None  # conclusion reason prefix when not applicable


class CatalogEntry(NamedTuple):
    name: str
    representation: Representation
    expected: Expected
    notes: str = ""


def infinite_dihedral(a, b) -> Representation:
    """Two reflections of the infinite dihedral group, from the Cartan matrix
    [[2, -a], [-b, 2]]: s1 = [[-1, a], [0, 1]], s2 = [[1, 0], [b, -1]]."""
    return _cartan_rep([[2, -as_scalar(a)], [-as_scalar(b), 2]])


def _cartan_rep(cartan: list[list]) -> Representation:
    """Reflection representation from a generalized Cartan matrix:
    s_i sends e_j to e_j - c[i][j] * e_i.

    Every generator shares the identity's rows, whose scalars are built
    once; only its row i, 1 or 0 minus c[i][j], is new."""
    k = len(cartan)
    identity = Matrix.identity(k)
    gens = []
    for i, c in enumerate(cartan):
        rows = [identity.row(r) for r in range(k)]
        rows[i] = [int(i == j) - as_scalar(c[j]) for j in range(k)]
        gens.append(Matrix.from_rows(rows))
    return Representation(gens)


_GOLDEN = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)  # (1 + sqrt(5)) / 2


def _a2_redundant() -> Representation:
    """A2 with a redundant third generator s1 s2 s1^{-1}; exercises the
    connected-basis-subset extraction (three vectors in dimension two)."""
    s1 = Matrix.from_rows([[-1, 1], [0, 1]])
    s2 = Matrix.from_rows([[1, 0], [1, -1]])
    return Representation([s1, s2, s1 @ s2 @ s1.inverse()])


@cache
def _build_entries() -> dict[str, tuple[Callable[[], Representation], Expected, str]]:
    """Each entry's representation builder, expectation and notes, keyed by
    name in catalog order; made at the first lookup rather than at import,
    while `entry` builds only the representation it is asked for."""
    specs = {
        "A2": (
            lambda: _cartan_rep([[2, -1], [-1, 2]]),
            Expected(True),
            "rank-2 Cartan reflection representation, product of generators has order 3",
        ),
        "A3": (
            lambda: _cartan_rep([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]),
            Expected(True),
            "rank-3 Cartan reflection representation of the symmetric group S4",
        ),
        "B2": (
            lambda: _cartan_rep([[2, -2], [-1, 2]]),
            Expected(True),
            "product of generators has order 4",
        ),
        "G2": (
            lambda: _cartan_rep([[2, -1], [-3, 2]]),
            Expected(True),
            "product of generators has order 6",
        ),
        "H2-5": (
            lambda: _cartan_rep([[2, -_GOLDEN], [-_GOLDEN, 2]]),
            Expected(True),
            "order-10 dihedral reflection representation over Q(sqrt(5))",
        ),
        "cond4-fail": (
            lambda: _cartan_rep([[2, -1], [0, 2]]),
            Expected(False, "condition4"),
            "second generator fixes alpha_1 while the first moves alpha_2",
        ),
        "reducible-direct-sum": (
            lambda: Representation(
                [
                    Matrix.from_rows([[-1, 1, 0], [0, 1, 0], [0, 0, 1]]),
                    Matrix.from_rows([[1, 0, 0], [1, -1, 0], [0, 0, 1]]),
                ]
            ),
            Expected(False, "condition3"),
            "A2 plus a trivial line; the third coordinate axis is invariant",
        ),
        "A2-redundant": (
            _a2_redundant,
            Expected(True),
            "three generators in dimension two; basis subset must drop one",
        ),
    }
    for a in range(4):
        for b in range(4):
            if a == 0 or b == 0:
                expected = (
                    Expected(False, "condition3")
                    if a == 0 and b == 0
                    else Expected(False, "condition4")
                )
            elif a * b == 4:
                # affine-type degenerate member: alpha_1 + alpha_2 is fixed by
                # both generators, so the plane is reducible (indecomposable)
                expected = Expected(False, "condition3")
            else:
                expected = Expected(True)
            specs[f"dihedral-{a}-{b}"] = (
                lambda a=a, b=b: infinite_dihedral(a, b),
                expected,
                "member of the two-parameter infinite dihedral family",
            )
    return specs


def list_entries() -> list[str]:
    return list(_build_entries())


@cache
def entry(name: str) -> CatalogEntry:
    """The named entry, built at its first lookup."""
    try:
        build, expected, notes = _build_entries()[name]
    except KeyError:
        raise UnknownEntry(f"no catalog entry named {name!r}") from None
    return CatalogEntry(name, build(), expected, notes)
