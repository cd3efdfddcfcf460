"""Output checker: compares each verdict with the one its input forces, and
re-checks every witness through reflext's public API.

`check` returns None when the output is correct and a one-line reason
otherwise; the reason is reported with the input id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from reflext import Subspace, fixes_vector, parse_scalar, recognize_reflection
from reflext.errors import NotDiagonalizable, NotRankOne, SingularMatrix

from .inputs import VERIFIED, Case


@dataclass(frozen=True)
class Outcome:
    """The parts of a theorem report the checker reads, from either source."""

    status: str
    reason: Optional[str]
    degrees: list[int]
    certified: bool  # every degree Simple, with commutant dimension 1 and claim 4
    pairwise_hom: list[list[int]]
    witness: Optional[Subspace]
    pairs: list[tuple[int, int]]
    condition1: list[int]


def from_report(report) -> Outcome:
    """Outcome of a TheoremReport returned by verify_theorem."""
    c = report.conclusion
    return Outcome(
        status=c.status,
        reason=c.reason,
        degrees=[d.degree for d in report.per_degree],
        certified=all(
            d.verdict == "Simple" and d.commutant_dim == 1 and d.claim4_ok
            for d in report.per_degree
        ),
        pairwise_hom=[list(r) for r in report.pairwise_hom or ()],
        witness=c.witness_subspace,
        pairs=[tuple(p) for p in c.witness_pairs],
        condition1=[i for i, _ in report.hypothesis.condition1_failures],
    )


def from_document(doc: dict) -> Outcome:
    """Outcome of a theorem JSON document printed by `reflext verify --json`."""
    c = doc["conclusion"]
    w = c["witness_subspace"]
    witness = None
    if w is not None:
        rows = [[parse_scalar(x) for x in row] for row in w["basis"]]
        witness = Subspace.span(rows, w["ambient_dim"])
    return Outcome(
        status=c["status"],
        reason=c["reason"],
        degrees=[d["d"] for d in doc["per_degree"]],
        certified=all(
            d["verdict"] == "Simple" and d["commutant_dim"] == 1 and d["claim4"]["ok"]
            for d in doc["per_degree"]
        ),
        pairwise_hom=doc["pairwise_hom"] or [],
        witness=witness,
        pairs=[tuple(p) for p in c["witness_pairs"]],
        condition1=[f["generator"] for f in doc["hypothesis"]["condition1"]["failures"]],
    )


def invariant_witness(case: Case, witness: Optional[Subspace]) -> Optional[str]:
    """A condition-3 witness must be a proper subspace mapped into itself by every generator."""
    if witness is None:
        return "condition-3 failure without a witness subspace"
    n = case.rep.dim
    if not 0 < witness.dim < n:
        return f"witness of dimension {witness.dim} is not proper in dimension {n}"
    for g in case.rep.generators:
        for v in witness.basis_vectors():
            if not witness.contains(g.apply(v)):
                return "witness subspace is not invariant"
    return None


def asymmetric_pairs(case: Case, pairs) -> Optional[str]:
    """Each condition-4 pair (i, j): s_i moves alpha_j while s_j fixes alpha_i."""
    if not pairs:
        return "condition-4 failure without violating pairs"
    refls = [recognize_reflection(g) for g in case.rep.generators]
    for i, j in pairs:
        ri, rj = refls[i - 1], refls[j - 1]
        if fixes_vector(ri, rj.alpha) or not fixes_vector(rj, ri.alpha):
            return f"pair ({i}, {j}) does not fix asymmetrically"
    if case.planted and tuple(case.planted) not in set(pairs):
        return f"planted violation {case.planted} not reported"
    return None


def non_reflection(case: Case, indices) -> Optional[str]:
    """Each condition-1 generator must really fail to be a generalized reflection."""
    if not indices:
        return "condition-1 failure without a generator"
    for i in indices:
        try:
            recognize_reflection(case.rep.generators[i - 1])
        except (NotRankOne, NotDiagonalizable, SingularMatrix):
            continue
        return f"generator {i} is a reflection but was reported under condition 1"
    if case.planted and case.planted[0] not in indices:
        return f"planted non-reflection {case.planted[0]} not reported"
    return None


def check(case: Case, out: Outcome) -> Optional[str]:
    if out.status != case.status:
        return f"status {out.status}, expected {case.status}"
    if case.reason is not None and not (out.reason or "").startswith(case.reason):
        return f"reason {out.reason!r}, expected {case.reason}"
    if case.status == VERIFIED:
        n = case.rep.dim
        if out.degrees != list(range(n + 1)) or not out.certified:
            return "a per-degree certificate is missing or failed"
        if out.pairwise_hom != [[int(a == b) for b in range(n + 1)] for a in range(n + 1)]:
            return "pairwise Hom dimensions are not the identity"
        return None
    if case.reason == "condition3":
        return invariant_witness(case, out.witness)
    if case.reason == "condition4":
        return asymmetric_pairs(case, out.pairs)
    return non_reflection(case, out.condition1)
