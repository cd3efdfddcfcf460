"""Representation files: JSON documents with exact scalar strings.

The wire format is read here and written by `field_doc`, `vector_doc` and
`matrix_doc`, for representation files and report documents alike.

    {
      "field": "Q"                      (or {"quadratic": 5}),
      "dim": 2,
      "generators": [
        {"label": "s1", "matrix": [["-1", "1"], ["0", "1"]]},
        {"label": "s2", "matrix": [["1", "0"], ["1", "-1"]]}
      ]
    }
"""

from __future__ import annotations

import json
import re
from math import isqrt
from typing import Any, Optional

from .errors import (
    EmptyGeneratorList,
    FieldMismatch,
    LengthMismatch,
    ParseError,
    SingularMatrix,
)
from .fractionfree import clear
from .linalg import Matrix, Representation
from .scalars import parse_scalar_in, render_scalar, validate_radicand

# dense worst case at the limit: 64 generators I + alpha f^T with entries of
# alpha and f in 1..3 (benchmarks/dense_repfile.py) take 2.7 s in
# `reflext verify --json` (1.0 s at dim 48, 0.4 s at 32; 2-vCPU VM, Python
# 3.11.7), most of it parsing, one rank per generator and the document
MAX_DIM = 64
# more generators are refused before any entry is parsed: claim 3 grows as
# about k^3 on a dense graph.  64 copies of [["-1"]] (a complete graph) take
# 0.2 s in `reflext verify --json`, 200 took 5.5 s and printed 1 MB (same
# VM), and the MAX_DIM worst cases above were measured with 64 generators
MAX_GENERATORS = 64
# an entry with a longer numerator or denominator is refused before it is
# parsed; with generator entries of this many digits (dense_repfile.py
# --digits 100) the dense case takes 19-21 s at dim 64 and 1.3 s at dim 32
# (same VM)
MAX_ENTRY_DIGITS = 100
# a rank multiplies each generator row by the lcm of its denominators, and
# Bareiss elimination adds the lcm's D digits at each of about dim^3 steps,
# a cost of about dim^5 D^2: D may have MAX_LCM_DIGITS digits at MAX_DIM and
# keep dim^5 D^2 within that product below it.  At the limit, 64 reflections
# with f_j = p_j/q (q of 8 digits, p_j of 99) take 33 s at dim 64 (same VM)
MAX_LCM_DIGITS = 8
_NUMBER = re.compile(r"(?<![\d(])\d+", re.ASCII)  # a numerator or denominator, not a radicand


def parse_field(spec: Any) -> int | None:
    if spec == "Q":
        return None
    if isinstance(spec, dict) and set(spec) == {"quadratic"}:
        try:
            return validate_radicand(spec["quadratic"])
        except ParseError as exc:
            raise ParseError(str(exc)) from None
    raise ParseError(f"field must be \"Q\" or {{\"quadratic\": m}}, got {spec!r}")


def field_doc(m: Optional[int]):
    return "Q" if m is None else {"quadratic": m}


def vector_doc(v) -> list[str]:
    return [render_scalar(x) for x in v]


def matrix_doc(m: Matrix) -> list[list[str]]:
    return [vector_doc(m.row(i)) for i in range(m.rows)]


def representation_from_document(doc: Any) -> Representation:
    if not isinstance(doc, dict):
        raise ParseError("representation document must be a JSON object")
    missing = {"field", "dim", "generators"} - set(doc)
    if missing:
        raise ParseError(f"missing keys: {sorted(missing)}")
    m = parse_field(doc["field"])
    n = doc["dim"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f"dim must be a positive integer, got {n!r}")
    if n > MAX_DIM:
        raise ParseError(f"dim is {n}, above the limit {MAX_DIM}")
    gens = doc["generators"]
    if not isinstance(gens, list) or not gens:
        raise ParseError("generators must be a nonempty list")
    if len(gens) > MAX_GENERATORS:
        raise ParseError(f"{len(gens)} generators, above the limit {MAX_GENERATORS}")
    matrices = []
    labels = []
    for idx, g in enumerate(gens, start=1):
        if not isinstance(g, dict) or "matrix" not in g:
            raise ParseError(f"generator {idx} must be an object with a 'matrix'")
        labels.append(str(g.get("label", f"s{idx}")))
        rows = g["matrix"]
        if (
            not isinstance(rows, list)
            or len(rows) != n
            or any(not isinstance(r, list) or len(r) != n for r in rows)
        ):
            raise ParseError(f"generator {idx}: matrix must be {n}x{n}")
        entries = []
        for r in rows:
            for e in r:
                if not isinstance(e, str):
                    raise ParseError(
                        f"generator {idx}: entries must be scalar strings, got {e!r}"
                    )
                _refuse_long_numbers(idx, e)
                try:
                    entries.append(parse_scalar_in(e, m))
                except FieldMismatch:
                    raise ParseError(
                        f"generator {idx}: entry {e!r} lives outside the declared field"
                    ) from None
        _refuse_large_denominators(idx, entries, n, m)
        matrices.append(Matrix._of(n, n, tuple(entries)))
    try:
        return Representation(matrices, labels)
    except (SingularMatrix, LengthMismatch, EmptyGeneratorList, FieldMismatch) as exc:
        raise ParseError(f"invalid representation: {exc}") from None


def _refuse_long_numbers(idx: int, text: str) -> None:
    """ParseError for a numerator or denominator above MAX_ENTRY_DIGITS digits.

    The digits of a radicand, which follow "sqrt(", are bounded by its own
    check.  Only a string longer than the limit can hold such a number.
    """
    if len(text) > MAX_ENTRY_DIGITS:
        longest = max(map(len, _NUMBER.findall(text)), default=0)
        if longest > MAX_ENTRY_DIGITS:
            raise ParseError(
                f"generator {idx}: entry has a {longest}-digit number, "
                f"above the limit {MAX_ENTRY_DIGITS}"
            )


def _refuse_large_denominators(idx: int, entries: list, n: int, m: int | None) -> None:
    """ParseError for a row of the n x n generator whose denominators have an
    lcm above the digit limit at dim n (no row's lcm has more than n times
    MAX_ENTRY_DIGITS digits)."""
    limit = min(isqrt(MAX_LCM_DIGITS**2 * MAX_DIM**5 // n**5), n * MAX_ENTRY_DIGITS)
    bound = 10**limit
    for i in range(n):
        if clear(entries[i * n : (i + 1) * n], m)[1] >= bound:
            raise ParseError(
                f"generator {idx}: row {i + 1} has denominators with an lcm above "
                f"{limit} digits, the limit at dim {n}"
            )


def load_repfile(path: str) -> Representation:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, or an integer with too many digits
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"{path} nests its JSON too deeply") from None
    return representation_from_document(doc)


def representation_to_document(rep: Representation) -> dict:
    return {
        "field": field_doc(rep.field()),
        "dim": rep.dim,
        "generators": [
            {"label": label, "matrix": matrix_doc(g)}
            for label, g in zip(rep.labels, rep.generators)
        ],
    }
