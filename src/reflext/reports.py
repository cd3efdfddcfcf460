"""Structured documents for analysis and certification results.

The JSON documents and the human-readable text are generated from the same
report values; every emitted document is validated against the schemas below
by ``reflext.schema``, which raises ``SchemaViolation`` on a fault.  Scalars
travel as exact strings, never as floats.  ``reflext.schema`` is imported at
the first validation, so importing this module does not compile it.
"""

from __future__ import annotations

from typing import Optional

from .linalg import Representation, Subspace
from .reflections import ReflectionData
from .repfile import field_doc, matrix_doc, vector_doc
from .scalars import render_scalar
from .theoremlab import ClaimFiveTrace, HypothesisReport, SimplicityVerdict, TheoremReport
from .graphs import Graph

SCALAR_PATTERN = r"^-?\d+(/\d+)?([+-]\d+(/\d+)?\*sqrt\(\d+\))?$"


def _object(properties: dict, optional=()) -> dict:
    """A closed object schema: every property but the optional ones is required."""
    return {
        "type": "object",
        "properties": properties,
        "required": [key for key in properties if key not in optional],
        "additionalProperties": False,
    }


_SCALAR = {"type": "string", "pattern": SCALAR_PATTERN}
_VECTOR = {"type": "array", "items": _SCALAR}
_MATRIX = {"type": "array", "items": _VECTOR}
_INTEGERS = {"type": "array", "items": {"type": "integer"}}
_SUBSPACE = _object({"ambient_dim": {"type": "integer"}, "basis": _MATRIX})
_FIELD = {
    "oneOf": [
        {"const": "Q"},
        _object({"quadratic": {"type": "integer", "minimum": 2}}),
    ]
}
_PAIR = {"type": "array", "items": {"type": "integer"}, "minItems": 2, "maxItems": 2}
_REFLECTION = _object(
    {
        "label": {"type": "string"},
        "alpha": _VECTOR,
        "eigenvalue": _SCALAR,
        "hyperplane": _SUBSPACE,
        "functional": _VECTOR,
    }
)
_FAILURE = _object({"generator": {"type": "integer"}, "reason": {"type": "string"}})
_SIMPLICITY = _object(
    {
        "status": {"enum": ["Simple", "Reducible", "Inconclusive"]},
        "commutant_dim": {"type": "integer"},
        "witness": {"oneOf": [_SUBSPACE, {"type": "null"}]},
        "semisimplicity_premise": {"enum": ["Assumed", "FromSimpleBase", "None"]},
        "method": {"type": "string"},
    },
    optional=("method",),
)
_GRAPH = _object({"vertices": _INTEGERS, "edges": {"type": "array", "items": _PAIR}})
_STEP = _object(
    {
        "removed": {"type": "integer"},
        "added": {"type": "integer"},
        "edge": _PAIR,
        "before": _INTEGERS,
        "after": _INTEGERS,
        "note": {"type": "string"},
    },
    optional=("note",),
)
_TRACE = _object(
    {
        "d": {"type": "integer"},
        "base": _INTEGERS,
        "sequences": {
            "type": "array",
            "items": _object({"target": _INTEGERS, "steps": {"type": "array", "items": _STEP}}),
        },
    }
)

THEOREM_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    **_object(
        {
            "schema": {"const": "reflext.theorem-report/1"},
            "source": {"type": "string"},
            "field": _FIELD,
            "dim": {"type": "integer"},
            "generator_count": {"type": "integer"},
            "labels": {"type": "array", "items": {"type": "string"}},
            "classical_mode": {"type": "boolean"},
            "hypothesis": _object(
                {
                    "condition1": _object(
                        {
                            "ok": {"type": "boolean"},
                            "failures": {"type": "array", "items": _FAILURE},
                        }
                    ),
                    "reflections": {
                        "type": "array",
                        "items": {"oneOf": [_REFLECTION, {"type": "null"}]},
                    },
                    "generation_assumed": {"type": "boolean"},
                    "condition3": {"oneOf": [_SIMPLICITY, {"type": "null"}]},
                    "condition4": _object(
                        {
                            "evaluated": {"type": "boolean"},
                            "holds": {"type": "boolean"},
                            "violations": {"type": "array", "items": _PAIR},
                        }
                    ),
                    "graph": {"oneOf": [_GRAPH, {"type": "null"}]},
                    "remarks": {"type": "array", "items": {"type": "string"}},
                }
            ),
            "claims": _object(
                {
                    "claim1_connected": {"type": ["boolean", "null"]},
                    "claim2_spanning": {"type": ["boolean", "null"]},
                    "n_le_k": {"type": ["boolean", "null"]},
                    "claim3_subset": {"oneOf": [_INTEGERS, {"type": "null"}]},
                }
            ),
            "per_degree": {
                "type": "array",
                "items": _object(
                    {
                        "d": {"type": "integer"},
                        "dim": {"type": "integer"},
                        "commutant_dim": {"type": "integer"},
                        "verdict": {"enum": ["Simple", "Reducible", "Inconclusive"]},
                        "claim4": _object(
                            {
                                "checked": {"type": "integer"},
                                "exhaustive": {"type": "boolean"},
                                "ok": {"type": "boolean"},
                            }
                        ),
                        "witness": {"oneOf": [_SUBSPACE, {"type": "null"}]},
                        "claim5_trace": {"oneOf": [_TRACE, {"type": "null"}]},
                    },
                    optional=("witness", "claim5_trace"),
                ),
            },
            "pairwise_hom": {
                "oneOf": [{"type": "array", "items": _INTEGERS}, {"type": "null"}]
            },
            "dim_filter_ok": {"type": ["boolean", "null"]},
            "conclusion": _object(
                {
                    "status": {
                        "enum": ["TheoremVerified", "HypothesisFailed", "CertificationFailed"]
                    },
                    "reason": {"type": ["string", "null"]},
                    "witness_subspace": {"oneOf": [_SUBSPACE, {"type": "null"}]},
                    "witness_pairs": {"type": "array", "items": _PAIR},
                }
            ),
        }
    ),
}

ANALYZE_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    **_object(
        {
            "schema": {"const": "reflext.analyze-report/1"},
            "source": {"type": "string"},
            "field": _FIELD,
            "dim": {"type": "integer"},
            "generator_count": {"type": "integer"},
            "generators": {
                "type": "array",
                "items": _object(
                    {
                        "label": {"type": "string"},
                        "reflection": {"oneOf": [_REFLECTION, {"type": "null"}]},
                        "error": {"type": ["string", "null"]},
                    }
                ),
            },
            "condition4": {
                "oneOf": [
                    _object(
                        {
                            "holds": {"type": "boolean"},
                            "violations": {"type": "array", "items": _PAIR},
                        }
                    ),
                    {"type": "null"},
                ]
            },
            "graph": {"oneOf": [_GRAPH, {"type": "null"}]},
            "remarks": {"type": "array", "items": {"type": "string"}},
            "ok": {"type": "boolean"},
        }
    ),
}


def validate_theorem_document(doc: dict) -> None:
    from .schema import validate

    validate(doc, THEOREM_SCHEMA)


def validate_analyze_document(doc: dict) -> None:
    from .schema import validate

    validate(doc, ANALYZE_SCHEMA)


def subspace_doc(s: Optional[Subspace]):
    if s is None:
        return None
    return {"ambient_dim": s.ambient_dim, "basis": matrix_doc(s.basis)}


def reflection_doc(r: Optional[ReflectionData], label: str):
    if r is None:
        return None
    return {
        "label": label,
        "alpha": vector_doc(r.alpha),
        "eigenvalue": render_scalar(r.eigenvalue),
        "hyperplane": subspace_doc(r.hyperplane),
        "functional": vector_doc(r.functional),
    }


def simplicity_doc(v: Optional[SimplicityVerdict]):
    if v is None:
        return None
    return {
        "status": v.status,
        "commutant_dim": v.commutant_dim,
        "witness": subspace_doc(v.witness),
        "semisimplicity_premise": "None",
        "method": v.method,
    }


def graph_doc(g: Optional[Graph]):
    if g is None:
        return None
    return {"vertices": list(g.vertices), "edges": sorted(list(e) for e in g.edges)}


def trace_doc(t: Optional[ClaimFiveTrace]):
    if t is None:
        return None
    return {
        "d": t.degree,
        "base": list(t.base),
        "sequences": [
            {
                "target": list(seq.target),
                "steps": [
                    {
                        "removed": st.removed,
                        "added": st.added,
                        "edge": list(st.edge),
                        "before": list(st.before),
                        "after": list(st.after),
                        "note": (
                            f"wedge coefficient of {set(st.before)} equals that of "
                            f"{set(st.after)} via edge {st.edge}"
                        ),
                    }
                    for st in seq.steps
                ],
            }
            for seq in t.sequences
        ],
    }


def hypothesis_doc(h: HypothesisReport, labels) -> dict:
    return {
        "condition1": {
            "ok": h.condition1_ok,
            "failures": [{"generator": i, "reason": why} for i, why in h.condition1_failures],
        },
        "reflections": [
            reflection_doc(r, labels[i]) for i, r in enumerate(h.reflections)
        ],
        "generation_assumed": True,
        "condition3": simplicity_doc(h.v_simple),
        "condition4": {
            "evaluated": h.condition1_ok,
            "holds": h.condition4_holds,
            "violations": [list(p) for p in h.condition4_violations],
        },
        "graph": graph_doc(h.graph),
        "remarks": list(h.remarks),
    }


def _heading(schema: str, rep: Representation, source: str) -> dict:
    """The keys both documents open with."""
    return {
        "schema": schema,
        "source": source,
        "field": field_doc(rep.field()),
        "dim": rep.dim,
        "generator_count": len(rep.generators),
    }


def theorem_document(report: TheoremReport, rep: Representation, source: str) -> dict:
    # the claims hold exactly when a connected basis subset was certified
    subset = report.claim3_subset
    certified = True if subset is not None else None
    doc = {
        **_heading("reflext.theorem-report/1", rep, source),
        "labels": list(rep.labels),
        "classical_mode": False,
        "hypothesis": hypothesis_doc(report.hypothesis, rep.labels),
        "claims": {
            "claim1_connected": certified,
            "claim2_spanning": certified,
            "n_le_k": rep.dim <= len(rep.generators) if subset is not None else None,
            "claim3_subset": list(subset) if subset else None,
        },
        "per_degree": [
            {
                "d": dr.degree,
                "dim": dr.space_dim,
                "commutant_dim": dr.commutant_dim,
                "verdict": dr.verdict,
                "claim4": {
                    "checked": dr.claim4_checked,
                    "exhaustive": True,
                    "ok": dr.claim4_ok,
                },
                "witness": None,
                "claim5_trace": trace_doc(dr.claim5_trace),
            }
            for dr in report.per_degree
        ],
        "pairwise_hom": [list(row) for row in report.pairwise_hom]
        if report.pairwise_hom is not None
        else None,
        "dim_filter_ok": report.dim_filter_ok,
        "conclusion": {
            "status": report.conclusion.status,
            "reason": report.conclusion.reason,
            "witness_subspace": subspace_doc(report.conclusion.witness_subspace),
            "witness_pairs": [list(p) for p in report.conclusion.witness_pairs],
        },
    }
    validate_theorem_document(doc)
    return doc


def analyze_document(rep: Representation, hyp: HypothesisReport, source: str) -> dict:
    """The theorem document's hypothesis block, reshaped per generator."""
    block = hypothesis_doc(hyp, rep.labels)
    errors = {f["generator"]: f["reason"] for f in block["condition1"]["failures"]}
    c4 = block["condition4"]
    doc = {
        **_heading("reflext.analyze-report/1", rep, source),
        "generators": [
            {"label": label, "reflection": r, "error": errors.get(i)}
            for i, (label, r) in enumerate(zip(rep.labels, block["reflections"]), start=1)
        ],
        "condition4": {"holds": c4["holds"], "violations": c4["violations"]}
        if c4["evaluated"]
        else None,
        "graph": block["graph"],
        "remarks": block["remarks"],
        "ok": c4["evaluated"] and c4["holds"],
    }
    validate_analyze_document(doc)
    return doc


def _matrix_lines(rows: list[list[str]]) -> list[str]:
    """A basis as aligned text rows, indented under its heading line."""
    indent = "      "
    if not rows:
        return [indent + "(zero subspace)"]
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    return [
        indent + "[ " + "  ".join(e.rjust(w) for e, w in zip(r, widths)) + " ]"
        for r in rows
    ]


def render_analyze_text(doc: dict) -> str:
    lines = [f"analysis of {doc['source']}  (dim {doc['dim']}, field {doc['field']})"]
    for g in doc["generators"]:
        if g["error"]:
            lines.append(f"  {g['label']}: NOT a reflection -- {g['error']}")
            continue
        r = g["reflection"]
        lines.append(
            f"  {g['label']}: reflection, alpha = ({', '.join(r['alpha'])}), "
            f"eigenvalue = {r['eigenvalue']}"
        )
        lines.append("    hyperplane basis:")
        lines.extend(_matrix_lines(r["hyperplane"]["basis"]))
    c4 = doc["condition4"]
    if c4 is not None:
        if c4["holds"]:
            lines.append("  condition 4 holds (non-fixing relation is symmetric)")
            g = doc["graph"]
            edge_text = ", ".join("{%d,%d}" % tuple(e) for e in g["edges"]) or "(none)"
            lines.append(f"  graph: vertices {list(g['vertices'])}, edges {edge_text}")
        else:
            for i, j in c4["violations"]:
                lines.append(
                    f"  condition 4 VIOLATED: generator {i} moves alpha_{j} "
                    f"but generator {j} fixes alpha_{i}"
                )
    for remark in doc["remarks"]:
        lines.append(f"  note: {remark}")
    return "\n".join(lines)


def render_theorem_text(doc: dict) -> str:
    lines = [
        f"certification of {doc['source']}  "
        f"(dim {doc['dim']}, {doc['generator_count']} generators, field {doc['field']})"
    ]
    hyp = doc["hypothesis"]
    if not hyp["condition1"]["ok"]:
        for f in hyp["condition1"]["failures"]:
            lines.append(f"  condition 1 FAILED: generator {f['generator']}: {f['reason']}")
    else:
        lines.append("  condition 1: all generators are generalized reflections")
        c3 = hyp["condition3"]
        lines.append(
            f"  condition 3: base representation {c3['status']} "
            f"(commutant dim {c3['commutant_dim']}, method {c3['method']})"
        )
        c4 = hyp["condition4"]
        if c4["holds"]:
            lines.append("  condition 4: holds")
        else:
            lines.append(f"  condition 4: VIOLATED at pairs {c4['violations']}")
    claims = doc["claims"]
    if claims["claim1_connected"] is not None:
        lines.append(f"  graph connected: {claims['claim1_connected']}")
    if claims["claim3_subset"] is not None:
        lines.append(f"  connected basis subset: {claims['claim3_subset']}")
    if doc["per_degree"]:
        lines.append("  degree  dim  commutant  verdict   claim-4 lines (by rank of alpha_S)")
        for dr in doc["per_degree"]:
            lines.append(
                f"    {dr['d']:>3} {dr['dim']:>5} {dr['commutant_dim']:>9}  "
                f"{dr['verdict']:<9} {dr['claim4']['checked']}"
            )
    if doc["pairwise_hom"] is not None:
        lines.append("  hom-space dimensions between exterior powers:")
        for row in doc["pairwise_hom"]:
            lines.append("    " + "  ".join(str(v) for v in row))
    for dr in doc["per_degree"]:
        t = dr["claim5_trace"]
        if t and t["sequences"]:
            lines.append(f"  move trace for d={t['d']} (base {t['base']}):")
            for seq in t["sequences"]:
                chain = " -> ".join(
                    ["{" + ",".join(map(str, t["base"])) + "}"]
                    + ["{" + ",".join(map(str, st["after"])) + "}" for st in seq["steps"]]
                )
                lines.append(f"    to {seq['target']}: {chain}")
    concl = doc["conclusion"]
    lines.append(f"  conclusion: {concl['status']}")
    if concl["reason"]:
        lines.append(f"    reason: {concl['reason']}")
    if concl["witness_subspace"] is not None:
        lines.append("    witness subspace basis:")
        lines.extend(_matrix_lines(concl["witness_subspace"]["basis"]))
    if concl["witness_pairs"]:
        lines.append(f"    witness pairs: {concl['witness_pairs']}")
    for remark in hyp.get("remarks", []):
        lines.append(f"  note: {remark}")
    return "\n".join(lines)
