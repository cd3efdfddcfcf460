"""Command-line surface.

Subcommands: analyze, verify, exterior, hom, catalog list|show.
Exit codes: 0 success / theorem verified, 2 parse or input error,
3 hypothesis failure, 4 certification failure.
"""

from __future__ import annotations

import json
import os
import sys
from math import comb

import click

from . import catalog as catalog_mod
from .errors import BadDegree, ParseError, ReflextError, UnknownEntry
from .repfile import load_repfile, representation_to_document
from .repkit import Representation, exterior_rep, hom_dim
from .reports import (
    analyze_document,
    matrix_doc,
    render_analyze_text,
    render_theorem_text,
    theorem_document,
)
from .theoremlab import check_hypotheses, verify_theorem

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_CERTIFICATION = 4

# Size limits, checked before any computation starts; a request above one is
# an error with exit 2.  Times at the limit are for one 2 GHz Xeon core.
MAX_TRACE_DIM = 12  # verify --trace emits 2**n - 1 move sequences: 4095, 0.9 s at A12
MAX_EXTERIOR_DIM = 70  # exterior --d forms C(n, d)-square compounds: 0.9 s at A8, d = 4
MAX_HOM_DIM = 20  # hom solves (left dim)(right dim) unknowns: 400, 18 s at A6:3 A6:3


def _load_target(target: str) -> tuple[Representation, str]:
    """Catalog name or representation-file path."""
    try:
        return catalog_mod.entry(target).representation, target
    except UnknownEntry:
        pass
    if os.path.exists(target):
        return load_repfile(target), target
    raise ParseError(f"{target!r} is neither a catalog entry nor an existing file")


def _power_dim(n: int, d: int) -> int:
    """dim of the d-th exterior power; 0 for a degree exterior_rep rejects."""
    return comb(n, d) if 0 <= d <= n else 0


def _refuse_above(size: int, limit: int, what: str) -> None:
    if size > limit:
        raise ParseError(f"{what} is {size}, above the limit {limit}")


def _emit(doc: dict, text: str, as_json: bool) -> None:
    if as_json:
        click.echo(json.dumps(doc, indent=2))
    else:
        click.echo(text)


@click.group()
def main() -> None:
    """Exact certification tools for reflection representations and their exterior powers."""


@main.command()
@click.argument("target")
@click.option("--json", "as_json", is_flag=True, help="emit the structured document")
def analyze(target: str, as_json: bool) -> None:
    """Per-generator reflection data, the non-fixing graph, and condition-4 status."""
    try:
        rep, source = _load_target(target)
    except ParseError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    hyp = check_hypotheses(rep)
    doc = analyze_document(rep, hyp, source)
    _emit(doc, render_analyze_text(doc), as_json)
    sys.exit(EXIT_OK if doc["ok"] else EXIT_HYPOTHESIS)


@main.command()
@click.argument("target")
@click.option("--json", "as_json", is_flag=True, help="emit the structured document")
@click.option("--trace", is_flag=True, help="include move-sequence proof traces")
@click.option("--d", "degrees", multiple=True, type=int, help="restrict exterior degrees")
def verify(target: str, as_json: bool, trace: bool, degrees: tuple[int, ...]) -> None:
    """Run the full certification pipeline; exit 0 iff the theorem is verified."""
    try:
        rep, source = _load_target(target)
        if trace:
            _refuse_above(rep.dim, MAX_TRACE_DIM, "dimension for --trace")
        report = verify_theorem(rep, trace=trace, degrees=list(degrees) or None)
    except (ParseError, BadDegree) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    doc = theorem_document(report, rep, source)
    _emit(doc, render_theorem_text(doc), as_json)
    status = report.conclusion.status
    if status == "TheoremVerified":
        sys.exit(EXIT_OK)
    sys.exit(EXIT_HYPOTHESIS if status == "HypothesisFailed" else EXIT_CERTIFICATION)


@main.command()
@click.argument("target")
@click.option("--d", "degree", required=True, type=int, help="exterior-power degree")
@click.option("--json", "as_json", is_flag=True, help="emit the structured document")
def exterior(target: str, degree: int, as_json: bool) -> None:
    """Print the compound generator matrices of the d-th exterior power."""
    try:
        rep, source = _load_target(target)
        _refuse_above(
            _power_dim(rep.dim, degree), MAX_EXTERIOR_DIM, f"dimension of degree {degree}"
        )
        ext = exterior_rep(rep, degree)
    except (ParseError, BadDegree) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    doc = {
        "source": source,
        "d": degree,
        "dim": ext.dim,
        "generators": [
            {"label": label, "matrix": matrix_doc(g)}
            for label, g in zip(ext.labels, ext.generators)
        ],
    }
    if as_json:
        click.echo(json.dumps(doc, indent=2))
    else:
        click.echo(f"exterior power d={degree} of {source} (dim {ext.dim})")
        for g in doc["generators"]:
            click.echo(f"  {g['label']}:")
            for row in g["matrix"]:
                click.echo("    [ " + "  ".join(row) + " ]")
    sys.exit(EXIT_OK)


def _load_power(spec: str) -> tuple[Representation, str]:
    """TARGET or TARGET:d, the latter meaning the d-th exterior power."""
    base, sep, suffix = spec.rpartition(":")
    if sep and base and suffix.lstrip("-").isdigit():
        rep, source = _load_target(base)
        try:
            d = int(suffix)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"degree of {base!r} has {len(suffix)} digits") from None
        _refuse_above(_power_dim(rep.dim, d), MAX_HOM_DIM, f"dimension of {spec}")
        try:
            return exterior_rep(rep, d), f"{source}:{suffix}"
        except BadDegree as exc:
            raise ParseError(str(exc)) from None
    rep, source = _load_target(spec)
    _refuse_above(rep.dim, MAX_HOM_DIM, f"dimension of {spec}")
    return rep, source


@main.command()
@click.argument("left")
@click.argument("right")
@click.option("--json", "as_json", is_flag=True, help="emit the structured document")
def hom(left: str, right: str, as_json: bool) -> None:
    """Dimension of the space of intertwiners LEFT -> RIGHT (use NAME:d for exterior powers)."""
    try:
        lrep, lsource = _load_power(left)
        rrep, rsource = _load_power(right)
        dim = hom_dim(lrep, rrep)
    except ReflextError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    if as_json:
        click.echo(json.dumps({"left": lsource, "right": rsource, "hom_dim": dim}))
    else:
        click.echo(f"dim Hom({lsource}, {rsource}) = {dim}")
    sys.exit(EXIT_OK)


@main.group()
def catalog() -> None:
    """Built-in example representations."""


@catalog.command(name="list")
def catalog_list() -> None:
    for name in catalog_mod.list_entries():
        entry = catalog_mod.entry(name)
        expected = (
            "applies"
            if entry.expected.theorem_applies
            else f"fails ({entry.expected.failure_reason})"
        )
        click.echo(f"{name:<22} dim {entry.representation.dim}  theorem {expected}")


@catalog.command(name="show")
@click.argument("name")
@click.option("--json", "as_json", is_flag=True, help="emit the representation file document")
def catalog_show(name: str, as_json: bool) -> None:
    try:
        entry = catalog_mod.entry(name)
    except UnknownEntry as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    doc = representation_to_document(entry.representation)
    if as_json:
        click.echo(json.dumps(doc, indent=2))
    else:
        click.echo(f"{entry.name}: {entry.notes}")
        click.echo(f"  field {doc['field']}, dim {doc['dim']}")
        for g in doc["generators"]:
            click.echo(f"  {g['label']}:")
            for row in g["matrix"]:
                click.echo("    [ " + "  ".join(row) + " ]")
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
