"""Command-line surface.

Subcommands: analyze, verify, exterior, hom, catalog list|show.
Exit codes: 0 success / theorem verified, 2 parse or input error,
3 hypothesis failure, 4 internal certification failure; `main` alone turns
an error into its code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import comb

from . import catalog as catalog_mod
from .errors import InternalError, ParseError, ReflextError, UnknownEntry
from .linalg import Representation
from .repfile import load_repfile, matrix_doc, representation_to_document
from .reports import (
    analyze_document,
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
# an error with exit 2.  Times at the limit are whole in-process commands with
# --json on a 2-vCPU Xeon VM, Python 3.11.7.
MAX_TRACE_DIM = 12  # verify --trace emits 2**n - 1 move sequences: 4095 at A12, 5-8 s for 44 MB
MAX_EXTERIOR_DIM = 70  # exterior --d forms C(n, d)-square compounds: 0.6 s at A8, d = 4
# hom solves (left dim)(right dim) unknowns, 400 at the limit, and no time
# bound holds there on dense input: 0.25-0.45 s at A6:3 A6:3, but a cold
# `hom F F --json` took 159 s on F from benchmarks/dense_repfile.py 20 and
# was stopped after 300 s on F from dense_repfile.py 12 --digits 100
MAX_HOM_DIM = 20


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


def _emit(doc: dict, render, as_json: bool) -> None:
    print(json.dumps(doc, indent=2) if as_json else render(doc))


def _listing(heading: list[str], generators: list[dict]) -> str:
    """The heading lines, then each generator's label and matrix rows."""
    lines = list(heading)
    for g in generators:
        lines.append(f"  {g['label']}:")
        lines.extend("    [ " + "  ".join(row) + " ]" for row in g["matrix"])
    return "\n".join(lines)


def analyze(target: str, as_json: bool) -> int:
    """Per-generator reflection data, the non-fixing graph, and condition-4 status."""
    rep, source = _load_target(target)
    hyp = check_hypotheses(rep)
    doc = analyze_document(rep, hyp, source)
    _emit(doc, render_analyze_text, as_json)
    return EXIT_OK if doc["ok"] else EXIT_HYPOTHESIS


def verify(target: str, as_json: bool, trace: bool, degrees: list[int]) -> int:
    """Run the full certification pipeline; exit 0 iff the theorem is verified."""
    rep, source = _load_target(target)
    if trace:
        _refuse_above(rep.dim, MAX_TRACE_DIM, "dimension for --trace")
    report = verify_theorem(rep, trace=trace, degrees=degrees or None)
    _emit(theorem_document(report, rep, source), render_theorem_text, as_json)
    # verify_theorem raises InternalError rather than conclude CertificationFailed
    return EXIT_OK if report.conclusion.status == "TheoremVerified" else EXIT_HYPOTHESIS


def exterior(target: str, degree: int, as_json: bool) -> int:
    """Print the compound generator matrices of the d-th exterior power."""
    from .repkit import exterior_rep

    rep, source = _load_target(target)
    _refuse_above(_power_dim(rep.dim, degree), MAX_EXTERIOR_DIM, f"dimension of degree {degree}")
    ext = exterior_rep(rep, degree)
    doc = {
        "source": source,
        "d": degree,
        "dim": ext.dim,
        "generators": [
            {"label": label, "matrix": matrix_doc(g)}
            for label, g in zip(ext.labels, ext.generators)
        ],
    }
    heading = [f"exterior power d={degree} of {source} (dim {ext.dim})"]
    _emit(doc, lambda d: _listing(heading, d["generators"]), as_json)
    return EXIT_OK


def _load_power(spec: str) -> tuple[Representation, str]:
    """TARGET or TARGET:d, the latter meaning the d-th exterior power."""
    from .repkit import exterior_rep

    base, sep, suffix = spec.rpartition(":")
    digits = suffix.removeprefix("-")
    if sep and base and digits.isascii() and digits.isdigit():
        rep, source = _load_target(base)
        try:
            d = int(suffix)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"degree of {base!r} has {len(suffix)} digits") from None
        _refuse_above(_power_dim(rep.dim, d), MAX_HOM_DIM, f"dimension of {spec}")
        return exterior_rep(rep, d), f"{source}:{suffix}"
    rep, source = _load_target(spec)
    _refuse_above(rep.dim, MAX_HOM_DIM, f"dimension of {spec}")
    return rep, source


def hom(left: str, right: str, as_json: bool) -> int:
    """Dimension of the space of intertwiners LEFT -> RIGHT (use NAME:d for exterior powers)."""
    from .repkit import hom_dim

    lrep, lsource = _load_power(left)
    rrep, rsource = _load_power(right)
    dim = hom_dim(lrep, rrep)
    if as_json:
        print(json.dumps({"left": lsource, "right": rsource, "hom_dim": dim}))
    else:
        print(f"dim Hom({lsource}, {rsource}) = {dim}")
    return EXIT_OK


def catalog_list() -> int:
    """Names, dimensions and expected verdicts of the built-in entries."""
    for name in catalog_mod.list_entries():
        entry = catalog_mod.entry(name)
        expected = (
            "applies"
            if entry.expected.theorem_applies
            else f"fails ({entry.expected.failure_reason})"
        )
        print(f"{name:<22} dim {entry.representation.dim}  theorem {expected}")
    return EXIT_OK


def catalog_show(name: str, as_json: bool) -> int:
    """One entry as a representation file document."""
    entry = catalog_mod.entry(name)
    doc = representation_to_document(entry.representation)
    heading = [f"{entry.name}: {entry.notes}", f"  field {doc['field']}, dim {doc['dim']}"]
    _emit(doc, lambda d: _listing(heading, d["generators"]), as_json)
    return EXIT_OK


def _parser(prog_name: str | None) -> argparse.ArgumentParser:
    # an option must be spelled out: --js is an error, not --json
    parser = argparse.ArgumentParser(
        prog=prog_name or "reflext",
        description="Exact certification tools for reflection representations "
        "and their exterior powers.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(group, run, name=None):
        sub = group.add_parser(
            name or run.__name__, help=run.__doc__, description=run.__doc__, allow_abbrev=False
        )
        sub.set_defaults(run=run)
        return sub

    def json_flag(sub, help="emit the structured document"):
        sub.add_argument("--json", dest="as_json", action="store_true", help=help)

    sub = command(commands, analyze)
    sub.add_argument("target")
    json_flag(sub)

    sub = command(commands, verify)
    sub.add_argument("target")
    json_flag(sub)
    sub.add_argument("--trace", action="store_true", help="include move-sequence proof traces")
    sub.add_argument(
        "--d", dest="degrees", action="append", type=int, default=[],
        help="restrict exterior degrees",
    )

    sub = command(commands, exterior)
    sub.add_argument("target")
    sub.add_argument("--d", dest="degree", required=True, type=int, help="exterior-power degree")
    json_flag(sub)

    sub = command(commands, hom)
    sub.add_argument("left")
    sub.add_argument("right")
    json_flag(sub)

    catalog = commands.add_parser(
        "catalog", help="Built-in example representations.", allow_abbrev=False
    )
    entries = catalog.add_subparsers(dest="command", metavar="COMMAND", required=True)
    command(entries, catalog_list, "list")
    sub = command(entries, catalog_show, "show")
    sub.add_argument("name")
    json_flag(sub, "emit the representation file document")
    return parser


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Run one command; always ends in SystemExit with its exit code.

    This is the one place where an error becomes an exit code: a
    ReflextError prints one `error:` line and exits 4 when it is an
    InternalError (a failed consistency check or a SchemaViolation), 2
    otherwise; an argument error exits 2 from argparse."""
    options = vars(_parser(prog_name).parse_args(args))
    del options["command"]
    run = options.pop("run")
    try:
        code = run(**options)
    except ReflextError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_CERTIFICATION if isinstance(exc, InternalError) else EXIT_PARSE
    sys.exit(code)


if __name__ == "__main__":
    main()
