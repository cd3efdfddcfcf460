"""The four workloads.  Each is a fixed, seeded list of items run one after
another by one caller (a closed loop); a pass runs every item once.

An item's `run` is the timed call; `check` reads its output afterwards and
returns None when it is correct, or the reason it is not.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from . import inputs
from .check import asymmetric_pairs, check, from_document, from_report
from .inputs import VERIFIED, Case

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CLI_TIMEOUT_S = 60


@dataclass
class Item:
    id: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def _verify_item(case: Case) -> Item:
    import reflext

    # looked up at call time, so a tracer installed later sees the call
    return Item(
        case.id,
        lambda: reflext.verify_theorem(case.rep),
        lambda report: check(case, from_report(report)),
    )


# -- cli ------------------------------------------------------------------

# (subcommand, target, options) over catalog names and seeded repfiles (the
# q* names); `hom` compares exterior powers NAME:a and NAME:b of one input.
CLI_MIX = (
    ("verify", "A2", ()),
    ("verify", "A3", ()),
    ("verify", "G2", ()),
    ("verify", "H2-5", ()),
    ("verify", "cond4-fail", ()),
    ("verify", "dihedral-1-3", ()),
    ("verify", "dihedral-2-2", ()),
    ("verify", "reducible-direct-sum", ()),
    ("verify", "B2", ("--trace",)),
    ("verify", "A2-redundant", ("--trace",)),
    ("analyze", "reducible-direct-sum", ()),
    ("analyze", "cond4-fail", ()),
    ("analyze", "A3", ()),
    ("hom", "A3:1 A3:2", ()),
    ("hom", "B2:0 B2:2", ()),
    ("hom", "G2:1 G2:1", ()),
    ("verify", "q-simple", ()),
    ("verify", "q-singular", ()),
    ("verify", "q-transvection", ()),
    ("verify", "q-rank2", ()),
    ("verify", "q5-simple", ()),
    ("verify", "q5-H3", ("--trace",)),
    ("analyze", "q-asymmetric", ()),
    ("hom", "q5-simple:1 q5-simple:1", ()),
)


def cli_cases(seed: int) -> dict[str, Case]:
    """Catalog cases plus the seeded inputs the cli workload writes as repfiles."""
    import random

    rng = random.Random(seed)
    cases = {c.id: c for c in inputs.catalog_cases()}
    for case in (
        inputs.generalized(rng, "q-simple", 3, "simple", bits=3, conjugate_steps=6),
        inputs.generalized(rng, "q-singular", 3, "singular", bits=3),
        inputs.generalized(rng, "q-transvection", 3, "transvection", bits=3),
        inputs.generalized(rng, "q-rank2", 3, "rank2", bits=3),
        inputs.generalized(rng, "q-asymmetric", 3, "asymmetric", bits=3),
        inputs.generalized(rng, "q5-simple", 2, "simple", bits=2, quadratic=True),
        Case("q5-H3", inputs.h_rep(3).conjugate(inputs.unimodular(rng, 3, 6)), VERIFIED),
    ):
        cases[case.id] = case
    return cases


def _cli_check(sub: str, target: str, options, cases, exit_code: int, stdout: str):
    if sub == "hom":
        left, right = target.split()
        expected = int(left.split(":")[1] == right.split(":")[1])
        if exit_code != 0:
            return f"exit code {exit_code}, expected 0"
        got = json.loads(stdout)["hom_dim"]
        return None if got == expected else f"hom_dim {got}, expected {expected}"
    case = cases[target]
    doc = json.loads(stdout)
    if sub == "analyze":
        ok = case.reason not in ("condition1", "condition4")
        if exit_code != (0 if ok else 3) or doc["ok"] != ok:
            return f"analyze exit code {exit_code} / ok {doc['ok']}, expected ok {ok}"
        if case.reason == "condition4":
            return asymmetric_pairs(case, [tuple(p) for p in doc["condition4"]["violations"]])
        return None
    expected_exit = 0 if case.status == VERIFIED else 3
    if exit_code != expected_exit:
        return f"exit code {exit_code}, expected {expected_exit}"
    problem = check(case, from_document(doc))
    if problem is None and "--trace" in options and case.status == VERIFIED:
        if any(d["claim5_trace"] is None for d in doc["per_degree"]):
            return "--trace output lacks a move-sequence trace"
    return problem


def cli_items(seed: int, workdir: str, launcher_for=None) -> list[Item]:
    """One cold CLI process per item.  `launcher_for(item_index)` may give a
    command that replaces `python -m reflext.cli` for that item."""
    from reflext.repfile import representation_to_document

    cases = cli_cases(seed)
    paths = {}
    for name, case in cases.items():
        if name.startswith("q"):
            paths[name] = os.path.join(workdir, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(representation_to_document(case.rep), fh)
    items = []
    for index, (sub, target, options) in enumerate(CLI_MIX):
        words = []
        for word in target.split():
            name, sep, degree = word.partition(":")
            words.append(paths.get(name, name) + sep + degree)
        launcher = launcher_for(index) if launcher_for else None
        argv = (launcher or [sys.executable, "-m", "reflext.cli"]) + [sub, *words, *options, "--json"]
        # the launcher lives in this package, so it also needs the checkout root
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, ROOT] if launcher else [SRC]))

        def run(argv=argv, env=env):
            try:
                done = subprocess.run(
                    argv, env=env, cwd=ROOT, capture_output=True, text=True,
                    timeout=CLI_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                return None
            return done.returncode, done.stdout

        def check_cli(result, sub=sub, target=target, options=options):
            if result is None:
                return f"timed out after {CLI_TIMEOUT_S} s"
            code, stdout = result
            try:
                return _cli_check(sub, target, options, cases, code, stdout)
            except (ValueError, KeyError, TypeError) as exc:
                return f"bad JSON output: {type(exc).__name__}: {exc}"

        items.append(Item(f"{sub} {target} {' '.join(options)}".strip(), run, check_cli))
    return items


# -- registry -------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    module: str  # what a fresh interpreter imports before the first input
    prepare: Callable[[int], object]  # builds the inputs from the seed


WORKLOADS = {
    "ladder": Workload("ladder", "reflext", inputs.ladder),
    "growth": Workload("growth", "reflext", inputs.growth),
    "sweep": Workload("sweep", "reflext", inputs.sweep),
    "cli": Workload("cli", "reflext.cli", cli_cases),
}


def items_for(name: str, seed: int, workdir: str, launcher_for=None) -> list[Item]:
    """The calls of one pass; an input called more than once keeps its id."""
    if name == "cli":
        return cli_items(seed, workdir, launcher_for)
    items = [_verify_item(case) for case in WORKLOADS[name].prepare(seed)]
    if name == "ladder":
        # The rank-4 inputs take 0.3-0.5 s, A5 and D5 5-6 s.  Three rounds of
        # the rank-4 inputs, around A5 and D5, make the median input's time a
        # median of three calls while a pass still fits in one run.
        rank4, (a5, d5) = items[:-2], items[-2:]
        items = rank4 + [a5] + rank4 + [d5] + rank4
    return items
