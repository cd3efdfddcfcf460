"""Outside-in tracer: spans around calls into reflext's public functions.

The program itself is not changed.  `Tracer.install` wraps each function in
TARGETS and rebinds the wrapper in every loaded `reflext.*` module namespace
that holds the original, because `from .linalg import rref` copies the
binding.  Spans (name, start, end, parent, input id) stay in memory until
`dump`; self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from fractions import Fraction

# (module, attribute path) of every traced public function
TARGETS = (
    ("linalg", "solve_intertwiner"),
    ("linalg", "rref"),
    ("linalg", "kernel"),
    ("linalg", "charpoly"),
    ("linalg", "Matrix.det"),
    ("repkit", "hom_dim"),
    ("repkit", "simplicity"),
    ("repkit", "spin"),
    ("repkit", "exterior_rep"),
    ("repkit", "Representation.__init__"),
    ("exterior", "compound"),
    ("exterior", "minus_intersection"),
    ("exterior", "wedge"),
    ("polys", "roots_in_field"),
    ("reflections", "recognize_reflection"),
    ("theoremlab", "check_hypotheses"),
    ("theoremlab", "connected_basis_subset"),
    ("theoremlab", "verify_theorem"),
    ("graphs", "move_sequence"),
    ("repfile", "load_repfile"),
    ("reports", "theorem_document"),
    ("reports", "analyze_document"),
    ("reports", "validate_theorem_document"),
)

# Span that holds the tracer's own bookkeeping after a call; it is a child of
# the caller's span so that bookkeeping never counts as the caller's self time.
BOOKKEEPING = "tracer.bookkeeping"

# layers only the cli workload reaches
CLI_ONLY = {
    "graphs.move_sequence", "repfile.load_repfile", "reports.theorem_document",
    "reports.analyze_document", "reports.validate_theorem_document",
}
METHODS = (
    "commutant", "commutant-kernel", "norton", "spin-basis", "spin-eigen",
    "dual-spin-eigen", "dual-spin-basis", "search-exhausted", "dimension-one",
)


def scalar_bits(x) -> int:
    """Largest numerator/denominator bit length of a rational or a + b*sqrt(m)."""
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return max(scalar_bits(x.a), scalar_bits(x.b))


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.input_id = -1
        self.sums: Counter = Counter()
        self.maxima: Counter = Counter()
        self._solved: set[int] = set()
        self._restore: list = []

    def begin(self, input_id: int) -> None:
        """Start one input: its spans carry `input_id`, and repeated
        intertwiner solves are counted afresh."""
        self.input_id = input_id
        self._solved = set()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target whose module is loaded; idempotent per tracer."""
        if self._restore:
            return
        observers = {
            "linalg.solve_intertwiner": self._observe_solve,
            "linalg.rref": self._observe_rref,
            "repkit.hom_dim": self._observe_hom,
            "repkit.simplicity": self._observe_simplicity,
        }
        loaded = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "reflext"]
        for module_name, path in TARGETS:
            home = sys.modules.get(f"reflext.{module_name}")
            if home is None:
                continue
            name = f"{module_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(name, original, observers.get(name)))
                self._restore.append((cls, attr, original))
                continue
            original = getattr(home, path)
            wrapper = self._wrap(name, original, observers.get(name))
            for module in loaded:
                if getattr(module, path, None) is original:
                    setattr(module, path, wrapper)
                    self._restore.append((module, path, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn, observe):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.input_id)
            if observe is not None:
                observe(args, kwargs, result)
                spans.append((BOOKKEEPING, end, clock(), parent, self.input_id))
            return result

        return traced

    # -- per-call observations ----------------------------------------------

    def _observe_solve(self, args, kwargs, result) -> None:
        left, right = args[0], args[1]
        self.maxima["linalg.solve_intertwiner.max_unknowns"] = max(
            self.maxima["linalg.solve_intertwiner.max_unknowns"], left[0].rows * right[0].rows
        )
        key = hash((tuple(left), tuple(right)))
        if key in self._solved:
            self.sums["linalg.solve_intertwiner.repeats"] += 1
        self._solved.add(key)

    def _observe_rref(self, args, kwargs, result) -> None:
        matrix = args[0]
        cells = matrix.rows * matrix.cols
        self.sums["linalg.rref.cells"] += cells
        self.maxima["linalg.rref.max_cells"] = max(self.maxima["linalg.rref.max_cells"], cells)
        entries = result[0].entries
        if any(not isinstance(e, Fraction) for e in entries):
            self.sums["scalars.quad_rref_calls"] += 1
        bits = max((scalar_bits(e) for e in entries), default=0)
        self.maxima["scalars.max_bits"] = max(self.maxima["scalars.max_bits"], bits)

    def _observe_hom(self, args, kwargs, result) -> None:
        left, right = args[0], args[1]
        if left is right or left == right:
            self.sums["repkit.hom_dim.diagonal"] += 1

    def _observe_simplicity(self, args, kwargs, result) -> None:
        self.sums[f"repkit.simplicity.method.{result.method}"] += 1

    # -- output -----------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "spans": list(self.spans),
            "sums": dict(self.sums),
            "maxima": dict(self.maxima),
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus its direct children's durations.

    Spans of one thread nest properly, so direct children never overlap and
    their durations add up to the part of the parent's interval they cover.
    """
    child = [0.0] * len(spans)
    for _name, start, end, parent, _input in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_n, start, end, _p, _in) in enumerate(spans)]


def summarize(snapshots) -> dict:
    """Per-layer calls, self time and observed statistics over trace snapshots."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    sums: Counter = Counter()
    maxima: Counter = Counter()
    for snap in snapshots:
        spans = [tuple(s) for s in snap["spans"]]
        for span, own in zip(spans, self_times(spans)):
            calls[span[0]] += 1
            self_s[span[0]] += own
        sums.update(snap["sums"])
        for key, value in snap["maxima"].items():
            maxima[key] = max(maxima[key], value)
    return {"calls": calls, "self_s": self_s, "sums": sums, "maxima": maxima}


def layer_metrics(summary, passes: int, factor: float = 1.0) -> dict:
    """Per-layer metrics; counts and self times are per traced pass, since
    every pass runs the same inputs.  Self times are multiplied by `factor`,
    which converts seconds to reference seconds."""
    calls, self_s = summary["calls"], summary["self_s"]
    sums, maxima = summary["sums"], summary["maxima"]

    def share(part, whole):
        return part / whole if whole else 0.0

    m = {}
    for module_name, path in TARGETS:
        name = f"{module_name}.{path}"
        m[f"{name}.calls"] = (calls[name] / passes, "count")
        m[f"{name}.self_s"] = (self_s[name] * factor / passes, "s")
    m["linalg.solve_intertwiner.max_unknowns"] = (
        maxima["linalg.solve_intertwiner.max_unknowns"], "count")
    m["linalg.solve_intertwiner.repeat_share"] = (
        share(sums["linalg.solve_intertwiner.repeats"], calls["linalg.solve_intertwiner"]), "ratio")
    m["repkit.hom_dim.diagonal_share"] = (
        share(sums["repkit.hom_dim.diagonal"], calls["repkit.hom_dim"]), "ratio")
    m["linalg.rref.cells"] = (sums["linalg.rref.cells"] / passes, "count")
    m["linalg.rref.max_cells"] = (maxima["linalg.rref.max_cells"], "count")
    m["linalg.rref.self_s_per_cell"] = (
        share(self_s["linalg.rref"] * factor, sums["linalg.rref.cells"]), "s/cell")
    m["scalars.max_bits"] = (maxima["scalars.max_bits"], "bits")
    m["scalars.quad_rref_share"] = (
        share(sums["scalars.quad_rref_calls"], calls["linalg.rref"]), "ratio")
    for method in METHODS:
        m[f"repkit.simplicity.method.{method}"] = (
            sums[f"repkit.simplicity.method.{method}"] / passes, "count")
    m[f"{BOOKKEEPING}.self_s"] = (self_s[BOOKKEEPING] * factor / passes, "s")
    return m


def reported(metrics: dict) -> dict:
    """The metrics that go into the final JSON line of a traced run: all but
    the self times of layers only the cli reaches (elsewhere they always read
    0) and the tracer's own bookkeeping."""
    return {
        k: v for k, v in metrics.items()
        if not (k.endswith(".self_s") and k[: -len(".self_s")] in CLI_ONLY)
        and k != f"{BOOKKEEPING}.self_s"
    }
