"""reflext benchmark runner.

    python3 perfbench/run.py --workload {ladder,growth,sweep,cli} --seed N \
        --seconds S --trace {0,1}

Runs the workload's seeded input set in passes, one caller at a time, until
the next pass would overrun S seconds (at least one pass), and checks every
output.  With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics,
the import breakdown and the tracing overhead.  Human-readable lines
come first; the last line of standard output is one JSON object.  Results,
with machine and Python details, and the traced spans are written under
.perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 7
IMPORT_REPEATS = 3
ITEM_LIMIT_S = 60.0

IMPORTS = {"reflext_cli": "reflext.cli", "sympy": "sympy", "jsonschema": "jsonschema",
           "click": "click"}


def tail(values):
    """Highest percentile with at least ten samples beyond it (nearest rank).

    Returns (value, percentile, sample count, samples beyond); with ten or
    fewer samples no percentile qualifies and the maximum is returned.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n, 0
    k = n - 11
    return xs[k], 100.0 * (k + 1) / n, n, 10


def measure(items, seconds, before_item=None):
    """Run passes over `items` until the next pass would end after `seconds`.

    A pass keeps every call's interval on the perf_counter clock, for
    `calibrate`, and its time; its wall time is the sum of its calls.
    """
    start = time.perf_counter()
    passes = []
    while True:
        gc.collect()
        outputs, spans = [], []
        t_pass = time.perf_counter()
        for index, item in enumerate(items):
            if before_item is not None:
                before_item(index)
            t = time.perf_counter()
            try:
                out, error = item.run(), None
            except Exception as exc:  # a crash of the program is a failed input
                out, error = None, f"exception {type(exc).__name__}: {exc}"
            spans.append((t, time.perf_counter()))
            outputs.append((out, error))
        elapsed = time.perf_counter() - t_pass
        latencies = [t1 - t0 for t0, t1 in spans]
        failures = []
        for item, (out, error), latency in zip(items, outputs, latencies):
            reason = error
            if reason is None:
                try:
                    reason = item.check(out)
                except Exception as exc:  # an output the checker cannot read
                    reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is None and latency > ITEM_LIMIT_S:
                reason = f"took {latency:.1f} s, over the {ITEM_LIMIT_S:.0f} s limit"
            if reason is not None:
                failures.append((item.id, reason))
        passes.append({"spans": spans, "latencies": latencies, "wall": sum(latencies),
                       "failures": failures})
        if time.perf_counter() - start + elapsed > seconds:
            return passes


def calibrate(passes, sampler):
    """Add every call's time in reference seconds (see speed.py) to `passes`."""
    for p in passes:
        p["ref_latencies"] = [sampler.reference(t0, t1) for t0, t1 in p["spans"]]
        p["ref_wall"] = sum(p["ref_latencies"])


def setup_intervals(workload, seed):
    """Intervals, on the perf_counter clock, from starting a fresh
    interpreter until it has imported the workload's module and built the
    workload's inputs."""
    code = (
        "import sys, importlib\n"
        f"sys.path[:0] = {[SRC, ROOT]!r}\n"
        f"importlib.import_module({workload.module!r})\n"
        "from perfbench.workloads import WORKLOADS\n"
        f"WORKLOADS[{workload.name!r}].prepare({seed})\n"
        "print('ready', flush=True)\n"
    )
    spans = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            spans.append((t, time.perf_counter()))
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up process failed")
    return spans


def parse_importtime(text):
    """Cumulative seconds of the first `-X importtime` line naming each module."""
    found = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        name = name.strip()
        if name in IMPORTS.values() and name not in found and cumulative.strip().isdigit():
            found[name] = int(cumulative) / 1e6
    return {key: found.get(module, 0.0) for key, module in IMPORTS.items()}


def import_breakdown():
    """`-X importtime` figures of `import reflext.cli`, one dict per child,
    with the child's interval on the perf_counter clock."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        t = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import reflext.cli"],
            env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT, capture_output=True,
            text=True, timeout=120, check=True,
        )
        runs.append(((t, time.perf_counter()), parse_importtime(done.stderr)))
    return runs


def machine():
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def latency_metrics(items, passes, key="ref_latencies"):
    """An input's latency is the median of its calls in the run, over passes
    and over repeats within a pass, so every run has one sample per input
    whatever the number of passes."""
    calls = {}
    for p in passes:
        for item, latency in zip(items, p[key]):
            calls.setdefault(item.id, []).append(latency)
    per_input = [statistics.median(xs) for xs in calls.values()]
    value, pct, n, beyond = tail(per_input)
    return statistics.median(per_input), (value, pct, n, beyond)


def run(args):
    from perfbench import speed
    from perfbench import tracer as tracing
    from perfbench.workloads import WORKLOADS, items_for

    workload = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=f"{label}-", dir=OUT)
    items = items_for(args.workload, args.seed, workdir)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "items": [i.id for i in items]}

    if not args.trace:
        with speed.Sampler(ROOT) as sampler:
            passes = measure(items, args.seconds)
            peak = resource.getrusage(
                resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            ).ru_maxrss / 1024
            setups = setup_intervals(workload, args.seed)  # after, so they miss the peak
        calibrate(passes, sampler)
        p50, (tail_s, pct, n, beyond) = latency_metrics(items, passes)
        metrics = {
            "setup_s": (statistics.median(sampler.reference(*s) for s in setups), "s"),
            "wall_s": (statistics.median(p["ref_wall"] for p in passes), "s"),
            "latency_p50_s": (p50, "s"),
            "latency_tail_s": (tail_s, "s"),
            "peak_rss_mb": (peak, "MB"),
        }
        raw_p50, (raw_tail, _, _, _) = latency_metrics(items, passes, "latencies")
        raw = {
            "setup_s": statistics.median(t1 - t0 for t0, t1 in setups),
            "wall_s": statistics.median(p["wall"] for p in passes),
            "latency_p50_s": raw_p50,
            "latency_tail_s": raw_tail,
        }
        record["latency_tail"] = {"percentile": pct, "samples": n, "beyond": beyond}
        record["seconds_as_measured"] = raw
    else:
        if args.workload == "cli":
            spans_dir = os.path.join(workdir, "spans")
            os.makedirs(spans_dir)
            traced_items = items_for(args.workload, args.seed, workdir, lambda index: [
                sys.executable, "-m", "perfbench.launcher", spans_dir, str(index)])

            def traced_pass():
                return measure(traced_items, 0)
        else:
            tracer = tracing.Tracer()

            def traced_pass():
                tracer.install()
                try:
                    return measure(items, 0, tracer.begin)
                finally:
                    tracer.uninstall()

        # untraced and traced passes alternate, so both see the same machine
        untraced, passes = [], []
        with speed.Sampler(ROOT) as sampler:
            start = time.perf_counter()
            while True:
                untraced += measure(items, 0)
                passes += traced_pass()
                spent = time.perf_counter() - start
                if spent + spent / len(passes) > args.seconds:
                    break
            imports = import_breakdown()
        calibrate(untraced, sampler)
        calibrate(passes, sampler)
        if args.workload == "cli":
            snapshots = []
            for name in sorted(os.listdir(spans_dir)):
                with open(os.path.join(spans_dir, name), encoding="utf-8") as fh:
                    snapshots.append(json.load(fh))
        else:
            snapshots = [tracer.snapshot()]
        with open(os.path.join(OUT, f"spans-{label}.json"), "w", encoding="utf-8") as fh:
            json.dump(snapshots, fh)
        overhead = (statistics.median(p["ref_wall"] for p in passes)
                    - statistics.median(p["ref_wall"] for p in untraced))
        # self times are measured inside the calls; scale them by the traced
        # passes' speed, as the calls were
        factor = sum(p["ref_wall"] for p in passes) / sum(p["wall"] for p in passes)
        every = tracing.layer_metrics(tracing.summarize(snapshots), len(passes), factor)
        for key in IMPORTS:
            every[f"import.{key}_s"] = (statistics.median(
                figures[key] * sampler.reference(*span) / (span[1] - span[0])
                for span, figures in imports), "s")
        every["tracer.overhead_s"] = (overhead, "s")
        print("  times in reference seconds (see perfbench/speed.py)")
        for name, (value, unit) in sorted(every.items()):
            print(f"  {name:<48} {value:>14.6g} {unit}")
        metrics = tracing.reported(every)
        record["untraced_passes"] = len(untraced)
        record["all_layer_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in every.items()}
        passes = untraced + passes

    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    record.update(passes=len(passes), attempted=attempted, failures=failures)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(os.path.join(OUT, f"result-{label}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(workdir)

    print(f"workload {args.workload}, seed {args.seed}, {len({i.id for i in items})} inputs, "
          f"{len(items)} calls x {len(passes)} passes, python {platform.python_version()}")
    if not args.trace:
        print("  times in reference seconds (see perfbench/speed.py), as measured in brackets")
        for name, (value, unit) in metrics.items():
            note = f"  ({raw[name]:.6g} {unit})" if name in raw else ""
            if name == "latency_tail_s":
                t = record["latency_tail"]
                note += (f"  (p{t['percentile']:.1f} of {t['samples']} samples, "
                         f"{t['beyond']} beyond)")
            print(f"  {name:<16} {value:.6g} {unit}{note}")
    print(f"  failed_share     {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted})")
    for item_id, reason in sorted(set(failures)):
        print(f"  FAILED {item_id}: {reason}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ladder", "growth", "sweep", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "reflext", "__init__.py")):
        print(f"error: no reflext sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, SRC]
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
