"""Cross-check against the baseline table in ROADMAP.md.

    python3 perfbench/crosscheck.py [--out FILE]

Measures the six baseline rows on this machine (median of a few repeats),
prints each next to the recorded figure and names every row whose ratio
falls outside 1 +/- the wall_s bound in BENCHMARK.json.  Writes the figures,
with machine and Python details, to FILE (default .perfbench/crosscheck.json).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# ROADMAP.md baseline, measured 2026-10-17 with Python 3.11.7 (seconds)
BASELINE = {
    "verify_theorem, all 24 catalog entries": 0.26,
    "verify_theorem A4": 0.36,
    "verify_theorem A5": 5.6,
    "reflext verify A2 --json, cold CLI": 0.72,
    "import reflext.cli": 0.6,
    "import sympy": 0.38,
}


def timed(fn, repeats):
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def measure():
    import reflext
    from perfbench import inputs
    from perfbench.run import parse_importtime

    catalog = [reflext.entry(name).representation for name in reflext.list_entries()]
    a4, a5 = inputs.cartan_rep("A", 4), inputs.cartan_rep("A", 5)
    env = dict(os.environ, PYTHONPATH=SRC)

    def cold_cli():
        subprocess.run([sys.executable, "-m", "reflext.cli", "verify", "A2", "--json"],
                       env=env, cwd=ROOT, capture_output=True, timeout=120, check=True)

    imports = []
    for _ in range(5):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import reflext.cli"],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        imports.append(parse_importtime(done.stderr))
    return {
        "verify_theorem, all 24 catalog entries": timed(
            lambda: [reflext.verify_theorem(r) for r in catalog], 5),
        "verify_theorem A4": timed(lambda: reflext.verify_theorem(a4), 5),
        "verify_theorem A5": timed(lambda: reflext.verify_theorem(a5), 3),
        "reflext verify A2 --json, cold CLI": timed(cold_cli, 5),
        "import reflext.cli": statistics.median(i["reflext_cli"] for i in imports),
        "import sympy": statistics.median(i["sympy"] for i in imports),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench", "crosscheck.json"))
    args = parser.parse_args()
    sys.path[:0] = [ROOT, SRC]
    from perfbench.run import machine

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bound = next(m["bound"] for m in json.load(fh)["end_to_end"] if m["name"] == "wall_s")
    measured = measure()
    rows = []
    for name, base in BASELINE.items():
        ratio = measured[name] / base
        ok = abs(ratio - 1) <= bound
        rows.append({"row": name, "baseline_s": base, "measured_s": measured[name],
                     "ratio": ratio, "reproduced": ok})
        print(f"{name:<40} baseline {base:>6.3f} s  measured {measured[name]:>7.3f} s  "
              f"ratio {ratio:5.2f}  {'reproduced' if ok else 'NOT reproduced'}")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"measured_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                   "machine": machine(), "bound": bound, "rows": rows}, fh, indent=1)


if __name__ == "__main__":
    main()
