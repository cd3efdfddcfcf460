"""Write the dense worst-case representation files behind repfile.MAX_DIM
and repfile.MAX_ENTRY_DIGITS.

Generator i is s_i = I + alpha_i f_i^T, where every entry of alpha_i and f_i
is drawn from 1..3, so every f_i(alpha_j) is positive: each s_i is a
reflection with eigenvalue 1 + f_i(alpha_i) >= 4, every generator moves
every alpha_j, and all n^2 entries of every generator are nonzero.  With
--digits D the entries of f_i are drawn with D - 1 digits instead, so the
entries of the generators have at most D digits.

    python benchmarks/dense_repfile.py DIM [--digits D] [--seed N] [--out PATH]

writes the document to PATH (standard output without --out); time it with

    PYTHONPATH=src python -m reflext.cli verify PATH --json
"""

from __future__ import annotations

import argparse
import json
import random
import sys


def dense_document(n: int, seed: int, digits: int | None = None) -> dict:
    rng = random.Random(seed)
    low, high = (1, 3) if digits is None else (10 ** (digits - 2), 10 ** (digits - 1) - 1)
    generators = []
    for i in range(n):
        alpha = [rng.randint(1, 3) for _ in range(n)]
        f = [rng.randint(low, high) for _ in range(n)]
        matrix = [[str(int(r == c) + alpha[r] * f[c]) for c in range(n)] for r in range(n)]
        generators.append({"label": f"s{i + 1}", "matrix": matrix})
    return {"field": "Q", "dim": n, "generators": generators}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dim", type=int)
    parser.add_argument("--digits", type=int)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    doc = dense_document(args.dim, args.seed, args.digits)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    else:
        json.dump(doc, sys.stdout)


if __name__ == "__main__":
    main()
