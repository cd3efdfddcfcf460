"""Write the dense worst-case representation files behind repfile.MAX_DIM
and repfile.MAX_ENTRY_DIGITS.

Generator i is s_i = I + alpha_i f_i^T, where every entry of alpha_i and f_i
is drawn from 1..3, so every f_i(alpha_j) is positive: each s_i is a
reflection with eigenvalue 1 + f_i(alpha_i) >= 4, every generator moves
every alpha_j, and all n^2 entries of every generator are nonzero.  With
--digits D the entries of f_i are drawn with D - 1 digits instead, so the
entries of the generators have at most D digits.

With --sqrt5 K it writes K such reflections over Q(sqrt 5) instead, K above
DIM allowed: every entry of alpha_i is a + b sqrt(5) with a and b drawn from
1..3, and every entry of f_i is x + y sqrt(5) with x and y drawn from 1..3,
or with --digits D from the ints of D - 3 or D - 2 digits, so that both parts
of every generator entry have at most D digits.  Every f_i(alpha_j) is
positive again.  Column q of s_i - I is alpha_i times the entry f_iq, a
factor in Z[sqrt 5] that no integer gcd removes, which makes these the
inputs on which a reflection's alpha^ can carry a large common factor.

    python benchmarks/dense_repfile.py DIM [--digits D] [--sqrt5 K] [--seed N] [--out PATH]

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


def sqrt5_document(n: int, k: int, seed: int, digits: int | None = None) -> dict:
    """k reflections I + alpha_i f_i^T of Q(sqrt 5)^n, the entries of alpha_i
    a + b sqrt(5) for a, b in 1..3 and those of f_i x + y sqrt(5) for x, y
    in 1..3, or of D - 3 or D - 2 digits."""
    rng = random.Random(seed)
    low, high = (1, 3) if digits is None else (10 ** (digits - 4), 10 ** (digits - 2) - 1)
    generators = []
    for i in range(k):
        alpha = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(n)]
        f = [(rng.randint(low, high), rng.randint(low, high)) for _ in range(n)]
        # (a + b sqrt 5)(x + y sqrt 5) = (a x + 5 b y) + (a y + b x) sqrt 5
        matrix = [
            [
                f"{int(r == c) + a * x + 5 * b * y}+{a * y + b * x}*sqrt(5)"
                for c, (x, y) in enumerate(f)
            ]
            for r, (a, b) in enumerate(alpha)
        ]
        generators.append({"label": f"s{i + 1}", "matrix": matrix})
    return {"field": {"quadratic": 5}, "dim": n, "generators": generators}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dim", type=int)
    parser.add_argument("--digits", type=int)
    parser.add_argument("--sqrt5", type=int, metavar="K", help="K reflections over Q(sqrt 5)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.sqrt5 is None:
        doc = dense_document(args.dim, args.seed, args.digits)
    else:
        doc = sqrt5_document(args.dim, args.sqrt5, args.seed, args.digits)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    else:
        json.dump(doc, sys.stdout)


if __name__ == "__main__":
    main()
