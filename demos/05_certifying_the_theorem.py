"""The full pipeline: all exterior powers of a qualifying reflection
representation are simple and pairwise non-isomorphic.

Every verdict is backed by exact linear algebra; failures come with witnesses
that can be re-checked in a few lines.
"""

from reflext import entry, infinite_dihedral, verify_theorem

for name in ("A3", "H2-5", "A2-redundant"):
    report = verify_theorem(entry(name).representation, trace=(name == "A3"))
    dims = [d.commutant_dim for d in report.per_degree]
    print(f"{name}: {report.conclusion.status}, commutant dims {dims}, "
          f"basis subset {report.claim3_subset}")

# The infinite dihedral family has no invariant inner product for generic
# parameters, yet certification goes through (a*b = 4 is the degenerate case).
for a, b in [(1, 1), (3, 3), (2, 2)]:
    report = verify_theorem(infinite_dihedral(a, b))
    outcome = report.conclusion.status
    extra = ""
    if report.conclusion.witness_subspace is not None:
        extra = f"; invariant line {report.conclusion.witness_subspace.basis}"
    print(f"dihedral({a},{b}): {outcome}{extra}")

# Failure reports carry exact witnesses:
bad = verify_theorem(entry("cond4-fail").representation)
print(f"cond4-fail: {bad.conclusion.status}, violating pairs {bad.conclusion.witness_pairs}")

# The classical setting, k = n reflections along a basis, is Steinberg's
# theorem; the pipeline certifies it with every generator as the subset.
classical = verify_theorem(entry("B2").representation)
print(f"B2 (k = n): {classical.conclusion.status}, subset {classical.claim3_subset}")

# A move trace explains WHY all endomorphisms are scalar: the wedge coefficient
# is constant along graph moves, and moves reach every subset.
traced = verify_theorem(entry("A3").representation, trace=True)
trace = traced.per_degree[2].claim5_trace
print(f"\nd=2 move trace on A3, base {trace.base}:")
for seq in trace.sequences:
    chain = [trace.base] + [st.after for st in seq.steps]
    print("  " + " -> ".join(str(set(c)) for c in chain))
