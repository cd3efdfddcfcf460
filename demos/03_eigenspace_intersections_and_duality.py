"""Intersections of eigenspaces, fixed subspaces, and the wedge-pairing duality.

Two independent computation paths agree everywhere: explicit wedge bases on
one side, kernels of compound matrices on the other.
"""

from math import comb

from reflext import Matrix, entry, kernel, recognize_reflection
from reflext.exterior import compound, exterior_subspace, minus_intersection, wedge
from reflext.linalg import intersect_all
from reflext.repkit import det_twist, dual_rep, duality_intertwiner, exterior_rep, hom_dim

rep = entry("A3").representation
refls = [recognize_reflection(g) for g in rep.generators]
n = rep.dim

# The joint lambda-eigenspace of k reflections with independent alphas is the
# line on alpha_1 ^ ... ^ alpha_k (when d = k), by formula and by brute force.
team = refls[:2]
line = minus_intersection(team, 2)
print("joint minus-eigenspace at d = k = 2:", line.basis)
ambient = comb(n, 2)
assert line == intersect_all(
    [kernel(compound(r.matrix, 2) - Matrix.identity(ambient).scale(r.eigenvalue)) for r in team],
    ambient,
)
assert line.basis.row(0) == wedge([r.alpha for r in team])

# Pointwise-fixed part of the d-th power == exterior power of the intersected
# hyperplanes (computed via eigen-kernels on the left, wedge bases on the right).
for d in range(n + 1):
    ambient = comb(n, d)
    fixed = intersect_all(
        [kernel(compound(r.matrix, d) - Matrix.identity(ambient)) for r in refls],
        ambient,
    )
    hyper = intersect_all([r.hyperplane for r in refls], n)
    assert fixed == exterior_subspace(hyper, d)
print("fixed-subspace description verified for all d on A3")

# Poincare-like duality: wedging into the top power identifies the (n-d)-th
# power with the dual of the d-th twisted by the determinant character.
for d in range(n + 1):
    phi = duality_intertwiner(rep, d)
    for g in rep.generators:
        assert phi @ compound(g, n - d) == compound(g, d).inverse().transpose().scale(g.det()) @ phi
    partner = det_twist(dual_rep(exterior_rep(rep, d)), rep)
    assert hom_dim(exterior_rep(rep, n - d), partner) >= 1
print("duality intertwiner identity verified for all d on A3")
print("pairing matrix at d = 1:", duality_intertwiner(rep, 1))
