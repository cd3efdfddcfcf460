"""Exterior powers as compound matrices, and how a reflection splits them.

The d-th exterior power of an n-dimensional space has one coordinate per
d-subset of the basis, ordered lexicographically; a linear map acts there by
the matrix of its d x d minors.
"""

from math import comb

from reflext import Matrix, recognize_reflection
from reflext.exterior import compound, eigen_split, wedge

a = Matrix.from_rows([[1, 2, 0], [0, 1, 1], [1, 0, 1]])
b = Matrix.from_rows([[2, 0, 1], [1, 1, 0], [0, 0, 1]])

print("second compound of a:", compound(a, 2))
print("top compound is the determinant:", compound(a, 3), "=", a.det())

# Functoriality (Cauchy-Binet): the compound of a product is the product of compounds.
for d in range(4):
    assert compound(a @ b, d) == compound(a, d) @ compound(b, d)
print("compound(ab, d) == compound(a, d) compound(b, d) for all d: verified")

# Wedge coordinates are the minors of the stacked vectors.
u, v = (1, 0, 2), (0, 1, -1)
print("\nu ^ v coordinates (e1^e2, e1^e3, e2^e3):", wedge([u, v]))
print("v ^ u flips the sign:                    ", wedge([v, u]))
print("u ^ u vanishes:                          ", wedge([u, u]))

# A reflection splits every exterior power into its 1- and lambda-eigenspaces.
s = recognize_reflection(Matrix.from_rows([[-1, 1, 0], [0, 1, 0], [0, 0, 1]]))
n = 3
for d in range(n + 1):
    split = eigen_split(s, d)
    print(
        f"d={d}: dim = {comb(n, d)},",
        f"fixed part {split.plus.dim} = C({n-1},{d}),",
        f"scaled part {split.minus.dim} = C({n-1},{d-1})",
    )
