"""Exact-arithmetic toolkit for generalized reflections, exterior powers of
reflection representations, and machine certification that those powers are
simple and pairwise non-isomorphic."""

from .scalars import QuadExt, Scalar, as_scalar, parse_scalar, render_scalar
from .linalg import (
    Matrix,
    Representation,
    Subspace,
    image,
    intersect,
    kernel,
    rref,
    solve_intertwiner,
    subspace_sum,
)
from .reflections import ReflectionData, fixes_vector, recognize_reflection
from .graphs import Graph, MoveStep, deletable_vertex, induced, is_connected, move_sequence
from .theoremlab import (
    HypothesisReport,
    SimplicityVerdict,
    TheoremReport,
    check_hypotheses,
    connected_basis_subset,
    verify_theorem,
)
from .catalog import CatalogEntry, entry, infinite_dihedral, list_entries

__all__ = [
    "QuadExt",
    "Scalar",
    "as_scalar",
    "parse_scalar",
    "render_scalar",
    "Matrix",
    "Representation",
    "Subspace",
    "image",
    "intersect",
    "kernel",
    "rref",
    "solve_intertwiner",
    "subspace_sum",
    "ReflectionData",
    "fixes_vector",
    "recognize_reflection",
    "Graph",
    "MoveStep",
    "deletable_vertex",
    "induced",
    "is_connected",
    "move_sequence",
    "HypothesisReport",
    "SimplicityVerdict",
    "TheoremReport",
    "check_hypotheses",
    "connected_basis_subset",
    "verify_theorem",
    "CatalogEntry",
    "entry",
    "infinite_dihedral",
    "list_entries",
    "__version__",
]

__version__ = "0.1.0"
