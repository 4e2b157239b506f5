"""Exact Kronecker coefficients via lattice points in g-vector cones.

The pipeline builds a twisted glued hive quiver with an integer weight
grading, describes its g-vector cone through submodule dimension vectors
of boundary modules, and evaluates Kronecker coefficients as signed sums
of exact lattice-point counts in fibre polytopes.  A symmetric-group
character oracle provides independent verification.
"""

from .diamonds import (HiveSpec, build_bar, build_tilde, canonical_vertex,
                       hive, twist_sequence)
from .kron import kronecker, kronecker_oracle, mn_character
from .pathmods import PathModule, boundary_path, diagonal_module, submodule_dims
from .polyhedra import Cone, build_cone, count_lattice_points
from .quiver import (BMatrix, IceQuiver, VertexId, b_matrix, det_vertex,
                     hive_vertex, mutate_quiver, mutate_weights)

__version__ = "0.1.0"

__all__ = [
    "BMatrix", "Cone", "HiveSpec", "IceQuiver",
    "PathModule", "VertexId", "b_matrix", "boundary_path", "build_bar",
    "build_cone", "build_tilde", "canonical_vertex", "count_lattice_points",
    "det_vertex", "diagonal_module", "hive", "hive_vertex", "kronecker",
    "kronecker_oracle", "mn_character", "mutate_quiver",
    "mutate_weights", "submodule_dims", "twist_sequence",
]
