"""Exact Kronecker coefficients via lattice points in g-vector cones.

The pipeline builds a twisted glued hive quiver with an integer weight
grading, describes its g-vector cone through submodule dimension vectors
of boundary modules, and evaluates Kronecker coefficients as signed sums
of exact lattice-point counts in fibre polytopes.  A symmetric-group
character oracle provides independent verification.  Everything else is
imported from its own module.
"""

from .kron import kronecker, kronecker_oracle
from .polyhedra import Cone, build_cone, count_lattice_points

__version__ = "0.1.0"

__all__ = ["Cone", "build_cone", "count_lattice_points", "kronecker",
           "kronecker_oracle"]
