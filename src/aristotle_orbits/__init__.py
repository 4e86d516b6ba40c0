"""Exact engine for the second central extension of the (1+1) Aristotle group.

The package computes with the 5-dimensional step-3 nilpotent Lie algebra
spanned by (P, E, F, Lambda, Y), its simply connected group in
coordinates of the second kind, the coadjoint action on dual points
(p, e, f, k, y), orbit invariants and classification, and the induced
time- and space-picture dynamics.  A verification suite, a printed-formula
audit, and an independent polynomial reconstruction of the group law are
part of the public surface, on the command line as ``aristotle-orbits``.
"""

from .backend import FLOAT, RATIONAL, InputFormatError, Scalar
from .dynamics import (
    ChartUndefinedError, IntegratorConfig, OrbitParams, SpaceState,
    TimeState, Trajectory, closed_form_trajectory, dual_flow_trajectory,
    integrate, space_closed_form, time_closed_form,
)
from .lie_core import (
    AlgebraElement, BasisIndex, GroupElement, StructureTensor, bracket,
    compose, compose_printed, inverse, jacobi_residual,
)
from .orbits import (
    DualElement, InvariantSet, OrbitClass, classify, coadjoint,
    coadjoint_matrix, coadjoint_printed, invariants, orbit_dimension, pair,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "BasisIndex", "ChartUndefinedError", "DualElement",
    "FLOAT", "GroupElement", "InputFormatError", "IntegratorConfig",
    "InvariantSet", "OrbitClass", "OrbitParams", "RATIONAL", "Scalar",
    "SpaceState", "StructureTensor", "TimeState", "Trajectory", "bracket",
    "classify", "closed_form_trajectory", "coadjoint", "coadjoint_matrix",
    "coadjoint_printed", "compose", "compose_printed", "dual_flow_trajectory",
    "integrate", "inverse", "invariants", "jacobi_residual", "orbit_dimension",
    "pair", "space_closed_form", "time_closed_form", "__version__",
]
