"""Numerical topological band invariants over the Brillouin torus.

Berry phases and their time-reversal square roots, Chern numbers, the Z2
invariant in both its boundary-obstruction form and its Wess-Zumino
amplitude form, and quadrature certification of the identities relating
them (amplitude = Berry phase, the adjoint product formula and its anomaly,
the equivariant square roots).
"""

from .config import DEFAULT_TOL
from .core import (ProjectorFamily, TRSOperator, check_trs,
                   make_projector_family, symplectic_basis)
from .models import BlochHamiltonianSpec, builtin_model, load_model, save_model, save_results
from .transport import (BlochFrame, TransportResult, build_frame, build_trs_frame,
                        parallel_transport, wilson_holonomy)
from .berry import (berry_connection, berry_curvature, berry_curvature_ebz,
                    berry_phase, berry_phase_sqrt, chern_number, delta_invariant,
                    gauge_transform, random_gauge, random_trs_gauge)
from .wz import (FieldGrid, WZValue, Z2Ingredients, apw_functional,
                 kappa_invariant, normal_form_field, pw_functional, up_extension,
                 wz_action_extension, wz_amplitude_phi, winding, winding_pair,
                 z2_ingredients)
from .lattice import lattice_z2, overlap_berry_phase, plaquette_chern
from .results import InvariantResult

__version__ = "0.1.0"

__all__ = [
    "BlochFrame", "BlochHamiltonianSpec", "DEFAULT_TOL", "FieldGrid",
    "InvariantResult", "ProjectorFamily", "TRSOperator", "TransportResult",
    "WZValue", "Z2Ingredients", "apw_functional", "berry_connection",
    "berry_curvature", "berry_curvature_ebz", "berry_phase", "berry_phase_sqrt",
    "build_frame", "build_trs_frame", "builtin_model", "check_trs",
    "chern_number", "delta_invariant", "gauge_transform", "kappa_invariant",
    "lattice_z2", "load_model", "make_projector_family", "normal_form_field",
    "overlap_berry_phase", "parallel_transport", "plaquette_chern",
    "pw_functional", "random_gauge", "random_trs_gauge", "save_model",
    "save_results", "symplectic_basis", "up_extension", "wilson_holonomy",
    "winding", "winding_pair", "wz_action_extension", "wz_amplitude_phi",
    "z2_ingredients",
]
