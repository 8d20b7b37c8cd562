"""Fixed numerical thresholds and default grid sizes.

Every check in the library reports a residual next to its boolean verdict
and compares it against the fixed threshold collected here, read from
DEFAULT_TOL; no function takes a tolerance argument.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    trs: float = 1e-8               # ||C - Theta(C)||: H's Fourier coefficients, projectors
    pairing: float = 1e-10          # Kramers pairing residual of a symplectic basis
    gap_threshold: float = 1e-6     # minimal spectral gap at the Fermi level
    branch_cut: float = 1e-10       # distance to the log branch cut that errors out
    branch_snap: float = 1e-13      # below this, a phase is roundoff and snaps to 0
    drift: float = 1e-4             # local error estimate per transport step
    snap: float = 1e-3              # residual below which invariants snap
    winding: float = 1e-6           # residual below which a winding number snaps
    extension_end: float = 1e-8     # end slice of an extension must be constant
    hermitian: float = 1e-12        # model terms: on-site Hermiticity, partner = T_v*
    empty_subspace: float = 1e-12   # norm below which a residual subspace is empty
    wz_sign: float = 1e-4           # |WZ amplitude of U_P - (-1)^Chern| in `chern`


DEFAULT_TOL = Tolerances()

# Default grid size: 2D tori include the symmetric points 0 and pi so
# reflection pairs k <-> -k land exactly on grid points.
N_2D = 128
# The grid (N_UP^3) of the U_P extension in `chern`, its t axis and its
# torus alike, the same at every --grid. When --grid is a multiple of N_UP
# the N_UP^2 torus is a sub-grid of the curvature's, and U_P reads it from
# that grid's eigensystem.
N_UP = 64
