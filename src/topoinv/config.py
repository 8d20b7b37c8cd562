"""Centralized numerical tolerances and default grid sizes.

Every check in the library reports a residual next to its boolean verdict;
the thresholds collected here are the defaults those checks compare against.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    projector: float = 1e-10        # ||P^2 - P|| + ||P - P*||
    trace: float = 1e-8             # |tr P - m| (rank constancy)
    periodicity: float = 1e-10      # ||P(k) - P(k + 2*pi e_i)||
    trs: float = 1e-8               # ||P(-k) - Theta(P(k))||
    homomorphism: float = 1e-12     # Theta(gh) vs Theta(g)Theta(h)
    pairing: float = 1e-10          # Kramers pairing residual of a symplectic basis
    unitary: float = 1e-9           # transported/trivializing unitaries
    transport: float = 1e-7         # intertwining residual at default resolution
    frame_span: float = 1e-8        # ||P - E E*||
    frame_orthonormal: float = 1e-9
    connection_imag: float = 1e-10  # imaginary contamination of the connection
    gap_threshold: float = 1e-6     # minimal spectral gap at the Fermi level
    branch_cut: float = 1e-10       # distance to the log branch cut that errors out
    branch_snap: float = 1e-13      # below this, a phase is roundoff and snaps to 0
    drift: float = 1e-4             # unitarity drift per transport step
    snap: float = 1e-3              # residual below which invariants snap
    extension_end: float = 1e-8     # end slice of an extension must be constant


DEFAULT_TOL = Tolerances()

# Default grid sizes: loops and 2D tori include the symmetric points 0 and pi
# so reflection pairs k <-> -k land exactly on grid points.
N_LOOP = 256
N_2D = 128
