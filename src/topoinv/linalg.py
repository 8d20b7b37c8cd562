"""Dense complex linear algebra helpers: predicates, polar projection,
unitary logarithms, and Kramers-paired (symplectic) bases.

All matrices are plain complex numpy arrays; the predicates return the
measured residual so callers can report it.
"""

import numpy as np
import scipy.linalg

from .errors import BranchAmbiguity, OddRank
from .config import DEFAULT_TOL


def dagger(a):
    """Conjugate transpose along the last two axes."""
    return np.conjugate(np.swapaxes(a, -1, -2))


def frob(a):
    """Frobenius norm along the last two axes (scalar for a single matrix)."""
    return np.sqrt(np.sum(np.abs(a) ** 2, axis=(-2, -1)))


def unitarity_residual(u):
    n = u.shape[-1]
    return frob(dagger(u) @ u - np.eye(n))


def hermiticity_residual(h):
    return frob(h - dagger(h))


def projector_residual(p):
    """||P^2 - P|| + ||P - P*||, the combined projector defect."""
    return frob(p @ p - p) + hermiticity_residual(p)


def is_unitary(u, tol=DEFAULT_TOL.unitary):
    return bool(np.all(unitarity_residual(u) <= tol))


def is_hermitian(h, tol=DEFAULT_TOL.projector):
    return bool(np.all(hermiticity_residual(h) <= tol))


def is_projector(p, tol=DEFAULT_TOL.projector):
    return bool(np.all(projector_residual(p) <= tol))


def polar_project(a):
    """Nearest unitary to `a` (polar factor), batched over leading axes."""
    u, _, vh = np.linalg.svd(a)
    return u @ vh


def expi_hermitian(h):
    """exp(i*H) for Hermitian H, via eigendecomposition (exactly unitary)."""
    w, v = np.linalg.eigh(h)
    phase = np.exp(1j * w)
    return (v * phase[..., None, :]) @ dagger(v)


def unitary_eig(u):
    """Eigenphases and an orthonormal eigenbasis of a unitary matrix.

    Uses a complex Schur decomposition, which for normal matrices yields an
    orthonormal eigenbasis even at degeneracies (numpy's generic eig does not).

    Returns
    -------
    phases : (n,) real, in (-pi, pi]
    q : (n, n) unitary with u = q diag(exp(i*phases)) q*
    """
    t, q = scipy.linalg.schur(u, output="complex")
    phases = np.angle(np.diagonal(t))
    # angle() returns values in (-pi, pi] already
    return phases, q


def unitary_log_generator(u, cut_tol=DEFAULT_TOL.branch_cut,
                          snap_tol=DEFAULT_TOL.branch_snap):
    """Hermitian M with u = exp(2*pi*i*M), eigenvalues of M in [0, 1).

    Eigenphases are taken in [0, 2*pi). Phases within `snap_tol` below zero
    are roundoff and snap to 0; phases in (-cut_tol, -snap_tol] sit on the
    branch cut and raise BranchAmbiguity.
    """
    phases, q = unitary_eig(u)
    near_cut = (phases < -snap_tol) & (phases > -cut_tol)
    if np.any(near_cut):
        raise BranchAmbiguity(float(phases[near_cut][0]))
    phases = np.where(np.abs(phases) <= snap_tol, 0.0, phases)
    phases = np.where(phases < 0.0, phases + 2.0 * np.pi, phases)
    lam = phases / (2.0 * np.pi)
    m = (q * lam[None, :]) @ dagger(q)
    return 0.5 * (m + dagger(m)), lam


def principal_log_unitary(u, degeneracy_tol=1e-7):
    """Anti-Hermitian L = log(u) with eigenphases in (-pi, pi].

    Returns (L, phases). Raises ValueError if an eigenphase is within
    `degeneracy_tol` of -1 = exp(+-i*pi), where the principal branch is
    ambiguous; callers translate this into their own error type.
    """
    phases, q = unitary_eig(u)
    if np.any(np.pi - np.abs(phases) < degeneracy_tol):
        raise ValueError("eigenvalue at -1")
    l = (q * (1j * phases)[None, :]) @ dagger(q)
    return 0.5 * (l - dagger(l)), phases


def kramers_basis(apply_antiunitary, projector, pairing_tol=DEFAULT_TOL.pairing,
                  rng=None):
    """Orthonormal basis of Ran(projector) in Kramers pairs (e, tau e).

    `apply_antiunitary` maps a vector x to tau(x) for an antiunitary tau with
    tau^2 = -1 that commutes with the projector. Pairs are ordered
    [e_1, tau e_1, e_2, tau e_2, ...], i.e. e_{2j} = tau e_{2j-1}.

    With `rng` given, seed vectors are drawn at random (used to probe
    construction independence); otherwise the choice is deterministic.
    """
    p = projector
    n = p.shape[0]
    rank = int(round(np.real(np.trace(p))))
    if rank % 2 != 0:
        raise OddRank(f"rank {rank} is odd; Kramers pairs need even rank")
    cols = []
    resid = p.copy()  # projector onto the part of Ran P not yet spanned
    for _ in range(rank // 2):
        if rng is None:
            scores = np.linalg.norm(resid, axis=0)
            seed = np.eye(n, dtype=complex)[:, int(np.argmax(scores))]
        else:
            seed = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = resid @ seed
        nv = np.linalg.norm(v)
        if nv < 1e-12:
            raise ValueError("failed to find a vector in the residual subspace")
        e = v / nv
        f = apply_antiunitary(e)
        # orthogonality of f against span and against e is automatic for
        # tau^2 = -1; renormalize to shed accumulated roundoff
        f = f / np.linalg.norm(f)
        cols.extend([e, f])
        ef = np.column_stack([e, f])
        resid = resid - ef @ (dagger(ef) @ p)
        resid = p @ resid  # keep the residual inside Ran P
    basis = np.column_stack(cols)
    # measured pairing residual: max_j ||e_{2j} - tau e_{2j-1}||
    worst = 0.0
    for j in range(rank // 2):
        worst = max(worst, float(np.linalg.norm(
            basis[:, 2 * j + 1] - apply_antiunitary(basis[:, 2 * j]))))
    if worst > pairing_tol:
        raise ValueError(f"Kramers pairing residual {worst:.3e} > {pairing_tol:.1e}")
    return basis


def symplectic_blocks(m):
    """The 2x2-block symplectic matrix J of size m (m even), J^2 = -1."""
    if m % 2 != 0:
        raise OddRank(f"dimension {m} is odd")
    j = np.zeros((m, m))
    for b in range(m // 2):
        j[2 * b, 2 * b + 1] = 1.0
        j[2 * b + 1, 2 * b] = -1.0
    return j
