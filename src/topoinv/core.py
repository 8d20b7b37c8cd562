"""Families of band projectors over the Brillouin torus and the odd
time-reversal structure acting on them.

A ProjectorFamily wraps a smooth periodic sampler k -> P(k) for rank-m
orthogonal projectors on C^N, with derivatives by Richardson-extrapolated
central differences. The TRSOperator is the antiunitary theta = J K
(K = complex conjugation) with theta^2 = -1 in the working basis.
"""

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import linalg
from .config import DEFAULT_TOL, Tolerances
from .errors import DimensionMismatch, GapClosure, NotInvariant, OddRank
from .grids import loop_axis, reflect_index


@dataclass(frozen=True)
class TRSOperator:
    """Odd time reversal theta = J K on C^(2M), with J the block symplectic
    matrix. theta^2 = -1 exactly; the adjoint action on operators is
    Theta(A) = J conj(A) J^T."""

    dim: int
    j: np.ndarray = field(repr=False)

    @staticmethod
    def standard(dim):
        if dim % 2 != 0:
            raise DimensionMismatch(f"odd time reversal needs even dimension, got {dim}")
        return TRSOperator(dim=dim, j=linalg.symplectic_blocks(dim))

    def apply(self, vectors):
        """theta acting column-wise: x -> J conj(x)."""
        return self.j @ np.conjugate(vectors)

    def adjoint(self, operator):
        """Theta(A) = theta A theta^-1 = J conj(A) J^T (antilinear in A)."""
        return self.j @ np.conjugate(operator) @ self.j.T


@dataclass(frozen=True)
class ProjectorFamily:
    """Smooth periodic family of rank-m projectors on a loop or the 2-torus.

    `sampler` maps a k-point (float for loops, length-2 array for the torus)
    to an (N, N) projector matrix. `batch_sampler`, when present, evaluates a
    whole (..., d) array of k-points at once. Derivatives use central
    differences with Richardson extrapolation at step `fd_step`.
    """

    ambient_dim: int
    rank: int
    domain: str  # "loop" | "torus"
    sampler: Callable
    batch_sampler: Optional[Callable] = None
    fd_step: float = 1e-3
    name: str = ""

    @property
    def ndim(self):
        return 1 if self.domain == "loop" else 2

    def __call__(self, k):
        return self.sampler(k)

    def _batch_shape(self, ks):
        return ks.shape[:-1] if self.ndim > 1 else ks.shape

    def sample(self, ks):
        """Evaluate P on an array of k-points, shape (..., d) -> (..., N, N)."""
        ks = np.asarray(ks, dtype=float)
        if self.batch_sampler is not None:
            return self.batch_sampler(ks)
        flat = ks.reshape(-1, self.ndim) if self.ndim > 1 else ks.reshape(-1)
        out = np.stack([self.sampler(k) for k in flat])
        return out.reshape(self._batch_shape(ks) + (self.ambient_dim, self.ambient_dim))

    def derivative(self, ks, axis=0):
        """dP/dk_axis on an array of k-points.

        Richardson-extrapolated central differences, error O(h^4).
        """
        ks = np.asarray(ks, dtype=float)
        h = self.fd_step
        e = np.zeros(self.ndim)
        e[axis] = 1.0
        e = e if self.ndim > 1 else 1.0

        def cd(step):
            return (self.sample(ks + step * e) - self.sample(ks - step * e)) / (2 * step)

        return (4.0 * cd(h / 2) - cd(h)) / 3.0

    def loop(self, axis, value):
        """Restriction of a torus family to a loop (the other coordinate varies)."""
        if self.domain != "torus":
            raise ValueError("loop restriction needs a torus family")
        fixed = float(value)

        def embed(ks):
            ks = np.asarray(ks, dtype=float)
            full = np.empty(ks.shape + (2,))
            full[..., axis] = fixed
            full[..., 1 - axis] = ks
            return full

        sampler = lambda k: self.sampler(embed(np.asarray(k)).reshape(2))
        batch = (lambda ks: self.batch_sampler(embed(ks))) if self.batch_sampler else None
        return replace(self, domain="loop", sampler=sampler, batch_sampler=batch,
                       name=f"{self.name}[k{axis + 1}={fixed:.4f}]")

    def validate(self, n_grid=64, tol: Tolerances = DEFAULT_TOL):
        """Projector, rank-constancy, and periodicity residuals on a probe grid.

        Returns a dict of residuals; raises nothing (callers decide).
        """
        if self.domain == "loop":
            ks = loop_axis(n_grid).points
            p = self.sample(ks)
            shifted = self.sample(ks + 2 * np.pi)
            per = float(np.max(linalg.frob(p - shifted)))
        else:
            ax = loop_axis(n_grid)
            k1, k2 = np.meshgrid(ax.points, ax.points, indexing="ij")
            ks = np.stack([k1, k2], axis=-1)
            p = self.sample(ks)
            per = 0.0
            for axis in range(2):
                e = np.zeros(2)
                e[axis] = 2 * np.pi
                per = max(per, float(np.max(linalg.frob(p - self.sample(ks + e)))))
        proj = float(np.max(linalg.projector_residual(p)))
        tr = float(np.max(np.abs(np.trace(p, axis1=-2, axis2=-1).real - self.rank)))
        return {"projector": proj, "trace": tr, "periodicity": per,
                "ok": proj <= tol.projector and tr <= tol.trace and per <= tol.periodicity}


def _occupied_projector(spec, ks, fermi_level, threshold):
    """Batched eigenprojector of spec.bloch(ks) onto eigenvalues below
    fermi_level.

    Returns (P, rank, min_gap); raises GapClosure, carrying the momentum
    (k1, k2), where the occupied rank differs from that of the first point
    or the gap at the Fermi level drops below threshold.
    """
    w, v = np.linalg.eigh(spec.bloch(ks))
    occ = w < fermi_level
    ranks = occ.sum(axis=-1).reshape(-1)
    momentum = lambda j: tuple(float(x) for x in np.reshape(ks, (-1, 2))[j])
    r0 = int(ranks[0])
    if r0 == 0 or r0 == spec.dim:
        raise GapClosure(k=momentum(0), gap=0.0, threshold=threshold)
    changed = np.flatnonzero(ranks != r0)
    if changed.size:
        raise GapClosure(k=momentum(changed[0]), gap=0.0, threshold=threshold)
    below = np.max(np.where(occ, w, -np.inf), axis=-1)
    above = np.min(np.where(~occ, w, np.inf), axis=-1)
    gaps = (above - below).reshape(-1)
    worst = int(np.argmin(gaps))
    min_gap = float(gaps[worst])
    if min_gap <= threshold:
        raise GapClosure(k=momentum(worst), gap=min_gap, threshold=threshold)
    vocc = np.where(occ[..., None, :], v, 0.0)
    p = vocc @ linalg.dagger(vocc)
    return p, r0, min_gap


def make_projector_family(spec, fermi_level=0.0, gap_threshold=DEFAULT_TOL.gap_threshold,
                          check_grid=64):
    """Occupied-band projector family of a Bloch Hamiltonian below a Fermi level.

    Parameters
    ----------
    spec : models.BlochHamiltonianSpec
        Trigonometric-polynomial Bloch Hamiltonian.
    fermi_level : float
        Must sit in a spectral gap over the whole torus.
    gap_threshold : float
        Minimal admissible gap; a smaller gap anywhere on the probe grid (and
        on every later sampling) raises GapClosure.

    Returns
    -------
    ProjectorFamily on the torus, with rank fixed by the gap condition.
    """

    def batch(ks):
        return _occupied_projector(spec, ks, fermi_level, gap_threshold)[0]

    ax = loop_axis(check_grid)
    k1, k2 = np.meshgrid(ax.points, ax.points, indexing="ij")
    _, rank, _ = _occupied_projector(spec, np.stack([k1, k2], axis=-1),
                                     fermi_level, gap_threshold)
    return ProjectorFamily(
        ambient_dim=spec.dim, rank=rank, domain="torus",
        sampler=lambda k: batch(np.asarray(k, dtype=float).reshape(1, 2))[0],
        batch_sampler=batch, name=spec.name)


def check_trs(family: ProjectorFamily, theta: TRSOperator, n_grid=64,
              tol=DEFAULT_TOL.trs):
    """Does P(-k) = Theta(P(k)) hold on a symmetric grid?

    Returns (ok, max_violation). The grid includes the fixed points of
    k -> -k so reflection pairs are exact.
    """
    if family.ambient_dim != theta.dim:
        raise DimensionMismatch(
            f"family dimension {family.ambient_dim} != theta dimension {theta.dim}")
    ax = loop_axis(n_grid)
    if family.domain == "loop":
        ks = ax.points
        p = family.sample(ks)
        refl = p[[reflect_index(j, n_grid) for j in range(n_grid)]]
    else:
        k1, k2 = np.meshgrid(ax.points, ax.points, indexing="ij")
        p = family.sample(np.stack([k1, k2], axis=-1))
        idx = [reflect_index(j, n_grid) for j in range(n_grid)]
        refl = p[np.ix_(idx, idx)]
    conj = theta.j @ np.conjugate(p) @ theta.j.T
    violation = float(np.max(linalg.frob(refl - conj)))
    return violation <= tol, violation


def symplectic_basis(theta: TRSOperator, projector, tol=DEFAULT_TOL, rng=None):
    """Orthonormal Kramers-paired basis of the range of a Theta-invariant projector.

    Pairs satisfy e_{2j} = theta e_{2j-1}; raises NotInvariant when the
    projector is not Theta-invariant and OddRank for odd rank.
    """
    if projector.shape[0] != theta.dim:
        raise DimensionMismatch("projector/theta dimension mismatch")
    rank = int(round(np.real(np.trace(projector))))
    if rank % 2 != 0:
        raise OddRank(f"projector rank {rank} is odd")
    resid = float(linalg.frob(projector - theta.adjoint(projector)))
    if resid > tol.trs:
        raise NotInvariant(resid, tol.trs)
    return linalg.kramers_basis(theta.apply, projector, pairing_tol=tol.pairing, rng=rng)
