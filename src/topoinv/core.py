"""Families of band projectors over the Brillouin torus and the odd
time-reversal structure acting on them.

A ProjectorFamily is the occupied-band projector P(k) of a Bloch
Hamiltonian H(k), on the torus or on a line through it. One eigensystem of H
per set of points gives P and, through `derivative`, its derivatives exactly
from dH by perturbation theory. The eigensystem is held in the plane layout
of `linalg` (eigenvalues band-first, eigenvectors entries-first), so P, the
band-basis dH and dP are plane products over the whole point set; P and dP
are handed out as (..., N, N) views of their planes. The family remembers
the eigensystem of the last point set it diagonalized (its gap probe, to
begin with), so consumers that read the same grid one after another, such
as the curvature and the lattice oracle of one request, diagonalize H on
that grid once. The TRSOperator is the antiunitary theta = J K
(K = complex conjugation) with theta^2 = -1 in the working basis.
"""

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import linalg
from .config import DEFAULT_TOL
from .errors import DimensionMismatch, GapClosure, NotInvariant, OddRank
from .grids import loop_axis, reflect, torus_points
from .linalg import entries_first, inverse_planes, matrices_last, plane_product
from .models import BlochHamiltonianSpec


@dataclass(frozen=True)
class TRSOperator:
    """Odd time reversal theta = J K on C^(2M), with J the block symplectic
    matrix, theta^2 = -1; the one owner of time reversal outside the
    independent oracles of `lattice`. On vectors theta(x) = J conj(x); on
    operators Theta(A) = J conj(A) J^T; on an N x m frame E, theta(E) J_m
    with J_m the symplectic matrix of rank m. A field on a loop or torus
    grid is symmetric when X(-k) = Theta(X(k)) (E(-k) = theta(E(k)) J_m for
    frames), -k read off by `grids.reflect`."""

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

    def frame(self, e):
        """theta(E) J_m for frames E (..., N, m), J_m of the frame's rank m."""
        return self.apply(e) @ linalg.symplectic_blocks(e.shape[-1])

    def residual(self, x, n_axes):
        """max_k ||X(-k) - Theta(X(k))|| on a loop (1) or torus (2) grid."""
        return float(np.max(linalg.frob(reflect(x, n_axes) - self.adjoint(x))))

    def symmetrize(self, x, n_axes):
        """(X(k) + Theta(X(-k))) / 2 on a loop (1) or torus (2) grid."""
        return 0.5 * (x + self.adjoint(reflect(x, n_axes)))


@dataclass(frozen=True)
class ProjectorFamily:
    """Occupied-band projectors P(k) of one Bloch Hamiltonian, on the 2-torus
    or restricted to a line.

    P(k) projects onto the eigenvectors of spec.bloch(k) below `fermi_level`;
    every evaluation checks that the `rank` occupied bands stay separated
    from the empty ones by more than DEFAULT_TOL.gap_threshold. With `line` =
    (origin, direction) the family is the loop s -> P(origin + s direction).

    The eigensystem (w, v) of the last point set is kept in plane layout,
    keyed by the bytes of the points, so sampling the same points again
    diagonalizes nothing; P itself is formed afresh on every call and never
    kept. A restricted family starts with nothing kept. Eigenvalues come
    ascending and every point set is checked to have `rank` of them below
    the Fermi level, so the occupied bands are the first `rank` columns.
    """

    spec: BlochHamiltonianSpec
    rank: int
    fermi_level: float = 0.0
    line: Optional[tuple] = None  # ((o1, o2), (d1, d2))
    name: str = ""
    _last: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def ambient_dim(self):
        return self.spec.dim

    @property
    def domain(self):
        return "torus" if self.line is None else "loop"

    def __call__(self, k):
        return self.sample(k)

    def _eigensystem(self, ks):
        """The torus points of ks and the eigensystem (w, v) there, in plane
        layout, diagonalized only when ks differs from the last point set."""
        ks = np.asarray(ks, dtype=float)
        k = ks
        if self.line is not None:
            origin, direction = np.asarray(self.line)
            k = origin + ks[..., None] * direction
        key = (ks.shape, ks.tobytes())
        eigensystem = self._last.get(key)
        if eigensystem is None:
            eigensystem = _gap_checked_eigh(self.spec, k, self.fermi_level, rank=self.rank)
            self._last.clear()
            self._last[key] = eigensystem
        return (k,) + eigensystem

    def sample(self, ks):
        """Evaluate P on an array of k-points: (..., 2) on the torus and (...)
        on a line -> (..., N, N)."""
        _, _, v = self._eigensystem(ks)
        occupied = v[:, :self.rank]
        return matrices_last(plane_product(occupied, inverse_planes(occupied)))

    def derivative(self, ks, axis=0):
        """(P, dP/dk_axis) on an array of k-points (along the line for a
        loop), both from one eigensystem of H; P equals `sample(ks)` exactly.

        First-order perturbation theory on that eigensystem, with
        V = (V_o, V_e) split into occupied and empty columns:
        dP = V (X + X^+) V^+, where X vanishes outside its occupied-empty
        block X_oe = (V_o^+ dH V_e)_ij / (e_i - e_j), so dP = Y + Y^+ with
        Y = V_o X_oe V_e^+. Only occupied-empty pairs are divided, so
        degenerate occupied levels never are, and the gap check bounds every
        denominator below by the gap threshold. A tuple of torus axes gives
        (P, (dP, ...)), one dP per axis.
        """
        if isinstance(axis, tuple) and self.line is not None:
            raise ValueError("a tuple of axes needs a torus family")
        k, w, v = self._eigensystem(ks)
        v_occ, v_emp = v[:, :self.rank], v[:, self.rank:]
        v_occ_dag, v_emp_dag = inverse_planes(v_occ), inverse_planes(v_emp)
        gaps = w[:self.rank, None] - w[None, self.rank:]
        p = plane_product(v_occ, v_occ_dag)

        def along(direction):
            dh = entries_first(self.spec.bloch_derivative(k, direction))
            x = plane_product(v_occ_dag, plane_product(dh, v_emp))
            x /= gaps
            dp = plane_product(plane_product(v_occ, x), v_emp_dag)
            dp += inverse_planes(dp)
            return matrices_last(dp)

        if isinstance(axis, tuple):
            return matrices_last(p), tuple(along(a) for a in axis)
        return matrices_last(p), along(axis if self.line is None else self.line[1])

    def restrict(self, origin, direction, name):
        """The loop s -> P(origin + s direction) of a torus family."""
        if self.line is not None:
            raise ValueError("line restriction needs a torus family")
        line = (tuple(float(x) for x in origin), tuple(float(x) for x in direction))
        return replace(self, line=line, name=name)

    def loop(self, axis, value):
        """Restriction of a torus family to a loop (the other coordinate varies)."""
        origin, direction = np.zeros(2), np.zeros(2)
        origin[axis], direction[1 - axis] = value, 1.0
        return self.restrict(origin, direction, f"{self.name}[k{axis + 1}={float(value):.4f}]")

    def validate(self, n_grid=64):
        """Projector, rank-constancy, and periodicity residuals on a probe grid.

        Returns a dict of residuals; raises nothing (callers decide).
        """
        ax = loop_axis(n_grid)
        if self.domain == "loop":
            ks = ax.points
            p = self.sample(ks)
            shifted = self.sample(ks + 2 * np.pi)
            per = float(np.max(linalg.frob(p - shifted)))
        else:
            ks = torus_points(ax, ax)
            p = self.sample(ks)
            per = 0.0
            for axis in range(2):
                e = np.zeros(2)
                e[axis] = 2 * np.pi
                per = max(per, float(np.max(linalg.frob(p - self.sample(ks + e)))))
        proj = float(np.max(linalg.projector_residual(p)))
        tr = float(np.max(np.abs(np.trace(p, axis1=-2, axis2=-1).real - self.rank)))
        return {"projector": proj, "trace": tr, "periodicity": per,
                "ok": (proj <= DEFAULT_TOL.projector and tr <= DEFAULT_TOL.trace
                       and per <= DEFAULT_TOL.periodicity)}


def _gap_checked_eigh(spec, ks, fermi_level, rank=None):
    """Batched eigensystem of spec.bloch(ks) on torus points ks in plane
    layout: eigenvalues w band-first (N, ...), ascending, and eigenvectors
    v entries-first (N, N, ...), column i belonging to w[i].

    Raises GapClosure, carrying the momentum (k1, k2), where the number of
    eigenvalues below fermi_level differs from `rank` (by default that of
    the first point), where no band or every band is occupied, or where the
    gap at the Fermi level is at most DEFAULT_TOL.gap_threshold.
    """
    threshold = DEFAULT_TOL.gap_threshold
    w, v = np.linalg.eigh(spec.bloch(ks))
    w = np.ascontiguousarray(np.moveaxis(w, -1, 0))
    v = entries_first(v)
    ranks = np.count_nonzero(w < fermi_level, axis=0).reshape(-1)
    momentum = lambda j: tuple(float(x) for x in np.reshape(ks, (-1, 2))[j])
    r0 = int(ranks[0]) if rank is None else rank
    if r0 == 0 or r0 == spec.dim:
        raise GapClosure(k=momentum(0), gap=0.0, threshold=threshold)
    changed = np.flatnonzero(ranks != r0)
    if changed.size:
        raise GapClosure(k=momentum(changed[0]), gap=0.0, threshold=threshold)
    gaps = (w[r0] - w[r0 - 1]).reshape(-1)
    worst = int(np.argmin(gaps))
    min_gap = float(gaps[worst])
    if min_gap <= threshold:
        raise GapClosure(k=momentum(worst), gap=min_gap, threshold=threshold)
    return w, v


def make_projector_family(spec, fermi_level=0.0):
    """Occupied-band projector family of a Bloch Hamiltonian below a Fermi level.

    Parameters
    ----------
    spec : models.BlochHamiltonianSpec
        Trigonometric-polynomial Bloch Hamiltonian.
    fermi_level : float
        Must sit in a spectral gap over the whole torus: a gap of at most
        DEFAULT_TOL.gap_threshold anywhere on the 64 x 64 probe grid (and on
        every later sampling) raises GapClosure.

    Returns
    -------
    ProjectorFamily on the torus, with rank fixed by the gap condition; it
    keeps the probe grid's eigensystem, so a consumer sampling that grid
    next diagonalizes nothing.
    """
    ax = loop_axis(64)
    ks = torus_points(ax, ax)
    eigensystem = _gap_checked_eigh(spec, ks, fermi_level)
    rank = int(np.count_nonzero(eigensystem[0][:, 0, 0] < fermi_level))
    family = ProjectorFamily(spec=spec, rank=rank, fermi_level=fermi_level, name=spec.name)
    family._last[(ks.shape, ks.tobytes())] = eigensystem
    return family


def check_trs(family: ProjectorFamily, theta: TRSOperator, n_grid=64):
    """Does P(-k) = Theta(P(k)) hold on a symmetric grid, to DEFAULT_TOL.trs?

    Returns (ok, max_violation). The grid includes the fixed points of
    k -> -k so reflection pairs are exact.
    """
    if family.ambient_dim != theta.dim:
        raise DimensionMismatch(
            f"family dimension {family.ambient_dim} != theta dimension {theta.dim}")
    ax = loop_axis(n_grid)
    loop = family.domain == "loop"
    ks = ax.points if loop else torus_points(ax, ax)
    violation = theta.residual(family.sample(ks), 1 if loop else 2)
    return violation <= DEFAULT_TOL.trs, violation


def symplectic_basis(theta: TRSOperator, projector, rng=None):
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
    if resid > DEFAULT_TOL.trs:
        raise NotInvariant(resid, DEFAULT_TOL.trs)
    return linalg.kramers_basis(theta.apply, projector, rng=rng)
