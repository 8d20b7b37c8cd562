"""Families of band projectors over the Brillouin torus and the odd
time-reversal structure acting on them.

A ProjectorFamily is the occupied-band projector P(k) of a Bloch
Hamiltonian H(k), on the torus or on a line through it. One eigensystem of H
per set of points, solved one decoupled block of H at a time
(`models.BlochHamiltonianSpec.blocks`, `linalg.block_eigh`), gives P and,
by first-order perturbation theory on the planes of dH
(`models.fourier_planes`, which on a product grid of points takes the
phases of k1 and of k2 apart and joins them by one matmul), the interband
blocks X_a = V_o^+ d_aH V_e / (e_o - e_e) between occupied and empty bands
(`interband`). Everything downstream of the eigensystem is built from those
blocks by one code path: dP = Y + Y^+ with Y = V_o X V_e^+ (`derivative`),
and the Berry curvature 2 Im sum X_1 conj(X_2) (`berry`), which needs no
N x N derivative plane. The eigensystem is held in the plane layout of
`linalg` (eigenvalues band-first, eigenvectors entries-first), so P, the
blocks and dP are plane products over the whole point set; P and dP are
handed out as (..., N, N) views of their planes. The family keeps the
eigensystem of the last point set it diagonalized, and the kept eigensystem
also answers every strided sub-grid of a kept torus grid. So consumers that
read the same grid one after another, such as the curvature and the lattice
oracle of one request, diagonalize H on that grid once, and the U_P
extension of `chern` reads its coarser grid from the curvature's. The
TRSOperator is the antiunitary theta = J K (K = complex conjugation) with
theta^2 = -1 in the working basis; `check_trs` tests it exactly on the
Fourier terms of H, with no grid and no eigh.
"""

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import linalg
from .config import DEFAULT_TOL
from .errors import DimensionMismatch, GapClosure, NotInvariant, OddRank
from .grids import reflect
from .linalg import inverse_planes, matrices_last, plane_product
from .models import BlochHamiltonianSpec, fourier_planes


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

    def symmetrize(self, x, n_axes):
        """(X(k) + Theta(X(-k))) / 2 on a loop (1) or torus (2) grid."""
        return 0.5 * (x + self.adjoint(reflect(x, n_axes)))


@dataclass(frozen=True)
class ProjectorFamily:
    """Occupied-band projectors P(k) of one Bloch Hamiltonian, on the 2-torus
    or restricted to a line.

    P(k) projects onto the eigenvectors of spec.bloch(k) below the Fermi
    level 0; every evaluation checks that the `rank` occupied bands stay
    separated from the empty ones by more than DEFAULT_TOL.gap_threshold.
    With `line` = (origin, direction) the family is the loop
    s -> P(origin + s direction).

    H is diagonalized block by block over the spec's decoupled blocks,
    with each two-band block solved as a real symmetric matrix, and the
    eigensystem (w, v) of the last point set diagonalized is kept in plane
    layout next to a copy of its points (`_last`). Sampling the same
    points again diagonalizes nothing, and neither does sampling a torus
    grid that is a strided sub-grid kept[::s1, ::s2] of a kept torus grid:
    it reads strided views of the kept w and v. Any other point set is
    diagonalized and replaces the kept one. P itself is formed afresh on
    every call and never kept. A restricted family starts with nothing
    kept. Eigenvalues come ascending and every point set is checked to have
    `rank` of them below 0, so the occupied bands are the first `rank`
    columns.
    """

    spec: BlochHamiltonianSpec
    rank: int
    line: Optional[tuple] = None  # ((o1, o2), (d1, d2))
    name: str = ""
    _last: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def ambient_dim(self):
        return self.spec.dim

    @property
    def domain(self):
        return "torus" if self.line is None else "loop"

    def _eigensystem(self, ks):
        """The torus points of ks and the eigensystem (w, v) there, in plane
        layout, read from the kept one (`_kept`) when it covers ks and
        otherwise diagonalized and kept in its place."""
        ks = np.asarray(ks, dtype=float)
        k = ks
        if self.line is not None:
            origin, direction = np.asarray(self.line)
            k = origin + ks[..., None] * direction
        eigensystem = self._kept(ks)
        if eigensystem is None:
            self._last.clear()
            eigensystem = _gap_checked_eigh(self.spec, k, rank=self.rank)
            self._last.update(points=ks.copy(), eigensystem=eigensystem)
        return (k,) + eigensystem

    def _kept(self, ks):
        """The kept (w, v) at ks, or None: ks is the kept point set, or, on
        the torus, a grid (m1, m2, 2) equal to kept[::s1, ::s2] for integer
        strides, read as strided views with no eigh and no second gap check,
        since every kept point passed it."""
        if not self._last:
            return None
        kept, grid = self._last["points"], ()
        if self.line is None and ks.ndim == kept.ndim == 3:
            (n1, n2), (m1, m2) = kept.shape[:2], ks.shape[:2]
            if m1 and m2 and n1 % m1 == n2 % m2 == 0:
                grid = (slice(None, None, n1 // m1), slice(None, None, n2 // m2))
        if not np.array_equal(ks, kept[grid]):
            return None
        w, v = self._last["eigensystem"]
        return w[(slice(None),) + grid], v[(slice(None),) * 2 + grid]

    def sample(self, ks):
        """Evaluate P on an array of k-points: (..., 2) on the torus and (...)
        on a line -> (..., N, N)."""
        _, _, v = self._eigensystem(ks)
        occupied = v[:, :self.rank]
        return matrices_last(plane_product(occupied, inverse_planes(occupied)))

    def interband(self, ks, directions):
        """The eigenvectors V = (V_o, V_e) at ks in plane layout, and an
        iterator over the interband blocks, one per entry of `directions`
        (torus axes, or direction vectors):
        X_a = (V_o^+ d_aH V_e)_ij / (e_i - e_j), (rank, N - rank, ...).

        Each block is formed only when the iterator reaches it, from a dH
        plane set that is dropped before the next is formed. Only
        occupied-empty pairs are divided, so degenerate occupied levels
        never are, and the gap check bounds every denominator below by the
        gap threshold.
        """
        k, w, v = self._eigensystem(ks)
        v_occ_t, v_emp = v[:, :self.rank].swapaxes(0, 1), v[:, self.rank:]
        gaps = w[:self.rank, None] - w[None, self.rank:]

        def blocks():
            for dh in fourier_planes(self.spec.terms, k, directions):
                # X = conj(V_o^T conj(dH V_e)): no conjugated copy of V_o
                x = plane_product(dh, v_emp)
                del dh
                x = plane_product(v_occ_t, np.conjugate(x, out=x))
                np.conjugate(x, out=x)
                x /= gaps
                yield x

        return v, blocks()

    def derivative(self, ks, axis=0):
        """(P, dP/dk_axis) on an array of k-points (along the line for a
        loop), both from one eigensystem of H; P equals `sample(ks)` exactly.

        With V = (V_o, V_e) split into occupied and empty columns and X the
        interband block along the axis, dP = V (X + X^+) V^+ with X placed
        in its occupied-empty corner, that is dP = Y + Y^+ with
        Y = V_o X V_e^+. A torus family takes axis 0 or 1 only and raises
        ValueError for anything else, a tuple of axes included; a loop
        family differentiates along its line.
        """
        if self.line is None and (np.ndim(axis) != 0 or axis not in (0, 1)):
            raise ValueError(f"derivative axis must be 0 or 1, not {axis!r}")
        v, (x,) = self.interband(ks, (axis if self.line is None else self.line[1],))
        v_occ = v[:, :self.rank]
        dp = plane_product(plane_product(v_occ, x), inverse_planes(v[:, self.rank:]))
        dp += inverse_planes(dp)
        return matrices_last(plane_product(v_occ, inverse_planes(v_occ))), matrices_last(dp)

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


def _gap_checked_eigh(spec, ks, rank=None):
    """Batched eigensystem of spec.bloch(ks) on torus points ks in plane
    layout: eigenvalues w band-first (N, ...), ascending, and eigenvectors
    v entries-first (N, N, ...), column i belonging to w[i]. H is solved one
    block of spec.blocks at a time by `linalg.block_eigh`, so a spec of one
    block of three or more bands takes numpy's eigh of the whole matrix.

    Raises GapClosure, carrying the momentum (k1, k2), where the number of
    negative eigenvalues (the occupied bands, below the Fermi level 0)
    differs from `rank` (by default that of the first point), where no band
    or every band is occupied, or where the gap at 0 is at most
    DEFAULT_TOL.gap_threshold.
    """
    threshold = DEFAULT_TOL.gap_threshold
    w, v = linalg.block_eigh(spec.bloch(ks), spec.blocks)
    ranks = np.count_nonzero(w < 0.0, axis=0).reshape(-1)
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


def make_projector_family(spec):
    """Projector family onto the bands of a Bloch Hamiltonian below the
    Fermi level 0.

    Parameters
    ----------
    spec : models.BlochHamiltonianSpec
        Trigonometric-polynomial Bloch Hamiltonian. Energy 0 must sit in a
        spectral gap over the whole torus: a gap of at most
        DEFAULT_TOL.gap_threshold at k = 0, or at any point a consumer later
        samples, raises GapClosure.

    Returns
    -------
    ProjectorFamily on the torus, with rank the number of bands below 0 at
    k = 0, read from one eigensystem that is not kept.
    """
    w, _ = _gap_checked_eigh(spec, np.zeros((1, 2)))
    return ProjectorFamily(spec=spec, rank=int(np.count_nonzero(w < 0.0)), name=spec.name)


def check_trs(family: ProjectorFamily, theta: TRSOperator):
    """Does Theta H(k) Theta^-1 = H(-k) hold, to DEFAULT_TOL.trs?

    Fourier coefficients are unique, so on the torus this holds for all k
    exactly when each C_v, the sum of the spec's terms at v, equals
    Theta(C_v) = J conj(C_v) J^T; on a loop s -> H(o + s d), each
    C_f = sum_{d.v = f} T_v exp(i o.v) must, so a loop off the invariant
    lines is refused. Returns (ok, max ||C - Theta(C)||); no grid, no eigh.
    Stricter than P(-k) = Theta(P(k)): an odd shift f(k) 1 of H is refused.
    """
    if family.ambient_dim != theta.dim:
        raise DimensionMismatch(
            f"family dimension {family.ambient_dim} != theta dimension {theta.dim}")
    coefficients = {}
    for t, v in family.spec.terms:
        key = (int(v[0]), int(v[1]))
        if family.line is not None:
            origin, direction = family.line
            key, t = float(np.dot(direction, v)), t * np.exp(1j * np.dot(origin, v))
        coefficients[key] = coefficients.get(key, 0) + t
    violation = max(float(linalg.frob(c - theta.adjoint(c))) for c in coefficients.values())
    return violation <= DEFAULT_TOL.trs, violation


def symplectic_basis(theta: TRSOperator, projector):
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
    return linalg.kramers_basis(theta.apply, projector)
