"""Checks and fields that only the tests use: matrix residuals, the
time-reversal residual of sampled fields, residual reports of families,
frames and gauges with their bounds, a randomly seeded Kramers basis, the
eigendecomposition frames and LAPACK determinants the lattice oracles once
used, the Stokes check
of the curvature, random unwindable and equivariant fields, and the rate
of change of the WZ action along a deformation.

Each reads the program's public objects and returns numbers; none of them
is on a request path, so they live here and not in `topoinv`.
"""

import numpy as np

from topoinv import linalg
from topoinv.berry import _omega_on
from topoinv.config import DEFAULT_TOL
from topoinv.core import TRSOperator
from topoinv.grids import Axis, integrate_grid, loop_axis, reflect, torus_points
from topoinv.linalg import entries_first, inverse_planes, plane_product, trace_product
from topoinv.transport import _occupied_basis, _segment_transport
from topoinv.wz import (FieldGrid, _integral, constant_field, normal_form_field,
                        random_hermitian_field, tube_extension)

# Bounds of the residual reports below, which the library never reads.
PROJECTOR_TOL = 1e-10           # ||P^2 - P|| + ||P - P*||
TRACE_TOL = 1e-8                # |tr P - m| (rank constancy)
PERIODICITY_TOL = 1e-10         # ||P(k) - P(k + 2*pi e_i)||
FRAME_SPAN_TOL = 1e-8           # ||P - E E*||, and the frame's seam
FRAME_ORTHONORMAL_TOL = 1e-9    # ||E* E - 1||
UNITARITY_TOL = 1e-10           # ||U* U - 1|| of a gauge field


def unitarity_residual(u):
    """||U^+ U - 1||, batched."""
    return linalg.frob(linalg.dagger(u) @ u - np.eye(u.shape[-1]))


def hermiticity_residual(h):
    """||H - H^+||, batched."""
    return linalg.frob(h - linalg.dagger(h))


def projector_residual(p):
    """||P^2 - P|| + ||P - P^+||, the combined projector defect, batched."""
    return linalg.frob(p @ p - p) + hermiticity_residual(p)


def eigh_frames(p):
    """Occupied frames of a batch of projectors from their own
    eigendecomposition: the reference for `lattice._frames`."""
    w, v = np.linalg.eigh(p)
    occ = w > 0.5
    m = int(occ[(0,) * (occ.ndim - 1)].sum())
    # eigh orders ascending, so occupied columns are the trailing m
    return v[..., -m:]


def det_phase(planes):
    """Argument of the LAPACK determinant of (m, m, ...) planes: the
    reference for `lattice._det_phase`."""
    return np.angle(np.linalg.det(np.moveaxis(planes, (0, 1), (-2, -1))))


def random_kramers_basis(seed):
    """A variant of `linalg.kramers_basis` that seeds each Kramers pair with
    a random vector of Ran P, drawn from one generator across calls: another
    Kramers-paired construction, for checks that nothing the program
    reports depends on which one `linalg.kramers_basis` makes."""
    rng = np.random.default_rng(seed)

    def kramers_basis(apply_antiunitary, projector):
        n = projector.shape[0]
        cols, resid = [], projector.copy()
        for _ in range(int(round(np.real(np.trace(projector)))) // 2):
            v = resid @ (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            e = v / np.linalg.norm(v)
            f = apply_antiunitary(e)
            cols += [e, f / np.linalg.norm(f)]
            ef = np.column_stack(cols[-2:])
            resid = projector @ (resid - ef @ (linalg.dagger(ef) @ projector))
        return np.column_stack(cols)

    return kramers_basis


def validate_family(family):
    """Projector, rank-constancy and periodicity residuals of a projector
    family on a 64^2 grid (64 points for a loop), with "ok" when each is
    within its bound."""
    ax = loop_axis(64)
    if family.domain == "loop":
        ks = ax.points
        p = family.sample(ks)
        per = float(np.max(linalg.frob(p - family.sample(ks + 2 * np.pi))))
    else:
        ks = torus_points(ax, ax)
        p = family.sample(ks)
        per = 0.0
        for axis in range(2):
            e = np.zeros(2)
            e[axis] = 2 * np.pi
            per = max(per, float(np.max(linalg.frob(p - family.sample(ks + e)))))
    proj = float(np.max(projector_residual(p)))
    tr = float(np.max(np.abs(np.trace(p, axis1=-2, axis2=-1).real - family.rank)))
    return {"projector": proj, "trace": tr, "periodicity": per,
            "ok": proj <= PROJECTOR_TOL and tr <= TRACE_TOL and per <= PERIODICITY_TOL}


def kramers_residual(frame):
    """max_k of || E(-k) - theta(E(k)) J || over a time-reversal symmetric
    frame's grid."""
    if not frame.trs_flag or frame.theta is None:
        raise ValueError("not a time-reversal symmetric frame")
    e = frame.e_samples
    return float(np.max(linalg.frob(reflect(e, 1) - frame.theta.frame(e))))


def validate_frame(frame):
    """Orthonormality, span and seam residuals of a Bloch frame, and its
    Kramers residual when it is time-reversal symmetric, with "ok"."""
    e = frame.e_samples
    ortho = float(np.max(linalg.frob(linalg.dagger(e) @ e - np.eye(frame.rank))))
    span = float(np.max(linalg.frob(frame.family.sample(frame.ks) - e @ linalg.dagger(e))))
    report = {"orthonormality": ortho, "span": span, "seam": frame.seam_residual,
              "ok": ortho <= FRAME_ORTHONORMAL_TOL and span <= FRAME_SPAN_TOL
                    and frame.seam_residual <= FRAME_SPAN_TOL}
    if frame.trs_flag:
        report["kramers"] = kramers_residual(frame)
        report["ok"] = report["ok"] and report["kramers"] <= DEFAULT_TOL.trs
    return report


def validate_gauge(gauge):
    """Unitarity residual of a gauge field, and its time-reversal residual
    when it is symmetric, with "ok"."""
    uni = float(np.max(unitarity_residual(gauge.u_samples)))
    report = {"unitarity": uni, "ok": uni <= UNITARITY_TOL}
    if gauge.trs_flag:
        trs = trs_residual(TRSOperator.standard(gauge.rank), gauge.u_samples, 1)
        report["trs"] = trs
        report["ok"] = report["ok"] and trs <= DEFAULT_TOL.trs
    return report


def odd_symmetry_residual(curvature):
    """max |Omega(k) + Omega(-k)| of a curvature on the full torus grid; zero
    for time-reversal symmetric families."""
    ax1, ax2 = curvature.axes
    if not (ax1.periodic and ax2.periodic):
        raise ValueError("odd-symmetry check needs the full torus grid")
    return float(np.max(np.abs(curvature.omega + reflect(curvature.omega, 2))))


def holonomy_flux_check(family, corner, widths):
    """Stokes check on a subrectangle: the phase of the boundary holonomy
    determinant equals the curvature integral over the rectangle (mod 2 pi).

    Returns (boundary_phase, flux_integral, discrepancy mod 2 pi). Uses
    parallel transport along the four edges, 256 grid intervals each, and
    the curvature on the 256 x 256 grid of the rectangle; gauge invariant,
    no frame needed.
    """
    n_edge = 256
    (a1, a2), (w1, w2) = corner, widths
    corners = [np.array([a1, a2]), np.array([a1 + w1, a2]),
               np.array([a1 + w1, a2 + w2]), np.array([a1, a2 + w2])]
    t_loop = np.eye(family.ambient_dim, dtype=complex)
    for i in range(4):
        start, stop = corners[i], corners[(i + 1) % 4]
        edge = family.restrict(start, stop - start, f"{family.name}[edge {i}]")
        _, t, _, _, _ = _segment_transport(edge, 0.0, 1.0, n_edge)
        t_loop = t[-1] @ t_loop
    b = _occupied_basis(family.sample(corners[0]))
    hol = linalg.dagger(b) @ t_loop @ b
    boundary_phase = float(np.angle(np.linalg.det(hol)))
    ax1 = Axis("k1", a1, w1, n_edge, periodic=False)
    ax2 = Axis("k2", a2, w2, n_edge, periodic=False)
    omega = _omega_on(family, torus_points(ax1, ax2))
    flux = float(integrate_grid(omega, [ax1, ax2]))
    diff = (boundary_phase + flux + np.pi) % (2.0 * np.pi) - np.pi
    return boundary_phase, flux, float(abs(diff))


def bloch_hermiticity_residual(spec):
    """max ||H(k) - H(k)^+|| over 1000 seeded random k (should be ~1e-15
    by construction)."""
    rng = np.random.default_rng(7)
    h = spec.bloch(rng.uniform(-np.pi, np.pi, size=(1000, 2)))
    return float(np.max(np.abs(h - np.conjugate(np.swapaxes(h, -1, -2)))))


def random_unwindable_field(n_grid, dim, seed, bandwidth=2):
    """Random smooth zero-winding torus field with its tube extension."""
    ax = loop_axis(n_grid)
    h = random_hermitian_field((ax, ax), dim, seed, bandwidth)
    base = constant_field((ax, ax), np.eye(dim, dtype=complex))
    ext = tube_extension(base, 1j * h)
    return FieldGrid(axes=(ax, ax), samples=ext.samples[-1], name=f"rand{seed}"), ext


def random_equivariant_field(n_grid, theta, seed, bandwidth=2, windings=(0, 0)):
    """Random equivariant torus field Theta(g(k)) = g(-k), with windings.

    Built as (equivariant normal form) * exp(Z) with Z an equivariantly
    symmetrized anti-Hermitian field; returns (field, tube extension), where
    the tube is an equivariant homotopy from the normal form.
    """
    ax = loop_axis(n_grid)
    h = random_hermitian_field((ax, ax), theta.dim, seed, bandwidth)
    n, m = windings
    base = normal_form_field(n, m, theta.dim, equivariant=True, n_grid=n_grid)
    ext = tube_extension(base, theta.symmetrize(1j * h, 2))
    return FieldGrid(axes=(ax, ax), samples=ext.samples[-1], name=f"eq{seed}"), ext


def trs_residual(theta, x, n_axes):
    """max_k ||X(-k) - Theta(X(k))|| of samples on a loop (1) or torus (2)
    grid."""
    return float(np.max(linalg.frob(reflect(x, n_axes) - theta.adjoint(x))))


def equivariance_residual(g, theta):
    """max_k || g(-k) - Theta(g(k)) || on the grid (loop or torus fields)."""
    return trs_residual(theta, g.samples, g.n_axes)


def wz_derivative(g, g_dot):
    """Rate of change of the action along a deformation with velocity g_dot,
    an array of g's sample shape: (1/4 pi) int Tr{ g^-1 g_dot (g^-1 dg)^2 }."""
    dot = entries_first(np.broadcast_to(g_dot, g.samples.shape))
    gi = inverse_planes(entries_first(g.samples))
    g1, g2 = (plane_product(gi, entries_first(g.derivative(i))) for i in (0, 1))
    comm = plane_product(g1, g2) - plane_product(g2, g1)
    return _integral(trace_product(plane_product(gi, dot), comm), g.axes)[0] / (4.0 * np.pi)
