"""Independent lattice oracles: plaquette-flux Chern number, the
boundary-constrained lattice Z2, and the link-variable Berry phase.

These use only eigenframe overlaps on discrete grids (no transport, no
connection quadrature), so they cross-check the differential-geometry
pipeline through an unrelated algorithm. Each plaquette flux is the argument
of a product of overlap determinants; sums of fluxes against directed
boundary link sums are exactly integer multiples of 2 pi by construction.
"""

import numpy as np

from .core import ProjectorFamily, TRSOperator
from .grids import loop_axis
from .results import snap_integer

TWO_PI = 2.0 * np.pi


def _frames_on(family, ks):
    p = family.sample(ks)
    w, v = np.linalg.eigh(p)
    occ = w > 0.5
    m = int(occ[(0,) * (occ.ndim - 1)].sum())
    # eigh orders ascending, so occupied columns are the trailing m
    return v[..., -m:]


def _link_phase(e1, e2):
    """Argument of det of the frame overlap, batched."""
    ov = np.swapaxes(np.conjugate(e1), -1, -2) @ e2
    return np.angle(np.linalg.det(ov))


def plaquette_chern(family: ProjectorFamily, n_grid=64, snap_tol=1e-3):
    """Chern number from plaquette fluxes of overlap-determinant links.

    Exactly integer up to roundoff once every plaquette flux is resolved
    within (-pi, pi); the snap residual reports the distance anyway.
    """
    ax = loop_axis(n_grid)
    k1, k2 = np.meshgrid(ax.points, ax.points, indexing="ij")
    frames = _frames_on(family, np.stack([k1, k2], axis=-1))
    right = np.roll(frames, -1, axis=0)
    up = np.roll(frames, -1, axis=1)
    diag = np.roll(right, -1, axis=1)
    flux = (_link_phase(frames, right) + _link_phase(right, diag)
            + _link_phase(diag, up) + _link_phase(up, frames))
    flux = (flux + np.pi) % TWO_PI - np.pi
    total = float(np.sum(flux)) / TWO_PI
    return snap_integer("Chern", total, snap_tol=snap_tol,
                        meta={"method": "plaquette", "grid": n_grid,
                              "max_flux": float(np.max(np.abs(flux)))})


def _kramers_pairs(p, theta: TRSOperator):
    """Self-contained Kramers-paired frame of Ran P at a fixed point.

    Kept local so the Z2 oracle does not share code with the frame
    constructions it checks.
    """
    n = p.shape[0]
    rank = int(round(np.real(np.trace(p))))
    cols = []
    resid = p.copy()
    for _ in range(rank // 2):
        scores = np.linalg.norm(resid, axis=0)
        v = resid @ np.eye(n, dtype=complex)[:, int(np.argmax(scores))]
        e = v / np.linalg.norm(v)
        f = theta.j @ np.conjugate(e)
        f = f / np.linalg.norm(f)
        cols.extend([e, f])
        ef = np.column_stack([e, f])
        resid = p @ (resid - ef @ (np.conjugate(ef.T) @ p))
    return np.column_stack(cols)


def _trs_boundary_line(family, theta: TRSOperator, k1, n2):
    """Frames along the loop {k1} x T with the Kramers constraint:
    fixed points carry paired frames, negative k2 carries the reflection
    of positive k2."""
    ax = loop_axis(n2)
    half = n2 // 2
    dim = family.ambient_dim
    ks = np.stack([np.full(n2, k1), ax.points], axis=-1)
    p = family.sample(ks)
    m = family.rank
    frames = np.empty((n2, dim, m), dtype=complex)
    frames[0] = _kramers_pairs(p[0], theta)       # k2 = -pi
    frames[half] = _kramers_pairs(p[half], theta)  # k2 = 0
    for j in range(half + 1, n2):
        frames[j] = _frames_on_point(p[j], m)
    jm = np.zeros((m, m))
    for b in range(m // 2):
        jm[2 * b, 2 * b + 1] = 1.0
        jm[2 * b + 1, 2 * b] = -1.0
    for j in range(1, half):
        frames[j] = theta.j @ np.conjugate(frames[n2 - j]) @ jm
    return frames


def _frames_on_point(p, m):
    w, v = np.linalg.eigh(p)
    return v[:, -m:]


def lattice_z2(family: ProjectorFamily, theta: TRSOperator, n1=32, n2=64,
               snap_tol=1e-3):
    """Lattice Z2 invariant on the half zone [0, pi] x T.

    Boundary loops at k1 = 0, pi carry time-reversal-constrained frames
    (Kramers pairs at the fixed momenta, reflection elsewhere); interior
    frames are free. The directed boundary link sums minus the plaquette
    fluxes are an exact multiple of 2 pi; half of that, mod 2, is the
    invariant.
    """
    ax2 = loop_axis(n2)
    k1_lines = np.linspace(0.0, np.pi, n1 + 1)
    dim, m = family.ambient_dim, family.rank
    frames = np.empty((n1 + 1, n2, dim, m), dtype=complex)
    frames[0] = _trs_boundary_line(family, theta, 0.0, n2)
    frames[-1] = _trs_boundary_line(family, theta, np.pi, n2)
    for i in range(1, n1):
        ks = np.stack([np.full(n2, k1_lines[i]), ax2.points], axis=-1)
        frames[i] = _frames_on(family, ks)

    up = np.roll(frames, -1, axis=1)                       # +k2 neighbour
    link2 = _link_phase(frames, up)                        # (n1+1, n2)
    link1 = _link_phase(frames[:-1], frames[1:])           # (n1, n2), +k1
    # plaquette (i,j): l1(i,j) + l2(i+1,j) - l1(i,j+1) - l2(i,j)
    flux = link1 + link2[1:] - np.roll(link1, -1, axis=1) - link2[:-1]
    flux = (flux + np.pi) % TWO_PI - np.pi
    boundary = float(np.sum(link2[-1]) - np.sum(link2[0]))
    raw = (boundary - float(np.sum(flux))) / TWO_PI
    return snap_integer("Delta", raw, snap_tol=snap_tol, modulus=2,
                        meta={"method": "lattice", "grid": (n1, n2),
                              "max_flux": float(np.max(np.abs(flux)))})


def overlap_berry_phase(loop_family: ProjectorFamily, n_grid=1024):
    """Berry phase by the loop product of overlap determinants, Richardson
    extrapolated over grid halving (second-order base rule).

    Link-phase sums are gauge invariant only mod 2 pi (arbitrary eigenvector
    phases shift them by whole turns), so the coarse value is moved onto the
    fine value's branch before extrapolating; the surviving whole-turn
    offset cancels in the exponential.
    """
    def total_phase(n):
        ks = loop_axis(n).points
        frames = _frames_on(loop_family, ks)
        nxt = np.roll(frames, -1, axis=0)
        return float(np.sum(_link_phase(frames, nxt)))

    coarse = total_phase(n_grid // 2)
    fine = total_phase(n_grid)
    coarse += TWO_PI * round((fine - coarse) / TWO_PI)
    loop_integral = (4.0 * fine - coarse) / 3.0
    return complex(np.exp(-1j * loop_integral))
