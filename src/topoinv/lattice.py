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
from .grids import ebz_axis, loop_axis, torus_points
from .results import snap_integer

TWO_PI = 2.0 * np.pi


def _frames(p):
    """Occupied frames of the projectors p, from their own eigendecomposition."""
    w, v = np.linalg.eigh(p)
    occ = w > 0.5
    m = int(occ[(0,) * (occ.ndim - 1)].sum())
    # eigh orders ascending, so occupied columns are the trailing m
    return v[..., -m:]


def _link_phase(e1, e2):
    """Argument of det of the frame overlap, batched."""
    ov = np.swapaxes(np.conjugate(e1), -1, -2) @ e2
    return np.angle(np.linalg.det(ov))


def plaquette_chern(family: ProjectorFamily, n_grid=64):
    """Chern number from plaquette fluxes of overlap-determinant links.

    Exactly integer up to roundoff once every plaquette flux is resolved
    within (-pi, pi); the snap residual reports the distance anyway.
    """
    ax = loop_axis(n_grid)
    frames = _frames(family.sample(torus_points(ax, ax)))
    right = np.roll(frames, -1, axis=0)
    up = np.roll(frames, -1, axis=1)
    diag = np.roll(right, -1, axis=1)
    flux = (_link_phase(frames, right) + _link_phase(right, diag)
            + _link_phase(diag, up) + _link_phase(up, frames))
    flux = (flux + np.pi) % TWO_PI - np.pi
    total = float(np.sum(flux)) / TWO_PI
    return snap_integer("Chern", total,
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


def _trs_boundary_line(p, theta: TRSOperator):
    """Frames along a time-reversal invariant loop {k1} x T from P on its
    loop_axis grid, with the Kramers constraint: fixed points carry paired
    frames, negative k2 carries the reflection of positive k2, so P is read
    only at k2 = -pi and on [0, pi)."""
    n2 = len(p)
    half = n2 // 2
    start = _kramers_pairs(p[0], theta)           # k2 = -pi
    m = start.shape[1]
    frames = np.empty((n2,) + start.shape, dtype=complex)
    frames[0] = start
    frames[half] = _kramers_pairs(p[half], theta)  # k2 = 0
    _, v = np.linalg.eigh(p[half + 1:])           # 0 < k2 < pi
    frames[half + 1:] = v[..., -m:]
    jm = np.zeros((m, m))
    for b in range(m // 2):
        jm[2 * b, 2 * b + 1] = 1.0
        jm[2 * b + 1, 2 * b] = -1.0
    frames[1:half] = theta.j @ np.conjugate(frames[n2 - 1:half:-1]) @ jm
    return frames


def lattice_z2(family: ProjectorFamily, theta: TRSOperator, n1=32, n2=64):
    """Lattice Z2 invariant on the half zone [0, pi] x T.

    Boundary loops at k1 = 0, pi carry time-reversal-constrained frames
    (Kramers pairs at the fixed momenta, reflection elsewhere); interior
    frames are free. The directed boundary link sums minus the plaquette
    fluxes are an exact multiple of 2 pi; half of that, mod 2, is the
    invariant. P is sampled once on the half-zone grid, the grid of
    berry.berry_curvature_ebz.
    """
    p = family.sample(torus_points(ebz_axis(n1), loop_axis(n2)))
    dim, m = family.ambient_dim, family.rank
    frames = np.empty((n1 + 1, n2, dim, m), dtype=complex)
    frames[0] = _trs_boundary_line(p[0], theta)
    frames[-1] = _trs_boundary_line(p[-1], theta)
    frames[1:-1] = _frames(p[1:-1])

    up = np.roll(frames, -1, axis=1)                       # +k2 neighbour
    link2 = _link_phase(frames, up)                        # (n1+1, n2)
    link1 = _link_phase(frames[:-1], frames[1:])           # (n1, n2), +k1
    # plaquette (i,j): l1(i,j) + l2(i+1,j) - l1(i,j+1) - l2(i,j)
    flux = link1 + link2[1:] - np.roll(link1, -1, axis=1) - link2[:-1]
    flux = (flux + np.pi) % TWO_PI - np.pi
    boundary = float(np.sum(link2[-1]) - np.sum(link2[0]))
    raw = (boundary - float(np.sum(flux))) / TWO_PI
    return snap_integer("Delta", raw, modulus=2,
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
        frames = _frames(loop_family.sample(ks))
        nxt = np.roll(frames, -1, axis=0)
        return float(np.sum(_link_phase(frames, nxt)))

    coarse = total_phase(n_grid // 2)
    fine = total_phase(n_grid)
    coarse += TWO_PI * round((fine - coarse) / TWO_PI)
    loop_integral = (4.0 * fine - coarse) / 3.0
    return complex(np.exp(-1j * loop_integral))
