"""Independent lattice oracles: plaquette-flux Chern number, the
boundary-constrained lattice Z2, and the link-variable Berry phase, whose
loop integral `berry.berry_phase` also checks every frame against.

These use only frame overlaps on discrete grids (no transport, no
connection quadrature), so they cross-check the differential-geometry
pipeline through an unrelated algorithm. They read the family only through
`sample`. Each plaquette flux is the argument of a product of overlap
determinants; sums of fluxes against directed boundary link sums are exactly
integer multiples of 2 pi by construction.

Wherever fluxes are reduced mod 2 pi, any orthonormal basis of Ran P
serves, and `_frames` builds one without diagonalizing. The Z2 boundary
loops enter their link sums unreduced, so their frames at 0 < k2 < pi come
from `eigh`: pivoted frames of a structured model put Kramers-paired links
exactly on the branch cut at +-pi, where roundoff picks each sign apart.
"""

import numpy as np

from .core import ProjectorFamily, TRSOperator
from .grids import ebz_axis, loop_axis, torus_points
from .results import snap_integer

TWO_PI = 2.0 * np.pi


def _frames(p):
    """Orthonormal frames of Ran P, batched, by pivoted Gram-Schmidt on the
    columns of P: rank(P) times, normalize the largest column of what is
    left and project it out. A column's squared norm is its diagonal entry,
    and at step i the largest is at least (m - i) / N, so every pivot is
    well conditioned."""
    m = int(round(np.trace(p[(0,) * (p.ndim - 2)]).real))
    frames = np.empty(p.shape[:-1] + (m,), dtype=complex)
    rest = p
    for i in range(m):
        j = np.argmax(np.diagonal(rest, axis1=-2, axis2=-1).real, axis=-1)
        col = np.take_along_axis(rest, j[..., None, None], axis=-1)[..., 0]
        e = frames[..., i] = col / np.linalg.norm(col, axis=-1, keepdims=True)
        if i + 1 < m:
            rest = rest - e[..., :, None] * np.conjugate(e)[..., None, :]
    return frames


def _link_phase(e1, e2):
    """Argument of det of the frame overlap E1^+ E2, batched; the overlap
    is one multiply-sum over the ambient axis."""
    ov = np.sum(np.conjugate(e1)[..., :, None] * e2[..., None, :], axis=-3)
    return np.angle(np.linalg.det(ov))


def plaquette_chern(family: ProjectorFamily, n_grid=64):
    """Chern number from plaquette fluxes of overlap-determinant links.

    Exactly integer up to roundoff once every plaquette flux is resolved
    within (-pi, pi); the snap residual reports the distance anyway.
    """
    ax = loop_axis(n_grid)
    frames = _frames(family.sample(torus_points(ax, ax)))
    link1 = _link_phase(frames, np.roll(frames, -1, axis=0))   # +k1
    link2 = _link_phase(frames, np.roll(frames, -1, axis=1))   # +k2
    # plaquette (i,j): l1(i,j) + l2(i+1,j) - l1(i,j+1) - l2(i,j)
    flux = link1 + np.roll(link2, -1, axis=0) - np.roll(link1, -1, axis=1) - link2
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
    invariant, and the raw value is reported in (-1/2, 3/2], so that both
    classes sit well inside it. P is sampled once on the half-zone grid, the
    grid of berry.berry_curvature_ebz.
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
    # whole turns follow the gauge of the frames; only raw mod 2 is meaningful
    raw -= 2.0 * np.ceil((raw - 1.5) / 2.0)
    return snap_integer("Delta", raw, modulus=2,
                        meta={"method": "lattice", "grid": (n1, n2),
                              "max_flux": float(np.max(np.abs(flux)))})


def overlap_loop_integral(frames):
    """Loop integral of the Berry connection from frames on a loop grid: the
    link-phase sum, Richardson extrapolated over grid halving (second-order
    base rule, frames[::2] the coarse grid).

    Link-phase sums are gauge invariant only mod 2 pi (arbitrary eigenvector
    phases shift them by whole turns), so the coarse value is moved onto the
    fine value's branch before extrapolating; the surviving whole-turn
    offset cancels in the exponential.
    """
    fine, coarse = (float(np.sum(_link_phase(f, np.roll(f, -1, axis=0))))
                    for f in (frames, frames[::2]))
    coarse += TWO_PI * round((fine - coarse) / TWO_PI)
    return (4.0 * fine - coarse) / 3.0


def overlap_berry_phase(loop_family: ProjectorFamily, n_grid=1024):
    """Berry phase exp(-i loop-integral of A) from the frames of P on one
    n_grid loop grid."""
    frames = _frames(loop_family.sample(loop_axis(n_grid).points))
    return complex(np.exp(-1j * overlap_loop_integral(frames)))
