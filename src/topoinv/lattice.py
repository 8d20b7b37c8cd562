"""Independent lattice oracles: plaquette-flux Chern number, the
boundary-constrained lattice Z2 of Fukui and Hatsugai, and the link-variable
Berry phase, whose loop integral `berry.berry_phase` also checks every frame
against.

These use only frame overlaps on discrete grids (no transport, no
connection quadrature), so they cross-check the differential-geometry
pipeline through an unrelated algorithm. They read the family only through
`sample`, and build every frame with one routine, `_frames`: pivoted
Gram-Schmidt on the columns of P, with no eigendecomposition, and with
Kramers pairs where the lattice Z2 needs them. Each plaquette flux is the
argument of a product of overlap determinants; sums of fluxes against
directed boundary link sums are exactly integer multiples of 2 pi by
construction.
"""

import numpy as np

from .core import ProjectorFamily, TRSOperator
from .grids import ebz_axis, loop_axis, torus_points
from .results import snap_integer

TWO_PI = 2.0 * np.pi


def _frames(p, theta=None):
    """Orthonormal frames of Ran P, batched, by pivoted Gram-Schmidt on the
    columns of P: normalize the largest column of what is left and project
    it out, until rank(P) columns are taken. A column's squared norm is its
    diagonal entry, and at step i the largest is at least (m - i) / N, so
    every pivot is well conditioned.

    What is left after the frame vectors e_a is the projector
    P - sum_a e_a e_a^+, of which only the diagonal is kept; the pivot
    column j is formed from P as P[:, j] - sum_a e_a conj(e_a[j]), so no
    N x N residual is copied at any step.

    With the time reversal `theta` (P Theta-invariant, at a fixed momentum)
    each pivot e is followed by its Kramers partner J conj(e), which is
    orthogonal to e and to the earlier pairs, so the frame is
    (e1, theta e1, e2, theta e2, ...)."""
    m = int(round(np.trace(p[(0,) * (p.ndim - 2)]).real))
    frames = np.empty(p.shape[:-1] + (m,), dtype=complex)
    step = 1 if theta is None else 2
    rest = np.diagonal(p, axis1=-2, axis2=-1).real.copy()
    for i in range(0, m, step):
        j = np.argmax(rest, axis=-1)[..., None]
        col = np.take_along_axis(p, j[..., None], axis=-1)[..., 0]
        for e in np.moveaxis(frames[..., :i], -1, 0):
            col = col - e * np.conjugate(np.take_along_axis(e, j, axis=-1))
        e = frames[..., i] = col / np.linalg.norm(col, axis=-1, keepdims=True)
        if theta is not None:
            frames[..., i + 1] = np.conjugate(e) @ theta.j.T
        for e in np.moveaxis(frames[..., i:i + step], -1, 0):
            rest -= (e * np.conjugate(e)).real
    return frames


def _link_phase(e1, e2):
    """Argument of det of the frame overlap E1^+ E2, batched; the overlap
    is one contraction over the ambient axis."""
    return np.angle(np.linalg.det(np.einsum("...na,...nb->...ab", np.conjugate(e1), e2)))


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


def lattice_z2(family: ProjectorFamily, theta: TRSOperator, n1=32, n2=64):
    """Lattice Z2 invariant on the half zone [0, pi] x T.

    The directed link sums along the boundary loops k1 = 0, pi minus the
    plaquette fluxes are an exact multiple of 2 pi; that multiple, mod 2, is
    the invariant. The fluxes are reduced mod 2 pi, so any frames serve there.
    On a boundary loop, frames with E(-k) = theta(E(k)) J_m make the link
    from -k - h to -k equal the link from k to k + h, so the loop sums to
    twice its half line 0 <= k2 <= pi, and that doubled half line is what is
    summed. Its end frames at the fixed momenta k2 = 0, pi are Kramers pairs,
    whose remaining gauge freedom has det 1; any frames in between move the
    half-line sum only by 2 pi n. So the doubled sum is fixed up to 4 pi n,
    and a link that reads -pi instead of pi on the branch cut moves it by
    4 pi as well: neither changes the parity, which therefore does not rest
    on the sign that roundoff gives a link on the cut. The raw value is
    reported in (-1/2, 3/2], so that both classes sit well inside it. P is
    sampled once on the half-zone grid, the grid of
    berry.berry_curvature_ebz.
    """
    p = family.sample(torus_points(ebz_axis(n1), loop_axis(n2)))
    half = n2 // 2                                         # k2 = 0
    frames = _frames(p)
    fixed = np.ix_([0, -1], [0, half])                     # k1 in {0, pi}, k2 in {-pi, 0}
    frames[fixed] = _frames(p[fixed], theta)

    link2 = _link_phase(frames, np.roll(frames, -1, axis=1))   # (n1+1, n2), +k2
    link1 = _link_phase(frames[:-1], frames[1:])           # (n1, n2), +k1
    # plaquette (i,j): l1(i,j) + l2(i+1,j) - l1(i,j+1) - l2(i,j)
    flux = link1 + link2[1:] - np.roll(link1, -1, axis=1) - link2[:-1]
    flux = (flux + np.pi) % TWO_PI - np.pi
    boundary = 2.0 * float(np.sum(link2[-1, half:]) - np.sum(link2[0, half:]))
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
