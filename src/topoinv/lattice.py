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

Everything runs entries-first, on planes (N, M, *grid) whose entry (a, b)
is one array over the grid, the layout P is sampled in: frames are
(N, m, *grid), an overlap E1^+ E2 is m^2 N multiply-adds of whole planes,
and its determinant comes from Gaussian elimination with partial pivoting
carried out at every grid point at once. No step calls numpy.linalg or
handles one small matrix at a time.
"""

import numpy as np

from .core import ProjectorFamily, TRSOperator
from .grids import ebz_axis, loop_axis, torus_points
from .results import snap_integer

TWO_PI = 2.0 * np.pi


def _planes(samples):
    """(..., N, M) samples as their (N, M, ...) planes, a view."""
    return np.moveaxis(samples, (-2, -1), (0, 1))


def _frames(p, theta=None):
    """Orthonormal frames (N, m, *grid) of Ran P, from the planes
    (N, N, *grid) of P, by pivoted Gram-Schmidt on the columns of P:
    normalize the largest column of what is left and project it out, until
    rank(P) columns are taken. A column's squared norm is its diagonal
    entry, and at step i the largest is at least (m - i) / N, so every pivot
    is well conditioned.

    What is left after the frame vectors e_a is the projector
    P - sum_a e_a e_a^+, of which only the diagonal is kept; the pivot
    column j is read from P at every point by one `take_along_axis` and
    formed as P[:, j] - sum_a e_a conj(e_a[j]), so no N x N residual is
    copied at any step.

    With the time reversal `theta` (P Theta-invariant, at a fixed momentum)
    each pivot e is followed by its Kramers partner J conj(e), which is
    orthogonal to e and to the earlier pairs, so the frame is
    (e1, theta e1, e2, theta e2, ...)."""
    m = int(round(np.trace(p[(Ellipsis,) + (0,) * (p.ndim - 2)]).real))
    frames = np.empty(p.shape[:1] + (m,) + p.shape[2:], dtype=complex)
    step = 1 if theta is None else 2
    rest = np.moveaxis(np.diagonal(p, axis1=0, axis2=1), -1, 0).real.copy()
    for i in range(0, m, step):
        j = np.argmax(rest, axis=0)[None]
        col = np.take_along_axis(p, j[None], axis=1)[:, 0]
        for e in frames[:, :i].swapaxes(0, 1):
            col = col - e * np.conjugate(np.take_along_axis(e, j, axis=0))
        frames[:, i] = col / np.sqrt(np.sum((col * np.conjugate(col)).real, axis=0))
        if theta is not None:
            frames[:, i + 1] = np.tensordot(theta.j, np.conjugate(frames[:, i]), axes=1)
        for e in frames[:, i:i + step].swapaxes(0, 1):
            rest -= (e * np.conjugate(e)).real
    return frames


def _det_phase(a):
    """Argument of det A for the planes (m, m, *grid) of A, by Gaussian
    elimination with partial pivoting at every point: at step k the row of
    largest |re| + |im| in column k (LAPACK's pivot measure) is swapped up,
    each swap negating the determinant, and eliminated from the rows below.
    One loop serves every rank. A singular A has an all-zero pivot column,
    which is not divided by, and det A = 0, whose argument is 0 as for
    np.linalg.det: a product with a zero factor can come out as -0, whose
    np.angle would be pi."""
    a = a.copy()
    det = np.ones(a.shape[2:], dtype=complex)
    for k in range(len(a) - 1):
        rows = a[k:, k:]
        piv = np.argmax(np.abs(rows[:, 0].real) + np.abs(rows[:, 0].imag), axis=0)
        first = rows[0].copy()
        for r in range(1, len(rows)):
            swap = piv == r
            rows[0] = np.where(swap, rows[r], rows[0])
            rows[r] = np.where(swap, first, rows[r])
        pivot = rows[0, 0]
        det *= np.where(piv == 0, pivot, -pivot)
        inverse = np.divide(1.0, pivot, out=np.zeros_like(pivot), where=pivot != 0)
        rows[1:, 1:] -= (rows[1:, 0] * inverse)[:, None] * rows[0, 1:]
    det *= a[-1, -1]
    return np.where(det == 0, 0.0, np.angle(det))


def _link_phase(e1, e2):
    """Argument of det of the frame overlap E1^+ E2 for frames (N, m, *grid):
    entry (a, b) of the overlap is sum_n conj(E1[n, a]) E2[n, b], N
    multiply-adds of whole planes."""
    c1 = np.conjugate(e1)
    n, m = e1.shape[:2]
    overlap = np.empty((m, m) + e1.shape[2:], dtype=complex)
    term = np.empty_like(overlap[0, 0])
    for a in range(m):
        for b in range(m):
            entry = np.multiply(c1[0, a], e2[0, b], out=overlap[a, b])
            for i in range(1, n):
                entry += np.multiply(c1[i, a], e2[i, b], out=term)
    return _det_phase(overlap)


def plaquette_chern(family: ProjectorFamily, n_grid=64):
    """Chern number from plaquette fluxes of overlap-determinant links.

    Exactly integer up to roundoff once every plaquette flux is resolved
    within (-pi, pi); the snap residual reports the distance anyway.
    """
    ax = loop_axis(n_grid)
    frames = _frames(_planes(family.sample(torus_points(ax, ax))))
    link1 = _link_phase(frames, np.roll(frames, -1, axis=2))   # +k1
    link2 = _link_phase(frames, np.roll(frames, -1, axis=3))   # +k2
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
    p = _planes(family.sample(torus_points(ebz_axis(n1), loop_axis(n2))))
    half = n2 // 2                                         # k2 = 0
    frames = _frames(p)
    fixed = (slice(None),) * 2 + np.ix_([0, -1], [0, half])   # k1 in {0, pi}, k2 in {-pi, 0}
    frames[fixed] = _frames(p[fixed], theta)

    link2 = _link_phase(frames, np.roll(frames, -1, axis=3))   # (n1+1, n2), +k2
    link1 = _link_phase(frames[:, :, :-1], frames[:, :, 1:])   # (n1, n2), +k1
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
    """Loop integral of the Berry connection from frames (n, N, m) on a loop
    grid: the link-phase sum, Richardson extrapolated over grid halving
    (second-order base rule, frames[::2] the coarse grid).

    Link-phase sums are gauge invariant only mod 2 pi (arbitrary eigenvector
    phases shift them by whole turns), so the coarse value is moved onto the
    fine value's branch before extrapolating; the surviving whole-turn
    offset cancels in the exponential.
    """
    planes = np.moveaxis(frames, 0, -1)
    fine, coarse = (float(np.sum(_link_phase(f, np.roll(f, -1, axis=2))))
                    for f in (planes, planes[..., ::2]))
    coarse += TWO_PI * round((fine - coarse) / TWO_PI)
    return (4.0 * fine - coarse) / 3.0


def overlap_berry_phase(loop_family: ProjectorFamily, n_grid=1024):
    """Berry phase exp(-i loop-integral of A) from the frames of P on one
    n_grid loop grid."""
    frames = _frames(_planes(loop_family.sample(loop_axis(n_grid).points)))
    return complex(np.exp(-1j * overlap_loop_integral(np.moveaxis(frames, -1, 0))))
