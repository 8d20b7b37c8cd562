"""Dense complex linear algebra helpers: norms, the block-by-block
Hermitian eigensolver, polar projection, unitary exponentials and
logarithms, Kramers-paired (symplectic) bases, and the plane-product
kernel.

All matrices are plain complex numpy arrays.

Batches of small matrices over a grid can also be held entries-first, as
planes (N, M, ...): entry (a, b) of every matrix is one contiguous array
over the grid. A product of such batches is then N M K multiply-adds over
whole planes (`plane_product`) instead of one tiny product per grid point,
whose per-matrix overhead dominates at N = 2 and 4. The projector family
and the Wess-Zumino densities both work in this layout; `matrices_last`
turns planes back into a (..., N, M) view without copying, and
`entries_first` of such a view, or of any slice of it along the grid that
keeps each plane contiguous, returns its planes, again without copying.
"""

import numpy as np

from .errors import BranchAmbiguity, OddRank, PairingFailure
from .config import DEFAULT_TOL


def dagger(a):
    """Conjugate transpose along the last two axes."""
    return np.conjugate(np.swapaxes(a, -1, -2))


def frob(a):
    """Frobenius norm along the last two axes (scalar for a single matrix)."""
    return np.sqrt(np.sum(np.abs(a) ** 2, axis=(-2, -1)))


def entries_first(samples):
    """(..., N, M) matrices as an (N, M, ...) stack of contiguous planes: a
    view when every plane of `samples` is already contiguous (a
    `matrices_last` view of planes, or a block of leading grid slices of
    one), otherwise a contiguous copy."""
    nd = samples.ndim
    planes = samples.transpose(nd - 2, nd - 1, *range(nd - 2))
    if planes[0, 0, ...].flags.c_contiguous:
        return planes
    return np.ascontiguousarray(planes)


def matrices_last(planes):
    """View of an entries-first (N, M, ...) stack as (..., N, M) matrices."""
    return planes.transpose(*range(2, planes.ndim), 0, 1)


def inverse_planes(planes, out=None):
    """Conjugate-transposed planes: the adjoint at every point, which is
    the inverse of a unitary; written into `out` when it is given."""
    if out is None:
        return np.conjugate(planes).swapaxes(0, 1)
    return np.conjugate(planes.swapaxes(0, 1), out=out)


def trace_product(x, y):
    """Tr(xy) at every point of entries-first (N, M, ...) and (M, N, ...)
    arrays."""
    return np.einsum("ab...,ba...->...", x, y)


def plane_product(x, y, out=None):
    """Matrix product of entries-first (N, M, ...) and (M, K, ...) arrays
    on the same grid, plane by plane; a single point, (N, M) by (M, K),
    works the same way. The grids broadcast against each other, and the
    product is written into `out` when it is given."""
    if out is None:
        grid = np.broadcast_shapes(x.shape[2:], y.shape[2:])
        out = np.empty(x.shape[:1] + y.shape[1:2] + grid, dtype=np.result_type(x, y))
    term = np.empty_like(out[0, 0, ...])
    for a in range(out.shape[0]):
        for b in range(out.shape[1]):
            entry = np.multiply(x[a, 0], y[0, b], out=out[a, b, ...])
            for c in range(1, x.shape[1]):
                entry += np.multiply(x[a, c], y[c, b], out=term)
    return out


def block_eigh(h, blocks):
    """Eigensystem of Hermitian (..., N, N) matrices that are block-diagonal
    in `blocks`, disjoint sorted index tuples covering range(N), in plane
    layout: eigenvalues band-first (N, ...), ascending, and eigenvectors
    entries-first (N, N, ...), column i belonging to eigenvalue i.

    Each block is diagonalized on its own by numpy's eigh, so the matrices
    diagonalized are points x blocks. A two-band block [[a, b], [conj(b), d]]
    is D S D^+ with the phase D = diag(1, conj(b)/|b|), 1 where b = 0, and
    S = [[a, |b|], [|b|, d]] real symmetric, whose eigh costs half of the
    complex one; its eigenvectors are D times those of S. Every other block
    takes complex eigh, and a single such block is exactly numpy's eigh of
    h. The eigenvalues of several blocks are merged ascending by a stable
    sort, their eigenvectors embedded in N x N planes.
    """
    if len(blocks) == 1 and len(blocks[0]) != 2:
        w, v = np.linalg.eigh(h)
        return np.ascontiguousarray(np.moveaxis(w, -1, 0)), entries_first(v)
    grid = h.shape[:-2]
    w = np.empty(h.shape[-1:] + grid)
    v = np.zeros(h.shape[-2:] + grid, dtype=complex)
    start = 0
    for block in blocks:
        cols = slice(start, start + len(block))
        start = cols.stop
        if len(block) == 2:
            i, j = block
            s = np.empty(grid + (2, 2))
            s[..., 0, 0], s[..., 1, 1] = h[..., i, i].real, h[..., j, j].real
            s[..., 0, 1] = s[..., 1, 0] = np.abs(h[..., i, j])
            wb, u = np.linalg.eigh(s)
            v[i, cols], v[j, cols] = np.moveaxis(u[..., 0, :], -1, 0), np.moveaxis(u[..., 1, :], -1, 0)
            v[j, cols] *= np.divide(np.conjugate(h[..., i, j]), s[..., 0, 1],
                                    out=np.ones(grid, dtype=complex), where=s[..., 0, 1] > 0)
        else:
            wb, vb = np.linalg.eigh(h[(Ellipsis,) + np.ix_(block, block)])
            v[list(block), cols] = np.moveaxis(vb, (-2, -1), (0, 1))
        w[cols] = np.moveaxis(wb, -1, 0)
    if len(blocks) > 1:
        order = np.argsort(w, axis=0, kind="stable")
        w = np.take_along_axis(w, order, axis=0)
        for row in v:  # one row at a time, so no second N x N plane set is held
            row[...] = np.take_along_axis(row, order, axis=0)
    return w, v


def polar_project(a):
    """Nearest unitary to `a` (polar factor) and the singular values s of `a`,
    batched; ||a^+a - 1|| = sqrt(sum (s^2-1)^2), ||a - polar|| = sqrt(sum (s-1)^2)."""
    u, s, vh = np.linalg.svd(a)
    return u @ vh, s


def expi_hermitian(h, s=1.0):
    """exp(i*s*H) for Hermitian H from one eigendecomposition (exactly unitary).

    Either a batch of H at one ray parameter s, or one H along an array of
    s, which then leads the result: (len(s), N, N).
    """
    w, v = np.linalg.eigh(h)
    phase = np.exp(1j * np.multiply.outer(s, w))
    return (v * phase[..., None, :]) @ dagger(v)


def expi_hermitian_frechet(h, dh):
    """exp(iH) and its derivative along dH for a batch of Hermitian H, from
    one eigendecomposition H = V diag(w) V^+.

    The derivative is V [(V^+ dH V) o Phi] V^+ with the divided differences
    Phi_ij = i e^{i(w_i + w_j)/2} sinc((w_i - w_j) / 2 pi) of e^{iw}, which
    stay exact at degenerate eigenvalues without a threshold.
    """
    w, v = np.linalg.eigh(h)
    vh = dagger(v)
    wi, wj = w[..., :, None], w[..., None, :]
    phi = 1j * np.exp(0.5j * (wi + wj)) * np.sinc((wi - wj) / (2.0 * np.pi))
    u = (v * np.exp(1j * w)[..., None, :]) @ vh
    return u, v @ ((vh @ dh @ v) * phi) @ vh


def unitary_eig(u):
    """Eigenphases and an orthonormal eigenbasis of a unitary matrix, from
    one Hermitian eigendecomposition.

    The eigenphases of u, sorted around the circle, leave a widest gap of
    at least 2 pi / n. Rotating by the middle a of that gap, W = e^{-ia} u,
    puts every eigenvalue of W at least 2 sin(pi / 2n) away from 1, so
    1 - W is well conditioned and the Cayley transform
    C = i (1 + W)(1 - W)^-1 is a Hermitian matrix (up to rounding) with
    eigenvalues -cot((phase - a) / 2). That map is strictly increasing on
    the circle cut at a, so eigh of C's Hermitian part gives the
    eigenvectors of u themselves: equal phases give equal eigenvalues of C,
    whose eigenspace eigh returns orthonormal, and distinct phases give
    distinct ones. No degeneracy threshold or clustering is needed, where
    numpy's generic eig returns a non-orthogonal basis at near-degenerate
    phases. The phases are read back as the diagonal of q* u q.

    Returns
    -------
    phases : (n,) real, in [-pi, pi]
    q : (n, n) unitary with u = q diag(exp(i*phases)) q*
    """
    phases = np.sort(np.angle(np.linalg.eigvals(u)))
    gaps = np.diff(phases, append=phases[0] + 2.0 * np.pi)
    widest = np.argmax(gaps)
    w = np.exp(-1j * (phases[widest] + 0.5 * gaps[widest])) * u
    one = np.eye(len(u))
    # (1 + W) and (1 - W)^-1 commute, so one solve forms C
    c = 1j * np.linalg.solve(one - w, one + w)
    _, q = np.linalg.eigh(0.5 * (c + dagger(c)))
    return np.angle(np.einsum("ji,jk,ki->i", q.conj(), u, q)), q


def unitary_log_generator(u):
    """Hermitian M with u = exp(2*pi*i*M), eigenvalues of M in [0, 1).

    Eigenphases are taken in [0, 2*pi). Phases within DEFAULT_TOL.branch_snap
    below zero are roundoff and snap to 0; phases in (-branch_cut,
    -branch_snap] sit on the branch cut and raise BranchAmbiguity.
    """
    cut_tol, snap_tol = DEFAULT_TOL.branch_cut, DEFAULT_TOL.branch_snap
    phases, q = unitary_eig(u)
    near_cut = (phases < -snap_tol) & (phases > -cut_tol)
    if np.any(near_cut):
        raise BranchAmbiguity(float(phases[near_cut][0]))
    phases = np.where(np.abs(phases) <= snap_tol, 0.0, phases)
    phases = np.where(phases < 0.0, phases + 2.0 * np.pi, phases)
    lam = phases / (2.0 * np.pi)
    m = (q * lam[None, :]) @ dagger(q)
    return 0.5 * (m + dagger(m)), lam


def kramers_basis(apply_antiunitary, projector):
    """Orthonormal basis of Ran(projector) in Kramers pairs (e, tau e).

    `apply_antiunitary` maps a vector x to tau(x) for an antiunitary tau with
    tau^2 = -1 that commutes with the projector. Pairs are ordered
    [e_1, tau e_1, e_2, tau e_2, ...], i.e. e_{2j} = tau e_{2j-1}.

    Each pair is seeded by the largest column of the part of Ran P not yet
    spanned; any other Kramers basis differs by a symplectic unitary, which
    no reported quantity sees. A measured pairing residual above
    DEFAULT_TOL.pairing raises PairingFailure with that residual.
    """
    p = projector
    rank = int(round(np.real(np.trace(p))))
    if rank % 2 != 0:
        raise OddRank(f"rank {rank} is odd; Kramers pairs need even rank")
    cols = []
    resid = p.copy()  # projector onto the part of Ran P not yet spanned
    for _ in range(rank // 2):
        v = resid[:, int(np.argmax(np.linalg.norm(resid, axis=0)))]
        nv = np.linalg.norm(v)
        if nv < DEFAULT_TOL.empty_subspace:
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
    if worst > DEFAULT_TOL.pairing:
        raise PairingFailure(worst, DEFAULT_TOL.pairing)
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
