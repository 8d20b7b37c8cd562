import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from topoinv import linalg
from topoinv.config import DEFAULT_TOL
from topoinv.errors import BranchAmbiguity, OddRank, PairingFailure, TopoinvError
from topoinv.models import BlochHamiltonianSpec

from oracles import hermiticity_residual, projector_residual, unitarity_residual


def random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(a)
    return q


def test_residuals():
    u = random_unitary(4, 0)
    assert unitarity_residual(u) < 1e-14
    assert unitarity_residual(1.01 * u) > 1e-2
    h = u + linalg.dagger(u)
    assert hermiticity_residual(h) < 1e-14
    assert hermiticity_residual(u) > 1e-2
    p = np.diag([1.0, 1.0, 0.0]).astype(complex)
    assert projector_residual(p) == 0.0
    assert projector_residual(1.1 * p) > 1e-2


def test_polar_project_recovers_unitary():
    u = random_unitary(5, 1)
    noisy = u + 1e-3 * np.ones((5, 5))
    proj, sigma = linalg.polar_project(noisy)
    assert unitarity_residual(proj) < 1e-13
    assert linalg.frob(proj - u) < 5e-3
    # both defects of `noisy` from its singular values, as transport reads them
    drift = np.sqrt(np.sum((sigma ** 2 - 1.0) ** 2))
    assert abs(drift - unitarity_residual(noisy)) < 1e-14
    assert abs(np.sqrt(np.sum((sigma - 1.0) ** 2)) - linalg.frob(noisy - proj)) < 1e-14


def _block_terms(sizes, vanishing, equal_diagonals, seed):
    """Random Hermitian terms (on-site and one hop with its partner) that
    couple only within blocks of the given sizes over a random permutation
    of the bands, and those blocks. With `vanishing`, a two-band block's
    coupling is M e^{ik.v} - M e^{-ik.v}, exactly 0 at k = 0, and a
    three-band block couples its first and last band only through the
    middle one; with `equal_diagonals`, each block's diagonal entries are
    equal in every term."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    perm = rng.permutation(n)
    blocks = sorted(tuple(sorted(perm[a - b:a].tolist()))
                    for a, b in zip(np.cumsum(sizes), sizes))
    onsite, hop = np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)
    for block in blocks:
        rows = np.ix_(block, block)
        a = rng.standard_normal((len(block), len(block), 2)) @ [1, 1j]
        onsite[rows] = a + a.conj().T
        hop[rows] = rng.standard_normal((len(block), len(block), 2)) @ [1, 1j]
        if equal_diagonals:
            onsite[block, block], hop[block, block] = onsite[block[0], block[0]], hop[block[0], block[0]]
        if vanishing and len(block) == 2:
            i, j = block
            onsite[i, j] = onsite[j, i] = 0.0
            hop[j, i] = -np.conjugate(hop[i, j])
        if vanishing and len(block) == 3:
            for i, j in ((block[0], block[2]), (block[2], block[0])):
                onsite[i, j] = hop[i, j] = 0.0
    v = rng.integers(-2, 3, 2)
    v = v if v.any() else np.array([1, 0])
    terms = ((onsite, np.zeros(2, dtype=int)), (hop, v), (hop.conj().T, -v))
    return BlochHamiltonianSpec(dim=n, terms=terms), tuple(blocks)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda s: sum(s) <= 6),
       vanishing=st.booleans(), equal_diagonals=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_block_eigh_matches_numpy_eigh(sizes, vanishing, equal_diagonals, seed):
    """Block by block, with two-band blocks made real by a phase, the
    eigensystem of a random block-diagonal H(k) agrees with numpy's eigh of
    the whole matrix: the spec finds the blocks, the eigenvalues agree
    within 1e-13 ||H|| and come ascending, V is unitary and reproduces H,
    and every occupied projector agrees within 1e-12 where the spectrum is
    gapped, at k = 0 (where vanishing couplings are exactly 0) and at
    random points."""
    spec, blocks = _block_terms(sizes, vanishing, equal_diagonals, seed)
    assert spec.blocks == blocks
    ks = np.random.default_rng(seed).uniform(-np.pi, np.pi, (24, 2))
    ks[0] = 0.0
    h = spec.bloch(ks)
    w, v = linalg.block_eigh(h, spec.blocks)
    w, v = np.moveaxis(w, 0, -1), linalg.matrices_last(v)
    w0, v0 = np.linalg.eigh(h)
    scale = np.max(np.abs(w0), axis=-1)
    assert np.all(np.abs(w - w0) <= 1e-13 * scale[:, None])
    assert np.all(np.diff(w, axis=-1) >= 0.0)
    assert np.max(np.abs(linalg.dagger(v) @ v - np.eye(spec.dim))) <= 1e-13
    assert np.all(np.abs((v * w[:, None, :]) @ linalg.dagger(v) - h)
                  <= 1e-13 * scale[:, None, None])
    for r in range(1, spec.dim):
        gapped = w0[:, r] - w0[:, r - 1] > 1e-3 * scale
        p = v[gapped, :, :r] @ linalg.dagger(v[gapped, :, :r])
        p0 = v0[gapped, :, :r] @ linalg.dagger(v0[gapped, :, :r])
        assert np.max(np.abs(p - p0), initial=0.0) <= 1e-12


@pytest.mark.parametrize("n", [1, 3, 4, 6])
def test_one_dense_block_is_numpy_eigh(n):
    """A block-diagonal solve over a single block of other than two bands is
    numpy's eigh of the whole matrix, bit for bit, in plane layout."""
    spec, blocks = _block_terms([n], False, False, n)
    assert spec.blocks == blocks == (tuple(range(n)),)
    h = spec.bloch(np.random.default_rng(n).uniform(-np.pi, np.pi, (5, 7, 2)))
    w, v = linalg.block_eigh(h, spec.blocks)
    w0, v0 = np.linalg.eigh(h)
    assert np.array_equal(w, np.moveaxis(w0, -1, 0))
    assert np.array_equal(v, np.moveaxis(v0, (-2, -1), (0, 1)))


@pytest.mark.parametrize("n", [2, 4])
def test_expi_hermitian_along_a_ray_and_in_a_batch(n):
    """One H along an array of s, or a batch of H at s = 1: exp(i s H)
    as scipy's Pade exponential gives it, and exactly unitary."""
    rng = np.random.default_rng(n)
    a = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    h = 0.5 * (a + linalg.dagger(a))
    s = np.linspace(-2.0, 3.0, 11)
    ray = linalg.expi_hermitian(h[0], s)
    assert ray.shape == (len(s), n, n)
    for sj, uj in zip(s, ray):
        assert np.max(np.abs(uj - scipy.linalg.expm(1j * sj * h[0]))) < 1e-13
    batch = linalg.expi_hermitian(h)
    w, v = np.linalg.eigh(h)
    assert np.array_equal(batch, (v * np.exp(1j * w)[..., None, :]) @ linalg.dagger(v))
    for hj, uj in zip(h, batch):
        assert np.max(np.abs(uj - scipy.linalg.expm(1j * hj))) < 1e-13
    assert np.max(unitarity_residual(np.concatenate([ray, batch]))) < 1e-14


@pytest.mark.parametrize("m", [1, 2, 3])
def test_expi_hermitian_frechet_matches_expm_frechet(m):
    """exp(iH) and its derivative along dH equal scipy's expm_frechet within
    1e-12, for generic H, H with a degenerate pair, and H = c * 1."""
    rng = np.random.default_rng(m)
    u = random_unitary(m, m)
    spectra = [rng.standard_normal(m), np.array([0.7, 0.7, -0.2])[:m], np.full(m, 0.3)]
    h = np.stack([(u * w) @ linalg.dagger(u) for w in spectra])
    dh = rng.standard_normal((3, m, m)) + 1j * rng.standard_normal((3, m, m))
    dh = dh + linalg.dagger(dh)
    got, dgot = linalg.expi_hermitian_frechet(h, dh)
    for j in range(3):
        ref, dref = scipy.linalg.expm_frechet(1j * h[j], 1j * dh[j])
        assert np.max(np.abs(got[j] - ref)) <= 1e-12
        assert np.max(np.abs(dgot[j] - dref)) <= 1e-12


def test_plane_product_matches_matmul():
    """Entries-first products equal @ on rectangular batches and on a single
    point, where every plane is a 0-d array; trace_product is Tr(xy)."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 7, 3, 2)) + 1j * rng.standard_normal((5, 7, 3, 2))
    y = rng.standard_normal((5, 7, 2, 4)) + 1j * rng.standard_normal((5, 7, 2, 4))
    planes = linalg.plane_product(linalg.entries_first(x), linalg.entries_first(y))
    assert planes.shape == (3, 4, 5, 7)
    assert np.max(np.abs(linalg.matrices_last(planes) - x @ y)) <= 1e-14
    assert np.array_equal(linalg.entries_first(linalg.matrices_last(planes)), planes)
    assert np.shares_memory(linalg.entries_first(linalg.matrices_last(planes)), planes)
    single = linalg.plane_product(x[0, 0], y[0, 0])
    assert np.max(np.abs(single - x[0, 0] @ y[0, 0])) <= 1e-14
    tr = linalg.trace_product(linalg.entries_first(x), linalg.entries_first(linalg.dagger(x)))
    assert np.max(np.abs(tr - np.trace(x @ linalg.dagger(x), axis1=-2, axis2=-1))) <= 1e-13


def _unitary_cases(n, seed):
    """Unitaries of size n: random ones, multiples of 1 (at 0.7, +1 and -1),
    a pair of phases split by 1e-9, phases at +1 and -1, and a phase 1e-14
    below 0, each in a random basis."""
    rng = np.random.default_rng(seed)
    q = random_unitary(n, seed + 100)
    spectra = [rng.uniform(-np.pi, np.pi, n) for _ in range(3)]
    spectra += [np.full(n, 0.7), np.zeros(n), np.full(n, np.pi)]
    split = rng.uniform(-np.pi, np.pi, n)
    split[-1] = split[0] + 1e-9
    edges = rng.uniform(-np.pi, np.pi, n)
    edges[0] = np.pi
    edges[-1] = 0.0
    below = rng.uniform(-np.pi, np.pi, n)
    below[-1] = -1e-14
    spectra += [split, edges, below]
    return ([random_unitary(n, seed + j) for j in range(3)]
            + [(q * np.exp(1j * phases)) @ linalg.dagger(q) for phases in spectra])


def _on_circle(phases):
    """Sorted phases, with those within rounding of -pi read as +pi: the two
    name the same eigenvalue -1."""
    return np.sort(np.where(phases < -np.pi + 1e-13, phases + 2.0 * np.pi, phases))


@pytest.mark.parametrize("n", range(1, 9))
def test_unitary_eig_matches_schur(n):
    """Phases and basis from the Cayley transform against scipy's complex
    Schur form, which is an orthonormal eigenbasis for a normal matrix: the
    basis is orthonormal and rebuilds u, the phases lie in [-pi, pi] and
    equal Schur's, and the logarithms built on either basis agree, at
    degenerate and 1e-9-split phases as at generic ones."""
    snap = DEFAULT_TOL.branch_snap
    for u in _unitary_cases(n, seed=10 * n):
        phases, q = linalg.unitary_eig(u)
        assert np.max(np.abs(linalg.dagger(q) @ q - np.eye(n))) <= 1e-13
        assert np.max(np.abs((q * np.exp(1j * phases)) @ linalg.dagger(q) - u)) <= 1e-13
        assert np.all(np.abs(phases) <= np.pi)
        t, z = scipy.linalg.schur(u, output="complex")
        ref = np.angle(np.diagonal(t))
        assert np.max(np.abs(_on_circle(phases) - _on_circle(ref))) <= 1e-13

        lifted = np.where(np.abs(ref) <= snap, 0.0, ref)
        lifted = np.where(lifted < 0.0, lifted + 2.0 * np.pi, lifted)
        m_ref = (z * (lifted / (2.0 * np.pi))) @ linalg.dagger(z)
        m, _ = linalg.unitary_log_generator(u)
        assert np.max(np.abs(m - 0.5 * (m_ref + linalg.dagger(m_ref)))) <= 1e-13


def test_unitary_log_generator_identity():
    m, lam = linalg.unitary_log_generator(np.eye(3, dtype=complex))
    assert np.max(np.abs(m)) == 0.0
    assert np.max(np.abs(lam)) == 0.0


def test_unitary_log_generator_branch():
    u = np.diag([np.exp(1j * np.pi), 1.0])
    m, lam = linalg.unitary_log_generator(u)
    assert np.allclose(sorted(lam), [0.0, 0.5], atol=1e-14)
    assert np.allclose(m, np.diag([0.5, 0.0]), atol=1e-14)


def test_unitary_log_generator_cut():
    # phase just below zero but above roundoff: on the cut
    u = np.diag([np.exp(-1j * 5e-11), 1.0])
    with pytest.raises(BranchAmbiguity):
        linalg.unitary_log_generator(u)
    # pure roundoff phases snap to zero instead
    m, _ = linalg.unitary_log_generator(np.diag([np.exp(-1j * 1e-14), 1.0]))
    assert np.max(np.abs(m)) == 0.0


def test_kramers_basis_pairing():
    j = linalg.symplectic_blocks(4)
    theta = lambda x: j @ np.conjugate(x)
    basis = linalg.kramers_basis(theta, np.eye(4, dtype=complex))
    assert linalg.frob(linalg.dagger(basis) @ basis - np.eye(4)) < 1e-12
    for jj in range(2):
        assert np.linalg.norm(basis[:, 2 * jj + 1] - theta(basis[:, 2 * jj])) < 1e-12


def test_kramers_basis_odd_rank():
    j = linalg.symplectic_blocks(4)
    with pytest.raises(OddRank):
        linalg.kramers_basis(lambda x: j @ np.conjugate(x),
                             np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex))


def test_kramers_basis_pairing_failure_is_typed():
    """An antiunitary that stretches by 1e-6 cannot pair to 1e-10: the error
    is typed and carries the measured residual and the bound."""
    j = linalg.symplectic_blocks(4)
    with pytest.raises(PairingFailure) as info:
        linalg.kramers_basis(lambda x: (1 + 1e-6) * (j @ np.conjugate(x)),
                             np.eye(4, dtype=complex))
    assert info.value.residual == pytest.approx(1e-6, rel=1e-6)
    assert info.value.bound == 1e-10
    assert isinstance(info.value, TopoinvError)
