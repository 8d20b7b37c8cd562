import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from topoinv import (berry, builtin_model, check_trs, cli, lattice, make_projector_family,
                     symplectic_basis, transport)
from topoinv.errors import DimensionMismatch, GapClosure, NotInvariant, OddRank
from topoinv.core import TRSOperator
from topoinv.grids import loop_axis, reflect, torus_points
from topoinv.models import BlochHamiltonianSpec
from topoinv import linalg

from oracles import trs_residual, validate_family


def test_constant_sigma_z_projector():
    sz = np.diag([1.0, -1.0]).astype(complex)
    spec = BlochHamiltonianSpec(dim=2, terms=((sz, np.zeros(2, dtype=int)),),
                                name="sigma_z")
    fam = make_projector_family(spec)
    assert fam.rank == 1
    k = np.array([0.3, -1.1])
    assert np.allclose(fam.sample(k), np.diag([0.0, 1.0]), atol=1e-14)


def test_gap_closure_on_crossing_band():
    # one band crosses the Fermi level along k1
    terms = ((np.diag([0.0, 3.0]).astype(complex), np.zeros(2, dtype=int)),
             (np.diag([1.0, 0.0]).astype(complex), np.array([1, 0])),
             (np.diag([1.0, 0.0]).astype(complex), np.array([-1, 0])))
    spec = BlochHamiltonianSpec(dim=2, terms=terms, name="crossing")
    with pytest.raises(GapClosure):
        make_projector_family(spec)


def test_family_invariants_on_grid(km_topo):
    report = validate_family(km_topo)
    assert report["projector"] <= 1e-10
    assert report["trace"] <= 1e-8
    assert report["periodicity"] <= 1e-10


def test_trs_operator_structure(theta4):
    j = theta4.j
    assert np.array_equal(j @ j, -np.eye(4))
    assert np.array_equal(j, j.real)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.allclose(theta4.apply(theta4.apply(v)), -v, atol=1e-15)
    # adjoint action is a homomorphism on unitaries and an involution
    def rand_u(seed):
        a = np.random.default_rng(seed).standard_normal((4, 4)) \
            + 1j * np.random.default_rng(seed + 1).standard_normal((4, 4))
        return np.linalg.qr(a)[0]
    g, h = rand_u(5), rand_u(7)
    assert linalg.frob(theta4.adjoint(g @ h)
                       - theta4.adjoint(g) @ theta4.adjoint(h)) < 1e-12
    assert linalg.frob(theta4.adjoint(theta4.adjoint(g)) - g) < 1e-12


@pytest.mark.parametrize("dim", [2, 4])
def test_time_reversal_methods_match_the_inline_formulas(dim):
    """grids.reflect, TRSOperator.frame and symmetrize, and the oracles'
    trs_residual equal the index map k -> -k, theta(E) J_m and J conj(X) J^T
    written out, exactly,
    on loop and torus grids; a symmetrized field is symmetric to 1e-15."""
    theta = TRSOperator.standard(dim)
    j, jm = linalg.symplectic_blocks(dim), linalg.symplectic_blocks(2)
    rng = np.random.default_rng(dim)
    draw = lambda shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flip = lambda n: (-np.arange(n)) % n
    for grid in ((8,), (8, 6)):
        flipped = lambda a: a[flip(8)] if len(grid) == 1 else a[np.ix_(flip(8), flip(6))]
        x, e = draw(grid + (dim, dim)), draw(grid + (dim, 2))
        assert np.array_equal(reflect(x, len(grid)), flipped(x))
        assert np.array_equal(theta.frame(e), j @ np.conjugate(e) @ jm)
        assert trs_residual(theta, x, len(grid)) == float(np.max(linalg.frob(
            flipped(x) - j @ np.conjugate(x) @ j.T)))
        symmetric = theta.symmetrize(x, len(grid))
        assert np.array_equal(symmetric, 0.5 * (x + j @ np.conjugate(flipped(x)) @ j.T))
        assert trs_residual(theta, symmetric, len(grid)) <= 1e-15


def test_check_trs_constant_invariant(atomic_limit, theta4):
    ok, violation = check_trs(atomic_limit, theta4)
    assert ok and violation < 1e-14


def test_check_trs_haldane_broken(haldane_topo, theta2):
    ok, violation = check_trs(haldane_topo, theta2)
    assert not ok
    assert violation > 1e-3


def test_check_trs_kane_mele(km_topo, theta4):
    ok, violation = check_trs(km_topo, theta4)
    assert ok and violation < 1e-10


def test_check_trs_dimension_mismatch(haldane_topo, theta4):
    with pytest.raises(DimensionMismatch):
        check_trs(haldane_topo, theta4)


def test_check_trs_sums_the_terms_at_one_vector(theta4):
    """Two terms at a vector kane_mele leaves empty, each breaking time
    reversal by +-0.1i, sum to the symmetric coefficient 0.04: the check
    compares the sum, and finds it exactly symmetric. Either term alone is
    refused by ||0.2i 1|| = 0.4."""
    base = builtin_model("kane_mele", {"lambda_so": 0.3, "lambda_v": 0.4})
    eye = np.eye(4, dtype=complex)
    pair = lambda c, v: [(c * eye, np.array(v)), (np.conjugate(c) * eye, -np.array(v))]
    halves = pair(0.02 + 0.1j, (2, 0)), pair(0.02 - 0.1j, (2, 0))
    family = lambda *extra: make_projector_family(BlochHamiltonianSpec(
        dim=4, terms=base.terms + tuple(t for e in extra for t in e), name="split"))
    assert check_trs(family(*halves), theta4) == (True, 0.0)
    for half in halves:
        ok, violation = check_trs(family(half), theta4)
        assert not ok and violation == pytest.approx(0.4, rel=1e-12)


def test_symplectic_basis_full_space(theta2):
    basis = symplectic_basis(theta2, np.eye(2, dtype=complex))
    assert linalg.frob(linalg.dagger(basis) @ basis - np.eye(2)) < 1e-14
    assert np.linalg.norm(basis[:, 1] - theta2.apply(basis[:, 0])) < 1e-14


def test_symplectic_basis_random_invariant_projector(theta4):
    rng = np.random.default_rng(11)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = h + h.conj().T
    h = h + theta4.adjoint(h)          # Theta-invariant Hermitian
    w, v = np.linalg.eigh(h)
    p = v[:, :2] @ v[:, :2].conj().T   # lowest Kramers pair
    basis = symplectic_basis(theta4, p)
    # spans Ran P
    assert linalg.frob(p - basis @ linalg.dagger(basis)) < 1e-9
    e1, e2 = basis[:, 0], basis[:, 1]
    assert abs(np.vdot(theta4.apply(e1), e2) - 1.0) < 1e-10
    assert abs(np.vdot(theta4.apply(e1), e1)) < 1e-10


def test_symplectic_basis_errors(theta4):
    rng = np.random.default_rng(2)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = h + h.conj().T
    w, v = np.linalg.eigh(h)
    p_bad = v[:, :2] @ v[:, :2].conj().T   # generically not Theta-invariant
    with pytest.raises(NotInvariant):
        symplectic_basis(theta4, p_bad)
    p_odd = np.diag([1.0, 0, 0, 0]).astype(complex)
    with pytest.raises(OddRank):
        symplectic_basis(theta4, p_odd)


def test_loop_restriction_matches_torus(km_topo):
    loop = km_topo.loop(0, np.pi)
    ks = np.linspace(-np.pi, np.pi, 7)
    for k in ks:
        assert np.allclose(loop.sample(k), km_topo.sample(np.array([np.pi, k])), atol=1e-14)


def test_projector_derivative_accuracy(flat_band):
    loop = flat_band.loop(1, 0.0)
    k = 0.7
    # closed form: P = (1 - n.sigma)/2, dP = -(dn.sigma)/2
    dn_sigma = (-np.sin(k)) * np.array([[0, 1], [1, 0]], dtype=complex) \
        + np.cos(k) * np.array([[0, -1j], [1j, 0]], dtype=complex)
    exact = -0.5 * dn_sigma
    got = loop.derivative(np.array([k]))[1][0]
    assert np.max(np.abs(got - exact)) < 1e-10


def _richardson(sample, ks, e, h=1e-3):
    """Richardson-extrapolated central difference of sample along e."""
    def cd(step):
        return (sample(ks + step * e) - sample(ks - step * e)) / (2 * step)
    return (4.0 * cd(h / 2) - cd(h)) / 3.0


def test_analytic_derivative_matches_finite_differences_with_rashba():
    spec = builtin_model("kane_mele", {"lambda_so": 0.3, "lambda_v": 0.4,
                                       "lambda_r": 0.2})
    fam = make_projector_family(spec)
    assert fam.ambient_dim == 4 and fam.rank == 2
    # the four TRIMs (Kramers-degenerate occupied pair) and a generic point
    ks = np.array([[0.0, 0.0], [np.pi, 0.0], [0.0, np.pi], [np.pi, np.pi],
                   [0.37, -1.21]])
    p = fam.sample(ks)
    for axis in range(2):
        fd = _richardson(fam.sample, ks, np.eye(2)[axis])
        p_axis, d_axis = fam.derivative(ks, axis)
        assert np.array_equal(p_axis, p)
        assert np.max(np.abs(d_axis - fd)) < 1e-10
        # a repeated call reads the kept eigensystem: the same dP bit for bit
        assert np.array_equal(fam.derivative(ks, axis)[1], d_axis)
    line = fam.restrict((0.2, -0.5), (1.0, 2.0), "diagonal")
    s = np.linspace(-np.pi, np.pi, 9)
    fd = _richardson(line.sample, s, 1.0)
    p_line, d_line = line.derivative(s)
    assert np.array_equal(p_line, line.sample(s))
    assert np.max(np.abs(d_line - fd)) < 1e-10


@pytest.mark.parametrize("axis", [(0, 1), 2, -1, 0.5, np.array([1.0, 0.0])])
def test_torus_derivative_rejects_any_axis_but_0_and_1(axis, km_topo):
    """A tuple of axes, an out-of-range axis or a direction vector is a
    ValueError, not one dP along some direction."""
    ks = np.array([[0.3, -0.7], [1.1, 2.0]])
    with pytest.raises(ValueError, match="axis must be 0 or 1"):
        km_topo.derivative(ks, axis)


_PLANE_FAMILIES = ("haldane_topo", "km_topo", "bhz_topo")


@pytest.mark.parametrize("name", _PLANE_FAMILIES)
def test_plane_path_matches_matmul_formulas(name, request, matmul_projector_derivative):
    """sample and derivative, formed by plane products on the entries-first
    eigensystem, equal the (..., N, N) matmul formulas within 1e-13 for
    either axis, a loop's line direction and single points."""
    fam = replace(request.getfixturevalue(name))
    ax1, ax2 = loop_axis(12), loop_axis(10)
    grid = np.stack(np.meshgrid(ax1.points, ax2.points + 0.1, indexing="ij"), axis=-1)
    line = fam.restrict((0.2, -0.5), (1.0, 2.0), "diagonal")
    s = loop_axis(16).points
    cases = [(fam, grid, 0), (fam, grid, 1),
             (fam, np.array([0.37, -1.21]), 1), (fam, np.array([np.pi, 0.0]), 0),
             (fam, np.array([np.pi, 0.0]), 1), (line, s, 0), (line, np.float64(0.4), 0)]
    for family, ks, axis in cases:
        p_ref, d_ref = matmul_projector_derivative(family, ks, axis)
        p, d = family.derivative(ks, axis)
        sample = family.sample(ks)
        assert p.shape == sample.shape == p_ref.shape
        assert np.max(np.abs(sample - p_ref)) <= 1e-13
        assert np.array_equal(p, sample)
        assert d.shape == d_ref.shape
        assert np.max(np.abs(d - d_ref)) <= 1e-13, (ks.shape, axis)


def _count_eigh(monkeypatch):
    """Patch numpy's eigh to count the matrices it diagonalizes."""
    original = np.linalg.eigh
    count = [0]

    def counted(a, *args, **kwargs):
        count[0] += int(np.prod(np.shape(a)[:-2]))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return count


def test_each_point_set_is_diagonalized_once(monkeypatch, haldane_topo, km_topo, theta4):
    """P and dP come from one eigh per point: the curvature and transport
    paths diagonalize each Hamiltonian once, and the lattice Z2 on the grid
    the half-zone curvature just diagonalized takes none. The transport's
    step exponentials (one eigh per Magnus step) are counted apart. Each case
    runs on a copy of its family, which keeps no eigensystem."""
    haldane, km = replace(haldane_topo), replace(km_topo)
    count = _count_eigh(monkeypatch)
    exponentials = [0]
    expi_hermitian = linalg.expi_hermitian

    def counted(h, *args):
        exponentials[0] += int(np.prod(np.shape(h)[:-2]))
        return expi_hermitian(h, *args)

    monkeypatch.setattr(linalg, "expi_hermitian", counted)
    cases = (
        (lambda: berry.berry_curvature(haldane, n_grid=16), 256, 0),
        (lambda: berry.berry_curvature_ebz(km, n1=8, n2=16), 144, 0),
        (lambda: lattice.lattice_z2(km, theta4, n1=8, n2=16), 0, 0),
        (lambda: transport._segment_transport(km.loop(0, 0.0), 0.0, np.pi, 32), 257, 128),
    )
    for run, matrices, steps in cases:
        count[0] = exponentials[0] = 0
        run()
        assert (count[0] - exponentials[0], exponentials[0]) == (matrices, steps)


def test_family_keeps_the_last_eigensystem(monkeypatch, km_topo):
    """Sampling the last point set again diagonalizes nothing, and any other
    set replaces it."""
    ax = loop_axis(64)
    fam = make_projector_family(km_topo.spec)
    ks = np.stack(np.meshgrid(ax.points[:8], ax.points[:4], indexing="ij"), axis=-1)
    count = _count_eigh(monkeypatch)
    fam.sample(ks)
    fam.derivative(ks, 0)
    fam.derivative(ks, 1)
    assert count[0] == 32
    assert np.array_equal(fam.sample(ks + 0.1), replace(fam).sample(ks + 0.1))
    assert count[0] == 32 + 2 * 32
    fam.sample(ks + 0.1)
    assert count[0] == 32 + 2 * 32


def test_kept_grid_answers_its_strided_sub_grids(monkeypatch, haldane_topo):
    """After the 128^2 loop grid, its 64^2 and 32^2 sub-grids kept[::s, ::s]
    are read from the kept eigensystem with no eigh, exactly as a fresh
    family computes them; the 64^2 grid shifted by half its step (the odd
    points of the kept grid) and a 48^2 grid are diagonalized."""
    grid = lambda n, shift=0.0: torus_points(loop_axis(n), loop_axis(n)) + shift
    fresh = {n: (replace(haldane_topo).sample(grid(n)),
                 replace(haldane_topo).derivative(grid(n), 0)) for n in (64, 32)}
    fam = replace(haldane_topo)
    fam.sample(grid(128))
    count = _count_eigh(monkeypatch)
    for n, (p, (p0, dp)) in fresh.items():
        assert np.array_equal(fam.sample(grid(n)), p)
        kept_p, kept_dp = fam.derivative(grid(n), 0)
        assert np.array_equal(kept_p, p0) and np.array_equal(kept_dp, dp)
    assert count[0] == 0
    fam.sample(grid(64, np.pi / 64))
    assert count[0] == 64 ** 2
    fam.sample(grid(128))
    fam.sample(grid(48))
    assert count[0] == 64 ** 2 + 128 ** 2 + 48 ** 2


def test_kept_eigensystem_changes_no_output(haldane_topo, km_topo, theta4):
    """The oracles read the grid the curvature just diagonalized and give
    exactly what a family that keeps nothing gives; writing into a returned
    P changes no later sample; loop families keep their own eigensystem."""
    fam = replace(haldane_topo)
    berry.berry_curvature(fam, n_grid=32)
    kept, fresh = lattice.plaquette_chern(fam, 32), lattice.plaquette_chern(replace(fam), 32)
    assert (kept.raw, kept.meta) == (fresh.raw, fresh.meta)
    fam = replace(km_topo)
    berry.berry_curvature_ebz(fam, n1=16, n2=32)
    kept = lattice.lattice_z2(fam, theta4, n1=16, n2=32)
    fresh = lattice.lattice_z2(replace(fam), theta4, n1=16, n2=32)
    assert (kept.raw, kept.meta) == (fresh.raw, fresh.meta)

    ks = np.stack(np.meshgrid(loop_axis(8).points, loop_axis(8).points,
                              indexing="ij"), axis=-1)
    reference = replace(fam).sample(ks)
    fam.sample(ks)[...] = 0.0
    fam.derivative(ks, 0)[0][...] = 0.0
    assert np.array_equal(fam.sample(ks), reference)

    s = loop_axis(16).points
    at_zero, at_pi = fam.loop(0, 0.0), fam.loop(0, np.pi)
    assert len({id(f._last) for f in (fam, at_zero, at_pi)}) == 3
    at_zero.sample(s)
    assert np.array_equal(at_pi.sample(s), replace(at_pi).sample(s))
    assert not np.allclose(at_pi.sample(s), at_zero.sample(s))


@pytest.mark.parametrize("argv,matrices", [
    (["chern", "--model", "haldane", "--param", "m=0.6"], 16_385),
    (["fkm", "--model", "kane_mele", "--param", "lambda_so=0.3",
      "--param", "lambda_v=1.44"], 21_770),
])
def test_request_eigh_counts(monkeypatch, capsys, argv, matrices):
    """Matrices diagonalized by one request at the default grids, each
    after the one at k = 0 that fixes the rank. H(k) is diagonalized block
    by block, so its count is points x blocks: haldane is one two-band
    block and kane_mele at lambda_r = 0 two. A chern request on haldane
    diagonalizes its 128^2 curvature grid once, the plaquette oracle's
    frames need none, and U_P reads its 64^2 grid as a sub-grid of the
    curvature's eigensystem; an fkm request on kane_mele its half-zone grid
    once for the curvature and the lattice oracle, plus its two boundary
    loops of 1,025 points (10,371 points of two blocks each with k = 0),
    plus its transports,
    whose 2 x 512 Magnus steps take one eigh each for their exponentials,
    and the eigenbases of its four 2 x 2 mismatch gauges, one eigh each,
    in which their eigenphases are ramped with no second eigh; the
    time-reversal check and the oracles diagonalize nothing."""
    count = _count_eigh(monkeypatch)
    assert cli.main(argv + ["--json"]) == 0
    capsys.readouterr()
    assert count[0] == matrices


_KM_1_44 = ["--model", "kane_mele", "--param", "lambda_so=0.3", "--param", "lambda_v=1.44"]


@pytest.mark.parametrize("argv,mib", [(["chern"] + _KM_1_44, 17), (["fkm"] + _KM_1_44, 14)],
                         ids=("chern", "fkm"))
def test_request_memory_peaks(capsys, argv, mib):
    """A default-grid kane_mele request allocates at most `mib` MiB at its
    peak, as tracemalloc counts it: the curvature forms its interband blocks
    one dH plane set at a time and no N x N derivative plane, the plaquette
    oracle copies no N x N residual, and the U_P integral never forms its
    density on the 3D grid and holds one commutator plane set at a time,
    while the curvature's 128^2 eigensystem it reads stays alive. Forming
    two dP plane sets and their commutator for the chern curvature peaks
    near 32 MiB, and for fkm's half-zone curvature near 18 MiB; holding all
    four U_P commutators next to the kept eigensystem peaks near 18 MiB."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert cli.main(argv + ["--json"]) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < mib * 2 ** 20
