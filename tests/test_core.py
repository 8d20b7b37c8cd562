from dataclasses import replace

import numpy as np
import pytest

from topoinv import (berry, builtin_model, check_trs, cli, lattice, make_projector_family,
                     symplectic_basis, transport)
from topoinv.errors import DimensionMismatch, GapClosure, NotInvariant, OddRank
from topoinv.core import TRSOperator
from topoinv.grids import loop_axis, reflect
from topoinv.models import BlochHamiltonianSpec
from topoinv import linalg


def test_constant_sigma_z_projector():
    sz = np.diag([1.0, -1.0]).astype(complex)
    spec = BlochHamiltonianSpec(dim=2, terms=((sz, np.zeros(2, dtype=int)),),
                                name="sigma_z")
    fam = make_projector_family(spec, fermi_level=0.0)
    assert fam.rank == 1
    k = np.array([0.3, -1.1])
    assert np.allclose(fam(k), np.diag([0.0, 1.0]), atol=1e-14)


def test_gap_closure_on_crossing_band():
    # one band crosses the Fermi level along k1
    terms = ((np.diag([0.0, 3.0]).astype(complex), np.zeros(2, dtype=int)),
             (np.diag([1.0, 0.0]).astype(complex), np.array([1, 0])),
             (np.diag([1.0, 0.0]).astype(complex), np.array([-1, 0])))
    spec = BlochHamiltonianSpec(dim=2, terms=terms, name="crossing")
    with pytest.raises(GapClosure):
        make_projector_family(spec, fermi_level=0.0)


def test_family_invariants_on_grid(km_topo):
    report = km_topo.validate(n_grid=32)
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
    """grids.reflect and TRSOperator.frame, residual and symmetrize equal
    the index map k -> -k, theta(E) J_m and J conj(X) J^T written out, exactly,
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
        assert theta.residual(x, len(grid)) == float(np.max(linalg.frob(
            flipped(x) - j @ np.conjugate(x) @ j.T)))
        symmetric = theta.symmetrize(x, len(grid))
        assert np.array_equal(symmetric, 0.5 * (x + j @ np.conjugate(flipped(x)) @ j.T))
        assert theta.residual(symmetric, len(grid)) <= 1e-15


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
        assert np.allclose(loop(k), km_topo(np.array([np.pi, k])), atol=1e-14)


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
    fam = make_projector_family(spec, 0.0)
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
    # both axes from one eigensystem are exactly the single-axis derivatives,
    # and the P returned with them is exactly the sampled one
    p_both, (d1, d2) = fam.derivative(ks, (0, 1))
    assert np.array_equal(p_both, p)
    assert np.array_equal(d1, fam.derivative(ks, 0)[1])
    assert np.array_equal(d2, fam.derivative(ks, 1)[1])
    line = fam.restrict((0.2, -0.5), (1.0, 2.0), "diagonal")
    s = np.linspace(-np.pi, np.pi, 9)
    fd = _richardson(line.sample, s, 1.0)
    p_line, d_line = line.derivative(s)
    assert np.array_equal(p_line, line.sample(s))
    assert np.max(np.abs(d_line - fd)) < 1e-10


_PLANE_FAMILIES = ("haldane_topo", "km_topo", "bhz_topo")


@pytest.mark.parametrize("name", _PLANE_FAMILIES)
def test_plane_path_matches_matmul_formulas(name, request, matmul_projector_derivative):
    """sample and derivative, formed by plane products on the entries-first
    eigensystem, equal the (..., N, N) matmul formulas within 1e-13 for an
    int axis, both axes, a loop's line direction and single points."""
    fam = replace(request.getfixturevalue(name))
    ax1, ax2 = loop_axis(12), loop_axis(10)
    grid = np.stack(np.meshgrid(ax1.points, ax2.points + 0.1, indexing="ij"), axis=-1)
    line = fam.restrict((0.2, -0.5), (1.0, 2.0), "diagonal")
    s = loop_axis(16).points
    cases = [(fam, grid, 0), (fam, grid, 1), (fam, grid, (0, 1)),
             (fam, np.array([0.37, -1.21]), 1), (fam, np.array([np.pi, 0.0]), (0, 1)),
             (line, s, 0), (line, np.float64(0.4), 0)]
    for family, ks, axis in cases:
        p_ref, d_ref = matmul_projector_derivative(family, ks, axis)
        p, d = family.derivative(ks, axis)
        sample = family.sample(ks)
        assert p.shape == sample.shape == p_ref.shape
        assert np.max(np.abs(sample - p_ref)) <= 1e-13
        assert np.array_equal(p, sample)
        for got, ref in zip(d if isinstance(axis, tuple) else (d,),
                            d_ref if isinstance(axis, tuple) else (d_ref,)):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-13, (ks.shape, axis)


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
    paths diagonalize each Hamiltonian once, and the lattice boundary line
    diagonalizes P only where its Kramers reflection does not overwrite it.
    Each case runs on a copy of its family, which keeps no eigensystem."""
    haldane, km = replace(haldane_topo), replace(km_topo)
    row = km.sample(np.stack([np.zeros(32), loop_axis(32).points], axis=-1))
    count = _count_eigh(monkeypatch)
    cases = (
        (lambda: berry.berry_curvature(haldane, n_grid=16), 256),
        (lambda: berry.berry_curvature_ebz(km, n1=8, n2=16), 144),
        (lambda: transport._segment_transport(km.loop(0, 0.0), 0.0, np.pi, 32, 4), 257),
        (lambda: lattice._trs_boundary_line(row, theta4), 15),
    )
    for run, matrices in cases:
        count[0] = 0
        run()
        assert count[0] == matrices, (count[0], matrices)


def test_family_keeps_the_last_eigensystem(monkeypatch, km_topo):
    """Sampling the last point set again diagonalizes nothing, any other set
    replaces it, and a new family starts with its gap probe's grid."""
    ax = loop_axis(64)
    probe = np.stack(np.meshgrid(ax.points, ax.points, indexing="ij"), axis=-1)
    fam = make_projector_family(km_topo.spec, 0.0)
    ks = np.stack(np.meshgrid(ax.points[:8], ax.points[:4], indexing="ij"), axis=-1)
    count = _count_eigh(monkeypatch)
    fam.sample(probe)
    assert count[0] == 0
    fam.sample(ks)
    fam.derivative(ks, (0, 1))
    assert count[0] == 32
    assert np.array_equal(fam.sample(ks + 0.1), replace(fam).sample(ks + 0.1))
    assert count[0] == 32 + 2 * 32
    fam.sample(probe)
    assert count[0] == 32 + 2 * 32 + 64 * 64


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
    (["chern", "--model", "haldane", "--param", "m=0.6"], 36_864),
    (["fkm", "--model", "kane_mele", "--param", "lambda_so=0.3",
      "--param", "lambda_v=1.44"], 23_172),
])
def test_request_eigh_counts(monkeypatch, capsys, argv, matrices):
    """Matrices diagonalized by one request at the default grids: a chern
    request diagonalizes its 64^2 probe and 128^2 curvature grids once each
    (plus the plaquette oracle's own eigh of P), an fkm request its probe
    grid once and its half-zone grid once for the curvature and the lattice
    oracle (plus its transports and the oracle's eigh of P)."""
    count = _count_eigh(monkeypatch)
    assert cli.main(argv + ["--json"]) == 0
    capsys.readouterr()
    assert count[0] == matrices
