import ast
import itertools
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from topoinv import (berry_curvature, chern_number, delta_invariant, lattice_z2,
                     overlap_berry_phase, parallel_transport,
                     plaquette_chern, wilson_holonomy, z2_ingredients)
from topoinv import builtin_model, lattice, make_projector_family
from topoinv.core import TRSOperator, check_trs
from topoinv.models import BlochHamiltonianSpec, _merge_terms

from oracles import det_phase, eigh_frames


def test_plaquette_chern_is_exactly_integer(haldane_topo):
    c = plaquette_chern(haldane_topo, n_grid=48)
    assert c.residual < 1e-12
    assert abs(c.snapped) == 1


def test_lattice_z2_matches_delta_with_rashba(theta4):
    spec = builtin_model("kane_mele", {"lambda_so": 0.3, "lambda_v": 1.0,
                                       "lambda_r": 0.4})
    fam = make_projector_family(spec)
    z2 = lattice_z2(fam, theta4, n1=24, n2=48)
    d = delta_invariant(z2_ingredients(fam, theta4, n1=32, n2=64))
    assert z2.residual < 1e-12
    assert z2.snapped == d.snapped == 1


def test_lattice_z2_bhz_phases(theta4):
    for m, expected in ((1.0, 1), (-1.0, 0), (3.0, 1)):
        fam = make_projector_family(builtin_model("bhz", {"m": m}))
        assert lattice_z2(fam, theta4, n1=24, n2=48).snapped == expected


def test_spin_chern_parity_oracle(theta4):
    """At zero Rashba the spin blocks decouple; the Z2 index equals the
    parity of a single spin block's Chern number."""
    spec = builtin_model("kane_mele", {"lambda_so": 0.3, "lambda_v": 0.6,
                                       "lambda_r": 0.0})
    up = [0, 2]   # (A up, B up) rows/columns of the spin-conserving model
    terms = tuple((mat[np.ix_(up, up)], vec) for mat, vec in spec.terms)
    fam_up = make_projector_family(BlochHamiltonianSpec(dim=2, terms=terms, name="km_up"))
    c_up = plaquette_chern(fam_up, n_grid=48).require_snapped()
    fam = make_projector_family(spec)
    z2 = lattice_z2(fam, theta4, n1=24, n2=48).require_snapped()
    assert abs(c_up) % 2 == z2


def test_overlap_berry_phase_matches_wilson(km_topo):
    loop = km_topo.loop(0, 0.0)
    oracle = overlap_berry_phase(loop, n_grid=2048)
    trp = parallel_transport(loop, n_grid=256)
    det = np.linalg.det(wilson_holonomy(trp))
    assert abs(oracle - det) < 1e-6


def test_plaquette_matches_curvature_integral(haldane_topo):
    cp = plaquette_chern(haldane_topo, n_grid=64).require_snapped()
    cc = chern_number(berry_curvature(haldane_topo, n_grid=64)).require_snapped()
    assert cp == cc


@pytest.mark.parametrize("name, params, expected", [
    ("kane_mele", {"lambda_so": 0.3, "lambda_v": 1.44}, 1),
    ("kane_mele", {"lambda_so": 0.3, "lambda_v": 1.68}, 0),
    ("kane_mele", {"lambda_so": 0.3, "lambda_v": 2.2589}, 0),
    ("bhz", {}, 1)])
def test_lattice_z2_raw_is_reported_mod_2(theta4, name, params, expected):
    """The whole turns of the boundary link sums follow the gauge of the
    frames, so the raw value is reduced into (-1/2, 3/2], where both classes
    sit away from the cut: it stays within rounding of the snapped value."""
    fam = make_projector_family(builtin_model(name, params))
    z2 = lattice_z2(fam, theta4)
    assert -0.5 < z2.raw <= 1.5
    assert z2.snapped == expected and z2.residual < 1e-12
    assert round(z2.raw) == expected


def test_overlap_berry_phase_diagonalizes_one_grid(monkeypatch):
    """n_grid = 1024 diagonalizes 1,024 Hamiltonians for P, once per block
    (kane_mele at lambda_r = 0 has two two-band blocks, so the count is
    points x blocks), and none of the projectors for their frames; the
    Richardson coarse grid is the even points of the same frames."""
    eigh = np.linalg.eigh
    batches = []

    def counted(a):
        batches.append(int(np.prod(a.shape[:-2])))
        return eigh(a)

    loop = make_projector_family(builtin_model("kane_mele", {"lambda_v": 0.4})).loop(0, 0.0)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    overlap_berry_phase(loop, n_grid=1024)
    assert batches == [1024, 1024]


def _random_projector(n, m, rng, real=False):
    a = rng.standard_normal((n, m))
    if not real:
        a = a + 1j * rng.standard_normal((n, m))
    q, _ = np.linalg.qr(a)
    return q @ np.conjugate(q.T)


def _projectors(n, m, rng):
    """Rank-m projectors on C^n: random complex and random real ones, and
    exactly sparse ones (diagonal, one with tied columns, spin blocks)."""
    out = [_random_projector(n, m, rng, real) for real in (False, True) for _ in range(3)]
    out.append(np.diag((np.arange(n) < m).astype(float)))
    out.append(np.diag((np.arange(n) >= n - m).astype(float)))
    if m < n:
        tied = np.zeros((n, n))
        tied[:2, :2] = 0.5
        tied[2:m + 1, 2:m + 1] = np.eye(m - 1)
        out.append(tied)
    if n % 2 == 0 and m % 2 == 0:
        half = _random_projector(n // 2, m // 2, rng)
        out.append(scipy.linalg.block_diag(half, np.conjugate(half)))   # spin up, down
        out.append(np.kron(half, np.eye(2)))                            # spin inner
    return np.array(out, dtype=complex)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pivoted_frames_span_the_range(n):
    """Pivoted Gram-Schmidt frames are orthonormal bases of Ran P, to
    1e-13, for dense, real and exactly sparse projectors of rank 1 to 3."""
    rng = np.random.default_rng(n)
    for m in range(1, min(3, n) + 1):
        p = _projectors(n, m, rng)
        e = np.moveaxis(lattice._frames(np.moveaxis(p, 0, -1)), -1, 0)
        assert e.shape == (len(p), n, m)
        eh = np.conjugate(np.swapaxes(e, -1, -2))
        assert np.max(np.abs(eh @ e - np.eye(m))) < 1e-13
        assert np.max(np.abs(p @ e - e)) < 1e-13


def _theta_invariant_projectors(n, m, rng, theta):
    """Rank-m projectors on C^n with Theta(P) = P: the span of random
    vectors v and their partners J conj(v), and the diagonal projectors onto
    the first and the last m/2 Kramers pairs."""
    out = []
    for real in (False, True):
        for _ in range(3):
            v = rng.standard_normal((n, m // 2))
            if not real:
                v = v + 1j * rng.standard_normal((n, m // 2))
            pairs = np.stack([v, theta.apply(v)], axis=-1).reshape(n, m)
            q, _ = np.linalg.qr(pairs)
            out.append(q @ np.conjugate(q.T))
    out.append(np.diag((np.arange(n) < m).astype(float)))
    out.append(np.diag((np.arange(n) >= n - m).astype(float)))
    return np.array(out, dtype=complex)


@pytest.mark.parametrize("n, m", [(4, 2), (6, 2), (6, 4), (8, 4)])
def test_kramers_frames_pair_each_pivot_with_its_partner(n, m):
    """With theta, the frames of Theta-invariant projectors are orthonormal
    bases of Ran P whose odd vectors are the Kramers partners
    J conj(e) of the even ones, all to 1e-13."""
    theta = TRSOperator.standard(n)
    p = _theta_invariant_projectors(n, m, np.random.default_rng(n + m), theta)
    assert np.max(np.abs(theta.adjoint(p) - p)) < 1e-13
    e = np.moveaxis(lattice._frames(np.moveaxis(p, 0, -1), theta), -1, 0)
    assert e.shape == (len(p), n, m)
    eh = np.conjugate(np.swapaxes(e, -1, -2))
    assert np.max(np.abs(eh @ e - np.eye(m))) < 1e-13
    assert np.max(np.abs(p @ e - e)) < 1e-13
    assert np.max(np.abs(e[..., 1::2] - theta.apply(e[..., 0::2]))) < 1e-13


def _phase_gap(x, y):
    return np.max(np.abs((x - y + np.pi) % (2 * np.pi) - np.pi))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_plane_elimination_matches_the_lapack_determinant(m):
    """arg det by elimination on planes equals arg of np.linalg.det, to
    1e-12, on random complex matrices, on every permutation matrix and on
    matrices with a zero (0, 0) entry, which force row swaps."""
    rng = np.random.default_rng(m)
    dense = rng.standard_normal((m, m, 6, 40)) + 1j * rng.standard_normal((m, m, 6, 40))
    assert _phase_gap(lattice._det_phase(dense), det_phase(dense)) < 1e-12
    perms = np.array([np.eye(m)[list(p)] for p in itertools.permutations(range(m))],
                     dtype=complex)
    perms = np.moveaxis(perms * np.exp(1j * rng.uniform(0, 7, (len(perms), 1, m))), 0, -1)
    assert _phase_gap(lattice._det_phase(perms), det_phase(perms)) < 1e-12
    if m > 1:
        zero_corner = dense.copy()
        zero_corner[0, 0] = 0.0
        assert _phase_gap(lattice._det_phase(zero_corner), det_phase(zero_corner)) < 1e-12


def test_singular_overlap_has_phase_zero():
    """A singular overlap, here of two rank-2 frames on C^4 that share one
    vector and are orthogonal in the other, has det 0; its phase is 0, as
    np.linalg.det gives, with no warning on the division it avoids, also
    where elimination leaves det = -1 * 0 = -0."""
    basis = np.eye(4, dtype=complex)
    e1 = basis[:, [0, 1]][..., None]
    e2 = basis[:, [0, 2]][..., None]
    singular = np.zeros((3, 3, 3), dtype=complex)
    singular[:, :, 1] = [[0, 1, 2], [0, 3, 4], [0, 5, 6]]   # zero first column
    singular[:, :, 2] = [[-1, 1, 0], [1, -1, 0], [0, 0, 1]]  # eliminates to -1 * 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lattice._link_phase(e1, e2).tolist() == [0.0]
        assert lattice._det_phase(singular).tolist() == [0.0, 0.0, 0.0]
        assert det_phase(singular).tolist() == [0.0, 0.0, 0.0]


def _direct_sum(*specs):
    """Block-diagonal Bloch Hamiltonian H_1 + H_2 + ... of builtin specs,
    its Fourier terms merged at equal vectors."""
    dim = sum(s.dim for s in specs)
    raw, start = [], 0
    for s in specs:
        for mat, vec in s.terms:
            block = np.zeros((dim, dim), dtype=complex)
            block[start:start + s.dim, start:start + s.dim] = mat
            raw.append((block, vec))
        start += s.dim
    return make_projector_family(BlochHamiltonianSpec(dim=dim, terms=_merge_terms(raw),
                                                      name="direct_sum"))


@pytest.mark.parametrize("m2, expected", [(0.3, -2), (1.5, -1)])
def test_plaquette_chern_adds_over_direct_sums(m2, expected):
    """Rank-2 haldane direct sums on the 128^2 grid: the plaquette Chern
    number is the sum of the summands', -1 + -1 and -1 + 0."""
    fam = _direct_sum(builtin_model("haldane", {"m": 0.3}), builtin_model("haldane", {"m": m2}))
    assert fam.rank == 2
    assert plaquette_chern(fam, n_grid=128).snapped == expected


def test_lattice_oracles_on_two_kramers_pairs_of_bands():
    """An 8-band kane_mele direct sum of rank 4, one topological and one
    trivial summand, both with Rashba coupling: time reversal holds
    exactly, the lattice Z2 on 65 x 128 is 1 + 0 = 1 and the plaquette
    Chern number 0; the topological summand with itself has Z2 1 + 1 = 0."""
    topo = builtin_model("kane_mele", {"lambda_so": 0.3, "lambda_v": 0.4, "lambda_r": 0.1})
    trivial = builtin_model("kane_mele", {"lambda_so": 0.3, "lambda_v": 2.0, "lambda_r": 0.05})
    theta8 = TRSOperator.standard(8)
    fam = _direct_sum(topo, trivial)
    assert fam.rank == 4
    assert check_trs(fam, theta8) == (True, 0.0)
    assert lattice_z2(fam, theta8, n1=64, n2=128).snapped == 1
    assert plaquette_chern(fam, n_grid=128).snapped == 0
    assert lattice_z2(_direct_sum(topo, topo), theta8, n1=64, n2=128).snapped == 0


_REFERENCE_CHERN = [("haldane", {"m": 0.6}), ("haldane", {"m": 1.0}),
                    ("kane_mele", {"lambda_so": 0.3, "lambda_v": 1.44}),
                    ("kane_mele", {"lambda_so": 0.3, "lambda_v": 1.68})]
_REFERENCE_Z2 = [{"lambda_v": 1.44}, {"lambda_v": 1.68},
                 {"lambda_v": 0.4, "lambda_r": 0.2}, {"lambda_v": 1.0, "lambda_r": 0.4}]


def test_pivoted_frames_give_the_eigenframe_oracles(monkeypatch, theta4):
    """On the benchmark's reference inputs at the default request grids,
    the oracles on pivoted frames snap to what they give on eigh frames,
    with raw values within 1e-12 (mod 2 for the Z2)."""
    pivoted = lattice._frames

    def reference_frames(p, theta=None):
        # the Z2's fixed points keep their Kramers pairs
        if theta is not None:
            return pivoted(p, theta)
        return np.moveaxis(eigh_frames(np.moveaxis(p, (0, 1), (-2, -1))), (-2, -1), (0, 1))

    def both(run):
        with monkeypatch.context() as patch:
            patch.setattr(lattice, "_frames", reference_frames)
            reference = run()
        return run(), reference

    for name, params in _REFERENCE_CHERN:
        fam = make_projector_family(builtin_model(name, params))
        new, ref = both(lambda: plaquette_chern(fam, n_grid=128))
        assert new.snapped == ref.snapped is not None
        assert abs(new.raw - ref.raw) < 1e-12
    for params in _REFERENCE_Z2:
        fam = make_projector_family(builtin_model("kane_mele", {"lambda_so": 0.3, **params}))
        new, ref = both(lambda: lattice_z2(fam, theta4, n1=64, n2=128))
        assert new.snapped == ref.snapped is not None
        assert abs((new.raw - ref.raw + 1.0) % 2.0 - 1.0) < 1e-12


def test_lattice_z2_at_zero_staggering(theta4):
    """Kane-Mele at lambda_v = 0 is exactly structured: its pivoted frames
    are real and sparse and put Kramers-paired boundary links on the branch
    cut at +-pi. The doubled half-line boundary sum reads 1 on the grid of a
    default fkm request whatever sign those links take."""
    fam = make_projector_family(builtin_model("kane_mele", {"lambda_so": 0.3,
                                                            "lambda_v": 0.0}))
    assert lattice_z2(fam, theta4, n1=64, n2=128).snapped == 1


@pytest.mark.parametrize("name, params, grid", [
    ("bhz", {}, (32, 64)), ("bhz", {}, (64, 128)),
    ("kane_mele", {"lambda_so": 0.3, "lambda_v": 0.0}, (64, 128))])
def test_on_cut_link_signs_cannot_flip_the_z2(monkeypatch, theta4, name, params, grid):
    """Negating a random half of the links within 1e-9 of +-pi, the sign
    roundoff could give them, moves the raw value by whole multiples of 2:
    over 20 seeds every run snaps 1 and keeps its raw value mod 2."""
    fam = make_projector_family(builtin_model(name, params))
    reference = lattice_z2(fam, theta4, *grid)
    link_phase = lattice._link_phase
    for seed in range(20):
        rng = np.random.default_rng(seed)
        on_cut = [0]

        def flipped(e1, e2):
            phase = link_phase(e1, e2)
            cut = np.abs(np.abs(phase) - np.pi) < 1e-9
            on_cut[0] += int(np.count_nonzero(cut))
            return np.where(cut & (rng.random(phase.shape) < 0.5), -phase, phase)

        with monkeypatch.context() as patch:
            patch.setattr(lattice, "_link_phase", flipped)
            z2 = lattice_z2(fam, theta4, *grid)
        assert on_cut[0] > 0
        assert z2.snapped == reference.snapped == 1
        assert abs((z2.raw - reference.raw + 1.0) % 2.0 - 1.0) < 1e-12


def test_lattice_imports_share_nothing_with_the_frame_pipeline():
    """The oracles import numpy, the family and time-reversal types, grids
    and results, and nothing that builds frames or transports; they
    diagonalize nothing themselves."""
    tree = ast.parse(Path(lattice.__file__).read_text())
    modules, from_core = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            modules.add(module)
            if module == ".core":
                from_core |= {alias.name for alias in node.names}
    assert modules <= {"numpy", ".core", ".grids", ".results"}
    assert from_core <= {"ProjectorFamily", "TRSOperator"}
    assert "eigh" not in Path(lattice.__file__).read_text()


def test_oracles_on_a_kept_grid_call_no_linalg_and_no_einsum(monkeypatch, theta4):
    """Once the family keeps the grid's eigensystem, the oracles are plane
    arithmetic only: with every numpy.linalg routine and np.einsum made to
    raise, plaquette_chern and lattice_z2 give their values unchanged."""
    spec = builtin_model("kane_mele", {"lambda_v": 0.4, "lambda_r": 0.2})
    chern_fam, z2_fam = make_projector_family(spec), make_projector_family(spec)
    chern, z2 = plaquette_chern(chern_fam, 32), lattice_z2(z2_fam, theta4, 16, 32)

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracles called numpy.linalg or np.einsum")

    routines = [name for name in np.linalg.__all__
                if callable(getattr(np.linalg, name))
                and not isinstance(getattr(np.linalg, name), type)]
    assert {"det", "norm", "eigh", "svd", "solve", "qr"} <= set(routines)
    for name in routines:
        monkeypatch.setattr(np.linalg, name, forbidden)
    monkeypatch.setattr(np, "einsum", forbidden)
    with pytest.raises(AssertionError):
        np.linalg.det(np.eye(2))
    with pytest.raises(AssertionError):
        np.einsum("ii", np.eye(2))
    assert plaquette_chern(chern_fam, 32).raw == chern.raw
    assert lattice_z2(z2_fam, theta4, 16, 32).raw == z2.raw
