import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from topoinv import (berry_curvature, chern_number, delta_invariant, lattice_z2,
                     overlap_berry_phase, parallel_transport,
                     plaquette_chern, wilson_holonomy, z2_ingredients)
from topoinv import builtin_model, lattice, make_projector_family
from topoinv.models import BlochHamiltonianSpec

from oracles import eigh_frames


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
    """n_grid = 1024 diagonalizes 1,024 Hamiltonians for P and none of the
    projectors for their frames; the Richardson coarse grid is the even
    points of the same frames."""
    eigh = np.linalg.eigh
    batches = []

    def counted(a):
        batches.append(int(np.prod(a.shape[:-2])))
        return eigh(a)

    loop = make_projector_family(builtin_model("kane_mele", {"lambda_v": 0.4})).loop(0, 0.0)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    overlap_berry_phase(loop, n_grid=1024)
    assert batches == [1024]


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
        e = lattice._frames(p)
        assert e.shape == (len(p), n, m)
        eh = np.conjugate(np.swapaxes(e, -1, -2))
        assert np.max(np.abs(eh @ e - np.eye(m))) < 1e-13
        assert np.max(np.abs(p @ e - e)) < 1e-13


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
        return eigh_frames(p) if theta is None else pivoted(p, theta)

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
