import numpy as np
import pytest

from topoinv import (berry_curvature, chern_number, delta_invariant, lattice_z2,
                     overlap_berry_phase, parallel_transport,
                     plaquette_chern, wilson_holonomy, z2_ingredients)
from topoinv import builtin_model, make_projector_family
from topoinv.models import BlochHamiltonianSpec


def test_plaquette_chern_is_exactly_integer(haldane_topo):
    c = plaquette_chern(haldane_topo, n_grid=48)
    assert c.residual < 1e-12
    assert abs(c.snapped) == 1


def test_lattice_z2_matches_delta_with_rashba(theta4):
    spec = builtin_model("kane_mele", {"lambda_so": 0.3, "lambda_v": 1.0,
                                       "lambda_r": 0.4})
    fam = make_projector_family(spec)
    z2 = lattice_z2(fam, theta4, n1=24, n2=48)
    d = delta_invariant(z2_ingredients(fam, theta4, n_loop=128, n1=32, n2=64))
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
    trp = parallel_transport(loop, n_grid=256, substeps=4)
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
    """The whole turns of the boundary link sums follow the eigenvector
    gauge, so the raw value is reduced into (-1, 1]; it stays within
    rounding of a representative of the snapped class."""
    fam = make_projector_family(builtin_model(name, params))
    z2 = lattice_z2(fam, theta4)
    assert -1.0 < z2.raw <= 1.0
    assert z2.snapped == expected and z2.residual < 1e-12
    assert round(z2.raw) % 2 == expected


def test_overlap_berry_phase_diagonalizes_one_grid(monkeypatch):
    """n_grid = 1024 diagonalizes 1,024 Hamiltonians for P and 1,024
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
    assert batches == [1024, 1024]
