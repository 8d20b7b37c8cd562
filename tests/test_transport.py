import dataclasses

import numpy as np
import pytest

from topoinv import (berry_connection, berry_phase, build_frame, build_trs_frame,
                     parallel_transport, wilson_holonomy)
from topoinv import linalg, make_projector_family, wz
from topoinv.errors import BadBaseBasis, NotTRS, StepFailure
from topoinv.grids import loop_axis
from topoinv.models import BlochHamiltonianSpec


def test_constant_family_trivial_transport(constant_loop):
    tr = parallel_transport(constant_loop, n_grid=64, substeps=2)
    assert np.max(np.abs(tr.t_samples - np.eye(2))) == 0.0
    assert np.max(np.abs(tr.m_generator)) == 0.0
    assert np.max(np.abs(tr.w_samples - tr.t_samples)) == 0.0


def test_flat_band_holonomy(flat_band):
    loop = flat_band.loop(1, 0.0)
    tr = parallel_transport(loop, n_grid=256, substeps=4)
    assert tr.intertwine_residual < 1e-7
    hol = wilson_holonomy(tr)
    assert hol.shape == (1, 1)
    assert abs(np.linalg.det(hol) - (-1.0)) < 1e-9


def test_rk4_order(km_topo):
    loop = km_topo.loop(0, 0.0)
    coarse = parallel_transport(loop, n_grid=64, substeps=1)
    fine = parallel_transport(loop, n_grid=64, substeps=2)
    assert coarse.intertwine_residual / fine.intertwine_residual >= 14.0


def test_step_failure_on_underresolved_loop():
    sigma_plus = np.array([[0, 1], [0, 0]], dtype=complex)
    spec = BlochHamiltonianSpec(dim=2, terms=((sigma_plus, np.array([0, 20])),
                                              (sigma_plus.T, np.array([0, -20]))),
                                name="fast_winding")
    fast = make_projector_family(spec, 0.0).loop(0, 0.0)
    with pytest.raises(StepFailure):
        parallel_transport(fast, n_grid=16, substeps=1)


def test_periodized_w_properties(km_topo):
    loop = km_topo.loop(0, np.pi)
    trp = parallel_transport(loop, n_grid=128, substeps=4)
    w = trp.w_samples
    assert trp.w_periodicity < 1e-8
    assert np.max(np.abs(w[0] - np.eye(4))) == 0.0
    assert np.max(linalg.unitarity_residual(w)) < 1e-9
    inter = linalg.frob(trp.p_samples - w @ trp.p_samples[0] @ linalg.dagger(w))
    assert np.max(inter) < 1e-7
    # analytic dW against a central difference of the samples
    mid = 37
    h = trp.ks[1] - trp.ks[0]
    fd = (w[mid + 1] - w[mid - 1]) / (2 * h)
    assert np.max(np.abs(fd - trp.w_derivatives[mid])) < 5e-4


def test_build_frame_and_bad_basis(km_topo):
    loop = km_topo.loop(0, 0.0)
    trp = parallel_transport(loop, n_grid=128, substeps=4)
    w, v = np.linalg.eigh(trp.p_samples[0])
    frame = build_frame(trp, v[:, w > 0.5])
    report = frame.validate()
    assert report["ok"], report
    default = build_frame(trp)          # the eigenbasis of P(k0) by default
    assert np.array_equal(default.e_samples, frame.e_samples)
    assert np.array_equal(default.analytic_a, frame.analytic_a)
    with pytest.raises(BadBaseBasis):
        build_frame(trp, v[:, :2])          # wrong span
    with pytest.raises(BadBaseBasis):
        build_frame(trp, 2.0 * v[:, w > 0.5])  # not orthonormal


def test_trs_frame_invariants(km_topo, theta4):
    frame = build_trs_frame(km_topo.loop(0, 0.0), theta4, n_grid=128)
    report = frame.validate()
    assert report["ok"], report
    assert report["kramers"] < 1e-8
    # Lipschitz smoothness witness
    diffs = np.linalg.norm(np.diff(frame.e_samples, axis=0), axis=(1, 2))
    h = 2 * np.pi / frame.n
    assert np.max(diffs) < 10.0 * h


@pytest.mark.parametrize("model", ["km_topo", "bhz_topo"])
def test_trs_frame_w_is_symmetric_trivialization(model, request, theta4):
    """W(-k) = Theta(W(k)), W(0) = 1 and W unitary on both boundary loops
    (kane_mele with Rashba, and bhz)."""
    family = request.getfixturevalue(model)
    for k1 in (0.0, np.pi):
        frame = build_trs_frame(family.loop(0, k1), theta4, n_grid=64)
        w = frame.w_samples
        assert w.shape == (64, 4, 4)
        assert np.max(linalg.frob(w[(-np.arange(64)) % 64] - theta4.adjoint(w))) < 1e-8
        assert linalg.frob(w[32] - np.eye(4)) < 1e-8          # k = 0
        assert np.max(linalg.unitarity_residual(w)) < 1e-8


def _kramers_residual_per_point(frame):
    jm = linalg.symplectic_blocks(frame.rank)
    return max(float(linalg.frob(frame.e_samples[(-j) % frame.n]
                                 - frame.theta.apply(frame.e_samples[j]) @ jm))
               for j in range(frame.n))


@pytest.mark.parametrize("model", ["km_topo", "bhz_topo"])
def test_kramers_residual_matches_per_point_and_sees_perturbation(model, request,
                                                                  theta4):
    family = request.getfixturevalue(model)
    frame = build_trs_frame(family.loop(0, np.pi), theta4, n_grid=64)
    assert frame.kramers_residual() == pytest.approx(
        _kramers_residual_per_point(frame), rel=1e-12, abs=1e-15)
    # perturb the reflected half (-pi, 0) by 1e-3 per point
    rng = np.random.default_rng(3)
    delta = rng.standard_normal((31, 4, 2)) + 1j * rng.standard_normal((31, 4, 2))
    delta *= 1e-3 / linalg.frob(delta)[:, None, None]
    e = frame.e_samples.copy()
    e[1:32] += delta
    perturbed = dataclasses.replace(frame, e_samples=e)
    resid = perturbed.kramers_residual()
    assert resid == pytest.approx(_kramers_residual_per_point(perturbed), rel=1e-12)
    assert resid >= 1e-3 * (1 - 1e-9)


def test_trs_frame_requires_symmetry(haldane_topo, theta2):
    with pytest.raises(NotTRS):
        build_trs_frame(haldane_topo.loop(0, 0.0), theta2, n_grid=64)


def test_resymmetrization_stability(km_topo, theta4):
    loop = km_topo.loop(0, np.pi)
    base = build_trs_frame(loop, theta4, n_grid=128)
    val = np.exp(-0.5j * base.analytic_loop_integral)
    for seed in (1, 2, 3):
        other = build_trs_frame(loop, theta4, n_grid=128,
                                rng=np.random.default_rng(seed))
        other_val = np.exp(-0.5j * other.analytic_loop_integral)
        assert abs(other_val - val) < 1e-6


def test_relative_gauge_between_trs_frames_has_even_winding(km_topo, theta4):
    loop = km_topo.loop(0, 0.0)
    f1 = build_trs_frame(loop, theta4, n_grid=128)
    f2 = build_trs_frame(loop, theta4, n_grid=128, rng=np.random.default_rng(7))
    u = linalg.dagger(f1.e_samples) @ f2.e_samples
    fld = wz.FieldGrid(axes=(loop_axis(128),), samples=u)
    w = wz.winding(fld, snap_tol=1e-6).require_snapped()
    assert w % 2 == 0


def test_conjugation_identity_phi_w_psi(km_topo, theta4):
    """exp(2 pi i t P(k)) equals W(k) exp(2 pi i t P(0)) W(k)* on the grid."""
    loop = km_topo.loop(0, 0.0)
    frame = build_trs_frame(loop, theta4, n_grid=64)
    w = frame.w_samples
    p = loop.sample(frame.ks)
    p0 = loop.sample(np.array([0.0]))[0]
    worst = 0.0
    for t in np.linspace(0, 1, 7):
        phi = np.eye(4) + (np.exp(2j * np.pi * t) - 1) * p
        psi = np.eye(4) + (np.exp(2j * np.pi * t) - 1) * p0
        worst = max(worst, float(np.max(linalg.frob(
            phi - w @ psi[None] @ linalg.dagger(w)))))
    assert worst < 1e-8


def test_wilson_determinant_matches_berry_phase(km_topo):
    loop = km_topo.loop(0, 0.0)
    trp = parallel_transport(loop, n_grid=256, substeps=4)
    det = np.linalg.det(wilson_holonomy(trp))
    frame = build_frame(trp)
    bp = berry_phase(berry_connection(frame, method="spectral"))
    assert abs(det - bp.raw) < 1e-6
