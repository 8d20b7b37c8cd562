import dataclasses

import numpy as np
import pytest

from topoinv import (berry_connection, berry_phase, build_frame, build_trs_frame,
                     check_trs, parallel_transport, symplectic_basis, wilson_holonomy)
from topoinv import linalg, make_projector_family, transport, wz
from topoinv.errors import NotTRS, StepFailure
from topoinv.grids import loop_axis
from topoinv.models import BlochHamiltonianSpec

from oracles import kramers_residual, random_kramers_basis, unitarity_residual, validate_frame


def test_constant_family_trivial_transport(constant_loop):
    tr = parallel_transport(constant_loop, n_grid=32)
    assert np.max(np.abs(tr.t_samples - np.eye(2))) == 0.0
    assert np.max(np.abs(tr.m_generator)) == 0.0
    assert np.max(np.abs(tr.w_samples - tr.t_samples)) == 0.0


def test_flat_band_holonomy(flat_band):
    loop = flat_band.loop(1, 0.0)
    tr = parallel_transport(loop, n_grid=256)
    assert tr.intertwine_residual < 1e-7
    hol = wilson_holonomy(tr)
    assert hol.shape == (1, 1)
    assert abs(np.linalg.det(hol) - (-1.0)) < 1e-9


def test_magnus_transport_is_fourth_order(km_topo):
    """Doubling the steps, 64 -> 128, cuts the intertwining residual by
    about 2^4."""
    loop = km_topo.loop(0, 0.0)
    coarse = parallel_transport(loop, n_grid=16)
    fine = parallel_transport(loop, n_grid=32)
    assert coarse.intertwine_residual / fine.intertwine_residual >= 14.0


def test_step_failure_on_underresolved_loop():
    sigma_plus = np.array([[0, 1], [0, 0]], dtype=complex)
    spec = BlochHamiltonianSpec(dim=2, terms=((sigma_plus, np.array([0, 20])),
                                              (sigma_plus.T, np.array([0, -20]))),
                                name="fast_winding")
    fast = make_projector_family(spec).loop(0, 0.0)
    with pytest.raises(StepFailure):
        parallel_transport(fast, n_grid=4)


def _fast_winding_loop():
    """sigma+ e^{20 i k2} + h.c.: P winds 20 times around the equator at a
    constant rate, so the transport generator is constant along the loop."""
    sigma_plus = np.array([[0, 1], [0, 0]], dtype=complex)
    spec = BlochHamiltonianSpec(dim=2, terms=((sigma_plus, np.array([0, 20])),
                                              (sigma_plus.T, np.array([0, -20]))),
                                name="fast_winding")
    return make_projector_family(spec).loop(0, 0.0)


def test_step_failure_reports_the_momentum_of_the_step():
    """Every step of the fast-winding loop at 16 steps lies past the Magnus
    radius, so the first one fails, at the loop's base point -pi."""
    with pytest.raises(StepFailure) as info:
        parallel_transport(_fast_winding_loop(), n_grid=4)
    assert info.value.k == -np.pi
    assert info.value.step_norm >= np.pi
    assert "reaches pi" in str(info.value)


def test_magnus_is_exact_for_a_constant_generator():
    """With a constant generator each Magnus step is the exact propagator,
    so 64 steps of the fast-winding loop intertwine to rounding."""
    tr = parallel_transport(_fast_winding_loop(), n_grid=16)
    assert tr.intertwine_residual < 1e-12
    assert tr.step_error_max < 1e-12


def test_transport_segment_makes_one_exponential_and_one_projection(km_topo,
                                                                     monkeypatch):
    """All Magnus steps of a segment are exponentiated in one call and the
    kept products polar-projected in one call, whose singular values give the
    drift and reprojection distance: no separate unitarity residual, which
    the library no longer has."""
    calls = {"expi_hermitian": 0, "polar_project": 0}

    def counted(name):
        original = getattr(linalg, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(linalg, name, counted(name))
    tr = transport._segment_transport(km_topo.loop(0, 0.0), 0.0, np.pi, 16)
    assert calls == {"expi_hermitian": 1, "polar_project": 1}
    assert not hasattr(linalg, "unitarity_residual")
    residuals = tr[-1]
    # near 1, sigma^2 - 1 is about 2 (sigma - 1): the drift is twice the reprojection
    assert 0.0 <= residuals["reprojection_max"] <= residuals["drift_max"] < 1e-12
    assert 0.0 < residuals["step_error_max"] < 1e-4


def test_periodized_w_properties(km_topo):
    loop = km_topo.loop(0, np.pi)
    trp = parallel_transport(loop, n_grid=128)
    w = trp.w_samples
    assert trp.w_periodicity < 1e-8
    assert np.max(np.abs(w[0] - np.eye(4))) == 0.0
    assert np.max(unitarity_residual(w)) < 1e-9
    inter = linalg.frob(trp.p_samples - w @ trp.p_samples[0] @ linalg.dagger(w))
    assert np.max(inter) < 1e-7
    # analytic dW against a central difference of the samples
    mid = 37
    h = trp.ks[1] - trp.ks[0]
    fd = (w[mid + 1] - w[mid - 1]) / (2 * h)
    assert np.max(np.abs(fd - trp.w_derivatives[mid])) < 5e-4


def test_build_frame_is_valid(km_topo):
    """W(k) applied to the eigenbasis of P(k0) is an orthonormal frame of
    P(k) that closes the loop; its exact connection is constant and matches
    the spectral connection of its samples."""
    loop = km_topo.loop(0, 0.0)
    trp = parallel_transport(loop, n_grid=128)
    frame = build_frame(trp)
    report = validate_frame(frame)
    assert report["ok"], report
    assert np.ptp(frame.analytic_a) == 0.0
    spectral = berry_connection(frame, method="spectral")
    assert abs(spectral.loop_integral - frame.analytic_loop_integral) < 1e-8


def test_trs_frame_invariants(km_topo, theta4):
    frame = build_trs_frame(km_topo.loop(0, 0.0), theta4, n_grid=128)
    report = validate_frame(frame)
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
        assert np.max(unitarity_residual(w)) < 1e-8


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
    assert kramers_residual(frame) == pytest.approx(
        _kramers_residual_per_point(frame), rel=1e-12, abs=1e-15)
    # perturb the reflected half (-pi, 0) by 1e-3 per point
    rng = np.random.default_rng(3)
    delta = rng.standard_normal((31, 4, 2)) + 1j * rng.standard_normal((31, 4, 2))
    delta *= 1e-3 / linalg.frob(delta)[:, None, None]
    e = frame.e_samples.copy()
    e[1:32] += delta
    perturbed = dataclasses.replace(frame, e_samples=e)
    resid = kramers_residual(perturbed)
    assert resid == pytest.approx(_kramers_residual_per_point(perturbed), rel=1e-12)
    assert resid >= 1e-3 * (1 - 1e-9)


def test_trs_frame_requires_symmetry(haldane_topo, theta2):
    with pytest.raises(NotTRS):
        build_trs_frame(haldane_topo.loop(0, 0.0), theta2, n_grid=64)


def test_trs_frame_refuses_a_loop_off_the_invariant_lines(km_topo, theta4):
    """A loop at k1 = 0.5 is not mapped to itself by k -> -k, and its
    Fourier coefficients sum_v T_v exp(i 0.5 v1) say so exactly; the loops
    at k1 = 0 and +-pi are symmetric to roundoff in exp(i pi v1)."""
    with pytest.raises(NotTRS) as err:
        build_trs_frame(km_topo.loop(0, 0.5), theta4, n_grid=64)
    assert err.value.violation > 1e-2
    for k1 in (0.0, np.pi, -np.pi):
        ok, violation = check_trs(km_topo.loop(0, k1), theta4)
        assert ok and violation <= 1e-15


def test_resymmetrization_stability(km_topo, theta4, monkeypatch):
    """exp(-i/2 loop-integral of A) is the same for frames built from
    randomly seeded Kramers bases as for the deterministic one."""
    loop = km_topo.loop(0, np.pi)
    base = build_trs_frame(loop, theta4, n_grid=128)
    val = np.exp(-0.5j * base.analytic_loop_integral)
    for seed in (1, 2, 3):
        monkeypatch.setattr(linalg, "kramers_basis", random_kramers_basis(seed))
        other = build_trs_frame(loop, theta4, n_grid=128)
        other_val = np.exp(-0.5j * other.analytic_loop_integral)
        assert abs(other_val - val) < 1e-6


def test_trs_frame_absorbs_a_mismatch_at_minus_one(bhz_topo, theta4, monkeypatch):
    """On bhz at k1 = 0 the mismatch unitaries of both band groups have an
    eigenvalue at -1, where the principal logarithm has no unique branch.
    The frame absorbs them in their eigenbasis from the deterministic
    Kramers basis, drawing no random one; E(pi) is Kramers-symmetric, and
    the exact loop integral matches the spectral connection of the samples."""
    loop = bhz_topo.loop(0, 0.0)
    _, t_half, p_half, _, _ = transport._segment_transport(loop, 0.0, np.pi, 64)
    for projector in (p_half[0], np.eye(4) - p_half[0]):
        e_sharp = t_half @ symplectic_basis(theta4, projector)
        u_pi = transport._trs_mismatch_gauge(e_sharp[-1], theta4)
        assert np.min(np.abs(np.linalg.eigvals(u_pi) + 1.0)) < 1e-8

    def refuse(*args, **kwargs):
        raise AssertionError("the frame drew a random basis")

    monkeypatch.setattr(transport.np.random, "default_rng", refuse)
    frame = build_trs_frame(loop, theta4, n_grid=128)
    e_pi = frame.e_samples[0]
    assert linalg.frob(e_pi - theta4.frame(e_pi)) < 1e-12
    report = validate_frame(frame)
    assert report["ok"], report
    spectral = berry_connection(frame, method="spectral")
    assert abs(spectral.loop_integral - frame.analytic_loop_integral) < 1e-8

def test_relative_gauge_between_trs_frames_has_even_winding(km_topo, theta4, monkeypatch):
    loop = km_topo.loop(0, 0.0)
    f1 = build_trs_frame(loop, theta4, n_grid=128)
    monkeypatch.setattr(linalg, "kramers_basis", random_kramers_basis(7))
    f2 = build_trs_frame(loop, theta4, n_grid=128)
    u = linalg.dagger(f1.e_samples) @ f2.e_samples
    fld = wz.FieldGrid(axes=(loop_axis(128),), samples=u)
    w = wz.winding(fld).require_snapped()
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
    trp = parallel_transport(loop, n_grid=256)
    det = np.linalg.det(wilson_holonomy(trp))
    frame = build_frame(trp)
    bp = berry_phase(berry_connection(frame, method="spectral"))
    assert abs(det - bp.raw) < 1e-6
