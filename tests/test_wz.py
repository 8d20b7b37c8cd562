import numpy as np
import pytest

from topoinv import (berry_connection, berry_phase, berry_phase_sqrt,
                     build_trs_frame, delta_invariant, kappa_invariant,
                     normal_form_field, parallel_transport, periodize,
                     up_extension, winding, winding_pair, wz_action_extension,
                     wz_amplitude_phi, wz_derivative, z2_ingredients)
from topoinv import build_frame, chern_number, berry_curvature
from topoinv import wz
from topoinv.errors import BadDims, NotAnExtension, NotTRSFrame
from topoinv.grids import interval_axis, loop_axis, unit_circle_axis
from topoinv.wz import (FieldGrid, alpha_integral, apw_functional, beta_integral,
                        conjugated_field, constant_field, inverse_field,
                        product_field, pw_functional, random_equivariant_field,
                        random_hermitian_field, random_unwindable_field,
                        tube_extension, equivariance_residual)

TWO_PI = 2 * np.pi


def dist_to_lattice(x, spacing):
    return abs(x - spacing * round(x / spacing))


# ------------------------------------------------------------- windings

def test_winding_identity_field():
    ax = loop_axis(32)
    fld = constant_field((ax,), np.eye(3, dtype=complex))
    assert winding(fld).require_snapped() == 0


def test_winding_diagonal_phase():
    ax = loop_axis(64)
    samples = np.zeros((64, 2, 2), dtype=complex)
    samples[:, 0, 0] = np.exp(3j * ax.points)
    samples[:, 1, 1] = 1.0
    w = winding(FieldGrid(axes=(ax,), samples=samples))
    assert w.require_snapped() == 3
    assert w.residual < 1e-8


def test_normal_form_windings():
    assert [x.require_snapped() for x in winding_pair(normal_form_field(1, 2, 3))] == [1, 2]
    eq = normal_form_field(1, 0, 4, equivariant=True)
    assert [x.require_snapped() for x in winding_pair(eq)] == [2, 0]
    from topoinv.core import TRSOperator
    assert equivariance_residual(eq, TRSOperator.standard(4)) < 1e-12


def test_normal_form_bad_dims():
    with pytest.raises(BadDims):
        normal_form_field(1, 0, 3, equivariant=True)


def test_equivariant_random_fields_have_even_winding(theta4):
    worst = 0.0
    for seed in range(20):
        from topoinv import random_trs_gauge
        gauge = random_trs_gauge(128, 4, seed=seed)
        fld = FieldGrid(axes=(loop_axis(128),), samples=gauge.u_samples)
        w = winding(fld)
        worst = max(worst, w.residual)
        assert w.require_snapped() % 2 == 0
    assert worst < 1e-8


# ------------------------------------------------------------- actions

def test_constant_extension_zero_action():
    axes = (interval_axis(8, 0, 1), loop_axis(8), loop_axis(8))
    ext = constant_field(axes, np.eye(3, dtype=complex))
    val = wz_action_extension(ext)
    assert val.raw_action == 0.0
    assert abs(val.amplitude - 1.0) == 0.0


def test_up_extension_gives_pi_chern(haldane_topo):
    c = chern_number(berry_curvature(haldane_topo, n_grid=64)).require_snapped()
    val = wz_action_extension(up_extension(haldane_topo, n_t=32, n1=32, n2=32))
    assert dist_to_lattice(val.raw_action - np.pi * c, TWO_PI) < 1e-6
    assert abs(val.amplitude - (-1.0) ** c) < 1e-6
    # action representative is reduced into [0, modulus)
    assert 0.0 <= val.action < val.modulus


def test_not_an_extension():
    axes = (interval_axis(8, 0, 1), loop_axis(8), loop_axis(8))
    rng = np.random.default_rng(0)
    h = random_hermitian_field(axes[1:], 2, seed=1)
    from topoinv import linalg
    end0 = linalg.expi_hermitian(h)
    samples = np.broadcast_to(end0, (9,) + end0.shape).copy()
    with pytest.raises(NotAnExtension):
        wz_action_extension(FieldGrid(axes=axes, samples=samples))


def test_extension_independence(haldane_topo):
    c = chern_number(berry_curvature(haldane_topo, n_grid=32)).require_snapped()
    acts = {p: wz_action_extension(up_extension(haldane_topo, 32, 32, 32, path=p)).raw_action
            for p in ("forward", "reverse", "reparam")}
    diff_rev = acts["forward"] - acts["reverse"]
    assert dist_to_lattice(diff_rev, TWO_PI) < 1e-5
    assert abs(diff_rev - 2 * np.pi * c) < 1e-5          # nontrivial element
    assert dist_to_lattice(acts["forward"] - acts["reparam"], TWO_PI) < 1e-5


def test_k_independent_field_has_zero_action():
    p0 = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    t_ax, k_ax, s_ax = unit_circle_axis(16), loop_axis(16), interval_axis(8, 0, 1)
    tphase = np.exp(2j * np.pi * t_ax.points)
    psi_t = np.eye(4, dtype=complex) + (tphase[:, None, None] - 1.0) * p0
    samples = np.broadcast_to(psi_t[None, :, None], (9, 16, 16, 4, 4)).copy()
    val = wz_action_extension(FieldGrid(axes=(s_ax, t_ax, k_ax), samples=samples))
    assert abs(val.raw_action) < 1e-10


def test_inverse_field_negates_action():
    g, ext = random_unwindable_field(32, 3, seed=5)
    s = wz_action_extension(ext).raw_action
    s_inv = wz_action_extension(inverse_field(ext)).raw_action
    assert dist_to_lattice(s + s_inv, TWO_PI) < 1e-6


# ------------------------------------------- product functionals

def test_pw_normal_form_values():
    g10 = normal_form_field(1, 0, 2)
    g20 = normal_form_field(2, 0, 2)
    h01 = normal_form_field(0, 1, 2)
    triv = normal_form_field(0, 0, 2)
    assert abs(pw_functional(triv, triv)) < 1e-12
    assert abs(pw_functional(g10, h01) - (-np.pi)) < 1e-5
    assert abs(pw_functional(g20, h01) - (-2 * np.pi)) < 1e-5


def test_apw_normal_form_values():
    g10 = normal_form_field(1, 0, 2)
    h01 = normal_form_field(0, 1, 2)
    triv = normal_form_field(0, 0, 2)
    assert abs(apw_functional(triv, triv)) < 1e-12
    assert abs(apw_functional(g10, h01) - (-2 * np.pi)) < 1e-6
    ge = normal_form_field(1, 0, 4, equivariant=True)
    he = normal_form_field(0, 1, 4, equivariant=True)
    assert abs(apw_functional(ge, he) - (-4 * np.pi)) < 1e-6


def test_apw_trivial_for_random_pairs():
    worst = 0.0
    for seed in range(20):
        g, ext_g = random_unwindable_field(32, 3, seed=seed)
        h, ext_h = random_unwindable_field(32, 3, seed=seed + 500)
        ext_ghg = product_field(product_field(ext_g, ext_h), inverse_field(ext_g))
        val = apw_functional(g, h, ext_ghg=ext_ghg, ext_h=ext_h)
        worst = max(worst, abs(np.exp(1j * val) - 1.0))
    assert worst < 1e-4


def test_equivariant_apw_in_4pi_lattice(theta4):
    worst = 0.0
    for seed in range(10):
        g, ext_g = random_equivariant_field(32, theta4, seed=seed,
                                            windings=(1, 0))
        h, ext_h = random_equivariant_field(32, theta4, seed=seed + 700,
                                            windings=(0, 1))
        assert equivariance_residual(g, theta4) < 1e-12
        ext_ghg = product_field(product_field(ext_g, ext_h), inverse_field(ext_g))
        val = apw_functional(g, h, ext_ghg=ext_ghg, ext_h=ext_h)
        worst = max(worst, dist_to_lattice(val, 4 * np.pi))
    assert worst < 1e-4


def test_pw_needs_extension_for_generic_fields():
    g, _ = random_unwindable_field(16, 2, seed=0)
    h = normal_form_field(0, 1, 2, n_grid=16)
    with pytest.raises(NotAnExtension):
        pw_functional(g, h)


def test_wz_derivative_against_finite_difference():
    nf = normal_form_field(1, 0, 2, n_grid=32)
    hg = random_hermitian_field(nf.axes, 2, seed=42, scale=0.4)
    s0, eps = 0.6, 1e-4

    def action(s):
        return wz_action_extension(tube_extension(nf, 1j * s * hg, n_s=64)).raw_action

    fd = (action(s0 + eps) - action(s0 - eps)) / (2 * eps)
    ext = tube_extension(nf, 1j * s0 * hg, n_s=64)
    g_s = FieldGrid(axes=nf.axes, samples=ext.samples[-1],
                    derivs={i - 1: d[-1] for i, d in ext.derivs.items() if i > 0})
    rate = wz_derivative(g_s, g_s.samples @ (1j * hg))
    assert abs(rate - fd) < 1e-4


def test_alpha_beta_integrals_are_real():
    g, _ = random_unwindable_field(32, 3, seed=9)
    h, _ = random_unwindable_field(32, 3, seed=10)
    for value, imag in (alpha_integral(g, h), beta_integral(g, h)):
        assert np.isfinite(value)
        assert imag < 1e-9


# ------------------------------------------- phi amplitudes and kappa

def test_amplitude_constant_family(constant_loop):
    val = wz_amplitude_phi(constant_loop, n_grid=64)
    assert abs(val.amplitude - 1.0) < 1e-12


def test_amplitude_flat_band_matches_berry(flat_band):
    loop = flat_band.loop(1, 0.0)
    val = wz_amplitude_phi(loop, n_grid=256)
    assert abs(val.amplitude - (-1.0)) < 1e-7
    trp = periodize(parallel_transport(loop, n_grid=256, substeps=4))
    w, v = np.linalg.eigh(trp.p_samples[0])
    bp = berry_phase(berry_connection(build_frame(trp, v[:, w > 0.5])))
    assert abs(val.amplitude - bp.raw) < 1e-7


def test_sqrt_amplitude_matches_sqrt_berry(km_topo, theta4):
    for k1 in (0.0, np.pi):
        frame = build_trs_frame(km_topo.loop(0, k1), theta4, n_grid=256)
        val = wz_amplitude_phi(frame)
        sq = berry_phase_sqrt(berry_connection(frame)).raw
        assert abs(val.sqrt_amplitude - sq) < 1e-6
        assert abs(val.sqrt_amplitude ** 2 - val.amplitude) < 1e-12
        beta_route = wz_amplitude_phi(frame, method="beta")
        assert abs(beta_route.sqrt_amplitude - val.sqrt_amplitude) < 1e-6


def test_amplitude_of_frame_needs_trs_frame_with_w(km_topo, theta4):
    loop = km_topo.loop(0, 0.0)
    trp = periodize(parallel_transport(loop, n_grid=64))
    w, v = np.linalg.eigh(trp.p_samples[0])
    for frame in (build_frame(trp, v[:, w > 0.5]),
                  build_trs_frame(loop, theta4, n_grid=64, with_w=False)):
        with pytest.raises(NotTRSFrame):
            wz_amplitude_phi(frame)


def test_kappa_atomic_limit(atomic_limit, theta4):
    kap = kappa_invariant(z2_ingredients(atomic_limit, theta4, n_loop=64, n1=16, n2=32))
    assert kap.snapped == 1
    assert kap.residual < 1e-8


def test_kappa_equals_sign_of_delta(km_topo, km_trivial, theta4):
    for fam, expected in ((km_topo, 1), (km_trivial, 0)):
        z2 = z2_ingredients(fam, theta4, n_loop=128, n1=32, n2=64)
        kap = kappa_invariant(z2, direct_grid=(8, 32, 32))
        d = delta_invariant(z2)
        assert d.snapped == expected
        assert kap.snapped == (-1) ** expected
        assert kap.meta["phi3_discrepancy"] < 1e-5


def test_homotopy_invariance_of_pw():
    nf_g = normal_form_field(1, -1, 2)
    nf_h = normal_form_field(0, 1, 2)
    hg = random_hermitian_field(nf_g.axes, 2, seed=1, scale=0.3)
    hh = random_hermitian_field(nf_h.axes, 2, seed=2, scale=0.3)
    vals = []
    for s in np.linspace(0, 1, 5):
        ext_g = tube_extension(nf_g, 1j * s * hg, n_s=48)
        ext_h = tube_extension(nf_h, 1j * s * hh, n_s=48)
        g_s = FieldGrid(axes=nf_g.axes, samples=ext_g.samples[-1])
        h_s = FieldGrid(axes=nf_h.axes, samples=ext_h.samples[-1])
        vals.append(pw_functional(g_s, h_s, ext_g=ext_g, ext_h=ext_h,
                                  ext_gh=product_field(ext_g, ext_h)))
    assert np.ptp(vals) < 1e-5


def test_conjugated_field_flags():
    g = normal_form_field(1, 0, 2)
    h = normal_form_field(0, 2, 2)
    ghg = conjugated_field(g, h)
    assert ghg.abelian_diagonal
    assert np.max(np.abs(ghg.samples - h.samples)) < 1e-12
