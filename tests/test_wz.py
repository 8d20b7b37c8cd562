import tracemalloc

import numpy as np
import pytest

from topoinv import (berry_connection, berry_phase, berry_phase_sqrt,
                     build_trs_frame, delta_invariant, kappa_invariant,
                     normal_form_field, parallel_transport,
                     up_extension, winding, winding_pair, wz_action_extension,
                     wz_amplitude_phi, z2_ingredients)
from topoinv import (build_frame, chern_number, berry_curvature, gauge_transform,
                     random_trs_gauge)
from topoinv import certify, linalg, wz
from topoinv.errors import DimensionMismatch, NotAnExtension, NotTRSFrame
from topoinv.grids import (integrate_grid, interval_axis, loop_axis,
                           spectral_derivative, unit_circle_axis)
from topoinv.wz import (FieldGrid, alpha_integral, apw_functional, beta_integral,
                        conjugated_field, constant_field, inverse_field,
                        product_field, pw_functional, random_hermitian_field,
                        tube_extension)

from oracles import (equivariance_residual, random_equivariant_field,
                     random_unwindable_field, wz_derivative)

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
    with pytest.raises(DimensionMismatch):
        normal_form_field(1, 0, 3, equivariant=True)


def test_equivariant_random_fields_have_even_winding(theta4):
    worst = 0.0
    for seed in range(20):
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


def _batched_chi_triple(g):
    """Reference density: batched N x N products at every grid point, with
    the whole-field derivative of each axis. Returns the integral and the
    integral of |density|, the scale its rounding error is measured on, and
    the density itself."""
    gi = np.conjugate(np.swapaxes(g.samples, -1, -2))
    a0, a1, a2 = (gi @ g.derivative(i) for i in range(3))
    dens = 3.0 * np.einsum("...ab,...ba->...", a0, a1 @ a2 - a2 @ a1)
    axes = list(g.axes)
    return integrate_grid(dens, axes), float(integrate_grid(np.abs(dens), axes)), dens


def _no_exact_channel(g):
    """g without the exact channels of its periodic torus axes, which then
    differentiate spectrally; the leading and interval channels stay."""
    keep = [i for i, ax in enumerate(g.axes) if i == 0 or not ax.periodic]
    return FieldGrid(axes=g.axes, samples=g.samples, derivs={i: g.derivative(i) for i in keep},
                     name=f"{g.name} (no channel)")


def _generic_rank_one(g):
    """The U_P extension g with P replaced by a smooth non-Hermitian matrix
    field that is no projector, so every term of the rank-one density
    counts, and its stored-array reference field."""
    ax1, ax2 = g.axes[1:]
    x = random_hermitian_field((ax1, ax2), 3, seed=7) + 1j * random_hermitian_field(
        (ax1, ax2), 3, seed=8)
    p = np.moveaxis(x, (-2, -1), (0, 1)).copy()
    dp1 = spectral_derivative(p, 2, ax1)
    ext = wz.ProjectorExtension(axes=g.axes, p=p, dp=(dp1, spectral_derivative(p, 3, ax2)),
                                f=g.f, df=g.df, name="generic rank one")
    planes = (x, np.moveaxis(dp1, (0, 1), (-2, -1)))
    return ext, _stored_field(None, g.axes, "up", "reparam", planes=planes)


@pytest.mark.parametrize("case", ["haldane", "kane_mele_rashba", "tube", "no_channel",
                                  "phi_ebz", "phi_ebz_no_channel"]
                         + [f"{m}-{p}" for m in ("haldane", "kane_mele_rashba")
                            for p in ("reverse", "reparam")] + ["rank_one_generic"])
def test_chi_triple_matches_batched_reference(case, haldane_topo, km_topo):
    """The triple integral of every field kind equals the batched reference
    on stored arrays; a FieldGrid's density equals it pointwise."""
    model, _, path = case.partition("-")
    if model in ("haldane", "kane_mele_rashba"):
        family = haldane_topo if model == "haldane" else km_topo
        g = up_extension(family, n_t=16, n1=16, n2=16, path=path or "forward")
        ref_field = _stored_field(family, g.axes, "up", path or "forward")
    elif case == "tube":
        g = ref_field = random_unwindable_field(16, 3, seed=5)[1]
    elif case == "no_channel":
        axes = up_extension(haldane_topo, n_t=16, n1=16, n2=16).axes
        g = ref_field = _no_exact_channel(_stored_field(haldane_topo, axes, "up", "forward"))
    elif case == "rank_one_generic":
        g, ref_field = _generic_rank_one(up_extension(haldane_topo, n_t=16, n1=16, n2=16,
                                                      path="reparam"))
    elif case == "phi_ebz":
        g = wz.phi_ebz_extension(km_topo, n_t=8, n1=8, n2=16)
        ref_field = _stored_field(km_topo, g.axes, "phi_ebz", None)
    else:
        axes = wz.phi_ebz_extension(km_topo, n_t=8, n1=8, n2=16).axes
        g = ref_field = _no_exact_channel(_stored_field(km_topo, axes, "phi_ebz", None))
    ref, scale, dens = _batched_chi_triple(ref_field)
    real, imag = wz.chi_triple_integral(g)
    assert scale > 1.0
    if isinstance(g, FieldGrid):
        assert np.max(np.abs(g.triple_density() - dens)) <= 1e-12 * np.max(np.abs(dens))
    assert abs(real - ref.real) <= 1e-12 * scale
    assert abs(imag - abs(ref.imag)) <= 1e-12 * scale


def test_chi_triple_builds_no_full_grid_temporary(km_topo):
    g = up_extension(km_topo, n_t=32, n1=32, n2=32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        wz.chi_triple_integral(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < g.samples.nbytes


def test_projector_extension_density_work_is_independent_of_n_t(km_topo, monkeypatch):
    """The U_P density makes the same number of N x N plane products at
    n_t = 8 and n_t = 32: its products run on the 2D grid only."""
    calls = []
    plane_product = wz.plane_product

    def counted(x, y):
        calls.append(1)
        return plane_product(x, y)

    monkeypatch.setattr(wz, "plane_product", counted)
    counts = []
    for n_t in (8, 32):
        g = up_extension(km_topo, n_t=n_t, n1=16, n2=16)
        calls.clear()
        wz.chi_triple_integral(g)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


_PATHS = {"forward": (lambda t: np.pi * t, lambda t: np.pi * np.ones_like(t)),
          "reverse": (lambda t: -np.pi * t, lambda t: -np.pi * np.ones_like(t)),
          "reparam": (lambda t: np.pi * t * (2.0 - t), lambda t: np.pi * (2.0 - 2.0 * t))}


def _stored_extension(family, axes, kind, path, planes=None):
    """Reference: the U_P or Phi extension as full stored arrays, samples
    1 + (e^{iw} - 1) P and the exact channels (t and k1), with the spectral
    derivative of each slice on the remaining torus axis. P and d1P come
    from the family, or are the (n1, n2, N, N) arrays `planes`."""
    k1, k2 = np.meshgrid(axes[1].points, axes[2].points, indexing="ij")
    ks = np.stack([k1, k2], axis=-1)
    t = axes[0].points
    p, dp1 = family.derivative(ks, 0) if planes is None else planes
    eye = np.eye(p.shape[-1], dtype=complex)
    if kind == "phi_ebz":
        tfac = np.exp(TWO_PI * 1j * t)[:, None, None, None, None]
        samples = eye + (tfac - 1.0) * p[None]
        derivs = {0: TWO_PI * 1j * tfac * p[None], 1: (tfac - 1.0) * dp1[None]}
    else:
        omega, domega = (fn(t) for fn in _PATHS[path])
        phase = np.exp(1j * omega)[:, None, None, None, None]
        samples = eye + (phase - 1.0) * p[None]
        derivs = {0: 1j * domega[:, None, None, None, None] * phase * p[None],
                  1: (phase - 1.0) * dp1[None]}
    for i in (1, 2):
        if i not in derivs:
            derivs[i] = np.stack([spectral_derivative(s, i - 1, axes[i]) for s in samples])
    return samples, derivs


def _stored_field(family, axes, kind, path, planes=None):
    """The stored-array extension as a FieldGrid with all three channels."""
    samples, derivs = _stored_extension(family, axes, kind, path, planes)
    return FieldGrid(axes=axes, samples=samples, derivs=derivs, name=f"stored {kind}")


@pytest.mark.parametrize("case", [f"{m}-{p}" for m in ("haldane", "kane_mele_rashba")
                                  for p in _PATHS] + ["phi_ebz"])
def test_projector_extension_slabs_match_stored_arrays(case, haldane_topo, km_topo):
    """Every slice and the samples of a ProjectorExtension equal the
    stored-array extension exactly, and its triple integral equals the
    batched reference on those arrays within 1e-12 of its scale."""
    kind, _, path = case.partition("-")
    family = haldane_topo if kind == "haldane" else km_topo
    if kind == "phi_ebz":
        ext = wz.phi_ebz_extension(family, n_t=8, n1=8, n2=16)
    else:
        ext = up_extension(family, n_t=16, n1=16, n2=16, path=path)
    stored = _stored_field(family, ext.axes, kind, path)
    samples = stored.samples
    assert len(ext.axes[0].points) == len(samples) and ext.dim == samples.shape[-1]
    for j, ref in enumerate(samples):
        assert np.array_equal(ext.value(j), ref)
    assert np.array_equal(ext.samples, samples)
    ref, scale, _ = _batched_chi_triple(stored)
    assert abs(ext.triple_integral() - ref) <= 1e-12 * scale


def test_up_extension_action_holds_no_full_grid_array(km_topo):
    """Building the N=4 U_P extension and taking its action peaks below half
    of one (n_t+1, n1, n2, N, N) complex array: no full-grid array is held."""
    full = 33 * 32 * 32 * 4 * 4 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        wz_action_extension(up_extension(km_topo, 32, 32, 32))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < full / 2


@pytest.mark.parametrize("dim", [2, 3])
def test_unwindable_field_is_the_exponential_of_its_generator(dim):
    """The field is the s = 1 slice of its tube, equal to exp(iH) taken
    directly."""
    from topoinv import linalg
    g, ext = random_unwindable_field(16, dim, seed=5)
    ax = loop_axis(16)
    h = random_hermitian_field((ax, ax), dim, seed=5)
    assert np.max(np.abs(g.samples - linalg.expi_hermitian(h))) < 1e-13
    assert np.array_equal(g.samples, ext.samples[-1])


def test_not_an_extension():
    axes = (interval_axis(8, 0, 1), loop_axis(8), loop_axis(8))
    rng = np.random.default_rng(0)
    h = random_hermitian_field(axes[1:], 2, seed=1)
    from topoinv import linalg
    end0 = linalg.expi_hermitian(h)
    samples = np.broadcast_to(end0, (9,) + end0.shape).copy()
    with pytest.raises(NotAnExtension):
        wz_action_extension(FieldGrid(axes=axes, samples=samples))


def test_interval_axis_is_differentiated_only_through_its_channel(km_topo):
    """A 3-axis field without the exact channel of its leading axis is no
    extension, and an interval axis without a channel, here the half-zone
    axis of Phi, has no derivative: neither is differenced from the
    samples."""
    nf = normal_form_field(1, 0, 2, n_grid=8)
    ext = tube_extension(nf, 1j * random_hermitian_field(nf.axes, 2, seed=1, scale=0.3), n_s=4)
    bare = FieldGrid(axes=ext.axes, samples=ext.samples)
    for refused in (bare.triple_density, lambda: wz_action_extension(bare)):
        with pytest.raises(NotAnExtension, match="leading axis"):
            refused()
    with pytest.raises(ValueError, match="periodic axis"):
        bare.derivative(0)
    phi = wz.phi_ebz_extension(km_topo, n_t=4, n1=4, n2=8)
    samples, derivs = _stored_extension(km_topo, phi.axes, "phi_ebz", None)
    ebz = FieldGrid(axes=phi.axes, samples=samples, derivs={0: derivs[0]})
    for refused in (lambda: ebz.derivative(1), ebz.triple_density):
        with pytest.raises(ValueError, match="periodic axis"):
            refused()


def test_end0_check_forms_only_the_slice_value(km_topo):
    """The end-0 check of a ProjectorExtension reads its t = 0 slice
    `value(0)`, which equals the first slice of its samples, and the action
    equals that of a fresh extension."""
    ext = up_extension(km_topo, n_t=8, n1=16, n2=16)
    expected = wz_action_extension(up_extension(km_topo, n_t=8, n1=16, n2=16))
    assert np.array_equal(ext.value(0), ext.samples[0])
    val = wz_action_extension(ext)
    assert val.raw_action == expected.raw_action and val.meta == expected.meta


def test_unknown_extension_path_is_refused(haldane_topo):
    with pytest.raises(ValueError,
                       match=r"\['forward', 'reparam', 'reverse'\], got 'backward'"):
        up_extension(haldane_topo, n_t=4, n1=4, n2=4, path="backward")


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
    val = wz_action_extension(FieldGrid(axes=(s_ax, t_ax, k_ax), samples=samples,
                                        derivs={0: np.zeros_like(samples)}))
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


def test_pw_of_normal_forms_builds_no_product(monkeypatch):
    """PW reads the marked-normal-form flag of gh from its factors, so two
    normal forms need no g*h field."""
    calls = []
    product = wz.product_field

    def counted(*args, **kwargs):
        calls.append(1)
        return product(*args, **kwargs)

    monkeypatch.setattr(wz, "product_field", counted)
    value = pw_functional(normal_form_field(1, 0, 2, n_grid=16),
                          normal_form_field(0, 1, 2, n_grid=16))
    assert calls == [] and abs(value - (-np.pi)) < 1e-5


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


# ------------------- plane-by-plane products against batched references
#
# Reference formulas with one batched matmul per product at every grid
# point. The library multiplies the same factors plane by plane, so only the
# summation order differs and the two agree to rounding.

def _dagger(x):
    return np.conjugate(np.swapaxes(x, -1, -2))


def _common(g, h):
    return set(g.derivs) & set(h.derivs)


def _ref_product(g, h):
    derivs = {i: g.derivs[i] @ h.samples + g.samples @ h.derivs[i] for i in _common(g, h)}
    return g.samples @ h.samples, derivs


def _ref_conjugated(g, h):
    gi = _dagger(g.samples)
    derivs = {}
    for i in _common(g, h):
        dgi = -gi @ g.derivs[i] @ gi
        derivs[i] = (g.derivs[i] @ h.samples @ gi + g.samples @ h.derivs[i] @ gi
                     + g.samples @ h.samples @ dgi)
    return g.samples @ h.samples @ gi, derivs


def _ref_inverse(g):
    gi = _dagger(g.samples)
    return gi, {i: -gi @ d @ gi for i, d in g.derivs.items()}


def _ref_tube(base, z, n_s):
    w, v = np.linalg.eigh(-1j * z)
    blocks, dblocks = [], []
    for s in interval_axis(n_s, 0.0, 1.0).points:
        slab = base.samples @ ((v * np.exp(1j * s * w)[..., None, :]) @ _dagger(v))
        blocks.append(slab)
        dblocks.append(slab @ z)
    return np.stack(blocks), {0: np.stack(dblocks)}


def _integral_and_scale(dens, axes):
    """The integral of a density and the integral of its modulus, the scale
    its rounding error is measured on."""
    return integrate_grid(dens, list(axes)), float(integrate_grid(np.abs(dens), list(axes)))


def _ref_alpha(g, h):
    gi, hi = _dagger(g.samples), _dagger(h.samples)
    g1, g2 = gi @ g.derivative(0), gi @ g.derivative(1)
    h1, h2 = h.derivative(0) @ hi, h.derivative(1) @ hi
    dens = -(np.einsum("...ab,...ba->...", g1, h2) - np.einsum("...ab,...ba->...", g2, h1))
    return _integral_and_scale(dens, g.axes)


def _ref_beta(g, h):
    gi, hi = _dagger(g.samples), _dagger(h.samples)
    g1, g2 = gi @ g.derivative(0), gi @ g.derivative(1)
    dh1, dh2 = h.derivative(0), h.derivative(1)
    d1, d2, e1, e2 = hi @ dh1, hi @ dh2, dh1 @ hi, dh2 @ hi
    hg1, hg2 = h.samples @ g1 @ hi, h.samples @ g2 @ hi
    term1 = np.einsum("...ab,...ba->...", hg1, g2) - np.einsum("...ab,...ba->...", hg2, g1)
    term2 = (np.einsum("...ab,...ba->...", g1, d2 + e2)
             - np.einsum("...ab,...ba->...", g2, d1 + e1))
    return _integral_and_scale(-(term1 + term2), g.axes)


def _ref_wz_derivative(g, dot):
    gi = _dagger(g.samples)
    g1, g2 = gi @ g.derivative(0), gi @ g.derivative(1)
    dens = np.einsum("...ab,...ba->...", gi @ dot, g1 @ g2 - g2 @ g1)
    total, scale = _integral_and_scale(dens, g.axes)
    return total.real / (4.0 * np.pi), scale / (4.0 * np.pi)


def _with_channels(g):
    """The field with a derivative channel on every axis (its exact one or
    spectral), so that every Leibniz term of a product runs."""
    return FieldGrid(axes=g.axes, samples=g.samples,
                     derivs={i: g.derivative(i) for i in range(g.n_axes)}, name=g.name)


def _assert_close(value, ref, rel=1e-12):
    assert np.max(np.abs(value - ref)) <= rel * max(np.max(np.abs(ref)), 1.0)


def _pair(case, theta4):
    """Two fields on one grid: N=2 normal forms, N=3 random unwindable and
    N=4 random equivariant fields, on the torus, on [0,1] x T^2 (tube
    extensions, from the normal forms along random deformations) and, for
    N=3, on a loop."""
    if case.startswith("normal_n2"):
        nfs = normal_form_field(1, -2, 2, n_grid=16), normal_form_field(-1, 3, 2, n_grid=16)
        if case == "normal_n2_torus":
            return nfs
        ext_g, ext_h = (tube_extension(f, 1j * random_hermitian_field(f.axes, 2, seed=s,
                                                                     scale=0.3), n_s=8)
                        for f, s in zip(nfs, (3, 4)))
    elif case.startswith("unwindable_n3"):
        (g, ext_g), (h, ext_h) = (random_unwindable_field(16, 3, seed=s, bandwidth=1)
                                  for s in (5, 6))
    else:
        (g, ext_g), (h, ext_h) = (random_equivariant_field(16, theta4, seed=s, bandwidth=1,
                                                           windings=w)
                                  for s, w in ((7, (1, 0)), (8, (0, 1))))
    if case.endswith("tube"):
        return _with_channels(ext_g), _with_channels(ext_h)
    if case.endswith("loop"):
        g, h = (FieldGrid(axes=f.axes[:1], samples=f.samples[:, 3]) for f in (g, h))
    return _with_channels(g), _with_channels(h)


PAIR_CASES = ["normal_n2_torus", "normal_n2_tube", "unwindable_n3_torus", "unwindable_n3_tube",
              "unwindable_n3_loop", "equivariant_n4_torus", "equivariant_n4_tube"]


@pytest.mark.parametrize("case", PAIR_CASES)
def test_field_products_match_batched_reference(case, theta4):
    g, h = _pair(case, theta4)
    for fld, (ref, ref_derivs) in ((product_field(g, h), _ref_product(g, h)),
                                   (conjugated_field(g, h), _ref_conjugated(g, h)),
                                   (inverse_field(g), _ref_inverse(g))):
        assert fld.samples.shape == ref.shape and fld.axes == g.axes
        _assert_close(fld.samples, ref)
        assert set(fld.derivs) == set(ref_derivs) == set(range(g.n_axes))
        for i, d in ref_derivs.items():
            _assert_close(fld.derivs[i], d)


@pytest.mark.parametrize("case", [c for c in PAIR_CASES if not c.endswith("loop")])
def test_functional_integrals_match_batched_reference(case, theta4):
    g, h = _pair(case, theta4)
    for value, (ref, scale) in ((alpha_integral(g, h), _ref_alpha(g, h)),
                                (beta_integral(g, h), _ref_beta(g, h))):
        assert scale > 0.1
        assert abs(value[0] - ref.real) <= 1e-12 * scale
        assert abs(value[1] - abs(ref.imag)) <= 1e-12 * scale
    ref, scale = _ref_wz_derivative(g, h.samples)
    assert abs(wz_derivative(g, h.samples) - ref) <= 1e-12 * scale


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_tube_extension_matches_batched_reference(dim, theta4):
    if dim == 3:
        base = constant_field((loop_axis(16),) * 2, np.eye(3, dtype=complex))
    else:
        base = normal_form_field(1, -1, dim, equivariant=dim == 4, n_grid=16)
    z = 1j * random_hermitian_field(base.axes, dim, seed=dim, scale=0.4)
    ext = tube_extension(base, z, n_s=8)
    ref, ref_derivs = _ref_tube(base, z, 8)
    assert ext.samples.shape == ref.shape and set(ext.derivs) == {0}
    _assert_close(ext.samples, ref)
    _assert_close(ext.derivs[0], ref_derivs[0])
    _assert_close(ext.samples[0], base.samples)


def test_winding_matches_batched_trace():
    g, _ = random_unwindable_field(16, 3, seed=5, bandwidth=1)
    loop = FieldGrid(axes=g.axes[:1], samples=g.samples[:, 3] @ normal_form_field(
        2, 0, 3, n_grid=16).samples[:, 0])
    w = winding(loop)
    ref = integrate_grid(np.trace(_dagger(loop.samples) @ loop.derivative(0),
                                  axis1=-2, axis2=-1), list(loop.axes)) / (2j * np.pi)
    assert w.require_snapped() == 2
    assert abs(complex(w.raw).real - ref.real) < 1e-12
    assert abs(w.meta["imag_raw"] - ref.imag) < 1e-12


def _peak_bytes(fn):
    """Result of fn() and the tracemalloc peak of the allocations made inside
    it, the result included."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return out, peak


def _field_bytes(fld):
    return fld.samples.nbytes + sum(d.nbytes for d in fld.derivs.values())


def test_tube_and_product_build_no_full_grid_temporary():
    nf_g, nf_h = normal_form_field(1, -1, 2, n_grid=32), normal_form_field(0, 2, 2, n_grid=32)
    hg, hh = (random_hermitian_field(nf_g.axes, 2, seed=s, scale=0.3) for s in (1, 2))
    ext_g, peak = _peak_bytes(lambda: tube_extension(nf_g, 1j * hg, n_s=48))
    assert peak < 1.25 * _field_bytes(ext_g)
    ext_h = tube_extension(nf_h, 1j * hh, n_s=48)
    ext_gh, peak = _peak_bytes(lambda: product_field(ext_g, ext_h))
    assert peak < 1.25 * _field_bytes(ext_gh)


# ----------------------- blocks of slices against a per-slice reference
#
# The library builds fields and densities in blocks of leading-axis slices,
# on views of entries-first planes. The references below run the same plane
# kernels on one contiguous slice at a time, so the two must agree bit for
# bit: every product is elementwise over the grid.

def _slice_planes(a, j):
    """Contiguous entries-first copy of slice j of a (..., N, N) array."""
    return np.ascontiguousarray(np.moveaxis(a[j], (-2, -1), (0, 1)))


def _slice_indices(g):
    return [()] if g.n_axes < 3 else [(j,) for j in range(g.samples.shape[0])]


def _slice_product(x, y):
    (xv, dx), (yv, dy) = x, y
    return (linalg.plane_product(xv, yv),
            {i: linalg.plane_product(dx[i], yv) + linalg.plane_product(xv, dy[i])
             for i in dx})


def _slice_inverse(x):
    xv, dx = x
    xi = linalg.inverse_planes(xv)
    return xi, {i: -linalg.plane_product(linalg.plane_product(xi, d), xi)
                for i, d in dx.items()}


def _slice_field(rule, *fields):
    """(samples, derivs) of a pointwise function of fields, one slice at a
    time, on the axes where every field carries a channel."""
    axes = sorted(set.intersection(*(set(f.derivs) for f in fields)))
    samples = np.empty(fields[0].samples.shape, dtype=complex)
    derivs = {i: np.empty_like(samples) for i in axes}
    for j in _slice_indices(fields[0]):
        value, dvalue = rule(*[(_slice_planes(f.samples, j),
                                {i: _slice_planes(f.derivs[i], j) for i in axes})
                               for f in fields])
        samples[j] = linalg.matrices_last(value)
        for i in axes:
            derivs[i][j] = linalg.matrices_last(dvalue[i])
    return samples, derivs


def _slice_density(g):
    """3 Tr{A0 [A1, A2]} one slice at a time, torus channels spectral."""
    dens = np.empty(g.samples.shape[:3], dtype=complex)
    d0 = g.derivative(0)
    for j in range(len(dens)):
        slab = _slice_planes(g.samples, j)
        ginv = linalg.inverse_planes(slab)
        a1, a2 = (linalg.plane_product(ginv, _slice_planes(g.derivs[i], j) if i in g.derivs
                                       else spectral_derivative(slab, i + 1, g.axes[i]))
                  for i in (1, 2))
        comm = linalg.plane_product(a1, a2)
        comm -= linalg.plane_product(a2, a1)
        dens[j] = 3.0 * linalg.trace_product(
            linalg.plane_product(ginv, _slice_planes(d0, j)), comm)
    return dens


def _slice_tube(base, z, n_s):
    w, v = np.linalg.eigh(-1j * z)
    w, v = np.moveaxis(w, -1, 0), linalg.entries_first(v)
    vi = linalg.inverse_planes(v)
    b, zp = linalg.entries_first(base.samples), linalg.entries_first(z)
    points = interval_axis(n_s, 0.0, 1.0).points
    samples = np.empty((n_s + 1,) + base.samples.shape, dtype=complex)
    ds = np.empty_like(samples)
    for j, s in enumerate(points):
        slab = linalg.plane_product(b, linalg.plane_product(v * np.exp(1j * s * w), vi))
        samples[j] = linalg.matrices_last(slab)
        ds[j] = linalg.matrices_last(linalg.plane_product(slab, zp))
    return samples, {0: ds}


def _assert_field_equal(fld, ref):
    samples, derivs = ref
    assert np.array_equal(fld.samples, samples)
    assert set(fld.derivs) == set(derivs)
    for i, d in derivs.items():
        assert np.array_equal(fld.derivs[i], d), i


@pytest.mark.parametrize("dim, n_grid, n_s", [(2, 32, 48), (4, 32, 48), (2, 128, 4)])
def test_blocks_of_slices_equal_the_per_slice_reference(dim, n_grid, n_s):
    """Tubes, products, inverses, adjoint products and the 3-form density
    equal one-slice-at-a-time references exactly: at 32^2 the 49 s slices
    end in a partial block, and a 128^2 slice is larger than a block."""
    bases = [normal_form_field(n, m, dim, equivariant=dim == 4, n_grid=n_grid)
             for n, m in ((1, -1), (0, 1))]
    zs = [1j * random_hermitian_field(f.axes, dim, seed=s, scale=0.3)
          for f, s in zip(bases, (3, 4))]
    ext_g, ext_h = (tube_extension(f, z, n_s=n_s) for f, z in zip(bases, zs))
    _assert_field_equal(ext_g, _slice_tube(bases[0], zs[0], n_s))
    _assert_field_equal(ext_h, _slice_tube(bases[1], zs[1], n_s))
    assert np.array_equal(ext_g.triple_density(), _slice_density(ext_g))
    for fld, ref in ((lambda: product_field(ext_g, ext_h),
                      lambda: _slice_field(_slice_product, ext_g, ext_h)),
                     (lambda: inverse_field(ext_g), lambda: _slice_field(_slice_inverse, ext_g)),
                     (lambda: conjugated_field(ext_g, ext_h),
                      lambda: _slice_field(lambda x, y: _slice_product(
                          _slice_product(x, y), _slice_inverse(x)), ext_g, ext_h))):
        fld = fld()
        _assert_field_equal(fld, ref())
        assert np.array_equal(fld.triple_density(), _slice_density(fld))
        del fld
    no_channel = FieldGrid(axes=ext_g.axes, samples=ext_g.samples, derivs={0: ext_g.derivs[0]})
    assert np.array_equal(no_channel.triple_density(), _slice_density(no_channel))


def test_second_action_of_a_field_computes_no_density(monkeypatch):
    """A field keeps its WZ integral: a second action of the same extension
    forms no 3-form density and returns the same value."""
    calls = []
    density = wz._triple_density

    def counted(*args):
        calls.append(1)
        return density(*args)

    monkeypatch.setattr(wz, "_triple_density", counted)
    nf = normal_form_field(1, -1, 2, n_grid=16)
    ext = tube_extension(nf, 1j * random_hermitian_field(nf.axes, 2, seed=1, scale=0.3),
                         n_s=8)
    first = wz_action_extension(ext)
    n_calls = len(calls)
    second = wz_action_extension(ext)
    assert n_calls > 0 and len(calls) == n_calls
    assert second.raw_action == first.raw_action


def test_field_operations_leave_their_inputs_unchanged():
    """Fields share planes with their views; no operation or functional
    writes into any array of its inputs."""
    nf_g, nf_h = normal_form_field(1, -1, 2, n_grid=16), normal_form_field(0, 2, 2, n_grid=16)
    hg, hh = (random_hermitian_field(nf_g.axes, 2, seed=s, scale=0.3) for s in (1, 2))
    ext_g, ext_h = tube_extension(nf_g, 1j * hg, n_s=8), tube_extension(nf_h, 1j * hh, n_s=8)
    g_s, h_s = (FieldGrid(axes=nf_g.axes, samples=e.samples[-1]) for e in (ext_g, ext_h))
    chan_g, chan_h = _with_channels(ext_g), _with_channels(ext_h)
    inputs = (nf_g, nf_h, ext_g, ext_h, g_s, h_s, chan_g, chan_h)
    arrays = [a for f in inputs for a in (f.samples, *f.derivs.values())] + [hg, hh]
    copies = [a.copy() for a in arrays]
    operations = (
        lambda: tube_extension(nf_g, 1j * hg, n_s=8),
        lambda: product_field(ext_g, ext_h), lambda: product_field(chan_g, chan_h),
        lambda: inverse_field(chan_g), lambda: conjugated_field(chan_g, chan_h),
        lambda: conjugated_field(ext_g, ext_h), lambda: ext_g.triple_density(),
        lambda: chan_g.triple_density(), lambda: wz_action_extension(ext_h),
        lambda: alpha_integral(g_s, h_s), lambda: beta_integral(g_s, h_s),
        lambda: pw_functional(g_s, h_s, ext_g=ext_g, ext_h=ext_h,
                              ext_gh=product_field(ext_g, ext_h)),
        lambda: apw_functional(g_s, h_s, ext_h=ext_h,
                               ext_ghg=conjugated_field(ext_g, ext_h)))
    for k, op in enumerate(operations):
        op()
        for a, c in zip(arrays, copies):
            assert np.array_equal(a, c), k


def test_homotopy_trial_memory_peak():
    """One criterion-8 trial (two N=2 tubes of 49 x 32^2 points, five s
    values) peaks below 38 MiB under tracemalloc, the parent design's
    37.9 MiB: blocks of slices add no full-grid temporary."""
    _, peak = _peak_bytes(lambda: certify.homotopy_trial((2, -2, -1, -2), 11, 12))
    assert peak < 38 * 2 ** 20


@pytest.mark.xfail(strict=True, reason="the 32^2 torus grid resolves this trial's APW "
                                       "to 1.5e-5 only (ROADMAP item 6)")
def test_homotopy_trial_of_benchmark_seed_5502():
    """The trial that fails the benchmark's check at seed 5502 (its second
    cycle): windings (2, -2, -1, -2), field seeds 1686547273 and 1736312120.
    Its APW spreads by 1.548e-5 over s against criterion 8's 1e-5; a 64^2
    grid gives 1.13e-6, so the torus grid, not the s quadrature, is at
    fault."""
    values = certify.homotopy_trial((2, -2, -1, -2), 1686547273, 1736312120)
    assert max(np.ptp(values["pw"]), np.ptp(values["apw"])) < 1e-5


# ------------------------------------------- phi amplitudes and kappa

def test_amplitude_constant_family(constant_loop):
    val = wz_amplitude_phi(parallel_transport(constant_loop, n_grid=64))
    assert abs(val.amplitude - 1.0) < 1e-12


def test_unknown_amplitude_method_is_refused(constant_loop):
    """A misspelled route is refused, naming the valid ones, instead of
    running the beta route under the wrong label."""
    trp = parallel_transport(constant_loop, n_grid=64)
    with pytest.raises(ValueError, match="'reduced' or 'beta', got 'reduce'"):
        wz_amplitude_phi(trp, method="reduce")


def test_amplitude_flat_band_matches_berry(flat_band):
    loop = flat_band.loop(1, 0.0)
    trp = parallel_transport(loop, n_grid=256)
    val = wz_amplitude_phi(trp)
    assert abs(val.amplitude - (-1.0)) < 1e-7
    bp = berry_phase(berry_connection(build_frame(trp)))
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
    trp = parallel_transport(loop, n_grid=64)
    regauged = gauge_transform(build_trs_frame(loop, theta4, n_grid=64),
                               random_trs_gauge(64, 2, seed=5))
    assert regauged.trs_flag and regauged.w_samples is None
    for frame in (build_frame(trp), regauged):
        with pytest.raises(NotTRSFrame):
            wz_amplitude_phi(frame)
    with pytest.raises(TypeError):
        wz_amplitude_phi(loop)          # a family is not trivialized


def test_kappa_atomic_limit(atomic_limit, theta4):
    kap = kappa_invariant(z2_ingredients(atomic_limit, theta4, n1=16, n2=32))
    assert kap.snapped == 1
    assert kap.residual < 1e-8


def test_kappa_equals_sign_of_delta(km_topo, km_trivial, theta4):
    for fam, expected in ((km_topo, 1), (km_trivial, 0)):
        z2 = z2_ingredients(fam, theta4, n1=32, n2=64)
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
