"""Wess-Zumino actions and amplitudes for U(N)-valued fields on tori, their
square roots for equivariant fields, Polyakov-Wiegmann functionals, winding
numbers, normal forms, and the Z2 invariant in its amplitude form.

A field lives on a FieldGrid (loop, torus, or interval x torus). Actions of
extended fields are quadratures of the pulled-back 3-form
(1/12 pi) Tr{(g^-1 dg)^3}; periodic axes differentiate spectrally, interval
axes by 4th-order stencils, and builders attach exact derivative channels
where the closed form is available. Diagonal phase fields carry the
unwinding convention: their action is zero mod 2 pi, which is what makes
Polyakov-Wiegmann values of winding fields computable.
"""

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import linalg
from .berry import berry_curvature_ebz
from .config import DEFAULT_TOL, N_2D, N_LOOP, Tolerances
from .core import ProjectorFamily, TRSOperator
from .errors import BadDims, NotAnExtension, NotTRSFrame
from .grids import (ebz_axis, integrate_grid, interval_axis, loop_axis,
                    grid_derivative, unit_circle_axis)
from .results import snap_integer, snap_sign
from .transport import BlochFrame, build_trs_frame, parallel_transport, periodize

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class FieldGrid:
    """U(N)-valued field sampled on a product grid.

    Periodic axes hold n samples over one period; interval axes hold n+1
    samples including both ends. `derivs[i]`, when present, is the exact
    derivative along axis i on the same grid.
    """

    axes: tuple
    samples: np.ndarray
    derivs: dict = dc_field(default_factory=dict)
    abelian_diagonal: bool = False   # diagonal phase field (unwinding convention)
    name: str = ""

    @property
    def dim(self):
        return self.samples.shape[-1]

    @property
    def n_axes(self):
        return len(self.axes)

    def derivative(self, i):
        if i in self.derivs:
            return self.derivs[i]
        return grid_derivative(self.samples, i, self.axes[i])

    def unitarity_residual(self):
        return float(np.max(linalg.unitarity_residual(self.samples)))

    def inverse_samples(self):
        return linalg.dagger(self.samples)

    def end_slice(self, which=0):
        """Boundary slice of the leading interval axis."""
        if self.axes[0].periodic:
            raise ValueError("leading axis is periodic; no end slices")
        return self.samples[0] if which == 0 else self.samples[-1]


def constant_field(axes, matrix, name="constant"):
    shape = tuple(ax.n if ax.periodic else ax.n + 1 for ax in axes)
    samples = np.broadcast_to(matrix, shape + matrix.shape).copy()
    return FieldGrid(axes=tuple(axes), samples=samples, name=name)


def product_field(g: FieldGrid, h: FieldGrid, name=""):
    """Pointwise product gh; exact derivatives propagate by the Leibniz rule
    along axes where both factors carry them."""
    _check_same_axes(g, h)
    derivs = {}
    for i in set(g.derivs) & set(h.derivs):
        derivs[i] = g.derivs[i] @ h.samples + g.samples @ h.derivs[i]
    return FieldGrid(axes=g.axes, samples=g.samples @ h.samples, derivs=derivs,
                     abelian_diagonal=g.abelian_diagonal and h.abelian_diagonal,
                     name=name or f"{g.name}*{h.name}")


def conjugated_field(g: FieldGrid, h: FieldGrid, name=""):
    """The pointwise adjoint product g h g^-1."""
    _check_same_axes(g, h)
    gi = g.inverse_samples()
    derivs = {}
    for i in set(g.derivs) & set(h.derivs):
        dgi = -gi @ g.derivs[i] @ gi
        derivs[i] = (g.derivs[i] @ h.samples @ gi + g.samples @ h.derivs[i] @ gi
                     + g.samples @ h.samples @ dgi)
    return FieldGrid(axes=g.axes, samples=g.samples @ h.samples @ gi, derivs=derivs,
                     abelian_diagonal=g.abelian_diagonal and h.abelian_diagonal,
                     name=name or f"{g.name}.{h.name}.inv")


def inverse_field(g: FieldGrid, name=""):
    gi = g.inverse_samples()
    derivs = {i: -gi @ d @ gi for i, d in g.derivs.items()}
    return FieldGrid(axes=g.axes, samples=gi, derivs=derivs,
                     abelian_diagonal=g.abelian_diagonal, name=name or f"{g.name}^-1")


def _check_same_axes(g, h):
    if g.axes != h.axes:
        raise BadDims("fields live on different grids")
    if g.dim != h.dim:
        raise BadDims(f"field dimensions differ: {g.dim} vs {h.dim}")


# ----------------------------------------------------------------- winding

def winding(f: FieldGrid, snap_tol=1e-6):
    """deg(det f) = (1/2 pi i) loop-integral of Tr{f^-1 df} for a loop field."""
    if f.n_axes != 1:
        raise BadDims("winding needs a loop field")
    integrand = np.trace(f.inverse_samples() @ f.derivative(0), axis1=-2, axis2=-1)
    total = integrate_grid(integrand, list(f.axes)) / (2j * np.pi)
    return snap_integer("Winding", total, snap_tol=snap_tol,
                        meta={"imag_raw": float(np.imag(total))})


def winding_pair(g: FieldGrid, snap_tol=1e-6):
    """det windings of the two loop restrictions of a torus field."""
    ax1, ax2 = g.axes
    f1 = FieldGrid(axes=(ax1,), samples=g.samples[:, 0], name=f"{g.name}|L")
    f2 = FieldGrid(axes=(ax2,), samples=g.samples[0, :], name=f"{g.name}|R")
    return winding(f1, snap_tol=snap_tol), winding(f2, snap_tol=snap_tol)


def normal_form_field(n, m, dim, equivariant=False, n_grid=64):
    """Diagonal phase field diag(e^{i(n k1 + m k2)}, 1, ..., 1) on the torus,
    the homotopy normal form with windings (n, m).

    Equivariant variant doubles the phase entry (dim even required); its det
    windings are (2n, 2m). Carries exact derivatives and the unwinding
    convention flag (WZ action 0).
    """
    if dim < 1 or (equivariant and (dim < 2 or dim % 2)):
        raise BadDims(f"bad dimension {dim} for normal form (equivariant={equivariant})")
    ax = loop_axis(n_grid)
    k1, k2 = np.meshgrid(ax.points, ax.points, indexing="ij")
    phase = np.exp(1j * (n * k1 + m * k2))
    shape = (n_grid, n_grid, dim, dim)
    samples = np.zeros(shape, dtype=complex)
    samples[..., range(dim), range(dim)] = 1.0
    slots = (0, 1) if equivariant else (0,)
    for s in slots:
        samples[..., s, s] = phase
    derivs = {}
    for i, coef in ((0, n), (1, m)):
        d = np.zeros(shape, dtype=complex)
        for s in slots:
            d[..., s, s] = 1j * coef * phase
        derivs[i] = d
    return FieldGrid(axes=(ax, ax), samples=samples, derivs=derivs,
                     abelian_diagonal=True,
                     name=f"normal({n},{m}){'eq' if equivariant else ''}")


# ------------------------------------------------------------ WZ actions

@dataclass(frozen=True)
class WZValue:
    """A Wess-Zumino action with its amplitude.

    raw_action keeps the computed representative; `action` reduces it into
    [0, modulus). modulus is 2 pi, or 4 pi for equivariant (square-root)
    channels, where sqrt_amplitude = exp(i raw_action / 2).
    """

    raw_action: float
    modulus: float
    quad_residual: float
    meta: dict = dc_field(default_factory=dict)

    @property
    def action(self):
        return self.raw_action % self.modulus

    @property
    def amplitude(self):
        return complex(np.exp(1j * self.raw_action))

    @property
    def sqrt_amplitude(self):
        if self.modulus < 2.5 * np.pi:
            raise ValueError("square root is only defined for the 4 pi channel")
        return complex(np.exp(0.5j * self.raw_action))


def chi_triple_integral(g: FieldGrid):
    """Integral of Tr{(g^-1 dg)^3} over a 3-axis grid (no normalization).

    The 3-form evaluates to 3 Tr{A0 [A1, A2]} d^3x with A_i = g^-1 d_i g in
    the axis order of the grid; the result for unitary fields is purely
    imaginary-free (real) up to differencing noise, which is reported.
    """
    if g.n_axes != 3:
        raise BadDims("triple integral needs a 3-axis field")
    gi = g.inverse_samples()
    a0 = gi @ g.derivative(0)
    a1 = gi @ g.derivative(1)
    a2 = gi @ g.derivative(2)
    dens = 3.0 * np.einsum("...ab,...ba->...", a0, a1 @ a2 - a2 @ a1)
    total = integrate_grid(dens, list(g.axes))
    return float(np.real(total)), float(abs(np.imag(total)))


def wz_action_extension(ext: FieldGrid, tol: Tolerances = DEFAULT_TOL,
                        base_action=0.0):
    """Wess-Zumino action from an explicit extension on [0,1] x T^2.

    The leading axis must be the extension interval; the slice at its 0 end
    must be constant, independent of one torus direction (solid-torus
    filling), or a marked diagonal normal form (whose own action is the
    unwinding-convention 0, overridable through base_action). The boundary
    field of interest is the slice at the 1 end.
    """
    if ext.n_axes != 3 or ext.axes[0].periodic or not (ext.axes[1].periodic
                                                       and ext.axes[2].periodic):
        raise NotAnExtension("need axes (interval, periodic, periodic)")
    end0 = ext.samples[0]
    const_resid = float(np.max(linalg.frob(end0 - end0.reshape(-1, ext.dim, ext.dim)[0])))
    ok = const_resid <= tol.extension_end
    if not ok:
        for axis in (0, 1):
            ref = end0.take([0], axis=axis)
            if float(np.max(linalg.frob(end0 - ref))) <= tol.extension_end:
                ok = True
                break
    if not ok and not ext.abelian_diagonal:
        raise NotAnExtension(f"end-0 slice is not constant (residual {const_resid:.2e}) "
                             "nor cylinder-degenerate nor a marked normal form")
    raw, imag = chi_triple_integral(ext)
    action = base_action + raw / (12.0 * np.pi)
    return WZValue(raw_action=action, modulus=TWO_PI, quad_residual=imag,
                   meta={"end0_constant_residual": const_resid, "name": ext.name})


def tube_extension(base: FieldGrid, z_samples, n_s=32, name=""):
    """Extension along the homotopy s -> base * exp(s Z) for anti-Hermitian Z.

    The s=1 slice is the field of interest; the s=0 slice is `base`, which
    must itself be constant or a diagonal normal form. The s-derivative is
    exact: d/ds [base e^{sZ}] = (base e^{sZ}) Z.
    """
    if base.n_axes != 2:
        raise BadDims("tube base must live on a 2-axis grid")
    s_ax = interval_axis(n_s, 0.0, 1.0, name="s")
    w, v = np.linalg.eigh(-1j * np.asarray(z_samples))
    s_vals = s_ax.points
    blocks = []
    dblocks = []
    for s in s_vals:
        phases = np.exp(1j * s * w)
        ez = (v * phases[..., None, :]) @ linalg.dagger(v)
        slab = base.samples @ ez
        blocks.append(slab)
        dblocks.append(slab @ z_samples)
    samples = np.stack(blocks)
    ext = FieldGrid(axes=(s_ax,) + base.axes, samples=samples,
                    derivs={0: np.stack(dblocks)},
                    abelian_diagonal=base.abelian_diagonal,
                    name=name or f"tube({base.name})")
    return ext


def exp_field(axes, h_samples, name="exp_field"):
    """g = exp(iH) for a Hermitian field H, with the tube-ready generator."""
    g = linalg.expi_hermitian(h_samples)
    return FieldGrid(axes=tuple(axes), samples=g, name=name), 1j * h_samples


def random_hermitian_field(axes, dim, seed, bandwidth=2, scale=0.35):
    """Smooth random Hermitian field from a few Fourier modes per axis."""
    rng = np.random.default_rng(seed)
    mesh = np.meshgrid(*[ax.points for ax in axes], indexing="ij")
    shape = mesh[0].shape
    h = np.zeros(shape + (dim, dim), dtype=complex)
    for p in range(-bandwidth, bandwidth + 1):
        for q in range(-bandwidth, bandwidth + 1):
            if (p, q) < (0, 0):
                continue  # partner added via Hermitian conjugation
            c = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            c *= scale / (1.0 + p * p + q * q)
            phase = np.exp(1j * (p * mesh[0] + q * mesh[1]))
            h += phase[..., None, None] * c
            h += np.conjugate(phase)[..., None, None] * linalg.dagger(c)
    return 0.5 * (h + linalg.dagger(h))


def random_unwindable_field(n_grid, dim, seed, bandwidth=2, scale=0.35):
    """Random smooth zero-winding torus field with its tube extension."""
    ax = loop_axis(n_grid)
    h = random_hermitian_field((ax, ax), dim, seed, bandwidth, scale)
    g, z = exp_field((ax, ax), h, name=f"rand{seed}")
    base = constant_field((ax, ax), np.eye(dim, dtype=complex))
    return g, tube_extension(base, np.broadcast_to(z, g.samples.shape))


def random_equivariant_field(n_grid, theta: TRSOperator, seed, bandwidth=2,
                             scale=0.35, windings=(0, 0)):
    """Random equivariant torus field Theta(g(k)) = g(-k), with windings.

    Built as (equivariant normal form) * exp(Z) with Z an equivariantly
    symmetrized anti-Hermitian field; returns (field, tube extension), where
    the tube is an equivariant homotopy from the normal form.
    """
    dim = theta.dim
    ax = loop_axis(n_grid)
    h = random_hermitian_field((ax, ax), dim, seed, bandwidth, scale)
    z = 1j * h
    # equivariant symmetrization: Z(k) <- (Z(k) + Theta(Z(-k))) / 2
    idx1 = (-np.arange(n_grid)) % n_grid
    z_refl = z[np.ix_(idx1, idx1)]
    z_refl = theta.j @ np.conjugate(z_refl) @ theta.j.T
    z = 0.5 * (z + z_refl)
    n, m = windings
    base = normal_form_field(n, m, dim, equivariant=True, n_grid=n_grid)
    w, v = np.linalg.eigh(-1j * z)
    ez = (v * np.exp(1j * w)[..., None, :]) @ linalg.dagger(v)
    g = FieldGrid(axes=(ax, ax), samples=base.samples @ ez, name=f"eq{seed}")
    return g, tube_extension(base, z)


def equivariance_residual(g: FieldGrid, theta: TRSOperator):
    """max_k || g(-k) - Theta(g(k)) || on the grid (loop or torus fields)."""
    ns = tuple(ax.n for ax in g.axes)
    idx = [(-np.arange(n)) % n for n in ns]
    refl = g.samples[np.ix_(*idx)] if g.n_axes == 2 else g.samples[idx[0]]
    conj = theta.j @ np.conjugate(g.samples) @ theta.j.T
    return float(np.max(linalg.frob(refl - conj)))


# ------------------------------------------- Polyakov-Wiegmann functionals

def alpha_integral(g: FieldGrid, h: FieldGrid):
    """Integral over the torus of (g x h)*alpha = -Tr(g^-1 dg wedge dh h^-1)."""
    _check_same_axes(g, h)
    gi = g.inverse_samples()
    hi = h.inverse_samples()
    g1 = gi @ g.derivative(0)
    g2 = gi @ g.derivative(1)
    h1 = h.derivative(0) @ hi
    h2 = h.derivative(1) @ hi
    dens = -(np.einsum("...ab,...ba->...", g1, h2)
             - np.einsum("...ab,...ba->...", g2, h1))
    total = integrate_grid(dens, list(g.axes))
    return float(np.real(total)), float(abs(np.imag(total)))


def beta_integral(g: FieldGrid, h: FieldGrid):
    """Integral over the torus of (g x h)*beta, the adjoint-product defect
    2-form: -Tr{ h(g^-1 dg)h^-1 (g^-1 dg) + g^-1 dg (h^-1 dh + dh h^-1) }."""
    _check_same_axes(g, h)
    gi = g.inverse_samples()
    hi = h.inverse_samples()
    g1 = gi @ g.derivative(0)
    g2 = gi @ g.derivative(1)
    dh1 = h.derivative(0)
    dh2 = h.derivative(1)
    d1 = hi @ dh1
    d2 = hi @ dh2
    e1 = dh1 @ hi
    e2 = dh2 @ hi
    hg1 = h.samples @ g1 @ hi
    hg2 = h.samples @ g2 @ hi
    term1 = (np.einsum("...ab,...ba->...", hg1, g2)
             - np.einsum("...ab,...ba->...", hg2, g1))
    term2 = (np.einsum("...ab,...ba->...", g1, d2 + e2)
             - np.einsum("...ab,...ba->...", g2, d1 + e1))
    total = integrate_grid(-(term1 + term2), list(g.axes))
    return float(np.real(total)), float(abs(np.imag(total)))


def _action_of(fld: FieldGrid, ext: Optional[FieldGrid], tol, label):
    if ext is not None:
        return wz_action_extension(ext, tol=tol).raw_action
    if fld.abelian_diagonal:
        return 0.0
    raise NotAnExtension(f"field {label} ({fld.name}) needs an explicit extension "
                         "unless it is a marked diagonal normal form")


def pw_functional(g: FieldGrid, h: FieldGrid, ext_g=None, ext_h=None, ext_gh=None,
                  tol: Tolerances = DEFAULT_TOL):
    """PW[g,h] = S[gh] - S[g] - S[h] - (1/4 pi) int (g x h)*alpha.

    Vanishes mod 2 pi for simply connected groups; for U(N) on the torus the
    normal-form value is -pi (n_g m_h - m_g n_h), an anomaly when odd.
    """
    s_g = _action_of(g, ext_g, tol, "g")
    s_h = _action_of(h, ext_h, tol, "h")
    s_gh = _action_of(product_field(g, h), ext_gh, tol, "gh")
    a_int, _ = alpha_integral(g, h)
    return s_gh - s_g - s_h - a_int / (4.0 * np.pi)


def apw_functional(g: FieldGrid, h: FieldGrid, ext_ghg=None, ext_h=None,
                   tol: Tolerances = DEFAULT_TOL):
    """APW[g,h] = S[g h g^-1] - S[h] - (1/4 pi) int (g x h)*beta.

    Lands in 2 pi Z for any U(N) fields on the torus (no anomaly), and in
    4 pi Z when both fields are equivariant; normal forms give
    -2 pi (n_g m_h - m_g n_h) (doubled in the equivariant case).
    """
    s_h = _action_of(h, ext_h, tol, "h")
    s_ghg = _action_of(conjugated_field(g, h), ext_ghg, tol, "g h g^-1")
    b_int, _ = beta_integral(g, h)
    return s_ghg - s_h - b_int / (4.0 * np.pi)


def wz_derivative(g: FieldGrid, g_dot):
    """Rate of change of the action along a deformation with velocity g_dot:
    (1/4 pi) int Tr{ g^-1 g_dot (g^-1 dg)^2 }."""
    dot = g_dot.samples if isinstance(g_dot, FieldGrid) else np.asarray(g_dot)
    gi = g.inverse_samples()
    g1 = gi @ g.derivative(0)
    g2 = gi @ g.derivative(1)
    comm = g1 @ g2 - g2 @ g1
    dens = np.einsum("...ab,...ba->...", gi @ dot, comm)
    total = integrate_grid(dens, list(g.axes))
    return float(np.real(total)) / (4.0 * np.pi)


# --------------------------------------------------- amplitudes of phi fields

def psi_field_from(p0, n_t=16, n_k=N_LOOP):
    """psi(t) = exp(2 pi i t P0), constant along the loop direction."""
    t_ax = unit_circle_axis(n_t)
    k_ax = loop_axis(n_k)
    eye = np.eye(p0.shape[0], dtype=complex)
    tphase = np.exp(TWO_PI * 1j * t_ax.points)
    psi_t = eye + (tphase[:, None, None] - 1.0) * p0[None]
    samples = np.broadcast_to(psi_t[:, None], (n_t, n_k) + p0.shape).copy()
    dt = np.broadcast_to((TWO_PI * 1j * tphase[:, None, None] * p0[None])[:, None],
                         samples.shape).copy()
    return FieldGrid(axes=(t_ax, k_ax), samples=samples, derivs={0: dt}, name="psi")


def wz_amplitude_phi(loop, n_grid=N_LOOP, substeps=4, n_t=16, method="reduced",
                     tol: Tolerances = DEFAULT_TOL):
    """Wess-Zumino amplitude of phi(t,k) = exp(2 pi i t P(k)), and its square
    root for a time-reversal symmetric frame.

    `loop` is either a loop ProjectorFamily, trivialized here by periodized
    parallel transport on n_grid points (base point -pi), or a time-reversal
    symmetric BlochFrame built with W (build_trs_frame, base point 0). For a
    frame the action is defined mod 4 pi and carries the root.

    The field factorizes as phi = W psi W^-1 through the loop trivialization,
    so the adjoint product formula collapses the 3D action:

    - method "reduced": 1D integral i * loop-int Tr{P(k0) W^-1 dW} at the
      base point k0, where W = 1.
    - method "beta": the 2D quadrature of (W x psi)*beta over the (t, k)
      torus divided by 4 pi; an independent route through the generic
      machinery, used for certification.
    """
    if isinstance(loop, BlochFrame):
        if not loop.trs_flag or loop.w_samples is None:
            raise NotTRSFrame("the amplitude of a frame needs a TRS frame with W")
        w = loop.w_samples
        dw = grid_derivative(w, 0, loop_axis(len(w)))
        p0 = loop.family.sample(np.array([0.0]))[0]
        modulus = 4.0 * np.pi
        meta = {"frame_loop_integral": loop.analytic_loop_integral}
    else:
        trp = periodize(parallel_transport(loop, n_grid=n_grid, substeps=substeps,
                                           tol=tol))
        w, dw = trp.w_samples[:-1], trp.w_derivatives[:-1]
        p0 = trp.p_samples[0]
        modulus = TWO_PI
        meta = {"m_eigenvalues": trp.m_eigenvalues}
    n = len(w)
    if method == "reduced":
        logd = linalg.dagger(w) @ dw
        integrand = np.trace(p0[None] @ logd, axis1=-2, axis2=-1)
        s_val = 1j * np.sum(integrand) * (TWO_PI / n)
        resid = float(abs(np.imag(s_val)))
        action = float(np.real(s_val))
    else:
        w_field = FieldGrid(axes=(unit_circle_axis(n_t), loop_axis(n)),
                            samples=np.broadcast_to(
                                w[None], (n_t, n) + w.shape[-2:]).copy(),
                            name="W")
        psi = psi_field_from(p0, n_t=n_t, n_k=n)
        b_int, resid = beta_integral(w_field, psi)
        action = b_int / (4.0 * np.pi)
    return WZValue(raw_action=action, modulus=modulus, quad_residual=resid,
                   meta={"method": method, **meta})


def up_extension(family: ProjectorFamily, n_t=64, n1=64, n2=64, path="forward"):
    """Extension exp(i w(t) P(k)) of U_P = 1 - 2P over [0,1] x T^2.

    path selects the phase ramp w(t): "forward" pi t, "reverse" -pi t,
    "reparam" pi t (2 - t); all end at U_P, providing independent extensions
    whose actions differ by elements of 2 pi Z.
    """
    t_ax = interval_axis(n_t, 0.0, 1.0, name="t")
    k_ax = loop_axis(n1)
    k2_ax = loop_axis(n2)
    k1, k2 = np.meshgrid(k_ax.points, k2_ax.points, indexing="ij")
    p = family.sample(np.stack([k1, k2], axis=-1))
    t = t_ax.points
    omega = {"forward": np.pi * t, "reverse": -np.pi * t,
             "reparam": np.pi * t * (2.0 - t)}[path]
    domega = {"forward": np.pi * np.ones_like(t), "reverse": -np.pi * np.ones_like(t),
              "reparam": np.pi * (2.0 - 2.0 * t)}[path]
    eye = np.eye(family.ambient_dim, dtype=complex)
    phase = np.exp(1j * omega)
    samples = eye + (phase[:, None, None, None, None] - 1.0) * p[None]
    dt = (1j * domega * phase)[:, None, None, None, None] * p[None]
    return FieldGrid(axes=(t_ax, k_ax, k2_ax), samples=samples, derivs={0: dt},
                     name=f"U_P extension ({path})")


def phi_ebz_extension(family: ProjectorFamily, n_t=16, n1=64, n2=64):
    """Phi(t, k) = exp(2 pi i t P(k)) on S^1 x [0, pi] x T (axes t, k1, k2)."""
    t_ax = unit_circle_axis(n_t)
    k1_ax = ebz_axis(n1)
    k2_ax = loop_axis(n2)
    k1, k2 = np.meshgrid(k1_ax.points, k2_ax.points, indexing="ij")
    ks = np.stack([k1, k2], axis=-1)
    p = family.sample(ks)
    dp1 = family.derivative(ks, 0)
    eye = np.eye(family.ambient_dim, dtype=complex)
    tphase = np.exp(TWO_PI * 1j * t_ax.points)
    tfac = tphase[:, None, None, None, None]
    samples = eye + (tfac - 1.0) * p[None]
    derivs = {0: TWO_PI * 1j * tfac * p[None],
              1: (tfac - 1.0) * dp1[None]}
    return FieldGrid(axes=(t_ax, k1_ax, k2_ax), samples=samples, derivs=derivs,
                     name="Phi on S1 x EBZ")


@dataclass(frozen=True)
class Z2Ingredients:
    """What both forms of the Z2 invariant are built from, each computed once:
    a time-reversal symmetric frame with W on each boundary loop (k1 = 0 and
    pi, keys "T0" and "Tpi"), the square-root WZ value of phi on it, and the
    integral of the curvature over the half zone [0, pi] x T."""

    family: ProjectorFamily
    theta: TRSOperator
    frames: dict
    wz: dict
    ebz_integral: float
    grid: tuple                   # (n_loop, n1, n2)
    tol: Tolerances


def z2_ingredients(family: ProjectorFamily, theta: TRSOperator, n_loop=N_LOOP,
                   n1=N_2D // 2, n2=N_2D, substeps=4, tol: Tolerances = DEFAULT_TOL,
                   rng=None):
    """Build the boundary frames, their WZ values and the half-zone curvature
    shared by delta_invariant and kappa_invariant."""
    frames, values = {}, {}
    for label, k1 in (("T0", 0.0), ("Tpi", np.pi)):
        frames[label] = build_trs_frame(family.loop(0, k1), theta, n_grid=n_loop,
                                        substeps=substeps, tol=tol, rng=rng,
                                        with_w=True)
        values[label] = wz_amplitude_phi(frames[label])
    ebz = berry_curvature_ebz(family, n1=n1, n2=n2).integral()
    return Z2Ingredients(family=family, theta=theta, frames=frames, wz=values,
                         ebz_integral=ebz, grid=(n_loop, n1, n2), tol=tol)


def kappa_invariant(z2: Z2Ingredients, direct_grid=None):
    """The amplitude form of the Z2 invariant:

    K = sqrtWZ[phi_pi] / sqrtWZ[phi_0] * exp( (i/24 pi) I3 ),
    I3 = int_{S^1 x EBZ} Tr{(Phi^-1 dPhi)^3}.

    The 3D integral reduces exactly to 12 pi times the half-zone curvature
    integral, which is the default channel; with direct_grid = (n_t, m1, m2)
    the raw 3D quadrature runs as well and the relative discrepancy between
    the channels is reported in meta ("phi3_discrepancy").
    """
    sqrt_amps = {label: v.sqrt_amplitude for label, v in z2.wz.items()}
    ebz = z2.ebz_integral
    i3_reduced = 12.0 * np.pi * ebz
    meta = {"sqrt_wz_T0": sqrt_amps["T0"], "sqrt_wz_Tpi": sqrt_amps["Tpi"],
            "ebz_curvature_integral": ebz, "grid": z2.grid}
    if direct_grid is not None:
        m_t, m1, m2 = direct_grid
        phi = phi_ebz_extension(z2.family, n_t=m_t, n1=m1, n2=m2)
        i3_direct, i3_imag = chi_triple_integral(phi)
        scale = max(abs(i3_reduced), abs(i3_direct), 1.0)
        meta["phi3_direct"] = i3_direct
        meta["phi3_reduced"] = i3_reduced
        meta["phi3_discrepancy"] = abs(i3_direct - i3_reduced) / scale
        meta["phi3_imag"] = i3_imag
    raw = (sqrt_amps["Tpi"] / sqrt_amps["T0"]) * np.exp(1j * i3_reduced / (24.0 * np.pi))
    return snap_sign("Kappa", raw, snap_tol=z2.tol.snap, meta=meta)
