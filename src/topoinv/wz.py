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

Matrix products of fields (products, inverses, adjoint products, tube
extensions and the 3-form and product-functional densities) run one torus
slice at a time in the entries-first layout (N, N, n1, n2) of `linalg`, as
N^3 multiply-adds over whole planes instead of one small product per grid
point; the projector family forms P and dP with the same plane-product
kernel.

The projector extensions exp(i w(t) P(k)) = 1 + (e^{i w(t)} - 1) P(k) of
U_P and Phi are rank-one in t, so they are ProjectorExtensions: P and its
torus derivatives on the 2D grid and the t factor are stored. Their 3-form
density is a polynomial of degree 3 in the conjugate t factor whose
coefficients are four trace fields on the 2D grid, so it is evaluated on
the whole 3D grid without forming any t slice.
"""

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import linalg
from .berry import berry_curvature_ebz
from .config import DEFAULT_TOL, N_2D, N_LOOP
from .core import ProjectorFamily, TRSOperator
from .errors import BadDims, NotAnExtension, NotTRSFrame
from .grids import (ebz_axis, integrate_grid, interval_axis, loop_axis,
                    grid_derivative, spectral_derivative, torus_points,
                    unit_circle_axis)
from .linalg import (entries_first, inverse_planes, matrices_last, plane_product,
                     trace_product)
from .results import snap_integer, snap_sign
from .transport import BlochFrame, TransportResult, build_trs_frame

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

    def slab(self, j):
        """Slice j of the leading axis with its exact derivative channels:
        (samples_j, {axis: derivative_j})."""
        return self.samples[j], {i: d[j] for i, d in self.derivs.items()}

    def triple_density(self):
        """3 Tr{A0 [A1, A2]} on a 3-axis grid, one slice of the leading axis
        at a time. A field without an axis-0 channel gets one whole-field
        derivative(0), since its stencil needs the neighbouring slices."""
        dens = np.empty(tuple(len(ax.points) for ax in self.axes), dtype=complex)
        d0 = None
        for j in range(len(dens)):
            slab, derivs = self.slab(j)
            if 0 not in derivs:
                if d0 is None:
                    d0 = self.derivative(0)
                derivs[0] = d0[j]
            dens[j] = _triple_density(slab, derivs, self.axes)
        return dens


@dataclass(frozen=True)
class ProjectorExtension:
    """The field g(t, k) = 1 + f(t) P(k) on a grid with axes (t, k1, k2),
    where f(t) = e^{i w(t)} - 1.

    Only P and its torus derivatives dp = (d1 P, d2 P) on the 2D grid, in
    the entries-first layout (N, N, n1, n2), and f, f' on the t axis are
    stored, so no array of matrices spans the 3D grid. The 3-form density
    is built from 2D trace fields (`triple_density`). Slice j is 1 + f_j P
    with the exact channels {0: f'_j P, 1: f_j d1P, 2: f_j d2P}, returned
    as (n1, n2, N, N) views of entries-first planes. `samples` and
    `derivative(i)` build the full arrays each time they are read.
    """

    axes: tuple
    p: np.ndarray
    dp: tuple
    f: np.ndarray
    df: np.ndarray
    name: str = ""
    abelian_diagonal = False

    @property
    def dim(self):
        return self.p.shape[0]

    @property
    def n_axes(self):
        return len(self.axes)

    def _channels(self):
        """(t factor, 2D planes) per axis: d_i g = t_i(t) planes_i(k)."""
        return (self.df, self.p), (self.f, self.dp[0]), (self.f, self.dp[1])

    def slab(self, j):
        value = self.f[j] * self.p
        for a in range(self.dim):
            value[a, a] += 1.0
        return matrices_last(value), {i: matrices_last(t[j] * x)
                                      for i, (t, x) in enumerate(self._channels())}

    def triple_density(self):
        """3 Tr{A0 [A1, A2]} on the whole grid, with g^-1 read as
        1 + conj(f) P^+: A0 = f'(P + conj(f) P^+P) and
        A_i = f(d_iP + conj(f) P^+d_iP), so the density is
        3 f' f^2 sum_n conj(f)^n T_n(k), n = 0..3, with the 2D trace fields
        T_n = sum_{a+b+c=n} Tr{U_a [V_b, W_c]}, U = (P, P^+P),
        V = (d1P, P^+d1P), W = (d2P, P^+d2P). No projector identity is
        used, so it equals the slice-wise density up to rounding."""
        p_dag = inverse_planes(self.p)
        u, v, w = ((x, plane_product(p_dag, x)) for x in (self.p,) + self.dp)
        comm = {(b, c): plane_product(v[b], w[c]) - plane_product(w[c], v[b])
                for b in (0, 1) for c in (0, 1)}
        t = np.zeros((4,) + self.p.shape[2:], dtype=complex)
        for a in (0, 1):
            for (b, c), x in comm.items():
                t[a + b + c] += trace_product(u[a], x)
        fbar_powers = np.conjugate(self.f)[:, None] ** np.arange(4)
        dens = np.tensordot(fbar_powers, t, axes=1)    # sum_n conj(f)^n T_n
        dens *= 3.0 * (self.df * self.f ** 2)[:, None, None]
        return dens

    @property
    def samples(self):
        return (np.eye(self.dim, dtype=complex)
                + np.multiply.outer(self.f, matrices_last(self.p)))

    def derivative(self, i):
        t, x = self._channels()[i]
        return np.multiply.outer(t, matrices_last(x))


def constant_field(axes, matrix, name="constant"):
    shape = tuple(ax.n if ax.periodic else ax.n + 1 for ax in axes)
    samples = np.broadcast_to(matrix, shape + matrix.shape).copy()
    return FieldGrid(axes=tuple(axes), samples=samples, name=name)


def product_field(g: FieldGrid, h: FieldGrid, name=""):
    """Pointwise product gh; exact derivatives propagate by the Leibniz rule
    along axes where both factors carry them."""
    _check_same_axes(g, h)
    samples, derivs = _slicewise(_product_rule, sorted(set(g.derivs) & set(h.derivs)),
                                 g, h)
    return FieldGrid(axes=g.axes, samples=samples, derivs=derivs,
                     abelian_diagonal=g.abelian_diagonal and h.abelian_diagonal,
                     name=name or f"{g.name}*{h.name}")


def conjugated_field(g: FieldGrid, h: FieldGrid, name=""):
    """The pointwise adjoint product g h g^-1."""
    _check_same_axes(g, h)
    samples, derivs = _slicewise(
        lambda gs, hs: _product_rule(_product_rule(gs, hs), _inverse_rule(gs)),
        sorted(set(g.derivs) & set(h.derivs)), g, h)
    return FieldGrid(axes=g.axes, samples=samples, derivs=derivs,
                     abelian_diagonal=g.abelian_diagonal and h.abelian_diagonal,
                     name=name or f"{g.name}.{h.name}.inv")


def inverse_field(g: FieldGrid, name=""):
    samples, derivs = _slicewise(_inverse_rule, sorted(g.derivs), g)
    return FieldGrid(axes=g.axes, samples=samples, derivs=derivs,
                     abelian_diagonal=g.abelian_diagonal, name=name or f"{g.name}^-1")


def _product_rule(x, y):
    """(value, {axis: derivative}) of the product of two such entries-first
    slices, by the Leibniz rule."""
    (xv, dx), (yv, dy) = x, y
    return (plane_product(xv, yv),
            {i: plane_product(dx[i], yv) + plane_product(xv, dy[i]) for i in dx})


def _inverse_rule(x):
    """(value, {axis: derivative}) of the inverse of an entries-first unitary
    slice: g^-1 = g^+ and d(g^-1) = -g^-1 dg g^-1."""
    xv, dx = x
    xi = inverse_planes(xv)
    return xi, {i: -plane_product(plane_product(xi, d), xi) for i, d in dx.items()}


def _slicewise(rule, axes, *fields):
    """Samples and exact derivatives along `axes` of a pointwise function of
    fields, built one torus slice at a time: `rule` maps the entries-first
    (value, {axis: derivative}) slice of each field to the result's, which is
    written into preallocated (..., N, N) arrays."""
    shape = fields[0].samples.shape
    samples = np.empty(shape, dtype=complex)
    derivs = {i: np.empty(shape, dtype=complex) for i in axes}
    for j in _slices(fields[0]):
        value, dvalue = rule(*[(entries_first(f.samples[j]),
                               {i: entries_first(f.derivs[i][j]) for i in axes})
                              for f in fields])
        samples[j] = matrices_last(value)
        for i in axes:
            derivs[i][j] = matrices_last(dvalue[i])
    return samples, derivs


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
    integrand = np.einsum("...ab,...ab->...", np.conjugate(f.samples), f.derivative(0))
    total = integrate_grid(integrand, list(f.axes)) / (2j * np.pi)
    return snap_integer("Winding", total, snap_tol=snap_tol,
                        meta={"imag_raw": float(np.imag(total))})


def winding_pair(g: FieldGrid):
    """det windings of the two loop restrictions of a torus field."""
    ax1, ax2 = g.axes
    f1 = FieldGrid(axes=(ax1,), samples=g.samples[:, 0], name=f"{g.name}|L")
    f2 = FieldGrid(axes=(ax2,), samples=g.samples[0, :], name=f"{g.name}|R")
    return winding(f1), winding(f2)


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
    the axis order of the grid. For a unitary field the result is real up to
    differencing noise; the size of its imaginary part is returned as well.

    Each field supplies its density, `g.triple_density()`, with g^-1 = g^+
    read as the conjugate-transposed planes. A FieldGrid evaluates it one
    slice of the leading axis at a time, in the entries-first layout
    (N, N, n1, n2): an N x N product is then N^3 multiply-adds over whole
    planes instead of one tiny product per grid point, whose per-matrix
    overhead would dominate, and no matrix temporary spans the whole grid.
    A ProjectorExtension 1 + f(t) P(k) builds it from four trace fields on
    the 2D grid, with 11 plane products whatever the number of t slices.
    """
    if g.n_axes != 3:
        raise BadDims("triple integral needs a 3-axis field")
    total = integrate_grid(g.triple_density(), list(g.axes))
    return float(np.real(total)), float(abs(np.imag(total)))


def _triple_density(slab, derivs, axes):
    """3 Tr{A0 [A1, A2]} on one slice of the leading axis, from its samples
    and derivative channels; torus axes without a channel differentiate the
    slice. Its temporaries are freed before the next slice is produced."""
    slab = entries_first(slab)
    ginv = inverse_planes(slab)
    a1, a2 = (plane_product(ginv, entries_first(derivs[i]) if i in derivs
                            else grid_derivative(slab, i + 1, axes[i])) for i in (1, 2))
    comm = plane_product(a1, a2)
    comm -= plane_product(a2, a1)
    return 3.0 * trace_product(plane_product(ginv, entries_first(derivs[0])), comm)


def _slices(g: FieldGrid):
    """Indices of the torus slices of a field, its last two grid axes; a loop
    or torus field is a single slice."""
    return np.ndindex(g.samples.shape[:max(g.n_axes - 2, 0)])


def wz_action_extension(ext: FieldGrid):
    """Wess-Zumino action from an explicit extension on [0,1] x T^2.

    The leading axis must be the extension interval; the slice at its 0 end
    must be constant or independent of one torus direction (solid-torus
    filling), both to DEFAULT_TOL.extension_end, or a marked diagonal normal
    form (whose own action is the unwinding-convention 0). The boundary
    field of interest is the slice at the 1 end.
    """
    if ext.n_axes != 3 or ext.axes[0].periodic or not (ext.axes[1].periodic
                                                       and ext.axes[2].periodic):
        raise NotAnExtension("need axes (interval, periodic, periodic)")
    end0 = ext.slab(0)[0]
    const_resid = float(np.max(linalg.frob(end0 - end0.reshape(-1, ext.dim, ext.dim)[0])))
    ok = const_resid <= DEFAULT_TOL.extension_end
    if not ok:
        for axis in (0, 1):
            ref = end0.take([0], axis=axis)
            if float(np.max(linalg.frob(end0 - ref))) <= DEFAULT_TOL.extension_end:
                ok = True
                break
    if not ok and not ext.abelian_diagonal:
        raise NotAnExtension(f"end-0 slice is not constant (residual {const_resid:.2e}) "
                             "nor cylinder-degenerate nor a marked normal form")
    raw, imag = chi_triple_integral(ext)
    return WZValue(raw_action=raw / (12.0 * np.pi), modulus=TWO_PI, quad_residual=imag,
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
    z_samples = np.broadcast_to(z_samples, base.samples.shape)
    w, v = np.linalg.eigh(-1j * z_samples)
    w = np.moveaxis(w, -1, 0)
    v = entries_first(v)
    vi = inverse_planes(v)
    b, z = entries_first(base.samples), entries_first(z_samples)
    samples = np.empty((n_s + 1,) + base.samples.shape, dtype=complex)
    ds = np.empty_like(samples)
    for j, s in enumerate(s_ax.points):
        slab = plane_product(b, plane_product(v * np.exp(1j * s * w), vi))
        samples[j] = matrices_last(slab)
        ds[j] = matrices_last(plane_product(slab, z))
    return FieldGrid(axes=(s_ax,) + base.axes, samples=samples, derivs={0: ds},
                     abelian_diagonal=base.abelian_diagonal,
                     name=name or f"tube({base.name})")


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


def random_unwindable_field(n_grid, dim, seed, bandwidth=2):
    """Random smooth zero-winding torus field with its tube extension."""
    ax = loop_axis(n_grid)
    h = random_hermitian_field((ax, ax), dim, seed, bandwidth)
    base = constant_field((ax, ax), np.eye(dim, dtype=complex))
    ext = tube_extension(base, 1j * h)
    return FieldGrid(axes=(ax, ax), samples=ext.samples[-1], name=f"rand{seed}"), ext


def random_equivariant_field(n_grid, theta: TRSOperator, seed, bandwidth=2,
                             windings=(0, 0)):
    """Random equivariant torus field Theta(g(k)) = g(-k), with windings.

    Built as (equivariant normal form) * exp(Z) with Z an equivariantly
    symmetrized anti-Hermitian field; returns (field, tube extension), where
    the tube is an equivariant homotopy from the normal form.
    """
    dim = theta.dim
    ax = loop_axis(n_grid)
    h = random_hermitian_field((ax, ax), dim, seed, bandwidth)
    z = theta.symmetrize(1j * h, 2)
    n, m = windings
    base = normal_form_field(n, m, dim, equivariant=True, n_grid=n_grid)
    ext = tube_extension(base, z)
    return FieldGrid(axes=(ax, ax), samples=ext.samples[-1], name=f"eq{seed}"), ext


def equivariance_residual(g: FieldGrid, theta: TRSOperator):
    """max_k || g(-k) - Theta(g(k)) || on the grid (loop or torus fields)."""
    return theta.residual(g.samples, g.n_axes)


# ------------------------------------------- Polyakov-Wiegmann functionals

def alpha_integral(g: FieldGrid, h: FieldGrid):
    """Integral over the torus of (g x h)*alpha = -Tr(g^-1 dg wedge dh h^-1)."""
    _check_same_axes(g, h)
    dg = g.derivative(0), g.derivative(1)
    dh = h.derivative(0), h.derivative(1)
    dens = np.empty(g.samples.shape[:-2], dtype=complex)
    for j in _slices(g):
        gi = inverse_planes(entries_first(g.samples[j]))
        hi = inverse_planes(entries_first(h.samples[j]))
        g1, g2 = (plane_product(gi, entries_first(d[j])) for d in dg)
        h1, h2 = (plane_product(entries_first(d[j]), hi) for d in dh)
        dens[j] = -(trace_product(g1, h2) - trace_product(g2, h1))
    total = integrate_grid(dens, list(g.axes))
    return float(np.real(total)), float(abs(np.imag(total)))


def beta_integral(g: FieldGrid, h: FieldGrid):
    """Integral over the torus of (g x h)*beta, the adjoint-product defect
    2-form: -Tr{ h(g^-1 dg)h^-1 (g^-1 dg) + g^-1 dg (h^-1 dh + dh h^-1) }."""
    _check_same_axes(g, h)
    dg = g.derivative(0), g.derivative(1)
    dh = h.derivative(0), h.derivative(1)
    dens = np.empty(g.samples.shape[:-2], dtype=complex)
    for j in _slices(g):
        gi = inverse_planes(entries_first(g.samples[j]))
        hs = entries_first(h.samples[j])
        hi = inverse_planes(hs)
        g1, g2 = (plane_product(gi, entries_first(d[j])) for d in dg)
        dh1, dh2 = (entries_first(d[j]) for d in dh)
        de1, de2 = (plane_product(hi, d) + plane_product(d, hi) for d in (dh1, dh2))
        hg1, hg2 = (plane_product(plane_product(hs, a), hi) for a in (g1, g2))
        term1 = trace_product(hg1, g2) - trace_product(hg2, g1)
        term2 = trace_product(g1, de2) - trace_product(g2, de1)
        dens[j] = -(term1 + term2)
    total = integrate_grid(dens, list(g.axes))
    return float(np.real(total)), float(abs(np.imag(total)))


def _action_of(fld: FieldGrid, ext: Optional[FieldGrid], label):
    if ext is not None:
        return wz_action_extension(ext).raw_action
    if fld.abelian_diagonal:
        return 0.0
    raise NotAnExtension(f"field {label} ({fld.name}) needs an explicit extension "
                         "unless it is a marked diagonal normal form")


def pw_functional(g: FieldGrid, h: FieldGrid, ext_g=None, ext_h=None, ext_gh=None):
    """PW[g,h] = S[gh] - S[g] - S[h] - (1/4 pi) int (g x h)*alpha.

    Vanishes mod 2 pi for simply connected groups; for U(N) on the torus the
    normal-form value is -pi (n_g m_h - m_g n_h), an anomaly when odd.
    """
    s_g = _action_of(g, ext_g, "g")
    s_h = _action_of(h, ext_h, "h")
    s_gh = _action_of(product_field(g, h), ext_gh, "gh")
    a_int, _ = alpha_integral(g, h)
    return s_gh - s_g - s_h - a_int / (4.0 * np.pi)


def apw_functional(g: FieldGrid, h: FieldGrid, ext_ghg=None, ext_h=None):
    """APW[g,h] = S[g h g^-1] - S[h] - (1/4 pi) int (g x h)*beta.

    Lands in 2 pi Z for any U(N) fields on the torus (no anomaly), and in
    4 pi Z when both fields are equivariant; normal forms give
    -2 pi (n_g m_h - m_g n_h) (doubled in the equivariant case).
    """
    s_h = _action_of(h, ext_h, "h")
    s_ghg = _action_of(conjugated_field(g, h), ext_ghg, "g h g^-1")
    b_int, _ = beta_integral(g, h)
    return s_ghg - s_h - b_int / (4.0 * np.pi)


def wz_derivative(g: FieldGrid, g_dot):
    """Rate of change of the action along a deformation with velocity g_dot:
    (1/4 pi) int Tr{ g^-1 g_dot (g^-1 dg)^2 }."""
    dot = g_dot.samples if isinstance(g_dot, FieldGrid) else g_dot
    dot = np.broadcast_to(dot, g.samples.shape)
    dg = g.derivative(0), g.derivative(1)
    dens = np.empty(g.samples.shape[:-2], dtype=complex)
    for j in _slices(g):
        gi = inverse_planes(entries_first(g.samples[j]))
        g1, g2 = (plane_product(gi, entries_first(d[j])) for d in dg)
        comm = plane_product(g1, g2) - plane_product(g2, g1)
        dens[j] = trace_product(plane_product(gi, entries_first(dot[j])), comm)
    total = integrate_grid(dens, list(g.axes))
    return float(np.real(total)) / (4.0 * np.pi)


# --------------------------------------------------- amplitudes of phi fields

def psi_field_from(p0, n_k):
    """psi(t) = exp(2 pi i t P0) on 16 t points, constant along the loop
    direction."""
    n_t = 16
    t_ax = unit_circle_axis(n_t)
    k_ax = loop_axis(n_k)
    eye = np.eye(p0.shape[0], dtype=complex)
    tphase = np.exp(TWO_PI * 1j * t_ax.points)
    psi_t = eye + (tphase[:, None, None] - 1.0) * p0[None]
    samples = np.broadcast_to(psi_t[:, None], (n_t, n_k) + p0.shape).copy()
    dt = np.broadcast_to((TWO_PI * 1j * tphase[:, None, None] * p0[None])[:, None],
                         samples.shape).copy()
    return FieldGrid(axes=(t_ax, k_ax), samples=samples, derivs={0: dt}, name="psi")


def wz_amplitude_phi(loop, method="reduced"):
    """Wess-Zumino amplitude of phi(t,k) = exp(2 pi i t P(k)), and its square
    root for a time-reversal symmetric frame.

    `loop` is a trivialized loop: either the TransportResult of a loop
    family, whose W trivializes it (base point -pi), or a time-reversal
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
        e0 = loop.e_samples[loop.n // 2]           # k = 0 sits mid-grid
        p0 = e0 @ linalg.dagger(e0)
        modulus = 4.0 * np.pi
        meta = {"frame_loop_integral": loop.analytic_loop_integral}
    elif isinstance(loop, TransportResult):
        w, dw = loop.w_samples[:-1], loop.w_derivatives[:-1]
        p0 = loop.p_samples[0]
        modulus = TWO_PI
        meta = {"m_eigenvalues": loop.m_eigenvalues}
    else:
        raise TypeError("the amplitude needs a TransportResult or a TRS BlochFrame")
    n = len(w)
    if method == "reduced":
        logd = linalg.dagger(w) @ dw
        integrand = np.trace(p0[None] @ logd, axis1=-2, axis2=-1)
        s_val = 1j * np.sum(integrand) * (TWO_PI / n)
        resid = float(abs(np.imag(s_val)))
        action = float(np.real(s_val))
    else:
        psi = psi_field_from(p0, n)
        w_field = FieldGrid(axes=psi.axes, name="W",
                            samples=np.broadcast_to(w[None], psi.samples.shape).copy())
        b_int, resid = beta_integral(w_field, psi)
        action = b_int / (4.0 * np.pi)
    return WZValue(raw_action=action, modulus=modulus, quad_residual=resid,
                   meta={"method": method, **meta})


def up_extension(family: ProjectorFamily, n_t=64, n1=64, n2=64, path="forward"):
    """Extension exp(i w(t) P(k)) = 1 + (e^{i w(t)} - 1) P(k) of U_P = 1 - 2P
    over [0,1] x T^2, as a ProjectorExtension: P on the n1 x n2 torus grid with
    its spectral torus derivatives, and the t factor.

    path selects the phase ramp w(t): "forward" pi t, "reverse" -pi t,
    "reparam" pi t (2 - t); all end at U_P, providing independent extensions
    whose actions differ by elements of 2 pi Z.
    """
    t_ax = interval_axis(n_t, 0.0, 1.0, name="t")
    k_ax = loop_axis(n1)
    k2_ax = loop_axis(n2)
    p = entries_first(family.sample(torus_points(k_ax, k2_ax)))
    t = t_ax.points
    omega = {"forward": np.pi * t, "reverse": -np.pi * t,
             "reparam": np.pi * t * (2.0 - t)}[path]
    domega = {"forward": np.pi * np.ones_like(t), "reverse": -np.pi * np.ones_like(t),
              "reparam": np.pi * (2.0 - 2.0 * t)}[path]
    phase = np.exp(1j * omega)
    return ProjectorExtension(axes=(t_ax, k_ax, k2_ax), p=p,
                              dp=(spectral_derivative(p, 2, k_ax),
                                  spectral_derivative(p, 3, k2_ax)),
                              f=phase - 1.0, df=1j * domega * phase,
                              name=f"U_P extension ({path})")


def phi_ebz_extension(family: ProjectorFamily, n_t=16, n1=64, n2=64):
    """Phi(t, k) = exp(2 pi i t P(k)) on S^1 x [0, pi] x T (axes t, k1, k2),
    as a ProjectorExtension with the exact d1 P of the projector family and
    the spectral d2 P."""
    t_ax = unit_circle_axis(n_t)
    k1_ax = ebz_axis(n1)
    k2_ax = loop_axis(n2)
    p, dp1 = map(entries_first, family.derivative(torus_points(k1_ax, k2_ax), 0))
    tphase = np.exp(TWO_PI * 1j * t_ax.points)
    return ProjectorExtension(axes=(t_ax, k1_ax, k2_ax), p=p,
                              dp=(dp1, spectral_derivative(p, 3, k2_ax)),
                              f=tphase - 1.0, df=TWO_PI * 1j * tphase,
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


def z2_ingredients(family: ProjectorFamily, theta: TRSOperator, n_loop=N_LOOP,
                   n1=N_2D // 2, n2=N_2D):
    """Build the boundary frames, their WZ values and the half-zone curvature
    shared by delta_invariant and kappa_invariant."""
    frames, values = {}, {}
    for label, k1 in (("T0", 0.0), ("Tpi", np.pi)):
        frames[label] = build_trs_frame(family.loop(0, k1), theta, n_grid=n_loop)
        values[label] = wz_amplitude_phi(frames[label])
    ebz = berry_curvature_ebz(family, n1=n1, n2=n2).integral()
    return Z2Ingredients(family=family, theta=theta, frames=frames, wz=values,
                         ebz_integral=ebz, grid=(n_loop, n1, n2))


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
    return snap_sign("Kappa", raw, meta=meta)
