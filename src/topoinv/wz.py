"""Wess-Zumino actions and amplitudes for U(N)-valued fields on tori, their
square roots for equivariant fields, Polyakov-Wiegmann functionals, winding
numbers, normal forms, and the Z2 invariant in its amplitude form.

A field lives on a FieldGrid (loop, torus, or interval x torus). Actions of
extended fields are quadratures of the pulled-back 3-form
(1/12 pi) Tr{(g^-1 dg)^3}. Every builder attaches the exact derivative
channel of each interval axis, and of each periodic axis where the closed
form is available; a periodic axis without one differentiates spectrally,
and an interval axis without one is refused, so every derivative along an
interval is exact. Diagonal phase fields carry the
unwinding convention: their action is zero mod 2 pi, which is what makes
Polyakov-Wiegmann values of winding fields computable.

Matrix products of fields (products, inverses, tube extensions and the
3-form density; an adjoint product g h g^-1 is the product of gh with g^-1)
run in blocks of torus slices of at most BLOCK_POINTS grid points, and the
product-functional densities on the whole field, in the entries-first
layout (N, N, *grid) of `linalg`, as N^3 multiply-adds over whole planes
instead of one small product per grid point; the projector family forms P
and dP with the same plane-product kernel. The fields these builders make
hold entries-first planes, so a block of them is read and written without a
copy, and each field keeps its WZ integral once it is computed.

The projector extensions exp(i w(t) P(k)) = 1 + (e^{i w(t)} - 1) P(k) of
U_P and Phi are rank-one in t, so they are ProjectorExtensions, built by
one builder: P and its torus derivatives on the 2D grid and the t factor
are stored, with P and the exact d1P from one `ProjectorFamily.derivative`
call and d2P spectral. Their 3-form density is a polynomial of degree 3 in
the conjugate t factor whose coefficients are four trace fields on the 2D
grid. Its integral contracts the t-axis Simpson weights with the four
t-factor columns first, so neither a t slice nor the density on the 3D
grid is formed.
"""

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Optional

import numpy as np

from . import linalg
from .berry import berry_curvature_ebz
from .config import DEFAULT_TOL, N_2D
from .core import ProjectorFamily, TRSOperator
from .errors import DimensionMismatch, NotAnExtension, NotTRSFrame
from .grids import (ebz_axis, integrate_grid, interval_axis, loop_axis, quad_weights,
                    spectral_derivative, torus_points, unit_circle_axis)
from .linalg import (entries_first, inverse_planes, matrices_last, plane_product,
                     trace_product)
from .models import fourier_planes
from .results import snap_integer, snap_sign
from .transport import BlochFrame, TransportResult, build_trs_frame

TWO_PI = 2.0 * np.pi
# Grid points per block of torus slices: a bound on every block temporary
# that still amortizes the per-call overhead of the plane products.
BLOCK_POINTS = 4096
# the two time-reversal invariant loops k1 = 0 and k1 = pi, by label
BOUNDARY_LOOPS = (("T0", 0.0), ("Tpi", np.pi))


@dataclass(frozen=True)
class FieldGrid:
    """U(N)-valued field sampled on a product grid.

    Periodic axes hold n samples over one period; interval axes hold n+1
    samples including both ends. `derivs[i]`, when present, is the exact
    derivative along axis i on the same grid; a periodic axis without one
    differentiates spectrally, and an interval axis must have one.

    The fields this module builds (`tube_extension`, and products and
    inverses through `_slicewise`, so also g h g^-1, the product of gh with
    g^-1) allocate entries-first planes (N, N, *grid) and hold `samples`
    and `derivs` as `matrices_last` views of them, so `entries_first` of a
    block of leading slices is a view. A field is a value and is never
    written in place, so its WZ integral is computed on the first request
    and kept.
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
        return spectral_derivative(self.samples, i, self.axes[i])

    def value(self, j):
        """Slice j of the leading axis, without derivative channels."""
        return self.samples[j]

    def triple_density(self):
        """3 Tr{A0 [A1, A2]} on a 3-axis grid, one block of leading-axis
        slices at a time (`_slices`), from the exact axis-0 channel."""
        if 0 not in self.derivs:
            raise NotAnExtension(f"{self.name or 'field'} has no exact derivative "
                                 "channel along its leading axis")
        dens = np.empty(tuple(len(ax.points) for ax in self.axes), dtype=complex)
        for block in _slices(dens.shape):
            dens[block] = _triple_density(self.samples[block],
                                          {i: d[block] for i, d in self.derivs.items()},
                                          self.axes)
        return dens

    def triple_integral(self):
        """The grid integral of `triple_density`, computed on the first call
        and kept on the field."""
        return self._triple_total

    @cached_property
    def _triple_total(self):
        return integrate_grid(self.triple_density(), list(self.axes))


@dataclass(frozen=True)
class ProjectorExtension:
    """The field g(t, k) = 1 + f(t) P(k) on a grid with axes (t, k1, k2),
    where f(t) = e^{i w(t)} - 1.

    Only P and its torus derivatives dp = (d1 P, d2 P) on the 2D grid, in
    the entries-first layout (N, N, n1, n2), and f, f' on the t axis are
    stored, so no array of matrices spans the 3D grid; `_projector_extension`
    builds them for U_P and Phi. The field is read through its t slice
    `value(j)`, for the end-0 check, and `triple_integral`, which contracts
    the t axis first. `samples` builds the full array each time it is read.
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

    def value(self, j):
        value = self.f[j] * self.p
        for a in range(self.dim):
            value[a, a] += 1.0
        return matrices_last(value)

    def _trace_fields(self):
        """The 2D trace fields T_n = sum_{a+b+c=n} Tr{U_a [V_b, W_c]},
        n = 0..3, with U = (P, P^+P), V = (d1P, P^+d1P), W = (d2P, P^+d2P):
        11 plane products whatever the number of t slices. Each commutator
        is folded into T_n before the next is formed, so one is alive at a
        time; taking them in the order (1,1), (0,1), (1,0), (0,0) adds the
        terms of every T_n in (a, b, c) order."""
        p_dag = inverse_planes(self.p)
        u, v, w = ((x, plane_product(p_dag, x)) for x in (self.p,) + self.dp)
        del p_dag
        t = np.zeros((4,) + self.p.shape[2:], dtype=complex)
        for b, c in ((1, 1), (0, 1), (1, 0), (0, 0)):
            comm = plane_product(v[b], w[c])
            comm -= plane_product(w[c], v[b])
            for a in (0, 1):
                t[a + b + c] += trace_product(u[a], comm)
        return t

    def triple_integral(self):
        """The grid integral of the density 3 Tr{A0 [A1, A2]}. With g^-1
        read as 1 + conj(f) P^+, A0 = f'(P + conj(f) P^+P) and
        A_i = f(d_iP + conj(f) P^+d_iP), so the density is
        3 f' f^2 sum_n conj(f)^n T_n(k), n = 0..3 (`_trace_fields`); no
        projector identity is used. The t-axis quadrature weights are
        contracted with the four t factors first, so the density on the 3D
        grid is never formed. A model whose exact d1P overflows gets a
        non-finite integral, which fails every check that reads it, so the
        overflow is not also warned about."""
        columns = ((3.0 * self.df * self.f ** 2)[:, None]
                   * np.conjugate(self.f)[:, None] ** np.arange(4))
        weights = quad_weights(self.axes[0]) @ columns
        with np.errstate(over="ignore", invalid="ignore"):
            return integrate_grid(np.tensordot(weights, self._trace_fields(), axes=1),
                                  list(self.axes[1:]))

    @property
    def samples(self):
        return (np.eye(self.dim, dtype=complex)
                + np.multiply.outer(self.f, matrices_last(self.p)))


def constant_field(axes, matrix):
    """The constant field with its exact zero derivative on every axis."""
    shape = tuple(ax.n if ax.periodic else ax.n + 1 for ax in axes)
    samples = np.broadcast_to(matrix, shape + matrix.shape).copy()
    return FieldGrid(axes=tuple(axes), samples=samples, name="constant",
                     derivs=dict.fromkeys(range(len(axes)), np.zeros_like(samples)))


def product_field(g: FieldGrid, h: FieldGrid):
    """Pointwise product gh; exact derivatives propagate by the Leibniz rule
    along axes where both factors carry them."""
    _check_same_axes(g, h)
    samples, derivs = _slicewise(_product_rule, sorted(set(g.derivs) & set(h.derivs)),
                                 g, h)
    return FieldGrid(axes=g.axes, samples=samples, derivs=derivs,
                     abelian_diagonal=g.abelian_diagonal and h.abelian_diagonal,
                     name=f"{g.name}*{h.name}")


def conjugated_field(g: FieldGrid, h: FieldGrid):
    """The pointwise adjoint product g h g^-1, built as the product of gh
    with g^-1."""
    return product_field(product_field(g, h), inverse_field(g))


def inverse_field(g: FieldGrid):
    samples, derivs = _slicewise(_inverse_rule, sorted(g.derivs), g)
    return FieldGrid(axes=g.axes, samples=samples, derivs=derivs,
                     abelian_diagonal=g.abelian_diagonal, name=f"{g.name}^-1")


def _product_rule(x, y, out):
    """The product of two entries-first (value, {axis: derivative}) blocks,
    by the Leibniz rule, written into the planes of `out`, a
    (value, {axis: derivative}) pair."""
    (xv, dx), (yv, dy) = x, y
    value, derivs = out
    plane_product(xv, yv, out=value)
    term = None
    for i in dx:
        plane_product(dx[i], yv, out=derivs[i])
        term = plane_product(xv, dy[i], out=term)
        derivs[i] += term


def _inverse_rule(x, out):
    """The inverse of an entries-first unitary (value, {axis: derivative})
    block, g^-1 = g^+ and d(g^-1) = -g^-1 dg g^-1, written into the planes
    of `out`."""
    (xv, dx), (xi, derivs) = x, out
    inverse_planes(xv, out=xi)
    term = None
    for i, d in dx.items():
        term = plane_product(xi, d, out=term)
        plane_product(term, xi, out=derivs[i])
        np.negative(derivs[i], out=derivs[i])


def _slicewise(rule, axes, *fields):
    """Samples and exact derivatives along `axes` of a pointwise function of
    fields, as `matrices_last` views of entries-first planes that are
    filled one block of torus slices at a time (`_slices`): `rule` maps the
    entries-first (value, {axis: derivative}) block of each field to the
    result's and writes it into the block of the planes passed as `out`."""
    grid = fields[0].samples.shape[:-2]
    planes = np.empty((fields[0].dim,) * 2 + grid, dtype=complex)
    dplanes = {i: np.empty_like(planes) for i in axes}
    for block in _slices(grid):
        at = (slice(None), slice(None)) + block
        rule(*[(entries_first(f.samples[block]),
                {i: entries_first(f.derivs[i][block]) for i in axes}) for f in fields],
             out=(planes[at], {i: d[at] for i, d in dplanes.items()}))
    return matrices_last(planes), {i: matrices_last(d) for i, d in dplanes.items()}


def _check_same_axes(g, h):
    if g.axes != h.axes:
        raise DimensionMismatch("fields live on different grids")
    if g.dim != h.dim:
        raise DimensionMismatch(f"field dimensions differ: {g.dim} vs {h.dim}")


# ----------------------------------------------------------------- winding

def winding(f: FieldGrid):
    """deg(det f) = (1/2 pi i) loop-integral of Tr{f^-1 df} for a loop field,
    snapped within DEFAULT_TOL.winding."""
    if f.n_axes != 1:
        raise DimensionMismatch("winding needs a loop field")
    integrand = np.einsum("...ab,...ab->...", np.conjugate(f.samples), f.derivative(0))
    total = integrate_grid(integrand, list(f.axes)) / (2j * np.pi)
    return snap_integer("Winding", total, snap_tol=DEFAULT_TOL.winding,
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
        raise DimensionMismatch(f"bad dimension {dim} for normal form (equivariant={equivariant})")
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

    raw_action keeps the computed representative, defined mod `modulus`:
    2 pi, or 4 pi for equivariant (square-root) channels, where
    sqrt_amplitude = exp(i raw_action / 2).
    """

    raw_action: float
    modulus: float
    quad_residual: float
    meta: dict = dc_field(default_factory=dict)

    @property
    def amplitude(self):
        return complex(np.exp(1j * self.raw_action))

    @property
    def sqrt_amplitude(self):
        if self.modulus < 2.5 * np.pi:
            raise ValueError("square root is only defined for the 4 pi channel")
        return complex(np.exp(0.5j * self.raw_action))


def _integral(dens, axes):
    """(real part, size of the imaginary part) of the grid integral of a
    density; for a unitary field the imaginary part is quadrature noise."""
    total = integrate_grid(dens, list(axes))
    return float(np.real(total)), float(abs(np.imag(total)))


def chi_triple_integral(g: FieldGrid):
    """Integral of Tr{(g^-1 dg)^3} over a 3-axis grid (no normalization).

    The 3-form evaluates to 3 Tr{A0 [A1, A2]} d^3x with A_i = g^-1 d_i g in
    the axis order of the grid. For a unitary field the result is real up to
    differencing noise; the size of its imaginary part is returned as well.

    Each field supplies the integral of its density, `g.triple_integral()`,
    with g^-1 = g^+ read as the conjugate-transposed planes. A FieldGrid
    evaluates the density one slice of the leading axis at a time, in the
    entries-first layout (N, N, n1, n2): an N x N product is then N^3
    multiply-adds over whole planes instead of one tiny product per grid
    point, whose per-matrix overhead would dominate, and no matrix temporary
    spans the whole grid. A ProjectorExtension 1 + f(t) P(k) builds four
    trace fields on the 2D grid, with 11 plane products whatever the number
    of t slices, and contracts the t axis before the torus quadrature.
    """
    if g.n_axes != 3:
        raise DimensionMismatch("triple integral needs a 3-axis field")
    total = g.triple_integral()
    return float(np.real(total)), float(abs(np.imag(total)))


def _triple_density(slab, derivs, axes):
    """3 Tr{A0 [A1, A2]} on a block of slices of the leading axis, from its
    samples and derivative channels; torus axes without a channel
    differentiate the block spectrally. Its temporaries are freed before the
    next block is produced."""
    slab = entries_first(slab)
    ginv = inverse_planes(slab)
    a1, a2 = (plane_product(ginv, entries_first(derivs[i]) if i in derivs
                            else spectral_derivative(slab, i + 2, axes[i])) for i in (1, 2))
    comm = plane_product(a1, a2)
    comm -= plane_product(a2, a1)
    return 3.0 * trace_product(plane_product(ginv, entries_first(derivs[0])), comm)


def _slices(grid):
    """Index tuples of the blocks of leading-axis slices of a grid of shape
    `grid`, each block at most BLOCK_POINTS points and at least one slice; a
    loop or torus grid is a single block, the whole grid."""
    if len(grid) < 3:
        yield ()
        return
    step = max(1, BLOCK_POINTS // math.prod(grid[1:]))
    for j in range(0, grid[0], step):
        yield (slice(j, j + step),)


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
    end0 = ext.value(0)
    const_resid = float(np.max(linalg.frob(end0 - end0[0, 0])))
    if (const_resid > DEFAULT_TOL.extension_end and not ext.abelian_diagonal
            and all(float(np.max(linalg.frob(end0 - end0.take([0], axis=axis))))
                    > DEFAULT_TOL.extension_end for axis in (0, 1))):
        raise NotAnExtension(f"end-0 slice is not constant (residual {const_resid:.2e}) "
                             "nor cylinder-degenerate nor a marked normal form")
    del end0  # only the slice's value was formed; it is freed before the integral
    raw, imag = chi_triple_integral(ext)
    return WZValue(raw_action=raw / (12.0 * np.pi), modulus=TWO_PI, quad_residual=imag,
                   meta={"end0_constant_residual": const_resid, "name": ext.name})


def tube_extension(base: FieldGrid, z_samples, n_s=32):
    """Extension along the homotopy s -> base * exp(s Z) for anti-Hermitian Z.

    The s=1 slice is the field of interest; the s=0 slice is `base`, which
    must itself be constant or a diagonal normal form. The s-derivative is
    exact: d/ds [base e^{sZ}] = (base e^{sZ}) Z. One eigensystem of Z serves
    every s; the samples and the s-channel are entries-first planes, filled
    one block of s slices at a time (`_slices`).
    """
    if base.n_axes != 2:
        raise DimensionMismatch("tube base must live on a 2-axis grid")
    s_ax = interval_axis(n_s, 0.0, 1.0, name="s")
    z_samples = np.broadcast_to(z_samples, base.samples.shape)
    w, v = np.linalg.eigh(-1j * z_samples)
    w = np.moveaxis(w, -1, 0)[:, None]
    v = entries_first(v)
    vi = inverse_planes(v)[:, :, None]
    b, z = (entries_first(x)[:, :, None] for x in (base.samples, z_samples))
    planes = np.empty((base.dim,) * 2 + (n_s + 1,) + base.samples.shape[:-2], dtype=complex)
    ds = np.empty_like(planes)
    for block in _slices(planes.shape[2:]):
        at = (slice(None), slice(None)) + block
        s = s_ax.points[block][:, None, None]
        rotation = plane_product(v[:, :, None] * np.exp(1j * s * w), vi)
        plane_product(b, rotation, out=planes[at])
        plane_product(planes[at], z, out=ds[at])
    return FieldGrid(axes=(s_ax,) + base.axes, samples=matrices_last(planes),
                     derivs={0: matrices_last(ds)},
                     abelian_diagonal=base.abelian_diagonal,
                     name=f"tube({base.name})")


def random_hermitian_field(axes, dim, seed, bandwidth=2, scale=0.35):
    """Smooth random Hermitian field from a few Fourier modes per axis."""
    rng = np.random.default_rng(seed)
    terms = []
    for p in range(-bandwidth, bandwidth + 1):
        for q in range(-bandwidth, bandwidth + 1):
            if (p, q) < (0, 0):
                continue  # partner added via Hermitian conjugation
            c = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            c *= scale / (1.0 + p * p + q * q)
            terms += [(c, (p, q)), (linalg.dagger(c), (-p, -q))]
    h, = fourier_planes(terms, torus_points(*axes))
    return matrices_last(0.5 * (h + inverse_planes(h)))


# ------------------------------------------- Polyakov-Wiegmann functionals

def alpha_integral(g: FieldGrid, h: FieldGrid):
    """Integral over the torus of (g x h)*alpha = -Tr(g^-1 dg wedge dh h^-1)."""
    _check_same_axes(g, h)
    gi = inverse_planes(entries_first(g.samples))
    hi = inverse_planes(entries_first(h.samples))
    g1, g2 = (plane_product(gi, entries_first(g.derivative(i))) for i in (0, 1))
    h1, h2 = (plane_product(entries_first(h.derivative(i)), hi) for i in (0, 1))
    return _integral(-(trace_product(g1, h2) - trace_product(g2, h1)), g.axes)


def beta_integral(g: FieldGrid, h: FieldGrid):
    """Integral over the torus of (g x h)*beta, the adjoint-product defect
    2-form: -Tr{ h(g^-1 dg)h^-1 (g^-1 dg) + g^-1 dg (h^-1 dh + dh h^-1) }."""
    _check_same_axes(g, h)
    gi = inverse_planes(entries_first(g.samples))
    hs = entries_first(h.samples)
    hi = inverse_planes(hs)
    g1, g2 = (plane_product(gi, entries_first(g.derivative(i))) for i in (0, 1))
    de1, de2 = (plane_product(hi, d) + plane_product(d, hi)
                for d in (entries_first(h.derivative(i)) for i in (0, 1)))
    hg1, hg2 = (plane_product(plane_product(hs, a), hi) for a in (g1, g2))
    term1 = trace_product(hg1, g2) - trace_product(hg2, g1)
    term2 = trace_product(g1, de2) - trace_product(g2, de1)
    return _integral(-(term1 + term2), g.axes)


def _action_of(ext: Optional[FieldGrid], abelian_diagonal, label):
    if ext is not None:
        return wz_action_extension(ext).raw_action
    if abelian_diagonal:
        return 0.0
    raise NotAnExtension(f"field {label} needs an explicit extension "
                         "unless it is a marked diagonal normal form")


def pw_functional(g: FieldGrid, h: FieldGrid, ext_g=None, ext_h=None, ext_gh=None):
    """PW[g,h] = S[gh] - S[g] - S[h] - (1/4 pi) int (g x h)*alpha.

    Vanishes mod 2 pi for simply connected groups; for U(N) on the torus the
    normal-form value is -pi (n_g m_h - m_g n_h), an anomaly when odd.
    """
    s_g = _action_of(ext_g, g.abelian_diagonal, f"g ({g.name})")
    s_h = _action_of(ext_h, h.abelian_diagonal, f"h ({h.name})")
    s_gh = _action_of(ext_gh, g.abelian_diagonal and h.abelian_diagonal,  # product_field's flag
                      f"gh ({g.name}*{h.name})")
    a_int, _ = alpha_integral(g, h)
    return s_gh - s_g - s_h - a_int / (4.0 * np.pi)


def apw_functional(g: FieldGrid, h: FieldGrid, ext_ghg=None, ext_h=None):
    """APW[g,h] = S[g h g^-1] - S[h] - (1/4 pi) int (g x h)*beta.

    Lands in 2 pi Z for any U(N) fields on the torus (no anomaly), and in
    4 pi Z when both fields are equivariant; normal forms give
    -2 pi (n_g m_h - m_g n_h) (doubled in the equivariant case).
    """
    s_h = _action_of(ext_h, h.abelian_diagonal, f"h ({h.name})")
    ghg = conjugated_field(g, h)  # only its flag is read; perfbench times this span
    s_ghg = _action_of(ext_ghg, ghg.abelian_diagonal, f"g h g^-1 ({ghg.name})")
    b_int, _ = beta_integral(g, h)
    return s_ghg - s_h - b_int / (4.0 * np.pi)


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
        dw = spectral_derivative(w, 0, loop_axis(len(w)))
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
    if method not in ("reduced", "beta"):
        raise ValueError(f"method must be 'reduced' or 'beta', got {method!r}")
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


def _projector_extension(family: ProjectorFamily, t_ax, k1_ax, n2, phase, dphase, name):
    """The ProjectorExtension 1 + (phase(t) - 1) P(k) on t_ax x k1_ax x T,
    with n2 points on T: P and the exact d1 P from one
    `family.derivative` call, which reads a kept eigensystem when the grid
    has one, and the spectral d2 P."""
    k2_ax = loop_axis(n2)
    p, dp1 = map(entries_first, family.derivative(torus_points(k1_ax, k2_ax), 0))
    return ProjectorExtension(axes=(t_ax, k1_ax, k2_ax), p=p,
                              dp=(dp1, spectral_derivative(p, 3, k2_ax)),
                              f=phase - 1.0, df=dphase, name=name)


def up_extension(family: ProjectorFamily, n_t=64, n1=64, n2=64, path="forward"):
    """Extension exp(i w(t) P(k)) = 1 + (e^{i w(t)} - 1) P(k) of U_P = 1 - 2P
    over [0,1] x T^2, as a ProjectorExtension: P on the n1 x n2 torus grid
    with its exact d1 P from the projector family and its spectral d2 P,
    and the t factor.

    path selects the phase ramp w(t): "forward" pi t, "reverse" -pi t,
    "reparam" pi t (2 - t); all end at U_P, providing independent extensions
    whose actions differ by elements of 2 pi Z.
    """
    t_ax = interval_axis(n_t, 0.0, 1.0, name="t")
    t = t_ax.points
    ramps = {"forward": (np.pi * t, np.pi * np.ones_like(t)),
             "reverse": (-np.pi * t, -np.pi * np.ones_like(t)),
             "reparam": (np.pi * t * (2.0 - t), np.pi * (2.0 - 2.0 * t))}
    if path not in ramps:
        raise ValueError(f"path must be one of {sorted(ramps)}, got {path!r}")
    omega, domega = ramps[path]
    phase = np.exp(1j * omega)
    return _projector_extension(family, t_ax, loop_axis(n1), n2, phase,
                                1j * domega * phase, f"U_P extension ({path})")


def phi_ebz_extension(family: ProjectorFamily, n_t=16, n1=64, n2=64):
    """Phi(t, k) = exp(2 pi i t P(k)) on S^1 x [0, pi] x T (axes t, k1, k2),
    as a ProjectorExtension with the exact d1 P of the projector family and
    the spectral d2 P."""
    t_ax = unit_circle_axis(n_t)
    tphase = np.exp(TWO_PI * 1j * t_ax.points)
    return _projector_extension(family, t_ax, ebz_axis(n1), n2, tphase,
                                TWO_PI * 1j * tphase, "Phi on S1 x EBZ")


@dataclass(frozen=True)
class Z2Ingredients:
    """What both forms of the Z2 invariant are built from, each computed once:
    a time-reversal symmetric frame with W on each boundary loop (k1 = 0 and
    pi, keys "T0" and "Tpi"), the square-root WZ value of phi on it, and the
    integral of the curvature over the half zone [0, pi] x T."""

    family: ProjectorFamily
    frames: dict
    wz: dict
    ebz_integral: float
    grid: tuple                   # (n1, n2) of the half zone


def z2_ingredients(family: ProjectorFamily, theta: TRSOperator, n1=N_2D // 2, n2=N_2D):
    """Build the boundary frames, their WZ values and the half-zone curvature
    shared by delta_invariant and kappa_invariant: the half zone on
    (n1 + 1) x n2 points, each boundary loop on 2 * n2."""
    frames, values = {}, {}
    for label, k1 in BOUNDARY_LOOPS:
        frames[label] = build_trs_frame(family.loop(0, k1), theta, n_grid=2 * n2)
        values[label] = wz_amplitude_phi(frames[label])
    ebz = berry_curvature_ebz(family, n1=n1, n2=n2).integral()
    return Z2Ingredients(family=family, frames=frames, wz=values,
                         ebz_integral=ebz, grid=(n1, n2))


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
