"""Berry connection, phase (and its time-reversal square root), curvature,
Chern number, and the boundary-minus-bulk Z2 obstruction invariant.

Connections come from Bloch frames either through the exact channel every
frame construction and gauge transform records or by spectral
differentiation of the frame samples; both paths are kept and
cross-checked. The curvature takes the TKNN/Kubo form
Omega = 2 Im sum_{o occ, e empty} (X_1)_oe conj((X_2)_oe) on the interband
blocks of the projector family (`ProjectorFamily.interband`), so it is real
by construction and forms no N x N derivative plane. Quadratures are
periodic trapezoid (spectrally accurate on smooth periodic data) with
composite Simpson along the half-zone direction.
"""

from dataclasses import dataclass

import numpy as np

from . import lattice, linalg
from .config import N_2D
from .core import ProjectorFamily, TRSOperator
from .errors import DimensionMismatch, NotTRSFrame
from .grids import ebz_axis, integrate_grid, loop_axis, spectral_derivative, torus_points
from .models import fourier_planes
from .results import snap_integer, snap_unit
# build_trs_frame stays bound here: perfbench/selfcheck.py checks this binding
from .transport import BlochFrame, build_trs_frame  # noqa: F401

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class ConnectionSamples:
    """The connection coefficient A(k) of a frame along its loop."""

    ks: np.ndarray
    a_values: np.ndarray          # real samples
    loop_integral: float
    imag_max: float               # imaginary contamination before discarding
    frame: BlochFrame
    method: str


def berry_connection(frame: BlochFrame, method="analytic"):
    """Connection samples A(k) = -i sum_a <e_a, d e_a> along the frame's loop.

    method: "analytic" uses the exact channel the frame construction
    recorded; "spectral" differentiates the frame samples by FFT.
    """
    if method not in ("analytic", "spectral"):
        raise ValueError(f"method must be 'analytic' or 'spectral', got {method!r}")
    if method == "analytic":
        return ConnectionSamples(ks=frame.ks, a_values=np.asarray(frame.analytic_a),
                                 loop_integral=float(frame.analytic_loop_integral),
                                 imag_max=0.0, frame=frame, method="analytic")
    ax = loop_axis(frame.n)
    de = spectral_derivative(frame.e_samples, 0, ax)
    a = -1j * np.einsum("kna,kna->k", np.conjugate(frame.e_samples), de)
    imag_max = float(np.max(np.abs(a.imag)))
    a = a.real
    return ConnectionSamples(ks=frame.ks, a_values=a,
                             loop_integral=float(np.sum(a) * ax.step),
                             imag_max=imag_max, frame=frame, method="spectral")


def berry_phase(conn: ConnectionSamples):
    """The loop exponential exp(-i loop-integral of A).

    The gauge-invariant link-variable value of the lattice oracle
    (`lattice.overlap_loop_integral`) is computed from the same frame and the
    discrepancy recorded in meta ("oracle_discrepancy"); a mismatch flags
    frame problems.
    """
    raw = np.exp(-1j * conn.loop_integral)
    oracle = np.exp(-1j * lattice.overlap_loop_integral(conn.frame.e_samples))
    return snap_unit("BerryPhase", raw,
                     meta={"loop_integral": conn.loop_integral, "method": conn.method,
                           "imag_max": conn.imag_max,
                           "oracle_discrepancy": float(abs(raw - oracle))})


def berry_phase_sqrt(conn: ConnectionSamples):
    """exp(-i/2 loop-integral of A) computed from a time-reversal symmetric
    frame; well defined because symmetric re-gaugings shift the integral by
    multiples of 4 pi."""
    if not conn.frame.trs_flag:
        raise NotTRSFrame("square root of the Berry phase needs a TRS frame")
    raw = np.exp(-0.5j * conn.loop_integral)
    return snap_unit("SqrtBerryPhase", raw,
                     meta={"loop_integral": conn.loop_integral, "method": conn.method})


# ------------------------------------------------------------- curvature

@dataclass(frozen=True)
class CurvatureField:
    """Berry curvature coefficient on a 2D grid, F = Omega dk1 ^ dk2."""

    axes: tuple                   # (Axis, Axis)
    omega: np.ndarray             # real (n1[, +1], n2)
    family: ProjectorFamily

    def integral(self):
        return float(integrate_grid(self.omega, list(self.axes)))


def _omega_on(family: ProjectorFamily, ks):
    """Omega = 2 Im Tr{ X_1 X_2^+ } at the points ks, from the family's
    interband blocks X_a = V_o^+ d_aH V_e / (e_o - e_e): the TKNN/Kubo form
    (Thouless, Kohmoto, Nightingale, den Nijs, PRL 49, 405 (1982); Xiao,
    Chang, Niu, RMP 82, 1959 (2010)) of -i Tr{ P [d1 P, d2 P] }, with no
    N x N plane of dP formed. A model whose block products overflow gets a
    non-finite Omega, which never snaps, so the overflow is not also warned
    about."""
    _, (x1, x2) = family.interband(ks, (0, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        return 2.0 * linalg.trace_product(x1, linalg.inverse_planes(x2)).imag


def berry_curvature(family: ProjectorFamily, n_grid=N_2D):
    """Omega(k) = 2 Im Tr{ X_1 X_2^+ } on the full torus grid."""
    ax = loop_axis(n_grid)
    return CurvatureField(axes=(ax, ax), omega=_omega_on(family, torus_points(ax, ax)),
                          family=family)


def berry_curvature_ebz(family: ProjectorFamily, n1=N_2D // 2, n2=N_2D):
    """Curvature on the half zone [0, pi] x T (k1 inclusive of both ends)."""
    ax1 = ebz_axis(n1)
    ax2 = loop_axis(n2)
    return CurvatureField(axes=(ax1, ax2), omega=_omega_on(family, torus_points(ax1, ax2)),
                          family=family)


def chern_number(curvature: CurvatureField):
    """C = (1/2 pi) integral of the curvature over the torus, snapped."""
    raw = curvature.integral() / TWO_PI
    return snap_integer("Chern", raw,
                        meta={"grid": tuple(ax.n for ax in curvature.axes)})


def delta_invariant(z2):
    """Z2 obstruction: boundary connection integrals minus the half-zone
    curvature integral, snapped to an integer and reduced mod 2.

    delta_raw = [ (loop A at k1=pi) - (loop A at k1=0) - int_EBZ Omega ] / 2 pi

    with both loop connections computed from the time-reversal symmetric
    frames of `z2` (wz.z2_ingredients; loops oriented by increasing k2, half
    zone k1 in [0, pi]).
    """
    loops = {label: berry_connection(frame).loop_integral
             for label, frame in z2.frames.items()}
    ebz = z2.ebz_integral
    raw = (loops["Tpi"] - loops["T0"] - ebz) / TWO_PI
    return snap_integer("Delta", raw, modulus=2,
                        meta={"loop_A_T0": loops["T0"], "loop_A_Tpi": loops["Tpi"],
                              "ebz_curvature_integral": ebz, "grid": z2.grid})


# ------------------------------------------------------------- gauges

@dataclass(frozen=True)
class GaugeField:
    """m x m unitary gauge on a loop grid with its exact logarithmic
    derivative u^-1 du/dk, optionally time-reversal symmetric
    (u(-k) = Theta(u(k)) on C^m)."""

    ks: np.ndarray
    u_samples: np.ndarray         # (n, m, m)
    trs_flag: bool
    log_derivative: np.ndarray    # (n, m, m)

    @property
    def n(self):
        return len(self.ks)

    @property
    def rank(self):
        return self.u_samples.shape[-1]


def gauge_transform(frame: BlochFrame, gauge: GaugeField):
    """Change of Bloch frame e'_b = sum_a e_a u_ab.

    The exact connection channel transforms as A' = A - i tr(u^-1 du), from
    the gauge's logarithmic derivative.
    """
    if gauge.rank != frame.rank or gauge.n != frame.n:
        raise DimensionMismatch(
            f"gauge ({gauge.n},{gauge.rank}) does not match frame ({frame.n},{frame.rank})")
    e = frame.e_samples @ gauge.u_samples
    tr_log = np.trace(gauge.log_derivative, axis1=-2, axis2=-1)
    analytic_a = (frame.analytic_a - 1j * tr_log).real
    analytic_int = float(np.sum(analytic_a) * (TWO_PI / frame.n))
    trs = bool(frame.trs_flag and gauge.trs_flag)
    return BlochFrame(ks=frame.ks, e_samples=e, trs_flag=trs, family=frame.family,
                      seam_residual=frame.seam_residual, analytic_a=analytic_a,
                      analytic_loop_integral=analytic_int, w_samples=None,
                      theta=frame.theta)


def _fourier_hermitian(rng, ks, m, scale):
    """Random Hermitian field H(k) on the loop points ks and its exact
    derivative dH/dk: Fourier modes up to 3 with amplitudes scale / (1 + p)."""
    terms = []
    for p in range(4):
        c = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) * (scale / (1 + p))
        terms += [(c, (p, 0)), (c.conj().T, (-p, 0))]
    # the k2 = 0 line as an n x 1 product grid, whose extra axis is dropped
    points = np.stack([ks, np.zeros_like(ks)], axis=-1)[:, None]
    return tuple(linalg.matrices_last(x)[:, 0] for x in fourier_planes(terms, points, (None, 0)))


def random_gauge(n_points, m, seed):
    """Random smooth periodic gauge u = exp(iH(k)) with exact log-derivative;
    H has Fourier modes up to 3 with amplitudes 0.25 / (1 + p). The whole
    loop takes one batched eigendecomposition of H."""
    ks = loop_axis(n_points).points
    h, hp = _fourier_hermitian(np.random.default_rng(seed), ks, m, 0.25)
    u, du = linalg.expi_hermitian_frechet(h, hp)
    return GaugeField(ks=ks, u_samples=u, trs_flag=False,
                      log_derivative=linalg.dagger(u) @ du)


def random_trs_gauge(n_points, m, seed, scale=0.4, winding=None):
    """Random smooth time-reversal symmetric gauge with even det winding.

    u = diag(e^{iwk}, e^{iwk}, 1, ...) exp(Z(k)): Z is random_gauge's iH
    (amplitudes scale / (1 + p)) symmetrized to Z(-k) = Theta(Z(k)), and the
    symmetric winding factor adds det winding 2w (w drawn from -2..2 unless
    given). One batched eigendecomposition of -iZ gives exp(Z) and its exact
    derivative along d(-iZ)/dk = the symmetrized dH/dk. Rank m must be even.
    """
    theta = TRSOperator.standard(m)
    rng = np.random.default_rng(seed)
    ks = loop_axis(n_points).points
    h, hp = _fourier_hermitian(rng, ks, m, scale)
    if winding is None:
        winding = int(rng.integers(-2, 3))
    u, du = linalg.expi_hermitian_frechet(-1j * theta.symmetrize(1j * h, 1),
                                          theta.symmetrize(hp, 1))
    pair = np.arange(m) < 2
    # (D u)^-1 d(D u) = u^-1 (du + D^-1 dD u) with D^-1 dD = i w diag(1, 1, 0, ...)
    logd = linalg.dagger(u) @ (du + 1j * winding * pair[:, None] * u)
    d = np.exp(1j * winding * np.multiply.outer(ks, pair))
    return GaugeField(ks=ks, u_samples=d[..., None] * u, trs_flag=True, log_derivative=logd)
