"""Berry connection, phase (and its time-reversal square root), curvature,
Chern number, and the boundary-minus-bulk Z2 obstruction invariant.

Connections come from Bloch frames either through the exact channels the
frame constructions record or by spectral differentiation of the frame
samples; both paths are kept and cross-checked. Quadratures are periodic
trapezoid (spectrally accurate on smooth periodic data) with composite
Simpson along the half-zone direction.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .config import DEFAULT_TOL, N_2D
from .core import ProjectorFamily, TRSOperator
from .errors import DimensionMismatch, NotTRSFrame
from .grids import (Axis, ebz_axis, integrate_grid, loop_axis, reflect,
                    spectral_derivative, torus_points)
from .results import snap_integer, snap_unit
# build_trs_frame stays bound here: perfbench/selfcheck.py checks this binding
from .transport import (BlochFrame, _occupied_basis, _segment_transport,  # noqa: F401
                        build_trs_frame)

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

    @property
    def n(self):
        return len(self.ks)


def _overlap_product_phase(e_samples):
    """Total phase of the loop product of frame-overlap determinants.

    Gauge invariant; the link sum converges to the loop integral of A at
    second order, so Richardson over grid halving upgrades it to fourth.
    """
    nxt = np.roll(e_samples, -1, axis=0)
    links = np.linalg.det(linalg.dagger(e_samples) @ nxt)
    return float(np.sum(np.angle(links)))


def overlap_loop_integral(frame: BlochFrame):
    """Loop integral of A by the link-variable method, Richardson improved."""
    full = _overlap_product_phase(frame.e_samples)
    halved = _overlap_product_phase(frame.e_samples[::2])
    halved += TWO_PI * round((full - halved) / TWO_PI)
    return (4.0 * full - halved) / 3.0


def berry_connection(frame: BlochFrame, method="auto"):
    """Connection samples A(k) = -i sum_a <e_a, d e_a> along the frame's loop.

    method: "analytic" uses the exact channel the frame construction
    recorded; "spectral" differentiates the frame samples by FFT; "auto"
    prefers analytic when present.
    """
    if method == "auto":
        method = "analytic" if frame.analytic_a is not None else "spectral"
    if method == "analytic":
        if frame.analytic_a is None:
            raise ValueError("frame carries no analytic connection channel")
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

    The gauge-invariant link-variable value is computed from the same frame
    and the discrepancy recorded in meta ("oracle_discrepancy"); a mismatch
    flags frame problems.
    """
    raw = np.exp(-1j * conn.loop_integral)
    oracle = np.exp(-1j * overlap_loop_integral(conn.frame))
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
    imag_max: float
    family: ProjectorFamily

    def integral(self):
        return float(integrate_grid(self.omega, list(self.axes)))

    def odd_symmetry_residual(self):
        """max |Omega(k) + Omega(-k)|; zero for time-reversal symmetric
        families. Needs the full-torus (periodic x periodic) grid."""
        ax1, ax2 = self.axes
        if not (ax1.periodic and ax2.periodic):
            raise ValueError("odd-symmetry check needs the full torus grid")
        return float(np.max(np.abs(self.omega + reflect(self.omega, 2))))


def _omega_on(family: ProjectorFamily, ks):
    """-i Tr{ P [d1 P, d2 P] } at the points ks, on the planes under the
    family's (..., N, N) views of P and its derivatives."""
    p, (d1, d2) = family.derivative(ks, (0, 1))
    p, d1, d2 = (linalg.entries_first(x) for x in (p, d1, d2))
    comm = linalg.plane_product(d1, d2)
    comm -= linalg.plane_product(d2, d1)
    omega = -1j * linalg.trace_product(p, comm)
    return omega.real, float(np.max(np.abs(omega.imag)))


def berry_curvature(family: ProjectorFamily, n_grid=N_2D):
    """Omega(k) = -i Tr{ P [d1 P, d2 P] } on the full torus grid."""
    ax = loop_axis(n_grid)
    omega, imag_max = _omega_on(family, torus_points(ax, ax))
    return CurvatureField(axes=(ax, ax), omega=omega, imag_max=imag_max, family=family)


def berry_curvature_ebz(family: ProjectorFamily, n1=N_2D // 2, n2=N_2D):
    """Curvature on the half zone [0, pi] x T (k1 inclusive of both ends)."""
    ax1 = ebz_axis(n1)
    ax2 = loop_axis(n2)
    omega, imag_max = _omega_on(family, torus_points(ax1, ax2))
    return CurvatureField(axes=(ax1, ax2), omega=omega, imag_max=imag_max, family=family)


def chern_number(curvature: CurvatureField):
    """C = (1/2 pi) integral of the curvature over the torus, snapped."""
    raw = curvature.integral() / TWO_PI
    return snap_integer("Chern", raw,
                        meta={"imag_max": curvature.imag_max,
                              "grid": tuple(ax.n for ax in curvature.axes)})


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
    """m x m unitary gauge on a loop grid, optionally time-reversal symmetric
    (u(-k) = Theta(u(k)) on C^m). When built by the generators here, the
    exact logarithmic derivative u^-1 du/dk is carried along."""

    ks: np.ndarray
    u_samples: np.ndarray                      # (n, m, m)
    trs_flag: bool = False
    log_derivative: Optional[np.ndarray] = None  # (n, m, m)

    @property
    def n(self):
        return len(self.ks)

    @property
    def rank(self):
        return self.u_samples.shape[-1]

    def validate(self):
        uni = float(np.max(linalg.unitarity_residual(self.u_samples)))
        report = {"unitarity": uni, "ok": uni <= 1e-10}
        if self.trs_flag:
            trs = TRSOperator.standard(self.rank).residual(self.u_samples, 1)
            report["trs"] = trs
            report["ok"] = report["ok"] and trs <= DEFAULT_TOL.trs
        return report


def gauge_transform(frame: BlochFrame, gauge: GaugeField):
    """Change of Bloch frame e'_b = sum_a e_a u_ab.

    The exact connection channel transforms as A' = A - i tr(u^-1 du) when
    the gauge carries its logarithmic derivative; otherwise the transformed
    frame only supports the spectral path.
    """
    if gauge.rank != frame.rank or gauge.n != frame.n:
        raise DimensionMismatch(
            f"gauge ({gauge.n},{gauge.rank}) does not match frame ({frame.n},{frame.rank})")
    e = frame.e_samples @ gauge.u_samples
    analytic_a = None
    analytic_int = None
    if frame.analytic_a is not None and gauge.log_derivative is not None:
        tr_log = np.trace(gauge.log_derivative, axis1=-2, axis2=-1)
        a = frame.analytic_a - 1j * tr_log
        analytic_a = a.real
        analytic_int = float(np.sum(analytic_a) * (TWO_PI / frame.n))
    trs = bool(frame.trs_flag and gauge.trs_flag)
    return BlochFrame(ks=frame.ks, e_samples=e, trs_flag=trs, family=frame.family,
                      seam_residual=frame.seam_residual, analytic_a=analytic_a,
                      analytic_loop_integral=analytic_int, w_samples=None,
                      theta=frame.theta)


def _fourier_hermitian(rng, ks, m, scale):
    """Random Hermitian field H(k) on the loop points ks and its exact
    derivative dH/dk: Fourier modes up to 3 with amplitudes scale / (1 + p)."""
    c = [(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) * (scale / (1 + p))
         for p in range(4)]
    h = np.broadcast_to(c[0] + c[0].conj().T, (len(ks), m, m))
    hp = np.zeros((len(ks), m, m), dtype=complex)
    for p in range(1, 4):
        ph = np.exp(1j * p * ks)[:, None, None]
        h = h + ph * c[p] + np.conjugate(ph) * c[p].conj().T
        hp = hp + 1j * p * (ph * c[p] - np.conjugate(ph) * c[p].conj().T)
    return h, hp


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


def holonomy_flux_check(family: ProjectorFamily, corner, widths, n_edge=256):
    """Stokes check on a subrectangle: the phase of the boundary holonomy
    determinant equals the curvature integral over the rectangle (mod 2 pi).

    Returns (boundary_phase, flux_integral, discrepancy mod 2 pi). Uses
    parallel transport along the four edges; gauge invariant, no frame
    needed.
    """
    (a1, a2), (w1, w2) = corner, widths
    corners = [np.array([a1, a2]), np.array([a1 + w1, a2]),
               np.array([a1 + w1, a2 + w2]), np.array([a1, a2 + w2])]
    t_loop = np.eye(family.ambient_dim, dtype=complex)
    for i in range(4):
        start, stop = corners[i], corners[(i + 1) % 4]
        edge = family.restrict(start, stop - start, f"{family.name}[edge {i}]")
        _, t, _, _, _, _ = _segment_transport(edge, 0.0, 1.0, n_edge)
        t_loop = t[-1] @ t_loop
    b = _occupied_basis(family(corners[0]))
    hol = linalg.dagger(b) @ t_loop @ b
    boundary_phase = float(np.angle(np.linalg.det(hol)))
    ax1 = Axis("k1", a1, w1, n_edge, periodic=False)
    ax2 = Axis("k2", a2, w2, n_edge, periodic=False)
    omega, _ = _omega_on(family, torus_points(ax1, ax2))
    flux = float(integrate_grid(omega, [ax1, ax2]))
    diff = (boundary_phase + flux + np.pi) % TWO_PI - np.pi
    return boundary_phase, flux, float(abs(diff))
