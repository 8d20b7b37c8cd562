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
import scipy.linalg

from . import linalg
from .config import DEFAULT_TOL, N_2D, Tolerances
from .core import ProjectorFamily
from .errors import DimensionMismatch, NotTRSFrame
from .grids import Axis, ebz_axis, integrate_grid, loop_axis, spectral_derivative
from .results import snap_integer, snap_unit
# build_trs_frame stays bound here: perfbench/selfcheck.py checks this binding
from .transport import (BlochFrame, build_trs_frame, smooth_ramp,  # noqa: F401
                        smooth_ramp_derivative)

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


def berry_phase(conn: ConnectionSamples, snap_tol=DEFAULT_TOL.snap,
                cross_check=True):
    """The loop exponential exp(-i loop-integral of A).

    With cross_check, the gauge-invariant link-variable value is computed
    from the same frame and the discrepancy recorded in meta
    ("oracle_discrepancy"); a mismatch flags frame problems.
    """
    raw = np.exp(-1j * conn.loop_integral)
    meta = {"loop_integral": conn.loop_integral, "method": conn.method,
            "imag_max": conn.imag_max}
    if cross_check:
        oracle = np.exp(-1j * overlap_loop_integral(conn.frame))
        meta["oracle_discrepancy"] = float(abs(raw - oracle))
    return snap_unit("BerryPhase", raw, snap_tol=snap_tol, meta=meta)


def berry_phase_sqrt(conn: ConnectionSamples, snap_tol=DEFAULT_TOL.snap):
    """exp(-i/2 loop-integral of A) computed from a time-reversal symmetric
    frame; well defined because symmetric re-gaugings shift the integral by
    multiples of 4 pi."""
    if not conn.frame.trs_flag:
        raise NotTRSFrame("square root of the Berry phase needs a TRS frame")
    raw = np.exp(-0.5j * conn.loop_integral)
    return snap_unit("SqrtBerryPhase", raw, snap_tol=snap_tol,
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
        flipped = self.omega[(-np.arange(ax1.n)) % ax1.n][:, (-np.arange(ax2.n)) % ax2.n]
        return float(np.max(np.abs(self.omega + flipped)))


def _omega_on(family: ProjectorFamily, ks):
    p = family.sample(ks)
    d1 = family.derivative(ks, 0)
    d2 = family.derivative(ks, 1)
    comm = d1 @ d2 - d2 @ d1
    tr = np.trace(p @ comm, axis1=-2, axis2=-1)
    omega = -1j * tr
    return omega.real, float(np.max(np.abs(omega.imag)))


def berry_curvature(family: ProjectorFamily, n_grid=N_2D):
    """Omega(k) = -i Tr{ P [d1 P, d2 P] } on the full torus grid."""
    ax = loop_axis(n_grid)
    k1, k2 = np.meshgrid(ax.points, ax.points, indexing="ij")
    omega, imag_max = _omega_on(family, np.stack([k1, k2], axis=-1))
    return CurvatureField(axes=(ax, ax), omega=omega, imag_max=imag_max, family=family)


def berry_curvature_ebz(family: ProjectorFamily, n1=N_2D // 2, n2=N_2D):
    """Curvature on the half zone [0, pi] x T (k1 inclusive of both ends)."""
    ax1 = ebz_axis(n1)
    ax2 = loop_axis(n2)
    k1, k2 = np.meshgrid(ax1.points, ax2.points, indexing="ij")
    omega, imag_max = _omega_on(family, np.stack([k1, k2], axis=-1))
    return CurvatureField(axes=(ax1, ax2), omega=omega, imag_max=imag_max, family=family)


def chern_number(curvature: CurvatureField, snap_tol=DEFAULT_TOL.snap):
    """C = (1/2 pi) integral of the curvature over the torus, snapped."""
    raw = curvature.integral() / TWO_PI
    return snap_integer("Chern", raw, snap_tol=snap_tol,
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
    return snap_integer("Delta", raw, snap_tol=z2.tol.snap, modulus=2,
                        meta={"loop_A_T0": loops["T0"], "loop_A_Tpi": loops["Tpi"],
                              "ebz_curvature_integral": ebz, "grid": z2.grid})


# ------------------------------------------------------------- gauges

@dataclass(frozen=True)
class GaugeField:
    """m x m unitary gauge on a loop grid, optionally time-reversal symmetric
    (u(-k) = J^-1 conj(u(k)) J). When built by the generators here, the exact
    logarithmic derivative u^-1 du/dk is carried along."""

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

    def validate(self, tol: Tolerances = DEFAULT_TOL):
        uni = float(np.max(linalg.unitarity_residual(self.u_samples)))
        report = {"unitarity": uni, "ok": uni <= 1e-10}
        if self.trs_flag:
            m = self.rank
            jm = linalg.symplectic_blocks(m)
            refl = jm.T @ np.conjugate(self.u_samples) @ jm
            idx = (-np.arange(self.n)) % self.n
            trs = float(np.max(linalg.frob(self.u_samples[idx] - refl)))
            report["trs"] = trs
            report["ok"] = report["ok"] and trs <= tol.trs
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


def random_gauge(n_points, m, seed, bandwidth=3, scale=0.25):
    """Random smooth periodic gauge u = exp(iH(k)) with exact log-derivative."""
    rng = np.random.default_rng(seed)
    ks = loop_axis(n_points).points
    c = []
    for p in range(0, bandwidth + 1):
        cp = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) * (scale / (1 + p))
        c.append(cp)
    u = np.empty((n_points, m, m), dtype=complex)
    logd = np.empty_like(u)
    for j, k in enumerate(ks):
        h = c[0] + c[0].conj().T
        hp = np.zeros((m, m), dtype=complex)
        for p in range(1, bandwidth + 1):
            ph = np.exp(1j * p * k)
            h = h + ph * c[p] + np.conjugate(ph) * c[p].conj().T
            hp = hp + 1j * p * (ph * c[p] - np.conjugate(ph) * c[p].conj().T)
        uj, du = scipy.linalg.expm_frechet(1j * h, 1j * hp)
        u[j] = uj
        logd[j] = np.linalg.solve(uj, du)
    return GaugeField(ks=ks, u_samples=u, trs_flag=False, log_derivative=logd)


def _sp_algebra_element(rng, m, scale):
    """Random element of the fixed-subgroup algebra: anti-Hermitian Y with
    J^-1 conj(Y) J = Y (so exp(Y) is a symplectic unitary, det 1)."""
    jm = linalg.symplectic_blocks(m)
    x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    x = scale * 0.5 * (x - x.conj().T)
    return 0.5 * (x + jm.T @ np.conjugate(x) @ jm)


def _bump(x):
    """C-infinity bump on [0,1], flat-zero at both ends, peak 1 in the middle."""
    return smooth_ramp(2 * x) * smooth_ramp(2 * (1 - x))


def random_trs_gauge(n_points, m, seed, scale=0.4, winding=None):
    """Random smooth time-reversal symmetric gauge with even det winding.

    Built on [0, pi] from single-generator exponentials with flat-ended
    profiles and endpoints in the fixed subgroup (symplectic unitaries), then
    reflected by u(-k) = J^-1 conj(u(k)) J; an optional winding factor
    diag(e^{iwk}, e^{iwk}, 1, ...) adds det winding 2w. Rank m must be even.
    """
    if m % 2 != 0:
        raise DimensionMismatch("time-reversal symmetric gauges need even rank")
    rng = np.random.default_rng(seed)
    if winding is None:
        winding = int(rng.integers(-2, 3))
    jm = linalg.symplectic_blocks(m)
    s0 = scipy.linalg.expm(_sp_algebra_element(rng, m, scale))
    big_s = _sp_algebra_element(rng, m, scale)
    h1 = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    h1 = scale * 0.5 * (h1 + h1.conj().T)
    h2 = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    h2 = scale * 0.5 * (h2 + h2.conj().T)

    ks = loop_axis(n_points).points
    u = np.empty((n_points, m, m), dtype=complex)
    logd = np.empty_like(u)
    half = n_points // 2
    wind_diag = np.zeros((m, m), dtype=complex)
    wind_diag[0, 0] = wind_diag[1, 1] = 1j * winding

    for j in range(half, n_points + 1):
        idx = j % n_points
        k = np.pi if j == n_points else ks[j]
        x = k / np.pi
        f1 = scipy.linalg.expm(smooth_ramp(x) * big_s)
        f2 = scipy.linalg.expm(_bump(x) * 1j * h1)
        prof3 = _bump(x) * np.sin(2 * np.pi * x)
        f3 = scipy.linalg.expm(prof3 * 1j * h2)
        wind = np.eye(m, dtype=complex)
        wind[0, 0] = wind[1, 1] = np.exp(1j * winding * k)
        rest = s0 @ f1 @ f2 @ f3
        uj = wind @ rest
        # single-generator factors commute with their own derivatives;
        # dk = (dx/pi) d/dx throughout
        d1 = (smooth_ramp_derivative(x) / np.pi) * big_s
        d2 = (_bump_derivative(x) / np.pi) * 1j * h1
        d3 = ((_bump_derivative(x) * np.sin(2 * np.pi * x)
               + _bump(x) * 2 * np.pi * np.cos(2 * np.pi * x)) / np.pi) * 1j * h2
        f23 = f2 @ f3
        ld = (linalg.dagger(f23) @ d1 @ f23 + linalg.dagger(f3) @ d2 @ f3 + d3
              + linalg.dagger(rest) @ wind_diag @ rest)
        if j < n_points:
            u[idx] = uj
            logd[idx] = ld
        if j > half or j == n_points:
            ridx = (-j) % n_points
            u[ridx] = jm.T @ np.conjugate(uj) @ jm
            logd[ridx] = -(jm.T @ np.conjugate(ld) @ jm)
    return GaugeField(ks=ks, u_samples=u, trs_flag=True, log_derivative=logd)


def _bump_derivative(x):
    from .transport import smooth_ramp_derivative as srd
    return 2 * srd(2 * x) * smooth_ramp(2 * (1 - x)) - 2 * smooth_ramp(2 * x) * srd(2 * (1 - x))


def holonomy_flux_check(family: ProjectorFamily, corner, widths, n_edge=256,
                        substeps=4, tol: Tolerances = DEFAULT_TOL):
    """Stokes check on a subrectangle: the phase of the boundary holonomy
    determinant equals the curvature integral over the rectangle (mod 2 pi).

    Returns (boundary_phase, flux_integral, discrepancy mod 2 pi). Uses
    parallel transport along the four edges; gauge invariant, no frame
    needed.
    """
    from .transport import _segment_transport
    (a1, a2), (w1, w2) = corner, widths
    corners = [np.array([a1, a2]), np.array([a1 + w1, a2]),
               np.array([a1 + w1, a2 + w2]), np.array([a1, a2 + w2])]
    t_loop = np.eye(family.ambient_dim, dtype=complex)
    for i in range(4):
        start, stop = corners[i], corners[(i + 1) % 4]
        direction = stop - start
        axis = int(np.argmax(np.abs(direction)))

        def edge_sampler(s, start=start, direction=direction):
            return family.sampler(start + s * direction)

        edge = ProjectorFamily(family.ambient_dim, family.rank, "loop",
                               sampler=edge_sampler, fd_step=family.fd_step)
        _, t, _, _, _, _ = _segment_transport(edge, 0.0, 1.0, n_edge, substeps, tol.drift)
        t_loop = t[-1] @ t_loop
    p0 = family.sampler(corners[0])
    w, v = np.linalg.eigh(p0)
    b = v[:, w > 0.5]
    hol = linalg.dagger(b) @ t_loop @ b
    boundary_phase = float(np.angle(np.linalg.det(hol)))
    ax1 = Axis("k1", a1, w1, n_edge, periodic=False)
    ax2 = Axis("k2", a2, w2, n_edge, periodic=False)
    k1, k2 = np.meshgrid(ax1.points, ax2.points, indexing="ij")
    omega, _ = _omega_on(family, np.stack([k1, k2], axis=-1))
    flux = float(integrate_grid(omega, [ax1, ax2]))
    diff = (boundary_phase + flux + np.pi) % TWO_PI - np.pi
    return boundary_phase, flux, float(abs(diff))
