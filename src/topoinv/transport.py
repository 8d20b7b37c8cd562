"""Parallel transport along momentum loops with its periodic trivialization
W(k), and smooth periodic Bloch frames, optionally time-reversal symmetric.

Transport solves i dT/dk = G(k) T with G = i[dP/dk, P] by classical RK4 with
per-step polar reprojection onto the unitary group, and returns in the same
step the trivialization W(k) = T(k) exp(-i (k-k0) M), with
exp(2 pi i M) = T(k0 + 2 pi): smooth, periodic, and intertwining P(k) with
P(k0). Time-reversal symmetric frames are built by transporting a
Kramers-paired basis over half the loop, absorbing the fixed-point mismatch
with a smooth gauge ramp, and reflecting.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .config import DEFAULT_TOL, N_LOOP
from .core import ProjectorFamily, TRSOperator, check_trs, symplectic_basis
from .errors import (BadBaseBasis, NotTRS, StepFailure, SymmetrizationFailure)
from .grids import loop_axis, reflect


def smooth_ramp(x):
    """C-infinity ramp: 0 for x <= 0, 1 for x >= 1, all derivatives flat at
    both ends. Flat ends keep reflected frames smooth at the fixed points."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f = np.where(x > 0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
        g = np.where(x < 1, np.exp(-1.0 / np.maximum(1 - x, 1e-300)), 0.0)
    return f / (f + g)


def smooth_ramp_derivative(x):
    x = np.asarray(x, dtype=float)
    inside = (x > 0) & (x < 1)
    xs = np.clip(x, 1e-12, 1 - 1e-12)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f = np.exp(-1.0 / xs)
        g = np.exp(-1.0 / (1 - xs))
        fp = f / xs ** 2
        gp = -g / (1 - xs) ** 2
        d = (fp * g - f * gp) / (f + g) ** 2
    return np.where(inside, d, 0.0)


@dataclass(frozen=True)
class TransportResult:
    """Parallel transport around a loop with its periodic trivialization.

    T and W are stored at the n+1 points k0 + j*(2 pi/n), j = 0..n. The last
    point closes the loop: T[n] = T(k0 + 2 pi) is the holonomy, not equal to
    T[0], while W[n] equals W[0] = 1 up to w_periodicity.
    """

    ks: np.ndarray                 # (n+1,) sample points including the closure
    t_samples: np.ndarray          # (n+1, N, N)
    p_samples: np.ndarray          # (n+1, N, N) projectors at the sample points
    family: ProjectorFamily
    drift_max: float
    reprojection_max: float
    intertwine_residual: float
    m_generator: np.ndarray        # Hermitian, eigenvalues in [0,1)
    m_eigenvalues: np.ndarray
    w_samples: np.ndarray          # (n+1, N, N)
    w_derivatives: np.ndarray      # (n+1, N, N), analytic dW/dk
    w_periodicity: float

    @property
    def holonomy(self):
        return self.t_samples[-1]


def _rk4_transport(p_fine, dp_fine, h):
    """March T through the fine grid (samples at spacing h/2), reprojecting
    to the unitary group after every step. Returns T at every full step; a
    step whose unitarity drift exceeds DEFAULT_TOL.drift raises StepFailure."""
    n_steps = (p_fine.shape[0] - 1) // 2
    dim = p_fine.shape[-1]
    t = np.eye(dim, dtype=complex)
    out = np.empty((n_steps + 1, dim, dim), dtype=complex)
    out[0] = t
    rhs = dp_fine @ p_fine - p_fine @ dp_fine   # -iG = [dP, P]
    drift_max = 0.0
    reproj_max = 0.0
    for s in range(n_steps):
        a0, a1, a2 = rhs[2 * s], rhs[2 * s + 1], rhs[2 * s + 2]
        k1 = a0 @ t
        k2 = a1 @ (t + 0.5 * h * k1)
        k3 = a1 @ (t + 0.5 * h * k2)
        k4 = a2 @ (t + h * k3)
        t_new = t + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        drift = float(linalg.unitarity_residual(t_new))
        if drift > DEFAULT_TOL.drift:
            raise StepFailure(k=s * h, drift=drift, bound=DEFAULT_TOL.drift)
        t = linalg.polar_project(t_new)
        drift_max = max(drift_max, drift)
        reproj_max = max(reproj_max, float(linalg.frob(t - t_new)))
        out[s + 1] = t
    return out, drift_max, reproj_max


def _segment_transport(family, k_start, k_end, n_grid_points, substeps=4):
    """Transport from k_start to k_end, returning T, P, G at the n_grid_points+1
    evenly spaced sample points."""
    n_steps = n_grid_points * substeps
    fine = np.linspace(k_start, k_end, 2 * n_steps + 1)
    p_fine, dp_fine = family.derivative(fine)
    h = (k_end - k_start) / n_steps
    t_all, drift, reproj = _rk4_transport(p_fine, dp_fine, h)
    sel = np.arange(0, n_steps + 1, substeps)
    t = t_all[sel]
    p = p_fine[2 * sel]
    dp = dp_fine[2 * sel]
    g = 1j * (dp @ p - p @ dp)
    return fine[2 * sel], t, p, g, drift, reproj


def parallel_transport(family: ProjectorFamily, n_grid=N_LOOP, substeps=4):
    """Parallel-transport unitaries T(k) around the loop, base point k0 = -pi,
    and the periodic trivialization W(k) = T(k) exp(-i (k-k0) M).

    Parameters
    ----------
    family : loop-domain ProjectorFamily
    n_grid : grid points stored per loop (T also sampled at the closure)
    substeps : RK4 steps per grid interval; total steps = n_grid * substeps

    The intertwining residual max_k ||P(k) - T(k) P(k0) T(k)*|| converges at
    fourth order in the step size. M is Hermitian with eigenvalues in [0, 1),
    obtained from the eigenphases of the holonomy taken in [0, 2 pi); an
    eigenvalue just below the cut raises BranchAmbiguity. W(k0) = 1 exactly
    and W closes the loop. The analytic derivative dW/dk is recorded
    alongside (no finite differences of W anywhere downstream).
    """
    if family.domain != "loop":
        raise ValueError("parallel_transport needs a loop family")
    if n_grid * substeps < 16:
        raise ValueError("need at least 16 transport steps")
    ax = loop_axis(n_grid)
    k0 = ax.start
    ks, t, p, g, drift, reproj = _segment_transport(
        family, k0, k0 + 2 * np.pi, n_grid, substeps)
    inter = float(np.max(linalg.frob(p - t @ p[0] @ linalg.dagger(t))))
    m, lam = linalg.unitary_log_generator(t[-1])
    expm = linalg.expi_hermitian(m, -(ks - ks[0]))
    w = t @ expm
    w[0] = np.eye(w.shape[-1])          # exact normalization at the base point
    # W^-1 dW = e^{i dk M} (-i T^-1 G T) e^{-i dk M} - i M, then dW = W (...)
    core = -1j * (linalg.dagger(t) @ g @ t)
    dw = w @ (linalg.dagger(expm) @ core @ expm - 1j * m[None])
    return TransportResult(ks=ks, t_samples=t, p_samples=p, family=family,
                           drift_max=drift, reprojection_max=reproj,
                           intertwine_residual=inter, m_generator=m,
                           m_eigenvalues=lam, w_samples=w, w_derivatives=dw,
                           w_periodicity=float(linalg.frob(w[-1] - w[0])))


def _occupied_basis(p):
    """Orthonormal eigenbasis of Ran P for a projector P, as columns."""
    w, v = np.linalg.eigh(p)
    return v[:, w > 0.5]


@dataclass(frozen=True)
class BlochFrame:
    """Orthonormal frame of Ran P(k) on a loop grid.

    e_samples[j] has the m frame vectors as columns. Frames built from a
    trivialization or the time-reversal construction carry exact connection
    samples (analytic_a) so downstream quadratures avoid differencing noise.
    """

    ks: np.ndarray                # (n,) loop grid (one period, no closure)
    e_samples: np.ndarray         # (n, N, m)
    trs_flag: bool
    family: ProjectorFamily
    seam_residual: float
    analytic_a: Optional[np.ndarray] = None       # (n,) exact connection samples
    analytic_loop_integral: Optional[float] = None
    w_samples: Optional[np.ndarray] = None        # (n, N, N) trivialization on grid
    theta: Optional[TRSOperator] = None

    @property
    def n(self):
        return len(self.ks)

    @property
    def rank(self):
        return self.e_samples.shape[-1]

    def validate(self):
        tol = DEFAULT_TOL
        e = self.e_samples
        eye = np.eye(self.rank)
        ortho = float(np.max(linalg.frob(linalg.dagger(e) @ e - eye)))
        p = self.family.sample(self.ks)
        span = float(np.max(linalg.frob(p - e @ linalg.dagger(e))))
        report = {"orthonormality": ortho, "span": span, "seam": self.seam_residual,
                  "ok": ortho <= tol.frame_orthonormal and span <= tol.frame_span
                        and self.seam_residual <= tol.frame_span}
        if self.trs_flag:
            report["kramers"] = float(self.kramers_residual())
            report["ok"] = report["ok"] and report["kramers"] <= tol.trs
        return report

    def kramers_residual(self):
        """max_k of || E(-k) - theta(E(k)) J || over the grid."""
        if not self.trs_flag or self.theta is None:
            raise ValueError("not a time-reversal symmetric frame")
        e = self.e_samples
        return float(np.max(linalg.frob(reflect(e, 1) - self.theta.frame(e))))


def build_frame(tr: TransportResult, base_basis=None):
    """Frame e_a(k) = W(k) e_a(k0) from a transport.

    base_basis: (N, m) orthonormal columns spanning Ran P(k0), by default
    the eigenbasis of P(k0); BadBaseBasis if orthonormality or span fails.
    The connection of this frame is exactly constant, A = -tr(P(k0) M),
    recorded as the analytic channel.
    """
    p0 = tr.p_samples[0]
    b = _occupied_basis(p0) if base_basis is None else base_basis
    b = np.asarray(b, dtype=complex)
    if b.ndim != 2 or b.shape[0] != tr.family.ambient_dim:
        raise BadBaseBasis(f"base basis shape {b.shape} does not match ambient dimension")
    ortho = float(linalg.frob(linalg.dagger(b) @ b - np.eye(b.shape[1])))
    span = float(linalg.frob(p0 @ b - b))
    if ortho > DEFAULT_TOL.frame_orthonormal or span > DEFAULT_TOL.frame_span:
        raise BadBaseBasis(f"orthonormality residual {ortho:.2e}, span residual {span:.2e}")
    e = tr.w_samples[:-1] @ b
    seam = float(linalg.frob(tr.w_samples[-1] @ b - e[0]))
    a_const = -float(np.real(np.trace(p0 @ tr.m_generator)))
    n = len(tr.ks) - 1
    return BlochFrame(ks=tr.ks[:-1], e_samples=e, trs_flag=False, family=tr.family,
                      seam_residual=seam,
                      analytic_a=np.full(n, a_const),
                      analytic_loop_integral=2 * np.pi * a_const,
                      w_samples=tr.w_samples[:-1])


def wilson_holonomy(tr: TransportResult, base_basis=None):
    """The loop holonomy restricted to Ran P(k0), as an m x m matrix.

    Its determinant equals the Berry phase of the loop. With no basis given,
    the eigenbasis of P(k0) is used.
    """
    b = _occupied_basis(tr.p_samples[0]) if base_basis is None else base_basis
    b = np.asarray(b, dtype=complex)
    return linalg.dagger(b) @ tr.holonomy @ b


def _trs_mismatch_gauge(e_pi, theta, rng=None):
    """Mismatch unitary u with E(pi) u Kramers-symmetric at the fixed point.

    The sewing matrix V = E(pi)* theta(E(pi)) is antisymmetric unitary, so
    tau(x) = V conj(x) is antiunitary with tau^2 = -1 on C^m; a tau-Kramers
    basis X solves u = V conj(u) J exactly.
    """
    v = linalg.dagger(e_pi) @ theta.apply(e_pi)
    tau = lambda x: v @ np.conjugate(x)
    return linalg.kramers_basis(tau, np.eye(v.shape[0], dtype=complex), rng=rng)


def build_trs_frame(family: ProjectorFamily, theta: TRSOperator, n_grid=N_LOOP,
                    rng=None):
    """Smooth periodic time-reversal symmetric Bloch frame on a symmetric loop,
    with its time-reversal symmetric trivialization W(k), W(0) = 1.

    Steps: Kramers-paired (symplectic) basis at the fixed point k = 0;
    parallel transport over [0, pi]; the fixed-point mismatch at pi is
    absorbed by exp(ramp(k/pi) log u_pi) with a flat-ended smooth ramp; the
    frame on (-pi, 0) is the Kramers reflection. The exact connection
    A(k) = ramp'(|k|/pi)/pi * sum(eigenphases of u_pi) is recorded. The same
    construction on the complementary band group (same transport:
    i[dP,P] = i[d(1-P),(1-P)]) gives W = E E(0)^+ + E_c E_c(0)^+.

    Raises NotTRS if the family is not symmetric, SymmetrizationFailure when
    log u_pi hits the -1 branch degeneracy.
    """
    ok, viol = check_trs(family, theta, n_grid=n_grid)
    if not ok:
        raise NotTRS(viol, DEFAULT_TOL.trs)
    if n_grid % 2 != 0:
        raise ValueError("symmetric loops need an even grid")
    half = n_grid // 2

    ks_half, t_half, p_half, _, _, _ = _segment_transport(family, 0.0, np.pi, half)
    ramp = smooth_ramp(ks_half / np.pi)

    def symmetrized_half(projector):
        """Frame of Ran(projector) on [0, pi], its sum of mismatch
        eigenphases and its Kramers basis at k = 0.

        The fixed-point basis is free up to an exact symplectic gauge; a
        mismatch eigenvalue pinned at -1 (extra model symmetries do this)
        moves off the cut under a redrawn basis while every mod-4pi
        observable stays fixed. Deterministic unless the caller's rng is
        used; only persistent failure propagates.
        """
        draws = [rng] + [rng if rng is not None else np.random.default_rng(1009 + retry)
                         for retry in range(8)]
        for draw in draws:
            base = symplectic_basis(theta, projector, rng=draw)
            e_sharp = t_half @ base
            u_pi = _trs_mismatch_gauge(e_sharp[-1], theta, rng=draw)
            try:
                log_u, phases = linalg.principal_log_unitary(u_pi)
            except ValueError:
                failure = SymmetrizationFailure(np.angle(np.linalg.eigvals(u_pi)))
                continue
            return (e_sharp @ linalg.expi_hermitian(-1j * log_u, ramp),
                    float(np.sum(phases)), base)
        raise failure

    def whole_loop(e_plus):
        """The loop-grid frame from its half on [0, pi]: grid index of
        k = j*h is half + j, k = -pi is k = pi, and (-pi, 0) carries the
        Kramers reflection E(-k) = theta(E(k)) J."""
        e = np.empty((n_grid,) + e_plus.shape[1:], dtype=complex)
        e[half:] = e_plus[:half]
        e[0] = e_plus[half]
        e[1:half] = theta.frame(e_plus[half - 1:0:-1])
        return e

    e_plus, phase_sum, e0 = symmetrized_half(p_half[0])
    ec_plus, _, e0c = symmetrized_half(np.eye(family.ambient_dim) - p_half[0])
    e = whole_loop(e_plus)
    w = e @ linalg.dagger(e0) + whole_loop(ec_plus) @ linalg.dagger(e0c)
    seam = float(linalg.frob(e[0] - theta.frame(e[0])))

    ks = loop_axis(n_grid).points
    a_samples = (smooth_ramp_derivative(np.abs(ks) / np.pi) / np.pi) * phase_sum
    return BlochFrame(ks=ks, e_samples=e, trs_flag=True, family=family,
                      seam_residual=seam, analytic_a=a_samples,
                      analytic_loop_integral=2.0 * phase_sum,
                      w_samples=w, theta=theta)
