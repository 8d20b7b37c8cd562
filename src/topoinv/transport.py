"""Parallel transport along momentum loops with its periodic trivialization
W(k), and smooth periodic Bloch frames, optionally time-reversal symmetric.

Transport solves i dT/dk = G(k) T with G = i[dP/dk, P] by fourth-order
Magnus steps on Simpson nodes (Iserles and Norsett, Phil. Trans. R. Soc. A
357, 983 (1999); Blanes, Casas, Oteo, Ros, Phys. Rep. 470, 151 (2009)),
all exponentiated in one call, so every step is exactly unitary; each step
carries a local error estimate that bounds it. It returns in the same
step the trivialization W(k) = T(k) exp(-i (k-k0) M), with
exp(2 pi i M) = T(k0 + 2 pi): smooth, periodic, and intertwining P(k) with
P(k0). Time-reversal symmetric frames are built by transporting a
Kramers-paired basis over half the loop, absorbing the fixed-point mismatch
with a smooth ramp of its eigenphases in its own eigenbasis, and reflecting.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .config import DEFAULT_TOL
from .core import ProjectorFamily, TRSOperator, check_trs, symplectic_basis
from .errors import NotTRS, StepFailure
from .grids import loop_axis

# Magnus steps per stored grid interval of every transport
MAGNUS_STEPS = 4


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
    drift_max: float               # unitarity of the computed T, before its projection
    reprojection_max: float
    step_error_max: float          # largest local error estimate of a Magnus step
    intertwine_residual: float
    m_generator: np.ndarray        # Hermitian, eigenvalues in [0,1)
    m_eigenvalues: np.ndarray
    w_samples: np.ndarray          # (n+1, N, N)
    w_derivatives: np.ndarray      # (n+1, N, N), analytic dW/dk
    w_periodicity: float

    @property
    def holonomy(self):
        return self.t_samples[-1]


def _magnus_transport(p_fine, dp_fine, h, k_start):
    """March T through the fine grid (samples at spacing h/2, from k_start)
    by fourth-order Magnus steps on the Simpson nodes of each step,
    Omega_s = (h/6)(A0 + 4 A1 + A2) + (h^2/12)[A2, A0] with A = [dP, P],
    all exponentiated in one call; every step is unitary.

    Returns T at every full step, a product of step exponentials unitary to
    rounding, and the largest local error estimate of a step: the Simpson
    remainder (|h|/180) ||D4 A|| with D4 the fourth difference of the
    half-step samples in a 5-point window about the step, clipped at the
    segment ends.
    The first step whose estimate exceeds DEFAULT_TOL.drift, or whose
    ||Omega_s|| reaches pi (the edge of the Magnus series' convergence),
    raises StepFailure at its start k_start + s h."""
    n_steps = (p_fine.shape[0] - 1) // 2
    a = dp_fine @ p_fine - p_fine @ dp_fine   # -iG = [dP, P]
    a0, a1, a2 = a[0:-1:2], a[1::2], a[2::2]
    omega = (h / 6.0) * (a0 + 4.0 * a1 + a2) + (h * h / 12.0) * (a2 @ a0 - a0 @ a2)
    d4 = a[:-4] - 4.0 * a[1:-3] + 6.0 * a[2:-2] - 4.0 * a[3:-1] + a[4:]
    window = np.clip(2 * np.arange(n_steps) - 1, 0, len(d4) - 1)
    error = (abs(h) / 180.0) * linalg.frob(d4)[window]
    norm = linalg.frob(omega)
    failed = np.flatnonzero((error > DEFAULT_TOL.drift) | (norm >= np.pi))
    if failed.size:
        s = failed[0]
        raise StepFailure(k=k_start + s * h, drift=error[s], bound=DEFAULT_TOL.drift,
                          step_norm=norm[s])
    out = np.empty((n_steps + 1,) + a.shape[1:], dtype=complex)
    out[0] = np.eye(a.shape[-1])
    out[1:] = linalg.expi_hermitian(-1j * omega)
    span = 1
    while span <= n_steps:              # log-depth scan to out[j] = U_{j-1} ... U_0
        out[span:] = out[span:] @ out[:-span]
        span *= 2
    return out, float(np.max(error))


def _segment_transport(family, k_start, k_end, n_grid_points):
    """Transport from k_start to k_end in MAGNUS_STEPS steps per interval,
    returning T, P, G at the n_grid_points+1 evenly spaced sample points and
    the march's residuals (a dict of TransportResult fields). The kept T are
    polar-projected in one call, whose singular values give their unitarity
    drift and reprojection distance."""
    n_steps = n_grid_points * MAGNUS_STEPS
    fine = np.linspace(k_start, k_end, 2 * n_steps + 1)
    p_fine, dp_fine = family.derivative(fine)
    h = (k_end - k_start) / n_steps
    t_all, step_error = _magnus_transport(p_fine, dp_fine, h, k_start)
    sel = np.arange(0, n_steps + 1, MAGNUS_STEPS)
    t = t_all[sel]
    t[1:], sigma = linalg.polar_project(t[1:])
    drift = np.sqrt(np.sum((sigma ** 2 - 1.0) ** 2, axis=1))
    reproj = np.sqrt(np.sum((sigma - 1.0) ** 2, axis=1))
    residuals = {"drift_max": float(np.max(drift)), "reprojection_max": float(np.max(reproj)),
                 "step_error_max": step_error}
    p = p_fine[2 * sel]
    dp = dp_fine[2 * sel]
    g = 1j * (dp @ p - p @ dp)
    return fine[2 * sel], t, p, g, residuals


def parallel_transport(family: ProjectorFamily, n_grid):
    """Parallel-transport unitaries T(k) around the loop, base point k0 = -pi,
    and the periodic trivialization W(k) = T(k) exp(-i (k-k0) M).

    Parameters
    ----------
    family : loop-domain ProjectorFamily
    n_grid : grid points stored per loop (T also sampled at the closure);
        the march takes MAGNUS_STEPS steps per grid interval

    A step whose local error estimate exceeds DEFAULT_TOL.drift, or which
    lies outside the Magnus series' convergence radius, raises StepFailure
    at its momentum. The intertwining residual
    max_k ||P(k) - T(k) P(k0) T(k)*|| converges at fourth order in the step
    size. M is Hermitian with eigenvalues in [0, 1), obtained from the
    eigenphases of the holonomy taken in [0, 2 pi); an eigenvalue just
    below the cut raises BranchAmbiguity. W(k0) = 1 exactly
    and W closes the loop. The analytic derivative dW/dk is recorded
    alongside (no finite differences of W anywhere downstream).
    """
    if family.domain != "loop":
        raise ValueError("parallel_transport needs a loop family")
    if n_grid * MAGNUS_STEPS < 16:
        raise ValueError("need at least 16 transport steps")
    ax = loop_axis(n_grid)
    k0 = ax.start
    ks, t, p, g, residuals = _segment_transport(family, k0, k0 + 2 * np.pi, n_grid)
    inter = float(np.max(linalg.frob(p - t @ p[0] @ linalg.dagger(t))))
    m, lam = linalg.unitary_log_generator(t[-1])
    expm = linalg.expi_hermitian(m, -(ks - ks[0]))
    w = t @ expm
    w[0] = np.eye(w.shape[-1])          # exact normalization at the base point
    # W^-1 dW = e^{i dk M} (-i T^-1 G T) e^{-i dk M} - i M, then dW = W (...)
    core = -1j * (linalg.dagger(t) @ g @ t)
    dw = w @ (linalg.dagger(expm) @ core @ expm - 1j * m[None])
    return TransportResult(ks=ks, t_samples=t, p_samples=p, family=family,
                           **residuals, intertwine_residual=inter, m_generator=m,
                           m_eigenvalues=lam, w_samples=w, w_derivatives=dw,
                           w_periodicity=float(linalg.frob(w[-1] - w[0])))


def _occupied_basis(p):
    """Orthonormal eigenbasis of Ran P for a projector P, as columns."""
    w, v = np.linalg.eigh(p)
    return v[:, w > 0.5]


@dataclass(frozen=True)
class BlochFrame:
    """Orthonormal frame of Ran P(k) on a loop grid.

    e_samples[j] has the m frame vectors as columns. Every construction (a
    trivialization, the time-reversal construction, a gauge transform)
    records the exact connection samples (analytic_a) so downstream
    quadratures avoid differencing noise.
    """

    ks: np.ndarray                # (n,) loop grid (one period, no closure)
    e_samples: np.ndarray         # (n, N, m)
    trs_flag: bool
    family: ProjectorFamily
    seam_residual: float
    analytic_a: np.ndarray                        # (n,) exact connection samples
    analytic_loop_integral: float
    w_samples: Optional[np.ndarray] = None        # (n, N, N) trivialization on grid
    theta: Optional[TRSOperator] = None

    @property
    def n(self):
        return len(self.ks)

    @property
    def rank(self):
        return self.e_samples.shape[-1]


def build_frame(tr: TransportResult):
    """Frame e_a(k) = W(k) e_a(k0) from a transport, with e_a(k0) the
    eigenbasis of P(k0). The connection of this frame is exactly constant,
    A = -tr(P(k0) M), recorded as the analytic channel.
    """
    p0 = tr.p_samples[0]
    b = _occupied_basis(p0)
    e = tr.w_samples[:-1] @ b
    seam = float(linalg.frob(tr.w_samples[-1] @ b - e[0]))
    a_const = -float(np.real(np.trace(p0 @ tr.m_generator)))
    n = len(tr.ks) - 1
    return BlochFrame(ks=tr.ks[:-1], e_samples=e, trs_flag=False, family=tr.family,
                      seam_residual=seam,
                      analytic_a=np.full(n, a_const),
                      analytic_loop_integral=2 * np.pi * a_const,
                      w_samples=tr.w_samples[:-1])


def wilson_holonomy(tr: TransportResult):
    """The loop holonomy restricted to Ran P(k0), as an m x m matrix in the
    eigenbasis of P(k0). Its determinant equals the Berry phase of the loop.
    """
    b = _occupied_basis(tr.p_samples[0])
    return linalg.dagger(b) @ tr.holonomy @ b


def _trs_mismatch_gauge(e_pi, theta):
    """Mismatch unitary u with E(pi) u Kramers-symmetric at the fixed point.

    The sewing matrix V = E(pi)* theta(E(pi)) is antisymmetric unitary, so
    tau(x) = V conj(x) is antiunitary with tau^2 = -1 on C^m; a tau-Kramers
    basis X solves u = V conj(u) J exactly.
    """
    v = linalg.dagger(e_pi) @ theta.apply(e_pi)
    tau = lambda x: v @ np.conjugate(x)
    return linalg.kramers_basis(tau, np.eye(v.shape[0], dtype=complex))


def build_trs_frame(family: ProjectorFamily, theta: TRSOperator, n_grid):
    """Smooth periodic time-reversal symmetric Bloch frame on a symmetric loop
    of n_grid points, with its time-reversal symmetric trivialization W(k),
    W(0) = 1.

    Steps: the deterministic Kramers-paired basis of `symplectic_basis` at
    the fixed point k = 0; parallel transport over [0, pi], MAGNUS_STEPS
    steps per grid interval; the fixed-point mismatch
    u_pi = q diag(exp(i phi)) q^+ at pi is absorbed in its eigenbasis by
    q diag(exp(i ramp(k/pi) phi)) q^+ with a flat-ended smooth ramp, which
    takes no logarithm; the frame on (-pi, 0) is the Kramers reflection.
    The exact connection A(k) = ramp'(|k|/pi)/pi * sum(phi) is recorded.
    Another Kramers-paired basis changes the frame by a symmetric gauge, and
    an eigenvalue -1 of u_pi read as phase -pi rather than pi moves the loop
    integral by 4 pi; no invariant sees either. The same construction on
    the complementary band group (same transport: i[dP,P] = i[d(1-P),(1-P)])
    gives W = E E(0)^+ + E_c E_c(0)^+.

    Raises NotTRS unless H on the loop is time-reversal symmetric
    (`check_trs`, on its Fourier terms).
    """
    ok, viol = check_trs(family, theta)
    if not ok:
        raise NotTRS(viol, DEFAULT_TOL.trs)
    if n_grid % 2 != 0:
        raise ValueError("symmetric loops need an even grid")
    half = n_grid // 2

    ks_half, t_half, p_half, _, _ = _segment_transport(family, 0.0, np.pi, half)
    ramp = smooth_ramp(ks_half / np.pi)

    def symmetrized_half(projector):
        """Frame of Ran(projector) on [0, pi], its sum of mismatch
        eigenphases and its Kramers basis at k = 0."""
        base = symplectic_basis(theta, projector)
        e_sharp = t_half @ base
        phases, q = linalg.unitary_eig(_trs_mismatch_gauge(e_sharp[-1], theta))
        turn = np.exp(1j * np.multiply.outer(ramp, phases))
        absorb = (q * turn[:, None, :]) @ linalg.dagger(q)
        return e_sharp @ absorb, float(np.sum(phases)), base

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
