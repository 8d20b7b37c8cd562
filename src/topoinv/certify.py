"""Certification suite: every proved identity the library implements,
checked by quadrature at desk scale with explicit tolerances.

Each criterion is a check registered in ALL_CRITERIA with its index, name
and tolerance; the registration times it and reports a library error as a
failed result that keeps the name and tolerance, with worst NaN. Grids scale
with `scale`, so coarse smoke runs stay cheap and may fail, reported, not raised.
"""

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import berry, lattice, transport, wz
from .core import TRSOperator, make_projector_family
from .errors import TopoinvError
from .grids import loop_axis
from .models import builtin_model
from .wz import BOUNDARY_LOOPS, FieldGrid, normal_form_field

TWO_PI = 2.0 * np.pi
KM_SO = 0.3
KM_BOUNDARY = 3.0 * np.sqrt(3.0)   # lambda_v / lambda_so at the transition


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    tolerance: float
    worst: float
    runtime: float
    details: dict = field(default_factory=dict)

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] criterion {self.index}: {self.name} "
                f"(worst {self.worst:.3e} vs tol {self.tolerance:.1e}, "
                f"{self.runtime:.1f}s)")


@dataclass(frozen=True)
class Criterion:
    """A registered check: `check(scale, tolerance)` returns (passed, worst,
    details). Calling the criterion runs the check and packs its result."""

    index: int
    name: str
    tolerance: float
    check: Callable

    def __call__(self, scale=1.0):
        t0 = time.time()
        try:
            passed, worst, details = self.check(scale, self.tolerance)
        except (TopoinvError, ValueError) as exc:
            # under-resolved grids may break preconditions; report, never crash
            passed, worst = False, float("nan")
            details = {"error": f"{type(exc).__name__}: {exc}"}
        return CriterionResult(self.index, self.name, passed, self.tolerance, worst,
                               time.time() - t0, details)


ALL_CRITERIA = []


def _criterion(index, name, tolerance):
    """Register the decorated check as criterion `index` in ALL_CRITERIA."""
    def register(check):
        ALL_CRITERIA.append(Criterion(index, name, tolerance, check))
        return ALL_CRITERIA[-1]
    return register


def _grid(n, scale):
    """n scaled, at least 8, rounded up to even."""
    n = max(8, int(round(n * scale)))
    return n + n % 2


def _fam(name, **params):
    return make_projector_family(builtin_model(name, params))


def _km(lv, lr=0.0):
    return _fam("kane_mele", lambda_so=KM_SO, lambda_v=lv, lambda_r=lr)


def _wz_vs_chern(fam, n_curv, n_ext):
    """(Chern number on an n_curv^2 grid, WZ action of the U_P extension on an
    n_ext^3 grid, |its amplitude - (-1)^Chern|)."""
    c = berry.chern_number(berry.berry_curvature(fam, n_grid=n_curv)).require_snapped()
    action = wz.wz_action_extension(wz.up_extension(fam, n_t=n_ext, n1=n_ext, n2=n_ext))
    return c, action.raw_action, abs(action.amplitude - (-1.0) ** c)


@_criterion(1, "WZ amplitude of U_P equals (-1)^Chern", 1e-5)
def criterion_1_wz_chern(scale, tol):
    """exp(i S[U_P extension]) equals (-1)^Chern, haldane both phases and
    kane_mele, 3D grid 64^3, under 60 s per model."""
    n = _grid(64, scale)
    cases = [("haldane topological", _fam("haldane", m=0.2)),
             ("haldane trivial", _fam("haldane", m=1.5)),
             ("kane_mele", _km(0.4, 0.2))]
    details = {}
    for label, fam in cases:
        t_model = time.time()
        c, action, diff = _wz_vs_chern(fam, n, n)
        runtime = time.time() - t_model
        details[label] = {"chern": c, "action": action, "amp_diff": diff,
                          "runtime_s": runtime, "under_60s": runtime < 60.0}
    worst = max(row["amp_diff"] for row in details.values())
    return worst < tol and all(row["under_60s"] for row in details.values()), worst, details


@_criterion(2, "WZ amplitude of phi equals the Berry phase", 1e-6)
def criterion_2_amplitude_equals_berry(scale, tol):
    """WZ amplitude of phi equals the Berry phase on both boundary loops for
    haldane, kane_mele, flat_two_band at loop grid 256."""
    n = _grid(256, scale)
    cases = [("haldane", _fam("haldane", m=0.2)),
             ("kane_mele", _km(0.4, 0.2)),
             ("flat_two_band", _fam("flat_two_band"))]
    details = {}
    for label, fam in cases:
        for loop_label, k1 in BOUNDARY_LOOPS:
            # the WZ amplitude (beta route) against the transport frame's phase
            trp = transport.parallel_transport(fam.loop(0, k1), n_grid=n)
            amp = wz.wz_amplitude_phi(trp, method="beta").amplitude
            frame = transport.build_frame(trp)
            bp = berry.berry_phase(berry.berry_connection(frame, method="spectral"))
            details[f"{label}/{loop_label}"] = abs(amp - bp.raw)
    worst = max(details.values())
    return worst < tol, worst, details


@_criterion(3, "square roots agree and survive re-gauging", 1e-6)
def criterion_3_sqrt_channel(scale, tol):
    """Square-root agreement for kane_mele on both loops, stable under 10
    random time-reversal symmetric re-gaugings."""
    n = _grid(256, scale)
    theta = TRSOperator.standard(4)
    fam = _km(0.4, 0.2)
    details = {}
    for loop_label, k1 in BOUNDARY_LOOPS:
        frame = transport.build_trs_frame(fam.loop(0, k1), theta, n_grid=n)
        wzv = wz.wz_amplitude_phi(frame, method="beta")
        sq = berry.berry_phase_sqrt(berry.berry_connection(frame)).raw
        diff = abs(wzv.sqrt_amplitude - sq)
        gauge_spread = 0.0
        for i in range(10):
            gauge = berry.random_trs_gauge(n, fam.rank, seed=2000 + i)
            regauged = berry.gauge_transform(frame, gauge)
            sq_g = berry.berry_phase_sqrt(berry.berry_connection(regauged)).raw
            gauge_spread = max(gauge_spread, abs(sq_g - sq))
        details[loop_label] = {"wz_vs_berry": diff, "gauge_spread": gauge_spread}
    worst = max(max(row.values()) for row in details.values())
    return worst < tol, worst, details


@_criterion(4, "K = (-1)^delta across the phase diagram, oracle-checked", 1e-3)
def criterion_4_fkm(scale, tol):
    """K = (-1)^delta with snapped residuals below 1e-3 across >= 20
    kane_mele points in both phases, each agreeing with the lattice oracle
    and (at zero Rashba) the closed-form phase boundary."""
    # the half-zone direction is Simpson-limited; near-transition curvature
    # peaks need its resolution (the boundary loops follow at 2 * n2 points)
    n1, n2 = _grid(96, scale), _grid(96, scale)
    theta = TRSOperator.standard(4)
    worst = 0.0
    rows = []
    all_ok = True
    # ((lambda_v, lambda_r), row label, closed-form delta or None with Rashba);
    # 21 mass ratios span both phases, clear of the transition
    ratios = np.concatenate([np.linspace(0.0, 4.8, 11), np.linspace(5.6, 8.0, 10)])
    cases = [((ratio * KM_SO, 0.0), {"ratio": ratio}, 1 if ratio < KM_BOUNDARY else 0)
             for ratio in map(float, ratios)]
    cases += [((lv, lr), {"lambda_v": lv, "lambda_r": lr}, None)
              for lv, lr in ((0.4, 0.2), (1.0, 0.4))]
    for (lv, lr), label, expected in cases:
        fam = _km(lv, lr)
        ingredients = wz.z2_ingredients(fam, theta, n1=n1, n2=n2)
        d, kap = berry.delta_invariant(ingredients), wz.kappa_invariant(ingredients)
        z2 = lattice.lattice_z2(fam, theta, n1=max(16, n1), n2=max(32, n2))
        ok = (d.snapped is not None and kap.snapped == (-1) ** d.snapped
              and z2.snapped == d.snapped and (expected is None or d.snapped == expected))
        worst = max(worst, d.residual, kap.residual)
        all_ok = all_ok and ok
        rows.append({**label, "delta": d.snapped, "kappa": kap.snapped,
                     "lattice_z2": z2.snapped, "expected": expected,
                     "delta_residual": d.residual, "kappa_residual": kap.residual})
    return all_ok and worst < tol, worst, {"points": rows}


@_criterion(5, "3D winding density reduces to the curvature integral", 1e-5)
def criterion_5_phi_reduction(scale, tol):
    """Direct 3D quadrature of the Phi winding density versus the reduced
    half-zone curvature integral, 1e-5 relative at 64^3 / 128^2."""
    n3, n2d = _grid(64, scale), _grid(128, scale)
    ingredients = wz.z2_ingredients(_km(0.4, 0.2), TRSOperator.standard(4),
                                    n1=n2d // 2, n2=n2d)
    kap = wz.kappa_invariant(ingredients, direct_grid=(max(8, n3 // 4), n3, n3))
    worst = kap.meta["phi3_discrepancy"]
    return worst < tol, worst, {"direct": kap.meta["phi3_direct"],
                                "reduced": kap.meta["phi3_reduced"]}


def _normal_form_table(functional, dim, equivariant, n_grid, span):
    """(n_g m_h - m_g n_h, functional(g, h)) for every ordered pair of normal
    forms g, h with windings |n|, |m| <= span."""
    fields = {(n, m): normal_form_field(n, m, dim, equivariant=equivariant, n_grid=n_grid)
              for n in range(-span, span + 1) for m in range(-span, span + 1)}
    return [(ng * mh - mg * nh, functional(g, h))
            for (ng, mg), g in fields.items() for (nh, mh), h in fields.items()]


@_criterion(6, "adjoint product formula on normal forms (and 4 pi Z equivariantly)", 1e-6)
def criterion_6_apw_normal_forms(scale, tol):
    """APW[g,h] = -2 pi (n_g m_h - m_g n_h) exactly on all winding pairs with
    |n|,|m| <= 3; equivariant normal forms double it, landing in 4 pi Z."""
    n_grid = _grid(32, scale)
    worst = 0.0
    for combo, val in _normal_form_table(wz.apw_functional, 2, False, n_grid, span=3):
        worst = max(worst, abs(val - (-TWO_PI * combo)))
    eq_worst = 0.0
    for combo, val in _normal_form_table(wz.apw_functional, 4, True, n_grid, span=2):
        eq_worst = max(eq_worst, abs(val - (-2.0 * TWO_PI * combo)),
                       abs(val - 2 * TWO_PI * round(val / (2 * TWO_PI))))
    worst_all = max(worst, eq_worst)
    return worst_all < tol, worst_all, {"plain_worst": worst, "equivariant_worst": eq_worst}


@_criterion(7, "product formula anomaly -pi (n_g m_h - m_g n_h)", 1e-6)
def criterion_7_pw_anomaly(scale, tol):
    """PW[g,h] = -pi (n_g m_h - m_g n_h) on the same pair set; odd winding
    combinations are verified NOT to land in 2 pi Z (the anomaly)."""
    worst = 0.0
    anomaly_ok = True
    for combo, val in _normal_form_table(wz.pw_functional, 2, False, _grid(32, scale), span=3):
        worst = max(worst, abs(val - (-np.pi * combo)))
        # the literature form swaps the indices; equal mod 2 pi
        quoted = np.pi * combo   # -pi (m_g n_h - n_g m_h)
        worst = max(worst, abs((val - quoted + np.pi) % TWO_PI - np.pi))
        dist_2piz = abs(val - TWO_PI * round(val / TWO_PI))
        if combo % 2 == 1 and dist_2piz < np.pi - tol:
            anomaly_ok = False
        if combo % 2 == 0 and dist_2piz > tol:
            anomaly_ok = False
    return worst < tol and anomaly_ok, worst, {"odd_combos_anomalous": anomaly_ok}


def homotopy_trial(windings, seed_g, seed_h, n_grid=32):
    """PW and APW of the normal forms g, h with windings (n_g, m_g, n_h, m_h),
    each deformed by the tube exp(i s H) of a seeded random Hermitian field H,
    at s = 0, 1/4, .., 1: {"pw": [...], "apw": [...]}, each constant in s."""
    ng, mg, nh, mh = windings
    nf_g = normal_form_field(ng, mg, 2, n_grid=n_grid)
    nf_h = normal_form_field(nh, mh, 2, n_grid=n_grid)
    hg = wz.random_hermitian_field(nf_g.axes, 2, seed=seed_g, scale=0.3)
    hh = wz.random_hermitian_field(nf_h.axes, 2, seed=seed_h, scale=0.3)
    pw, apw = [], []
    for s in (0.0, 0.25, 0.5, 0.75, 1.0):
        ext_g = wz.tube_extension(nf_g, 1j * s * hg, n_s=48)
        ext_h = wz.tube_extension(nf_h, 1j * s * hh, n_s=48)
        g_s = FieldGrid(axes=nf_g.axes, samples=ext_g.samples[-1])
        h_s = FieldGrid(axes=nf_h.axes, samples=ext_h.samples[-1])
        ext_gh = wz.product_field(ext_g, ext_h)
        ext_ghg = wz.product_field(ext_gh, wz.inverse_field(ext_g))
        pw.append(wz.pw_functional(g_s, h_s, ext_g=ext_g, ext_h=ext_h, ext_gh=ext_gh))
        apw.append(wz.apw_functional(g_s, h_s, ext_ghg=ext_ghg, ext_h=ext_h))
    return {"pw": pw, "apw": apw}


@_criterion(8, "homotopy invariance of the product functionals", 1e-5)
def criterion_8_homotopy_invariance(scale, tol):
    """PW and APW constant along explicit pointwise-geodesic homotopies,
    5 sampled deformation values, 20 trials from seed 11."""
    n_grid, n_trials = _grid(32, scale), 20
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(n_trials):
        values = homotopy_trial(rng.integers(-2, 3, size=4), 3000 + trial, 4000 + trial,
                                n_grid=n_grid)
        worst = max(worst, np.ptp(values["pw"]), np.ptp(values["apw"]))
    return worst < tol, worst, {"trials": n_trials}


@_criterion(9, "equivariant loop fields have even winding", 1e-8)
def criterion_9_equivariant_winding(scale, tol):
    """100 random equivariant loop fields all carry even winding."""
    n = _grid(256, scale)
    n_fields = 100
    worst = 0.0
    all_even = True
    ax = loop_axis(n)
    for i in range(n_fields):
        gauge = berry.random_trs_gauge(n, 4, seed=5000 + i)
        w = wz.winding(FieldGrid(axes=(ax,), samples=gauge.u_samples))
        worst = max(worst, w.residual)
        if w.snapped is None or w.snapped % 2 != 0:
            all_even = False
    return all_even and worst < tol, worst, {"fields": n_fields}


@_criterion(10, "extension independence mod 2 pi", 1e-5)
def criterion_10_extension_independence(scale, tol):
    """Two distinct extensions of U_P differ by an element of 2 pi Z."""
    n = _grid(48, scale)
    fam = _fam("haldane", m=0.2)
    actions = {path: wz.wz_action_extension(
        wz.up_extension(fam, n_t=n, n1=n, n2=n, path=path)).raw_action
        for path in ("forward", "reverse", "reparam")}
    diffs = {}
    for a, b in (("forward", "reverse"), ("forward", "reparam")):
        diff = actions[a] - actions[b]
        diffs[f"{a}-{b}"] = {"difference": diff,
                             "distance_to_2piZ": abs(diff - TWO_PI * round(diff / TWO_PI))}
    worst = max(row["distance_to_2piZ"] for row in diffs.values())
    nontrivial = abs(actions["forward"] - actions["reverse"]) > np.pi
    return worst < tol and nontrivial, worst, diffs


@_criterion(11, "grid doubling reduces residuals >= 10x to the floor", 10.0)
def criterion_11_convergence(scale, tol):
    """Doubling a grid dimension reduces each probed residual by at least
    10x, until the 1e-8 floor. Each probe maps a grid n to its residual and
    runs at n = 8 and 16."""
    floor = 1e-8
    theta = TRSOperator.standard(4)
    fam_h = _fam("haldane", m=0.2)
    fam_km = _km(0.4, 0.2)
    # against the overlap Berry phase: the transport frame's own phase shares
    # the amplitude's transport and agrees with it to rounding
    loop_km = fam_km.loop(0, 0.0)
    reference = lattice.overlap_berry_phase(loop_km)
    probes = {
        "chern": lambda n: berry.chern_number(berry.berry_curvature(fam_h, n_grid=n)).residual,
        "amplitude_vs_berry": lambda n: abs(wz.wz_amplitude_phi(
            transport.parallel_transport(loop_km, n_grid=2 * n),
            method="beta").amplitude - reference),
        "wz_chern": lambda n: _wz_vs_chern(fam_h, 32, n)[2],
        "delta": lambda n: berry.delta_invariant(
            wz.z2_ingredients(fam_km, theta, n1=n, n2=2 * n)).residual,
    }
    details = {}
    for name, probe in probes.items():
        coarse, fine = probe(8), probe(16)
        at_floor = max(coarse, fine) <= floor
        ratio = None if at_floor else (np.inf if fine == 0 else coarse / fine)
        details[name] = {"coarse": coarse, "fine": fine, "ratio": ratio, "at_floor": at_floor}
    ratios = [row["ratio"] for row in details.values() if not row["at_floor"]]
    worst = min(ratios, default=np.inf)
    return all(r >= tol for r in ratios), float(worst if np.isfinite(worst) else 0.0), details


def run_all(scale=1.0, verbose=True):
    results = []
    for criterion in ALL_CRITERIA:
        results.append(criterion(scale=scale))
        if verbose:
            print(results[-1].line(), flush=True)
    return results
