"""Certification suite: every proved identity the library implements,
checked by quadrature at desk scale with explicit tolerances.

Each criterion function returns a CriterionResult with the measured
residuals; run_all executes the lot and the CLI/report layer renders the
pass/fail lines. Grid sizes scale with the `scale` argument so coarse smoke
runs stay cheap (criteria may then fail, which is reported, not raised).
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import berry, lattice, transport, wz
from .core import TRSOperator, make_projector_family
from .models import builtin_model
from .wz import FieldGrid, normal_form_field

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


def _scaled(n, scale):
    return max(8, int(round(n * scale)))


def _even(n):
    return n if n % 2 == 0 else n + 1


def _fam(name, **params):
    return make_projector_family(builtin_model(name, params), 0.0)


def _km(lv, lr=0.0):
    return _fam("kane_mele", lambda_so=KM_SO, lambda_v=lv, lambda_r=lr)


def criterion_1_wz_chern(scale=1.0):
    """exp(i S[U_P extension]) equals (-1)^Chern, haldane both phases and
    kane_mele, 3D grid 64^3, under 60 s per model."""
    t0 = time.time()
    n = _even(_scaled(64, scale))
    cases = [("haldane topological", _fam("haldane", m=0.2)),
             ("haldane trivial", _fam("haldane", m=1.5)),
             ("kane_mele", _km(0.4, 0.2))]
    details = {}
    worst = 0.0
    for label, fam in cases:
        t_model = time.time()
        c = berry.chern_number(berry.berry_curvature(fam, n_grid=n)).require_snapped()
        action = wz.wz_action_extension(wz.up_extension(fam, n_t=n, n1=n, n2=n))
        diff = abs(action.amplitude - (-1.0) ** c)
        runtime = time.time() - t_model
        details[label] = {"chern": c, "action": action.raw_action,
                          "amp_diff": diff, "runtime_s": runtime}
        worst = max(worst, diff)
        details[label]["under_60s"] = runtime < 60.0
    passed = worst < 1e-5 and all(d["under_60s"] for d in details.values())
    return CriterionResult(1, "WZ amplitude of U_P equals (-1)^Chern",
                           passed, 1e-5, worst, time.time() - t0, details)


def _amplitude_vs_berry(loop, n):
    """|WZ amplitude of phi (beta route) - Berry phase of the transport frame|."""
    trp = transport.parallel_transport(loop, n_grid=n)
    amp = wz.wz_amplitude_phi(trp, method="beta").amplitude
    frame = transport.build_frame(trp)
    bp = berry.berry_phase(berry.berry_connection(frame, method="spectral"))
    return abs(amp - bp.raw)


def criterion_2_amplitude_equals_berry(scale=1.0):
    """WZ amplitude of phi equals the Berry phase on both boundary loops for
    haldane, kane_mele, flat_two_band at loop grid 256."""
    t0 = time.time()
    n = _even(_scaled(256, scale))
    cases = [("haldane", _fam("haldane", m=0.2)),
             ("kane_mele", _km(0.4, 0.2)),
             ("flat_two_band", _fam("flat_two_band"))]
    worst = 0.0
    details = {}
    for label, fam in cases:
        for loop_label, k1 in (("T0", 0.0), ("Tpi", np.pi)):
            diff = _amplitude_vs_berry(fam.loop(0, k1), n)
            details[f"{label}/{loop_label}"] = diff
            worst = max(worst, diff)
    return CriterionResult(2, "WZ amplitude of phi equals the Berry phase",
                           worst < 1e-6, 1e-6, worst, time.time() - t0, details)


def criterion_3_sqrt_channel(scale=1.0):
    """Square-root agreement for kane_mele on both loops, stable under 10
    random time-reversal symmetric re-gaugings."""
    t0 = time.time()
    n = _even(_scaled(256, scale))
    theta = TRSOperator.standard(4)
    fam = _km(0.4, 0.2)
    worst = 0.0
    details = {}
    for loop_label, k1 in (("T0", 0.0), ("Tpi", np.pi)):
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
        worst = max(worst, diff, gauge_spread)
    return CriterionResult(3, "square roots agree and survive re-gauging",
                           worst < 1e-6, 1e-6, worst, time.time() - t0, details)


def kane_mele_sweep_points():
    """21 mass ratios spanning both phases, clear of the transition."""
    ratios = np.concatenate([np.linspace(0.0, 4.8, 11), np.linspace(5.6, 8.0, 10)])
    return [float(r) for r in ratios]


def criterion_4_fkm(scale=1.0):
    """K = (-1)^delta with snapped residuals below 1e-3 across >= 20
    kane_mele points in both phases, each agreeing with the lattice oracle
    and (at zero Rashba) the closed-form phase boundary."""
    t0 = time.time()
    n_loop = _even(_scaled(128, scale))
    # the half-zone direction is Simpson-limited; near-transition curvature
    # peaks need its resolution more than the loops need theirs
    n1, n2 = _even(_scaled(96, scale)), _even(_scaled(96, scale))
    theta = TRSOperator.standard(4)
    worst = 0.0
    rows = []
    all_ok = True

    def invariants(fam):
        ingredients = wz.z2_ingredients(fam, theta, n_loop=n_loop, n1=n1, n2=n2)
        return berry.delta_invariant(ingredients), wz.kappa_invariant(ingredients)

    for ratio in kane_mele_sweep_points():
        fam = _km(ratio * KM_SO)
        d, kap = invariants(fam)
        z2 = lattice.lattice_z2(fam, theta, n1=max(16, n1), n2=max(32, n2))
        expected = 1 if ratio < KM_BOUNDARY else 0
        ok = (d.snapped is not None and kap.snapped is not None
              and kap.snapped == (-1) ** d.snapped
              and z2.snapped == d.snapped and d.snapped == expected)
        worst = max(worst, d.residual, kap.residual)
        all_ok = all_ok and ok
        rows.append({"ratio": ratio, "delta": d.snapped, "kappa": kap.snapped,
                     "lattice_z2": z2.snapped, "expected": expected,
                     "delta_residual": d.residual, "kappa_residual": kap.residual})
    for lv, lr in ((0.4, 0.2), (1.0, 0.4)):
        fam = _km(lv, lr)
        d, kap = invariants(fam)
        z2 = lattice.lattice_z2(fam, theta, n1=max(16, n1), n2=max(32, n2))
        ok = (d.snapped is not None and kap.snapped == (-1) ** d.snapped
              and z2.snapped == d.snapped)
        worst = max(worst, d.residual, kap.residual)
        all_ok = all_ok and ok
        rows.append({"lambda_v": lv, "lambda_r": lr, "delta": d.snapped,
                     "kappa": kap.snapped, "lattice_z2": z2.snapped,
                     "delta_residual": d.residual})
    return CriterionResult(4, "K = (-1)^delta across the phase diagram, oracle-checked",
                           all_ok and worst < 1e-3, 1e-3, worst,
                           time.time() - t0, {"points": rows})


def criterion_5_phi_reduction(scale=1.0):
    """Direct 3D quadrature of the Phi winding density versus the reduced
    half-zone curvature integral, 1e-5 relative at 64^3 / 128^2."""
    t0 = time.time()
    n3 = _even(_scaled(64, scale))
    n2d = _even(_scaled(128, scale))
    theta = TRSOperator.standard(4)
    fam = _km(0.4, 0.2)
    ingredients = wz.z2_ingredients(fam, theta, n_loop=_even(_scaled(128, scale)),
                                    n1=n2d // 2, n2=n2d)
    kap = wz.kappa_invariant(ingredients, direct_grid=(max(8, n3 // 4), n3, n3))
    worst = kap.meta["phi3_discrepancy"]
    return CriterionResult(5, "3D winding density reduces to the curvature integral",
                           worst < 1e-5, 1e-5, worst, time.time() - t0,
                           {"direct": kap.meta["phi3_direct"],
                            "reduced": kap.meta["phi3_reduced"]})


def _normal_form_cache(dim, equivariant, n_grid, span=3):
    cache = {}
    for n in range(-span, span + 1):
        for m in range(-span, span + 1):
            cache[(n, m)] = normal_form_field(n, m, dim, equivariant=equivariant,
                                              n_grid=n_grid)
    return cache


def criterion_6_apw_normal_forms(scale=1.0):
    """APW[g,h] = -2 pi (n_g m_h - m_g n_h) exactly on all winding pairs with
    |n|,|m| <= 3; equivariant normal forms double it, landing in 4 pi Z."""
    t0 = time.time()
    n_grid = _even(_scaled(32, scale))
    fields = _normal_form_cache(2, False, n_grid)
    worst = 0.0
    for (ng, mg), g in fields.items():
        for (nh, mh), h in fields.items():
            val = wz.apw_functional(g, h)
            target = -TWO_PI * (ng * mh - mg * nh)
            worst = max(worst, abs(val - target))
    eq_fields = _normal_form_cache(4, True, n_grid, span=2)
    eq_worst = 0.0
    for (ng, mg), g in eq_fields.items():
        for (nh, mh), h in eq_fields.items():
            val = wz.apw_functional(g, h)
            target = -2.0 * TWO_PI * (ng * mh - mg * nh)
            eq_worst = max(eq_worst, abs(val - target),
                           abs(val - 2 * TWO_PI * round(val / (2 * TWO_PI))))
    worst_all = max(worst, eq_worst)
    return CriterionResult(6, "adjoint product formula on normal forms (and 4 pi Z "
                              "equivariantly)", worst_all < 1e-6, 1e-6, worst_all,
                           time.time() - t0,
                           {"plain_worst": worst, "equivariant_worst": eq_worst})


def criterion_7_pw_anomaly(scale=1.0):
    """PW[g,h] = -pi (n_g m_h - m_g n_h) on the same pair set; odd winding
    combinations are verified NOT to land in 2 pi Z (the anomaly)."""
    t0 = time.time()
    n_grid = _even(_scaled(32, scale))
    fields = _normal_form_cache(2, False, n_grid)
    worst = 0.0
    anomaly_ok = True
    for (ng, mg), g in fields.items():
        for (nh, mh), h in fields.items():
            val = wz.pw_functional(g, h)
            combo = ng * mh - mg * nh
            worst = max(worst, abs(val - (-np.pi * combo)))
            # the literature form swaps the indices; equal mod 2 pi
            quoted = -np.pi * (mg * nh - ng * mh)
            worst = max(worst, abs((val - quoted + np.pi) % TWO_PI - np.pi))
            dist_2piz = abs(val - TWO_PI * round(val / TWO_PI))
            if combo % 2 == 1 and dist_2piz < np.pi - 1e-6:
                anomaly_ok = False
            if combo % 2 == 0 and dist_2piz > 1e-6:
                anomaly_ok = False
    return CriterionResult(7, "product formula anomaly -pi (n_g m_h - m_g n_h)",
                           worst < 1e-6 and anomaly_ok, 1e-6, worst,
                           time.time() - t0, {"odd_combos_anomalous": anomaly_ok})


def criterion_8_homotopy_invariance(scale=1.0):
    """PW and APW constant along explicit pointwise-geodesic homotopies,
    5 sampled deformation values, 20 trials from seed 11."""
    t0 = time.time()
    n_grid = _even(_scaled(32, scale))
    n_s, n_trials = 48, 20
    rng = np.random.default_rng(11)
    s_values = [0.0, 0.25, 0.5, 0.75, 1.0]
    worst = 0.0
    for trial in range(n_trials):
        ng, mg, nh, mh = rng.integers(-2, 3, size=4)
        nf_g = normal_form_field(ng, mg, 2, n_grid=n_grid)
        nf_h = normal_form_field(nh, mh, 2, n_grid=n_grid)
        hg = wz.random_hermitian_field(nf_g.axes, 2, seed=3000 + trial, scale=0.3)
        hh = wz.random_hermitian_field(nf_h.axes, 2, seed=4000 + trial, scale=0.3)
        pw_vals, apw_vals = [], []
        for s in s_values:
            ext_g = wz.tube_extension(nf_g, 1j * s * hg, n_s=n_s)
            ext_h = wz.tube_extension(nf_h, 1j * s * hh, n_s=n_s)
            g_s = FieldGrid(axes=nf_g.axes, samples=ext_g.samples[-1])
            h_s = FieldGrid(axes=nf_h.axes, samples=ext_h.samples[-1])
            ext_gh = wz.product_field(ext_g, ext_h)
            ext_ghg = wz.product_field(ext_gh, wz.inverse_field(ext_g))
            pw_vals.append(wz.pw_functional(g_s, h_s, ext_g=ext_g, ext_h=ext_h,
                                            ext_gh=ext_gh))
            apw_vals.append(wz.apw_functional(g_s, h_s, ext_ghg=ext_ghg,
                                              ext_h=ext_h))
        worst = max(worst, np.ptp(pw_vals), np.ptp(apw_vals))
    return CriterionResult(8, "homotopy invariance of the product functionals",
                           worst < 1e-5, 1e-5, worst, time.time() - t0,
                           {"trials": n_trials})


def criterion_9_equivariant_winding(scale=1.0):
    """100 random equivariant loop fields all carry even winding."""
    t0 = time.time()
    n = _even(_scaled(256, scale))
    n_fields = 100
    worst = 0.0
    all_even = True
    from .grids import loop_axis
    ax = loop_axis(n)
    for i in range(n_fields):
        gauge = berry.random_trs_gauge(n, 4, seed=5000 + i)
        fld = FieldGrid(axes=(ax,), samples=gauge.u_samples)
        w = wz.winding(fld, snap_tol=1e-3)
        worst = max(worst, w.residual)
        if w.snapped is None or w.snapped % 2 != 0:
            all_even = False
    return CriterionResult(9, "equivariant loop fields have even winding",
                           all_even and worst < 1e-8, 1e-8, worst,
                           time.time() - t0, {"fields": n_fields})


def criterion_10_extension_independence(scale=1.0):
    """Two distinct extensions of U_P differ by an element of 2 pi Z."""
    t0 = time.time()
    n = _even(_scaled(48, scale))
    fam = _fam("haldane", m=0.2)
    actions = {path: wz.wz_action_extension(
        wz.up_extension(fam, n_t=n, n1=n, n2=n, path=path)).raw_action
        for path in ("forward", "reverse", "reparam")}
    worst = 0.0
    diffs = {}
    for a, b in (("forward", "reverse"), ("forward", "reparam")):
        diff = actions[a] - actions[b]
        dist = abs(diff - TWO_PI * round(diff / TWO_PI))
        diffs[f"{a}-{b}"] = {"difference": diff, "distance_to_2piZ": dist}
        worst = max(worst, dist)
    nontrivial = abs(actions["forward"] - actions["reverse"]) > np.pi
    return CriterionResult(10, "extension independence mod 2 pi",
                           worst < 1e-5 and nontrivial, 1e-5, worst,
                           time.time() - t0, diffs)


def criterion_11_convergence(scale=1.0):
    """Doubling a grid dimension reduces each probed residual by at least
    10x, until the 1e-8 floor."""
    t0 = time.time()
    floor = 1e-8
    theta = TRSOperator.standard(4)
    fam_h = _fam("haldane", m=0.2)
    fam_km = _km(0.4, 0.2)
    probes = {}

    def chern_resid(n):
        return berry.chern_number(berry.berry_curvature(fam_h, n_grid=n)).residual

    probes["chern"] = (chern_resid(8), chern_resid(16))

    # against the overlap Berry phase: the transport frame's own phase shares
    # the amplitude's transport and agrees with it to rounding
    loop_km = fam_km.loop(0, 0.0)
    reference = lattice.overlap_berry_phase(loop_km)
    probes["amplitude_vs_berry"] = tuple(
        abs(wz.wz_amplitude_phi(transport.parallel_transport(loop_km, n_grid=n, substeps=2),
                                method="beta").amplitude - reference) for n in (16, 32))

    def up_diff(n):
        c = berry.chern_number(berry.berry_curvature(fam_h, n_grid=32)).require_snapped()
        a = wz.wz_action_extension(wz.up_extension(fam_h, n_t=n, n1=n, n2=n))
        return abs(a.amplitude - (-1.0) ** c)

    probes["wz_chern"] = (up_diff(8), up_diff(16))

    def delta_resid(n):
        return berry.delta_invariant(wz.z2_ingredients(fam_km, theta, n_loop=4 * n,
                                                       n1=n, n2=2 * n)).residual

    probes["delta"] = (delta_resid(8), delta_resid(16))

    details = {}
    ok = True
    worst_ratio = np.inf
    for name, (coarse, fine) in probes.items():
        at_floor = max(coarse, fine) <= floor
        ratio = np.inf if fine == 0 else coarse / fine
        good = at_floor or ratio >= 10.0
        details[name] = {"coarse": coarse, "fine": fine,
                         "ratio": None if at_floor else ratio, "at_floor": at_floor}
        ok = ok and good
        if not at_floor:
            worst_ratio = min(worst_ratio, ratio)
    worst = 0.0 if worst_ratio == np.inf else 10.0 / worst_ratio
    return CriterionResult(11, "grid doubling reduces residuals >= 10x to the floor",
                           ok, 10.0, float(worst_ratio if np.isfinite(worst_ratio) else 0.0),
                           time.time() - t0, details)


ALL_CRITERIA = [
    criterion_1_wz_chern,
    criterion_2_amplitude_equals_berry,
    criterion_3_sqrt_channel,
    criterion_4_fkm,
    criterion_5_phi_reduction,
    criterion_6_apw_normal_forms,
    criterion_7_pw_anomaly,
    criterion_8_homotopy_invariance,
    criterion_9_equivariant_winding,
    criterion_10_extension_independence,
    criterion_11_convergence,
]


def run_all(scale=1.0, verbose=True):
    from .errors import TopoinvError
    results = []
    for index, fn in enumerate(ALL_CRITERIA, start=1):
        t0 = time.time()
        try:
            res = fn(scale=scale)
        except (TopoinvError, ValueError) as exc:
            # under-resolved grids may break preconditions; report, never crash
            res = CriterionResult(index, fn.__name__, passed=False,
                                  tolerance=float("nan"), worst=float("nan"),
                                  runtime=time.time() - t0,
                                  details={"error": f"{type(exc).__name__}: {exc}"})
        results.append(res)
        if verbose:
            print(res.line(), flush=True)
    return results
