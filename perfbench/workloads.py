"""The benchmark's workloads: seeded request sequences, the code that runs
one request against topoinv, and the check of each request's output.

Every workload is a closed loop with one client, issued in cycles of a fixed
request mix. The first cycles of every sequence are reference cycles with
fixed inputs (the band edges, the Rashba points, criterion 8's first
trial); they make `residual_max` the same for every seed, so it moves only
when the program's accuracy moves. Later cycles draw their inputs from the
seed. The program receives only the generated inputs.
"""

import contextlib
import io
import json
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi
RESIDUAL_FLOOR = 1e-9

# Kane-Mele: lambda_so fixed, lambda_v / lambda_so drawn from criterion 4's
# bands, clear of the phase boundary at 3 sqrt(3).
KM_SO = 0.3
KM_TOPO = (0.0, 4.8)      # delta = 1
KM_TRIVIAL = (5.6, 8.0)   # delta = 0
KM_RASHBA = ((0.4, 0.2), (1.0, 0.4))  # (lambda_v, lambda_r), both delta = 1
# Haldane (t2 = 0.15, phi = pi/2): boundary at |m| = 3 sqrt(3) t2 ~ 0.78.
HALDANE_TOPO = (0.05, 0.6)     # Chern -1
HALDANE_TRIVIAL = (1.0, 2.0)   # Chern 0
# Normal-form tables and homotopy trials (criteria 6-8).
NF_SPAN = 3
NF_GRID = 32
TRIAL_WINDING = 2
TRIAL_NS = 48
TRIAL_S = (0.0, 0.25, 0.5, 0.75, 1.0)
TABLE_TOL = 1e-6
TRIAL_SPREAD_TOL = 1e-5


@dataclass(frozen=True)
class Request:
    """One request. `kind` is chern | fkm | table | trial; `params` holds the
    generated inputs; `expected` the closed-form answer the output must give
    (a Chern number, delta, or a winding tuple for tables and trials)."""

    kind: str
    params: tuple
    expected: object
    reference: bool = False


def _u(rng, band):
    return round(float(rng.uniform(*band)), 6)


def _chern(model, expected, reference=False, **params):
    return Request("chern", (model,) + tuple(sorted(params.items())), expected, reference)


def _fkm(lambda_v, expected, lambda_r=0.0, reference=False):
    params = {"lambda_so": KM_SO, "lambda_v": lambda_v}
    if lambda_r:
        params["lambda_r"] = lambda_r
    return Request("fkm", ("kane_mele",) + tuple(sorted(params.items())),
                   expected, reference)


def chern_haldane_cycles(rng):
    yield [_chern("haldane", -1, True, m=HALDANE_TOPO[1]),
           _chern("haldane", 0, True, m=HALDANE_TRIVIAL[0])]
    while True:
        yield [_chern("haldane", -1, m=_u(rng, HALDANE_TOPO)),
               _chern("haldane", 0, m=_u(rng, HALDANE_TRIVIAL))]


def trs_kane_mele_cycles(rng):
    (lv_a, lr_a), (lv_b, lr_b) = KM_RASHBA
    edge_topo, edge_trivial = KM_TOPO[1] * KM_SO, KM_TRIVIAL[0] * KM_SO
    yield [_fkm(round(edge_topo, 6), 1, reference=True),
           _fkm(lv_a, 1, lambda_r=lr_a, reference=True),
           _chern("kane_mele", 0, True, lambda_so=KM_SO, lambda_v=round(edge_topo, 6))]
    yield [_fkm(round(edge_trivial, 6), 0, reference=True),
           _fkm(lv_b, 1, lambda_r=lr_b, reference=True),
           _chern("kane_mele", 0, True, lambda_so=KM_SO, lambda_v=round(edge_trivial, 6))]
    cycle = 0
    while True:
        band = KM_TOPO if cycle % 2 == 0 else KM_TRIVIAL
        yield [_fkm(round(_u(rng, KM_TOPO) * KM_SO, 6), 1),
               _fkm(round(_u(rng, KM_TRIVIAL) * KM_SO, 6), 0),
               _chern("kane_mele", 0, lambda_so=KM_SO,
                      lambda_v=round(_u(rng, band) * KM_SO, 6))]
        cycle += 1


def _table(ng, mg, reference=False):
    return Request("table", (int(ng), int(mg)), (int(ng), int(mg)), reference)


def _trial(windings, seed_g, seed_h, reference=False):
    w = tuple(int(x) for x in windings)
    return Request("trial", w + (int(seed_g), int(seed_h)), w, reference)


def wz_functionals_cycles(rng):
    corners = [(NF_SPAN, NF_SPAN), (NF_SPAN, -NF_SPAN), (-NF_SPAN, NF_SPAN),
               (-NF_SPAN, -NF_SPAN)]
    # criterion 8's first trial: windings from its seed 11, field seeds 3000/4000
    first = np.random.default_rng(11).integers(-TRIAL_WINDING, TRIAL_WINDING + 1, size=4)
    yield [_table(*c, reference=True) for c in corners] + [
        _trial(first, 3000, 4000, reference=True)]
    while True:
        tables = [_table(*rng.integers(-NF_SPAN, NF_SPAN + 1, size=2)) for _ in range(4)]
        windings = rng.integers(-TRIAL_WINDING, TRIAL_WINDING + 1, size=4)
        seeds = rng.integers(0, 2 ** 31, size=2)
        yield tables + [_trial(windings, *seeds)]


WORKLOADS = {
    "chern_haldane": chern_haldane_cycles,
    "trs_kane_mele": trs_kane_mele_cycles,
    "wz_functionals": wz_functionals_cycles,
}
# Leading cycles with fixed inputs; residual_max is taken over these.
REFERENCE_CYCLES = {"chern_haldane": 1, "trs_kane_mele": 2, "wz_functionals": 1}
# Nominal seconds per seeded cycle on one core; fixes how many cycles a
# traced run replays, so the replay length does not depend on timing.
NOMINAL_CYCLE_S = {"chern_haldane": 2.0, "trs_kane_mele": 4.4, "wz_functionals": 6.9}


def cycles(workload, seed):
    """Endless generator of request cycles; the same seed gives the same
    inputs."""
    salt = sorted(WORKLOADS).index(workload)
    return WORKLOADS[workload](np.random.default_rng([int(seed), salt]))


# ------------------------------------------------------------------ running

def cli_argv(req):
    model, *params = req.params
    argv = [req.kind, "--model", model]
    for name, value in params:
        argv += ["--param", f"{name}={value!r}"]
    return argv + ["--json"]


def _run_cli(req):
    from topoinv import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(cli_argv(req))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _run_table(req):
    from topoinv import wz
    ng, mg = req.params
    g = wz.normal_form_field(ng, mg, 2, n_grid=NF_GRID)
    rows = []
    for nh in range(-NF_SPAN, NF_SPAN + 1):
        for mh in range(-NF_SPAN, NF_SPAN + 1):
            h = wz.normal_form_field(nh, mh, 2, n_grid=NF_GRID)
            rows.append((nh, mh, wz.pw_functional(g, h), wz.apw_functional(g, h)))
    return {"rows": rows}


def _run_trial(req):
    from topoinv import wz
    ng, mg, nh, mh, seed_g, seed_h = req.params
    nf_g = wz.normal_form_field(ng, mg, 2, n_grid=NF_GRID)
    nf_h = wz.normal_form_field(nh, mh, 2, n_grid=NF_GRID)
    hg = wz.random_hermitian_field(nf_g.axes, 2, seed=seed_g, scale=0.3)
    hh = wz.random_hermitian_field(nf_h.axes, 2, seed=seed_h, scale=0.3)
    pw, apw = [], []
    for s in TRIAL_S:
        ext_g = wz.tube_extension(nf_g, 1j * s * hg, n_s=TRIAL_NS)
        ext_h = wz.tube_extension(nf_h, 1j * s * hh, n_s=TRIAL_NS)
        g_s = wz.FieldGrid(axes=nf_g.axes, samples=ext_g.samples[-1])
        h_s = wz.FieldGrid(axes=nf_h.axes, samples=ext_h.samples[-1])
        ext_gh = wz.product_field(ext_g, ext_h)
        ext_ghg = wz.product_field(wz.product_field(ext_g, ext_h),
                                   wz.inverse_field(ext_g))
        pw.append(wz.pw_functional(g_s, h_s, ext_g=ext_g, ext_h=ext_h, ext_gh=ext_gh))
        apw.append(wz.apw_functional(g_s, h_s, ext_ghg=ext_ghg, ext_h=ext_h))
    return {"pw": pw, "apw": apw}


RUNNERS = {"chern": _run_cli, "fkm": _run_cli, "table": _run_table, "trial": _run_trial}


def run(req):
    """Run one request; returns its raw output. Exceptions propagate."""
    return RUNNERS[req.kind](req)


def fingerprint(output):
    """Exact text of an output, for comparing traced and untraced passes."""
    return json.dumps(output, sort_keys=True, default=repr)


# ----------------------------------------------------------------- checking

def _combo(ng, mg, nh, mh):
    return ng * mh - mg * nh


def check(req, output):
    """Return (ok, residual, reason) for one request's output.

    The residual is the request's largest snap or closed-form residual,
    floored at RESIDUAL_FLOOR."""
    if req.kind in ("chern", "fkm"):
        if output["exit"] != 0:
            return False, None, f"exit {output['exit']}: {output['stderr'].strip()[:200]}"
        rep = json.loads(output["stdout"])
        if req.kind == "chern":
            ok = (rep["chern"]["snapped"] == req.expected
                  and rep["plaquette_oracle"]["snapped"] == req.expected
                  and rep["wz_check"]["pass"] is True)
            residual = max(rep["residual_max"], rep["wz_check"]["amp_vs_sign_of_chern"])
        else:
            delta = rep["delta"]["snapped"]
            ok = (delta == req.expected and rep["kappa"]["snapped"] == (-1) ** delta
                  and rep["lattice_oracle"]["snapped"] == delta)
            residual = rep["residual_max"]
        reason = "" if ok else f"wrong value, expected {req.expected}"
    elif req.kind == "table":
        ng, mg = req.expected
        residual = max(max(abs(pw + np.pi * _combo(ng, mg, nh, mh)),
                           abs(apw + TWO_PI * _combo(ng, mg, nh, mh)))
                       for nh, mh, pw, apw in output["rows"])
        ok = residual <= TABLE_TOL
        reason = "" if ok else f"table residual {residual:.3e} > {TABLE_TOL:.0e}"
    else:
        c = _combo(*req.expected)
        pw, apw = output["pw"], output["apw"]
        spread = max(np.ptp(pw), np.ptp(apw))
        closed = max(abs(pw[0] + np.pi * c), abs(apw[0] + TWO_PI * c))
        ok = spread <= TRIAL_SPREAD_TOL and closed <= TABLE_TOL
        residual = max(spread, closed)
        reason = "" if ok else f"trial spread {spread:.3e}, s=0 residual {closed:.3e}"
    return ok, max(float(residual), RESIDUAL_FLOOR), reason
