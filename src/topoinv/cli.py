"""Command-line driver: compute invariants for builtin or file-loaded
models, run parameter sweeps, and run the certification suite.

Exit codes: 0 success, 2 precondition violated (no time-reversal symmetry /
gap closure), 3 a result refused to snap, 4 bad input or I/O. Errors are
emitted as JSON objects on stderr so sweeps stay scriptable. Outputs written
with --out contain no wall-clock data, so runs of identical configurations
are byte-identical; the certify report is the one exception (it reports
runtimes by design).
"""

import argparse
import json
import multiprocessing
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import berry, certify, lattice, wz
from .config import N_2D, N_LOOP
from .core import TRSOperator, check_trs, make_projector_family
from .errors import (GapClosure, NotTRS, ParseError, SchemaError, TopoinvError,
                     UnknownModel, UnsnappedError)
from .models import SweepJob, builtin_model, load_model, save_results

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_UNSNAPPED = 3
EXIT_IO = 4


@dataclass
class RunConfig:
    command: str
    model: str = ""
    model_file: str = ""
    params: dict = field(default_factory=dict)
    grid: int = N_2D
    grid_t: int = 64
    loop_grid: int = N_LOOP
    out: str = ""
    as_json: bool = False
    invariants: tuple = ()
    sweeps: tuple = ()
    workers: int = 1

    def validate(self):
        for label, n in (("--grid", self.grid), ("--grid-t", self.grid_t),
                         ("--loop-grid", self.loop_grid)):
            if n < 16 or n > 1024 or (n & (n - 1)) != 0:
                raise ValueError(f"{label} must be a power of two in [16, 1024], got {n}")
        if self.model and self.model_file:
            raise ValueError("give either --model or --model-file, not both")
        if not self.model and not self.model_file:
            raise ValueError("a model is required (--model NAME or --model-file PATH)")


def _jsonify(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _emit(report, cfg: RunConfig):
    text = json.dumps(_jsonify(report), indent=1, sort_keys=True)
    if cfg.out:
        Path(cfg.out).write_text(text + "\n", encoding="utf-8")
    if cfg.as_json or not cfg.out:
        print(text)


def _fail(code, kind, message, **extra):
    payload = {"error": kind, "message": message}
    payload.update(_jsonify(extra))
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def _load_spec(cfg: RunConfig):
    if cfg.model_file:
        return load_model(cfg.model_file)
    return builtin_model(cfg.model, cfg.params)


def _family(cfg: RunConfig):
    spec = _load_spec(cfg)
    return spec, make_projector_family(spec, fermi_level=0.0)


def _invariant_payload(res):
    return {"raw": res.raw, "snapped": res.snapped, "residual": res.residual,
            "unsnapped": res.snapped is None}


def cmd_chern(cfg: RunConfig):
    spec, fam = _family(cfg)
    c = berry.chern_number(berry.berry_curvature(fam, n_grid=cfg.grid))
    oracle = lattice.plaquette_chern(fam, n_grid=cfg.grid)
    ext = wz.up_extension(fam, n_t=cfg.grid_t, n1=min(cfg.grid, 64),
                          n2=min(cfg.grid, 64))
    action = wz.wz_action_extension(ext)
    target = (-1.0) ** c.snapped if c.snapped is not None else None
    wz_diff = abs(action.amplitude - target) if target is not None else None
    report = {
        "command": "chern", "model": spec.name, "parameters": spec.parameters,
        "grid": cfg.grid, "grid_t": cfg.grid_t,
        "chern": _invariant_payload(c),
        "plaquette_oracle": _invariant_payload(oracle),
        "wz_check": {"action": action.raw_action, "amplitude": action.amplitude,
                     "amp_vs_sign_of_chern": wz_diff,
                     "pass": wz_diff is not None and wz_diff < 1e-4},
        "residual_max": max(c.residual, oracle.residual),
    }
    _emit(report, cfg)
    if c.snapped is None:
        return EXIT_UNSNAPPED
    return EXIT_OK


def _z2_evaluation(fam, cfg: RunConfig):
    """The time-reversal check, then delta, kappa and the boundary Berry
    phases from one set of Z2 ingredients; shared by fkm and sweep.

    Returns (violation, z2, results). violation is None for an odd ambient
    dimension; z2 and results are None unless the family is time-reversal
    symmetric. results maps report keys to delta, kappa and the phases.
    """
    if fam.ambient_dim % 2 != 0:
        return None, None, None
    theta = TRSOperator.standard(fam.ambient_dim)
    ok, violation = check_trs(fam, theta)
    if not ok:
        return violation, None, None
    z2 = wz.z2_ingredients(fam, theta, n_loop=cfg.loop_grid,
                           n1=max(16, cfg.grid // 2), n2=cfg.grid)
    results = {"delta": berry.delta_invariant(z2), "kappa": wz.kappa_invariant(z2)}
    for label, value in z2.wz.items():
        results[f"berry_phase_{label}"] = value.amplitude
        results[f"sqrt_berry_phase_{label}"] = value.sqrt_amplitude
    return violation, z2, results


def cmd_fkm(cfg: RunConfig):
    spec, fam = _family(cfg)
    violation, z2, results = _z2_evaluation(fam, cfg)
    if violation is None:
        return _fail(EXIT_PRECONDITION, "NotTRS",
                     f"odd ambient dimension {fam.ambient_dim}")
    if z2 is None:
        return _fail(EXIT_PRECONDITION, "NotTRS",
                     "family is not time-reversal symmetric", violation=violation)
    d, kap = results.pop("delta"), results.pop("kappa")
    _, n1, n2 = z2.grid
    oracle = lattice.lattice_z2(fam, z2.theta, n1=n1, n2=n2)
    agree = (d.snapped is not None and kap.snapped is not None
             and kap.snapped == (-1) ** d.snapped)
    report = {
        "command": "fkm", "model": spec.name, "parameters": spec.parameters,
        "grid": cfg.grid, "loop_grid": cfg.loop_grid,
        "trs_violation": violation,
        "delta": _invariant_payload(d),
        "kappa": _invariant_payload(kap),
        "lattice_oracle": _invariant_payload(oracle),
        "oracle_agrees": oracle.snapped == d.snapped,
        "kappa_equals_minus_one_to_delta": agree,
        **results,
        "residual_max": max(d.residual, kap.residual, oracle.residual),
    }
    _emit(report, cfg)
    if d.snapped is None or kap.snapped is None:
        return EXIT_UNSNAPPED
    return EXIT_OK


def _sweep_job(cfg: RunConfig):
    return SweepJob(model=cfg.model, ranges=cfg.sweeps,
                    grid=cfg.grid, loop_grid=cfg.loop_grid,
                    invariants=cfg.invariants or ("chern", "delta", "kappa"),
                    out=cfg.out, base_params=cfg.params)


def _sweep_point(args):
    """One sweep row; runs in a worker process, never raises."""
    cfg_dict, params = args
    cfg = RunConfig(**cfg_dict)
    row = dict(params)
    row["model"] = cfg.model
    try:
        fam = make_projector_family(builtin_model(cfg.model, params), fermi_level=0.0)
        wants = cfg.invariants or ("chern", "delta", "kappa")
        residuals = []
        if "chern" in wants:
            c = berry.chern_number(berry.berry_curvature(fam, n_grid=cfg.grid))
            row["chern"] = c.snapped
            residuals.append(c.residual)
        if {"delta", "kappa"} & set(wants):
            violation, z2, results = _z2_evaluation(fam, cfg)
            if z2 is not None:
                for key in ("delta", "kappa"):
                    if key in wants:
                        row[key] = results[key].snapped
                        residuals.append(results[key].residual)
                for key in ("berry_phase_T0", "berry_phase_Tpi"):
                    row[key] = results[key]
            elif violation is not None:
                row["error"] = f"NotTRS(violation={violation:.3e})"
        row["residual_max"] = max(residuals) if residuals else None
    except (TopoinvError, ValueError) as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def cmd_sweep(cfg: RunConfig):
    if not cfg.sweeps:
        return _fail(EXIT_IO, "BadConfig", "at least one --sweep NAME START STOP COUNT is required")
    if cfg.model_file:
        # a model file fixes its matrices, so swept parameters cannot reach it
        return _fail(EXIT_IO, "BadConfig", "--sweep needs a builtin --model, not --model-file")
    tasks = _sweep_job(cfg).points()
    cfg_dict = asdict(cfg)
    args = [(cfg_dict, t) for t in tasks]
    if cfg.workers > 1:
        with multiprocessing.Pool(cfg.workers) as pool:
            rows = pool.map(_sweep_point, args)
    else:
        rows = [_sweep_point(a) for a in args]
    sidecar_config = {"command": "sweep", "model": cfg.model,
                      "base_params": cfg.params, "sweeps": list(cfg.sweeps),
                      "grid": cfg.grid, "loop_grid": cfg.loop_grid,
                      "invariants": list(cfg.invariants)}
    if cfg.out:
        save_results(cfg.out, rows, config=sidecar_config)
        print(f"wrote {cfg.out} ({len(rows)} rows)")
    else:
        _emit({"config": sidecar_config, "rows": rows}, cfg)
    return EXIT_OK


def cmd_certify(cfg: RunConfig):
    scale = cfg.grid / N_2D
    results = certify.run_all(scale=scale, verbose=not cfg.as_json)
    report = {
        "command": "certify", "scale": scale,
        "criteria": [{"index": r.index, "name": r.name, "passed": r.passed,
                      "tolerance": r.tolerance, "worst": r.worst,
                      "runtime_s": r.runtime, "details": r.details}
                     for r in results],
        "all_passed": all(r.passed for r in results),
    }
    if cfg.as_json or cfg.out:
        _emit(report, cfg)
    return EXIT_OK if report["all_passed"] else 1


def _parse_params(items):
    params = {}
    for item in items or []:
        if "=" not in item:
            raise ValueError(f"--param expects NAME=VALUE, got {item!r}")
        key, val = item.split("=", 1)
        params[key] = float(val)
    return params


def build_parser():
    parser = argparse.ArgumentParser(
        prog="topoinv",
        description="Topological band invariants: Chern numbers, the Z2 "
                    "invariant in both its boundary-obstruction and "
                    "Wess-Zumino amplitude forms, and the certification "
                    "suite for the identities relating them.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("chern", cmd_chern), ("fkm", cmd_fkm),
                     ("sweep", cmd_sweep), ("certify", cmd_certify)):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--model", default="", help="builtin model name")
        p.add_argument("--model-file", default="", help="model JSON file")
        p.add_argument("--param", action="append", metavar="NAME=VALUE",
                       help="model parameter override (repeatable)")
        p.add_argument("--grid", type=int, default=N_2D,
                       help="2D grid size per direction (power of two, 16..1024)")
        p.add_argument("--grid-t", type=int, default=64,
                       help="extension-direction grid for 3D quadratures")
        p.add_argument("--loop-grid", type=int, default=N_LOOP,
                       help="loop grid for transport and connections")
        p.add_argument("--out", default="", help="write the report/CSV here")
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="machine-readable output on stdout")
        if name == "sweep":
            p.add_argument("--sweep", action="append", nargs=4,
                           metavar=("NAME", "START", "STOP", "COUNT"),
                           help="parameter range (repeatable)")
            p.add_argument("--invariants", default="",
                           help="comma list among chern,delta,kappa")
            p.add_argument("--workers", type=int,
                           default=multiprocessing.cpu_count(),
                           help="worker processes for sweep points")
    return parser


def main(argv=None):
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        sweeps = tuple((s[0], float(s[1]), float(s[2]), int(s[3]))
                       for s in (getattr(ns, "sweep", None) or []))
        cfg = RunConfig(
            command=ns.command, model=ns.model, model_file=ns.model_file,
            params=_parse_params(ns.param), grid=ns.grid, grid_t=ns.grid_t,
            loop_grid=ns.loop_grid, out=ns.out,
            as_json=ns.as_json,
            invariants=tuple(x for x in getattr(ns, "invariants", "").split(",") if x),
            sweeps=sweeps, workers=getattr(ns, "workers", 1))
        if ns.command != "certify":
            cfg.validate()
        else:
            cfg.model = cfg.model or "-"
    except ValueError as exc:
        return _fail(EXIT_IO, "BadConfig", str(exc))
    try:
        return ns.fn(cfg)
    except GapClosure as exc:
        return _fail(EXIT_PRECONDITION, "GapClosure", str(exc), gap=exc.gap, k=exc.k)
    except NotTRS as exc:
        return _fail(EXIT_PRECONDITION, "NotTRS", str(exc))
    except UnsnappedError as exc:
        return _fail(EXIT_UNSNAPPED, "Unsnapped", str(exc))
    except (UnknownModel, ParseError, SchemaError) as exc:
        return _fail(EXIT_IO, type(exc).__name__, str(exc))
    except ValueError as exc:
        return _fail(EXIT_IO, "BadConfig", str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, "IOError", str(exc))


if __name__ == "__main__":
    sys.exit(main())
