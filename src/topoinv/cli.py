"""Command-line driver: compute invariants for builtin or file-loaded
models, run parameter sweeps, and run the certification suite.

Each subcommand accepts only the options it reads. Exit codes: 0 success,
1 a certification criterion failed (certify only), 2 precondition violated
(no time-reversal symmetry / gap closure), 3 a result refused to snap or
another library error stopped it, 4 bad input (usage errors, such as an
option the subcommand does not read, non-finite numbers, a loop grid too
coarse for the transport step, StepFailure, and a fixed-point basis that will
not form Kramers pairs, PairingFailure, included) or I/O. Every error is
one JSON object on stderr so sweeps stay scriptable. Outputs written with
--out contain no wall-clock data, so runs of identical configurations are
byte-identical; the certify report is the one exception (it reports
runtimes by design).
"""

import argparse
import json
import math
import multiprocessing
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import berry, certify, lattice, wz
from .config import DEFAULT_TOL, N_2D, N_LOOP
from .core import TRSOperator, check_trs, make_projector_family
from .errors import (GapClosure, NotTRS, PairingFailure, ParseError, SchemaError,
                     StepFailure, TopoinvError, UnknownModel, UnknownParameter,
                     UnsnappedError)
from .models import builtin_model, load_model, save_results, sweep_points

EXIT_OK = 0
EXIT_CRITERION_FAILED = 1
EXIT_PRECONDITION = 2
EXIT_UNSNAPPED = 3
EXIT_IO = 4

INVARIANTS = ("chern", "delta", "kappa")


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
        unknown = [x for x in self.invariants if x not in INVARIANTS]
        if unknown:
            raise ValueError(f"unknown --invariants {unknown}; choose among "
                             f"{', '.join(INVARIANTS)}")
        if self.workers < 1:
            raise ValueError(f"--workers must be at least 1, got {self.workers}")
        if self.command == "certify":
            return
        if self.model and self.model_file:
            raise ValueError("give either --model or --model-file, not both")
        if not self.model and not self.model_file:
            raise ValueError("a model is required (--model NAME or --model-file PATH)")


def _jsonify(obj):
    """Plain JSON values; a NaN or infinite float becomes null."""
    if isinstance(obj, complex):
        return [_jsonify(obj.real), _jsonify(obj.imag)]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _jsonify(obj.item())
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
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
    return spec, make_projector_family(spec)


def _invariant_payload(res):
    return {"raw": res.raw, "snapped": res.snapped, "residual": res.residual,
            "unsnapped": res.snapped is None}


def cmd_chern(cfg: RunConfig):
    spec, fam = _family(cfg)
    # each grid is read by consecutive consumers, so the family diagonalizes
    # it once: the gap probe's 64^2 grid by U_P, the curvature's by the oracle
    ext = wz.up_extension(fam, n_t=cfg.grid_t, n1=min(cfg.grid, 64),
                          n2=min(cfg.grid, 64))
    action = wz.wz_action_extension(ext)
    c = berry.chern_number(berry.berry_curvature(fam, n_grid=cfg.grid))
    oracle = lattice.plaquette_chern(fam, n_grid=cfg.grid)
    target = (-1.0) ** c.snapped if c.snapped is not None else None
    wz_diff = abs(action.amplitude - target) if target is not None else None
    report = {
        "command": "chern", "model": spec.name, "parameters": spec.parameters,
        "grid": cfg.grid, "grid_t": cfg.grid_t,
        "chern": _invariant_payload(c),
        "plaquette_oracle": _invariant_payload(oracle),
        "wz_check": {"action": action.raw_action, "amplitude": action.amplitude,
                     "amp_vs_sign_of_chern": wz_diff,
                     "pass": wz_diff is not None and wz_diff < DEFAULT_TOL.wz_sign},
        "residual_max": max(c.residual, oracle.residual),
    }
    _emit(report, cfg)
    if c.snapped is None:
        return EXIT_UNSNAPPED
    return EXIT_OK


def _z2_evaluation(fam, cfg: RunConfig):
    """The time-reversal check, then the Z2 ingredients that delta, kappa
    and the boundary Berry phases are read from; shared by fkm and sweep.

    Returns (violation, z2). violation is None for an odd ambient
    dimension; z2 is None unless the family is time-reversal symmetric.
    """
    if fam.ambient_dim % 2 != 0:
        return None, None
    theta = TRSOperator.standard(fam.ambient_dim)
    ok, violation = check_trs(fam, theta)
    if not ok:
        return violation, None
    return violation, wz.z2_ingredients(fam, theta, n_loop=cfg.loop_grid,
                                        n1=max(16, cfg.grid // 2), n2=cfg.grid)


def cmd_fkm(cfg: RunConfig):
    spec, fam = _family(cfg)
    violation, z2 = _z2_evaluation(fam, cfg)
    if violation is None:
        return _fail(EXIT_PRECONDITION, "NotTRS",
                     f"odd ambient dimension {fam.ambient_dim}")
    if z2 is None:
        return _fail(EXIT_PRECONDITION, "NotTRS",
                     "family is not time-reversal symmetric", violation=violation)
    d, kap = berry.delta_invariant(z2), wz.kappa_invariant(z2)
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
        **{f"berry_phase_{label}": v.amplitude for label, v in z2.wz.items()},
        **{f"sqrt_berry_phase_{label}": v.sqrt_amplitude for label, v in z2.wz.items()},
        "residual_max": max(d.residual, kap.residual, oracle.residual),
    }
    _emit(report, cfg)
    if d.snapped is None or kap.snapped is None:
        return EXIT_UNSNAPPED
    return EXIT_OK


def _sweep_point(args):
    """One sweep row; runs in a worker process, never raises."""
    cfg_dict, params = args
    cfg = RunConfig(**cfg_dict)
    row = dict(params)
    row["model"] = cfg.model
    try:
        fam = make_projector_family(builtin_model(cfg.model, params))
        wants = cfg.invariants or INVARIANTS
        residuals = []
        if "chern" in wants:
            c = berry.chern_number(berry.berry_curvature(fam, n_grid=cfg.grid))
            row["chern"] = c.snapped
            residuals.append(c.residual)
        if {"delta", "kappa"} & set(wants):
            violation, z2 = _z2_evaluation(fam, cfg)
            if z2 is not None:
                for key, invariant in (("delta", berry.delta_invariant),
                                       ("kappa", wz.kappa_invariant)):
                    if key in wants:
                        res = invariant(z2)
                        row[key] = res.snapped
                        residuals.append(res.residual)
                for label, value in z2.wz.items():
                    row[f"berry_phase_{label}"] = value.amplitude
            elif violation is not None:
                row["error"] = f"NotTRS(violation={violation:.3e})"
        row["residual_max"] = max(residuals) if residuals else None
    except (TopoinvError, ValueError) as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def cmd_sweep(cfg: RunConfig):
    if not cfg.sweeps:
        return _fail(EXIT_IO, "BadConfig", "at least one --sweep NAME START STOP COUNT is required")
    points = sweep_points(cfg.sweeps, cfg.params)
    # every row sets the same parameter names: check them before any row runs
    builtin_model(cfg.model, points[0])
    cfg_dict = asdict(cfg)
    args = [(cfg_dict, t) for t in points]
    if cfg.workers > 1:
        with multiprocessing.Pool(cfg.workers) as pool:
            rows = pool.map(_sweep_point, args)
    else:
        rows = [_sweep_point(a) for a in args]
    sidecar_config = {"command": "sweep", "model": cfg.model,
                      "base_params": cfg.params, "sweeps": list(cfg.sweeps),
                      "grid": cfg.grid, "loop_grid": cfg.loop_grid,
                      "invariants": list(cfg.invariants or INVARIANTS)}
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
    return EXIT_OK if report["all_passed"] else EXIT_CRITERION_FAILED


def _parse_params(items):
    params = {}
    for item in items or []:
        if "=" not in item:
            raise ValueError(f"--param expects NAME=VALUE, got {item!r}")
        key, val = item.split("=", 1)
        try:
            params[key] = float(val)
        except ValueError:
            params[key] = math.nan
        if not math.isfinite(params[key]):
            raise ValueError(f"--param {key} must be a finite number, got {val!r}")
    return params


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ValueError, so that main
    reports them as BadConfig (exit 4) instead of exiting with argparse's 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


# every option, keyed by its RunConfig field: (flag, argparse keywords)
_OPTIONS = {
    "model": ("--model", dict(default="", help="builtin model name")),
    "model_file": ("--model-file", dict(default="", help="model JSON file")),
    "params": ("--param", dict(action="append", metavar="NAME=VALUE",
                               help="model parameter override (repeatable)")),
    "grid": ("--grid", dict(type=int, default=N_2D,
                            help="2D grid size per direction (power of two, 16..1024)")),
    "grid_t": ("--grid-t", dict(type=int, default=64,
                                help="extension-direction grid for 3D quadratures")),
    "loop_grid": ("--loop-grid", dict(type=int, default=N_LOOP,
                                      help="loop grid for transport and connections")),
    "out": ("--out", dict(default="", help="write the report/CSV here")),
    "as_json": ("--json", dict(action="store_true", help="machine-readable output on stdout")),
    "sweeps": ("--sweep", dict(action="append", nargs=4, metavar=("NAME", "START", "STOP", "COUNT"),
                               help="parameter range (repeatable)")),
    "invariants": ("--invariants", dict(default="", help="comma list among chern,delta,kappa")),
    "workers": ("--workers", dict(type=int, default=multiprocessing.cpu_count(),
                                  help="worker processes for sweep points")),
}

# each subcommand takes only the options it reads; any other is a usage
# error (a model file fixes its matrices, so sweep takes no --model-file)
_COMMANDS = {
    "chern": (cmd_chern, "model model_file params grid grid_t out as_json"),
    "fkm": (cmd_fkm, "model model_file params grid loop_grid out as_json"),
    "sweep": (cmd_sweep, "model params grid loop_grid out as_json sweeps invariants workers"),
    "certify": (cmd_certify, "grid out as_json"),
}


def build_parser():
    parser = _Parser(
        prog="topoinv",
        description="Topological band invariants: Chern numbers, the Z2 "
                    "invariant in both its boundary-obstruction and "
                    "Wess-Zumino amplitude forms, and the certification "
                    "suite for the identities relating them.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        for dest in options.split():
            flag, kwargs = _OPTIONS[dest]
            p.add_argument(flag, dest=dest, **kwargs)
    return parser


def main(argv=None):
    try:
        ns = vars(build_parser().parse_args(argv))
        fn = ns.pop("fn")
        ns["params"] = _parse_params(ns.get("params"))
        ns["sweeps"] = tuple((s[0], float(s[1]), float(s[2]), int(s[3]))
                             for s in ns.get("sweeps") or ())
        ns["invariants"] = tuple(x for x in ns.get("invariants", "").split(",") if x)
        cfg = RunConfig(**ns)
        cfg.validate()
    except ValueError as exc:
        return _fail(EXIT_IO, "BadConfig", str(exc))
    try:
        return fn(cfg)
    except GapClosure as exc:
        return _fail(EXIT_PRECONDITION, "GapClosure", str(exc), gap=exc.gap, k=exc.k)
    except NotTRS as exc:
        return _fail(EXIT_PRECONDITION, "NotTRS", str(exc))
    except UnsnappedError as exc:
        return _fail(EXIT_UNSNAPPED, "Unsnapped", str(exc))
    except (UnknownModel, UnknownParameter, ParseError, SchemaError) as exc:
        return _fail(EXIT_IO, type(exc).__name__, str(exc))
    except StepFailure as exc:
        return _fail(EXIT_IO, "StepFailure", str(exc), k=exc.k, drift=exc.drift,
                     step_norm=exc.step_norm)
    except PairingFailure as exc:
        return _fail(EXIT_IO, "PairingFailure", str(exc), residual=exc.residual,
                     bound=exc.bound)
    except TopoinvError as exc:
        return _fail(EXIT_UNSNAPPED, type(exc).__name__, str(exc))
    except ValueError as exc:
        return _fail(EXIT_IO, "BadConfig", str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, "IOError", str(exc))


if __name__ == "__main__":
    sys.exit(main())
