"""Command-line driver: compute invariants for builtin or file-loaded
models, run parameter sweeps, and run the certification suite.

chern and fkm each format one evaluation, certify.chern_evaluation or
certify.fkm_evaluation, which certify's criteria 1 and 4 check at grids 64
and 128. A sweep row reads its columns from the same evaluations, and its
error column names any snapped cross-check that contradicts a value it reports.

Each subcommand accepts only the options it reads. --grid is the only
resolution option: the torus has --grid^2 points, the half zone
(max(16, --grid/2) + 1) x --grid and each boundary loop 2 * --grid; U_P's
N_UP^3 is fixed, and when --grid is a multiple of N_UP its N_UP^2 torus is
read from the eigensystem of the curvature's grid. Exit codes: 0 success, 1 a
certification criterion failed (certify only), 2 precondition violated
(NotTRS, GapClosure), 3 a result refused to snap or any other library error
stopped it, 4 bad input or I/O: usage errors (BadConfig), such as an option
the subcommand does not read or a non-finite number; UnknownModel,
UnknownParameter, ParseError, SchemaError; a --grid too coarse for the
transport step (StepFailure); a fixed-point basis that will not form
Kramers pairs (PairingFailure). Every error is one JSON object on stderr,
its type, message and own fields. Outputs written with --out contain no
wall-clock data, so runs of identical configurations are byte-identical;
the certify report is the one exception (it reports runtimes by design).
"""

import argparse
import functools
import json
import math
import multiprocessing
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import certify
from .config import N_2D
from .core import make_projector_family
from .errors import (GapClosure, NotTRS, PairingFailure, ParseError, SchemaError,
                     StepFailure, TopoinvError, UnknownModel, UnknownParameter)
from .models import builtin_model, load_model, save_results, sweep_points
from .results import InvariantResult

EXIT_OK = 0
EXIT_CRITERION_FAILED = 1
EXIT_PRECONDITION = 2
EXIT_UNSNAPPED = 3
EXIT_IO = 4

# the library errors with an exit code of their own; any other exits 3
_ERROR_EXITS = {GapClosure: EXIT_PRECONDITION, NotTRS: EXIT_PRECONDITION,
                **dict.fromkeys((UnknownModel, UnknownParameter, ParseError, SchemaError,
                                 StepFailure, PairingFailure), EXIT_IO)}

INVARIANTS = ("chern", "delta", "kappa")


@dataclass
class RunConfig:
    command: str
    model: str = ""
    model_file: str = ""
    params: dict = field(default_factory=dict)
    grid: int = N_2D
    out: str = ""
    as_json: bool = False
    invariants: tuple = ()
    sweeps: tuple = ()
    workers: int = 1

    def validate(self):
        if self.grid < 16 or self.grid > 1024 or (self.grid & (self.grid - 1)) != 0:
            raise ValueError(f"--grid must be a power of two in [16, 1024], got {self.grid}")
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
    """Plain JSON values, an InvariantResult as its fields; NaN and inf floats are null."""
    if isinstance(obj, InvariantResult):
        return _jsonify(vars(obj))
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
    payload = {"error": kind, "message": message, **_jsonify(extra)}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def _family(cfg: RunConfig):
    spec = load_model(cfg.model_file) if cfg.model_file else builtin_model(cfg.model, cfg.params)
    return spec, make_projector_family(spec)


def _report(cfg: RunConfig, evaluate):
    """Emit one command's evaluation, with residual_max over its invariants
    and cross-checks; exit 3 when an invariant refused to snap."""
    spec, fam = _family(cfg)
    fields, _ = evaluate(fam, cfg.grid)
    results = {k: v for k, v in fields.items() if isinstance(v, InvariantResult)}
    payloads = {k: {"raw": v.raw, "snapped": v.snapped, "residual": v.residual,
                    "unsnapped": v.snapped is None} for k, v in results.items()}
    _emit({"command": cfg.command, "model": spec.name, "parameters": spec.parameters,
           "grid": cfg.grid, **fields, **payloads,
           "residual_max": max(v.residual for v in results.values())}, cfg)
    unsnapped = any(v.snapped is None for k, v in results.items() if k in INVARIANTS)
    return EXIT_UNSNAPPED if unsnapped else EXIT_OK


def cmd_chern(cfg: RunConfig):
    return _report(cfg, certify.chern_evaluation)


def cmd_fkm(cfg: RunConfig):
    return _report(cfg, certify.fkm_evaluation)


def _sweep_point(args):
    """One sweep row, read from the evaluations of the commands that compute
    its invariants; runs in a worker process, never raises. residual_max is
    the largest residual of the invariants the row reports; `error` names a
    failure, or each contradiction that those evaluations found."""
    (model, grid, wants), params = args
    row = dict(params, model=model)
    try:
        fam = make_projector_family(builtin_model(model, params))
        residuals, contradictions = [], []
        for evaluate, names in ((certify.chern_evaluation, ("chern",)),
                                (certify.fkm_evaluation, ("delta", "kappa"))):
            if not set(names) & set(wants):
                continue
            try:
                fields, found = evaluate(fam, grid)
            except NotTRS as exc:
                row["error"] = f"NotTRS(violation={exc.violation:.3e})"
                continue
            for key in (k for k in names if k in wants):
                row[key] = fields[key].snapped
                residuals.append(fields[key].residual)
            row.update({k: v for k, v in fields.items() if k.startswith("berry_phase_")})
            contradictions += found
        row["residual_max"] = max(residuals) if residuals else None
        if contradictions:
            row["error"] = "; ".join(filter(None, [row.get("error"), *contradictions]))
    except (TopoinvError, ValueError) as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def cmd_sweep(cfg: RunConfig):
    if not cfg.sweeps:
        return _fail(EXIT_IO, "BadConfig", "at least one --sweep NAME START STOP COUNT is required")
    points = sweep_points(cfg.sweeps, cfg.params)
    # every row sets the same parameter names: check them before any row runs
    builtin_model(cfg.model, points[0])
    args = [((cfg.model, cfg.grid, cfg.invariants or INVARIANTS), t) for t in points]
    workers = min(cfg.workers, len(args))
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            rows = pool.map(_sweep_point, args)
    else:
        rows = [_sweep_point(a) for a in args]
    sidecar_config = {"command": "sweep", "model": cfg.model,
                      "base_params": cfg.params, "sweeps": list(cfg.sweeps),
                      "grid": cfg.grid, "invariants": list(cfg.invariants or INVARIANTS)}
    if cfg.out:
        save_results(cfg.out, rows, config=sidecar_config)
        print(f"wrote {cfg.out} ({len(rows)} rows)")
    else:
        _emit({"config": sidecar_config, "rows": rows}, cfg)
    return EXIT_OK


def cmd_certify(cfg: RunConfig):
    scale = cfg.grid / N_2D
    results = certify.run_all(scale=scale, verbose=not cfg.as_json)
    criteria = [{"index": r.index, "name": r.name, "passed": r.passed, "tolerance": r.tolerance,
                 "worst": r.worst, "runtime_s": r.runtime, "details": r.details} for r in results]
    report = {"command": "certify", "scale": scale, "criteria": criteria,
              "all_passed": all(r.passed for r in results)}
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
                            help="grid points per k direction (power of two, 16..1024); "
                                 "the boundary loops take twice as many, and certify "
                                 f"scales its grids by --grid/{N_2D}")),
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
    "chern": (cmd_chern, "model model_file params grid out as_json"),
    "fkm": (cmd_fkm, "model model_file params grid out as_json"),
    "sweep": (cmd_sweep, "model params grid out as_json sweeps invariants workers"),
    "certify": (cmd_certify, "grid out as_json"),
}


@functools.cache
def build_parser():
    """The argument parser, built once per process: `_COMMANDS` binds each
    subcommand's handler at import, and parsing leaves the parser as it
    was, so every call of `main` can share it."""
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
    except TopoinvError as exc:
        return _fail(_ERROR_EXITS.get(type(exc), EXIT_UNSNAPPED), type(exc).__name__,
                     str(exc), **vars(exc))
    except ValueError as exc:
        return _fail(EXIT_IO, "BadConfig", str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, "IOError", str(exc))


if __name__ == "__main__":
    sys.exit(main())
