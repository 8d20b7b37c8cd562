import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import topoinv
from topoinv import berry, certify, cli, core, lattice, linalg, transport, wz
from topoinv.cli import main
from topoinv.errors import (BranchAmbiguity, DimensionMismatch, GapClosure, NotAnExtension,
                            NotInvariant, NotTRS, NotTRSFrame, OddRank, PairingFailure,
                            ParseError, SchemaError, StepFailure, TopoinvError,
                            UnknownModel, UnknownParameter, UnsnappedError)
from topoinv.results import snap_integer
from topoinv.grids import loop_axis
from topoinv.models import SX, SY, SZ, BlochHamiltonianSpec, builtin_model, save_model


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_chern_report(capsys):
    code, out, _ = run_cli(capsys, "chern", "--model", "haldane",
                           "--grid", "64", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["chern"]["snapped"] == report["plaquette_oracle"]["snapped"]
    assert abs(report["chern"]["snapped"]) == 1
    assert report["wz_check"]["pass"]


def test_chern_wz_check_reads_its_own_grid_below_its_size(capsys):
    """At a --grid below U_P's own 64^2 grid, U_P still reads that grid, so
    the (-1)^C check is as fine as at the default grid."""
    code, out, _ = run_cli(capsys, "chern", "--model", "haldane", "--param", "m=0.6",
                           "--grid", "32", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["chern"]["snapped"] == report["plaquette_oracle"]["snapped"] == -1
    assert report["wz_check"]["amp_vs_sign_of_chern"] < 1e-4
    assert report["wz_check"]["pass"]


def run_module(*argv):
    """`python -m topoinv ARGV` in a fresh interpreter, outside pytest's
    warnings filter."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(Path(topoinv.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "topoinv", *argv],
                          capture_output=True, text=True, env=env, timeout=300)


def test_python_dash_m_runs_the_command():
    """`python -m topoinv` is the `topoinv` command: its exit code and its
    JSON report on stdout, and an error object on stderr with exit code 4."""
    done = run_module("chern", "--model", "haldane", "--grid", "16", "--json")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["command"] == "chern" and report["chern"]["snapped"] == -1
    failed = run_module("chern", "--model", "no_such_model", "--json")
    assert failed.returncode == 4
    assert json.loads(failed.stderr)["error"] == "UnknownModel"


def test_fkm_report(capsys):
    code, out, _ = run_cli(capsys, "fkm", "--model", "kane_mele",
                           "--param", "lambda_v=0.4", "--param", "lambda_r=0.2",
                           "--grid", "32", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["delta"]["snapped"] == 1
    assert report["kappa"]["snapped"] == -1
    assert report["kappa_equals_minus_one_to_delta"]
    assert report["oracle_agrees"]
    assert "residual_max" in report


def test_fkm_half_zone_keeps_16_intervals_at_grid_16(capsys):
    """At --grid 16 the half zone keeps 16 intervals along k1, not
    --grid/2: on this Rashba point delta snaps to 1 on the 17 x 16 half zone
    (residual 7.2e-5), where 9 x 16 leaves it unsnapped (residual 1.9e-3)."""
    code, out, _ = run_cli(capsys, "fkm", "--model", "kane_mele",
                           "--param", "lambda_v=0.4", "--param", "lambda_r=0.2",
                           "--grid", "16", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["delta"]["snapped"] == 1
    assert report["kappa"]["snapped"] == -1
    assert report["lattice_oracle"]["snapped"] == 1


def test_fkm_builds_each_z2_ingredient_once(capsys, monkeypatch):
    """One fkm request builds one TRS frame per boundary loop, on 2 * --grid
    points, and one half-zone curvature, shared by delta, kappa and the
    Berry phases."""
    calls = {"build_trs_frame": 0, "berry_curvature_ebz": 0}
    frame_grids = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "build_trs_frame":
                frame_grids.append(kwargs["n_grid"])
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        original = getattr(transport if name == "build_trs_frame" else berry, name)
        for module in (transport, berry, wz):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    code, _, _ = run_cli(capsys, "fkm", "--model", "kane_mele",
                         "--param", "lambda_v=0.4", "--param", "lambda_r=0.2",
                         "--grid", "32", "--json")
    assert code == 0
    assert calls == {"build_trs_frame": 2, "berry_curvature_ebz": 1}
    assert frame_grids == [64, 64]


@pytest.mark.parametrize("argv,calls,up_grids", [
    (["chern", "--model", "haldane"], 2, 0),
    (["chern", "--model", "haldane", "--grid", "32"], 3, 1),
    (["fkm", "--model", "kane_mele", "--param", "lambda_v=0.4", "--param", "lambda_r=0.2",
      "--grid", "32"], 4, 0),
    (["sweep", "--model", "kane_mele", "--sweep", "lambda_v", "0.4", "0.4", "1",
      "--grid", "32"], 6, 1),
], ids=["chern", "chern_grid_32", "fkm", "sweep_row"])
def test_request_eigensystem_count(capsys, monkeypatch, argv, calls, up_grids):
    """Point sets one request diagonalizes H on. Every request first
    diagonalizes k = 0 alone, to fix the family's rank. chern: then the
    curvature grid, which the plaquette oracle reads next; U_P's 64^2 grid
    is a sub-grid of it at the default grid, read with no eigh, and at
    --grid 32 is diagonalized on its own (`up_grids` counts the 64^2 point
    sets). fkm: one point set per boundary-loop transport, and the
    half-zone grid, which lattice_z2 then reads; check_trs reads the terms
    and diagonalizes nothing. A sweep row at --grid 32 reporting chern,
    delta and kappa runs both evaluations on one family: k = 0 once, then
    chern's two grids and fkm's three. A consumer moved away from the grid
    it shares diagonalizes that grid again."""
    grids = []
    original = core._gap_checked_eigh

    def counted(spec, ks, rank=None):
        grids.append(ks.shape[:-1])
        return original(spec, ks, rank=rank)

    monkeypatch.setattr(core, "_gap_checked_eigh", counted)
    assert run_cli(capsys, *argv, "--json")[0] == 0
    assert len(grids) == calls, grids
    assert grids[0] == (1,) and grids.count((64, 64)) == up_grids


def test_fkm_rejects_broken_symmetry(capsys):
    code, _, err = run_cli(capsys, "fkm", "--model", "haldane", "--grid", "32")
    assert code == 2
    assert json.loads(err.splitlines()[-1])["error"] == "NotTRS"


def test_fkm_refuses_an_odd_energy_shift_that_leaves_p_alone(capsys, tmp_path):
    """kane_mele plus 0.05 sin(k1) 1 has the projector of kane_mele, which
    is time-reversal symmetric, but H(-k) != Theta(H(k)): the terms at
    (+-1, 0) gain -+0.025i 1, whose residual ||0.05i 1|| is 0.1. fkm
    refuses it with NotTRS and that violation."""
    base = builtin_model("kane_mele", {"lambda_so": 0.3, "lambda_v": 0.4})
    eye = np.eye(4, dtype=complex)
    spec = BlochHamiltonianSpec(dim=4, name="kane_mele_odd_shift", terms=base.terms + (
        (-0.025j * eye, np.array([1, 0])), (0.025j * eye, np.array([-1, 0]))))
    ks = np.stack(np.meshgrid(*2 * [loop_axis(16).points], indexing="ij"), axis=-1)
    shifted, plain = core.make_projector_family(spec), core.make_projector_family(base)
    assert np.max(linalg.frob(shifted.sample(ks) - plain.sample(ks))) < 1e-12
    path = tmp_path / "odd_shift.json"
    save_model(path, spec)
    code, _, err = run_cli(capsys, "fkm", "--model-file", str(path), "--grid", "32")
    assert code == 2
    payload = json.loads(err.splitlines()[-1])
    assert payload["error"] == "NotTRS"
    assert payload["violation"] == pytest.approx(0.1, rel=1e-12)


def test_gap_closure_exit_code(capsys, tmp_path):
    # a band crossing the Fermi level over a range of k
    terms = ((np.diag([0.0, 3.0]).astype(complex), np.array([0, 0])),
             (np.diag([1.0, 0.0]).astype(complex), np.array([1, 0])),
             (np.diag([1.0, 0.0]).astype(complex), np.array([-1, 0])))
    spec = BlochHamiltonianSpec(dim=2, terms=terms, name="crossing")
    path = tmp_path / "crossing.json"
    save_model(path, spec)
    code, _, err = run_cli(capsys, "chern", "--model-file", str(path),
                           "--grid", "32")
    assert code == 2
    payload = json.loads(err.splitlines()[-1])
    assert payload["error"] == "GapClosure"
    assert len(payload["k"]) == 2
    assert all(isinstance(x, float) for x in payload["k"])


def test_non_finite_model_entry_is_a_schema_error(capsys, tmp_path):
    """A NaN or infinite matrix entry, two on-site terms whose sum overflows,
    and terms whose spectral bound 2 sum_v (1 + |v|) ||T_v|| on H and dH
    overflows are refused when the file is loaded, with the term that holds
    them, before any eigensolver sees them; stderr holds exactly the one
    JSON payload. The last case's H bound 2 sum_v ||T_v|| is finite."""
    onsite = lambda *diag: (np.diag(diag).astype(complex), np.array([0, 0]))
    far = lambda v: (1e306 * SX, np.array([0, v]))
    cases = (((onsite(np.nan, -1.0, 1.0, -1.0),), "terms[0].matrix:"),
             ((onsite(np.inf, -1.0, 1.0, -1.0),), "terms[0].matrix:"),
             ((onsite(1e308, -1.0, 1.0, -1.0),) * 2, "terms[(0,0)]:"),
             ((onsite(1e308, -1e308, 1.0, -1.0),), "terms:"),
             ((onsite(1.0, -1.0), far(500), far(-500)), "terms:"))
    for terms, location in cases:
        path = tmp_path / "bad.json"
        save_model(path, BlochHamiltonianSpec(dim=len(terms[0][0]), terms=terms, name="bad"))
        assert_schema_error(capsys, path, location)


def assert_schema_error(capsys, path, location):
    """chern and fkm refuse the model file at `path` with exit 4 and one
    SchemaError line whose message starts with `location`, the key the
    payload names."""
    for command in ("chern", "fkm"):
        code, out, err = run_cli(capsys, command, "--model-file", str(path), "--grid", "32")
        assert code == 4 and out == "", (location, command)
        [line] = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "SchemaError"
        assert payload["message"].startswith(location)
        assert payload["key"] + ":" == location


MINIMAL_MODEL = {"name": "mini", "dim": 2,
                 "terms": [{"vector": [1, 0], "matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]},
                           {"vector": [-1, 0], "matrix": [[[0, 0], [0, 0]], [[1, 0], [0, 0]]]}]}


@pytest.mark.parametrize("doc,location", [
    (5, "model:"),
    (dict(MINIMAL_MODEL, terms=5), "terms:"),
    (dict(MINIMAL_MODEL, terms=[5]), "terms[0]:"),
    (dict(MINIMAL_MODEL, parameters=[1]), "parameters:"),
    (dict(MINIMAL_MODEL, dim=True), "dim:"),
    (dict(MINIMAL_MODEL, parameters={"m": [1]}), "parameters.m:"),
    (dict(MINIMAL_MODEL, terms=[dict(MINIMAL_MODEL["terms"][0], vector=[True, 0])]),
     "terms[0].vector:"),
    (dict(MINIMAL_MODEL, parameters={"m": float("nan")}), "parameters.m:"),
    (dict(MINIMAL_MODEL, parameters={"m": float("inf")}), "parameters.m:"),
    (dict(MINIMAL_MODEL, parameters={"m": -float("inf")}), "parameters.m:"),
    (dict(MINIMAL_MODEL, parameters={"m": 10 ** 400}), "parameters.m:"),
    (dict(MINIMAL_MODEL, terms=[dict(MINIMAL_MODEL["terms"][0],
                                     matrix=[[[0, 0], [10 ** 400, 0]], [[0, 0], [0, 0]]])]),
     "terms[0].matrix:"),
    (dict(MINIMAL_MODEL, terms=[dict(MINIMAL_MODEL["terms"][0], vector=[10 ** 30, 0])]),
     "terms[0].vector:"),
    (dict(MINIMAL_MODEL, terms=[dict(MINIMAL_MODEL["terms"][0], vector=[0, -2 ** 53 - 1])]),
     "terms[0].vector:"),
], ids=["top_level_5", "terms_5", "terms_list_of_5", "parameters_list", "dim_true",
        "parameter_list_value", "vector_true", "parameter_nan", "parameter_infinity",
        "parameter_minus_infinity", "parameter_beyond_float", "matrix_entry_beyond_float",
        "vector_entry_1e30", "vector_entry_beyond_2_53"])
def test_malformed_model_file_is_a_schema_error(capsys, tmp_path, doc, location):
    """A model file whose JSON values have the wrong types, or a parameter
    that is JSON's NaN or Infinity, or a number beyond the float range, or
    a term vector entry above 2^53 in size, which the float phases would
    round, is bad input (exit 4) naming the key, never a traceback with
    exit 1 nor a report with a null parameter; JSON's true is not the
    integer 1."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert_schema_error(capsys, path, location)


def _direct_sum(a, b):
    """The terms of the block-diagonal Hamiltonian H_a(k) + H_b(k) of two
    specs with the same term vectors."""
    terms_b = {tuple(v): m for m, v in b.terms}
    out = []
    for m, v in a.terms:
        t = np.zeros((a.dim + b.dim,) * 2, dtype=complex)
        t[:a.dim, :a.dim], t[a.dim:, a.dim:] = m, terms_b[tuple(v)]
        out.append((t, v))
    return tuple(out)


def test_direct_sum_chern_is_merged_from_its_blocks(capsys, tmp_path):
    """haldane(m = 0.3) + haldane(m = 1.5) as a 4-band model file is two
    two-band blocks whose eigenvalues interleave, so the eigensystem is
    merged from both: chern snaps -1 = -1 + 0, agrees with the plaquette
    oracle and passes the WZ check. Under a constant random unitary basis
    change the model is one dense block, diagonalized whole, and gives the
    same snapped values with raw values within 1e-10."""
    terms = _direct_sum(builtin_model("haldane", {"m": 0.3}), builtin_model("haldane", {"m": 1.5}))
    u, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((4, 4, 2)) @ [1, 1j])
    reports = []
    for name, basis in (("sum", np.eye(4)), ("rotated", u)):
        spec = BlochHamiltonianSpec(dim=4, terms=tuple((basis @ m @ basis.conj().T, v)
                                                       for m, v in terms), name=name)
        path = tmp_path / f"{name}.json"
        save_model(path, spec)
        assert len(topoinv.load_model(path).blocks) == (2 if name == "sum" else 1)
        code, out, _ = run_cli(capsys, "chern", "--model-file", str(path), "--json")
        assert code == 0
        reports.append(json.loads(out))
    for report in reports:
        assert report["chern"]["snapped"] == report["plaquette_oracle"]["snapped"] == -1
        assert report["wz_check"]["pass"]
    (summed, rotated) = reports
    for key in ("chern", "plaquette_oracle"):
        assert abs(summed[key]["raw"] - rotated[key]["raw"]) <= 1e-10
    assert np.max(np.abs(np.subtract(summed["wz_check"]["amplitude"],
                                     rotated["wz_check"]["amplitude"]))) <= 1e-10


def test_overflowing_curvature_is_unsnapped(tmp_path):
    """1e304 (sin k1 sx + sin k2 sy) + 0.01 sz passes the spectral bound, but
    its curvature overflows: chern reports a null raw value, exits 3 and
    writes nothing to stderr. It runs in a subprocess so that a numpy
    warning shows on stderr instead of failing the test run."""
    hop = 1e304 / 2j
    terms = ((0.01 * SZ, np.array([0, 0])), (hop * SX, np.array([1, 0])),
             (-hop * SX, np.array([-1, 0])), (hop * SY, np.array([0, 1])),
             (-hop * SY, np.array([0, -1])))
    path = tmp_path / "huge.json"
    save_model(path, BlochHamiltonianSpec(dim=2, terms=terms, name="huge"))
    done = run_module("chern", "--model-file", str(path), "--grid", "16", "--json")
    assert done.returncode == 3, done.stderr
    assert done.stderr == ""
    chern = json.loads(done.stdout)["chern"]
    assert chern["raw"] is None and chern["snapped"] is None and chern["unsnapped"]


def test_step_failure_is_one_json_line(capsys, tmp_path):
    """A time-reversal symmetric file too steep along k2 for the grid:
    up block sin(24 k2) sx + sin k1 sy + (1 - cos k1 - cos 24 k2) sz, down
    block its time-reversed copy, in the basis order of bhz. At --grid 16
    (boundary loops of 32 points) a transport step drifts past the bound;
    that is bad input, exit 4, reported as one JSON line with the step's k
    and drift."""
    def spin_blocks(up):
        out = np.zeros((4, 4), dtype=complex)
        out[0::2, 0::2] = up
        out[1::2, 1::2] = np.conjugate(up)
        return out

    up = {(0, 0): SZ, (1, 0): -0.5 * SZ - 0.5j * SY, (-1, 0): -0.5 * SZ + 0.5j * SY,
          (0, 24): -0.5 * SZ - 0.5j * SX, (0, -24): -0.5 * SZ + 0.5j * SX}
    terms = tuple((spin_blocks(m), np.array(v)) for v, m in up.items())
    path = tmp_path / "steep.json"
    save_model(path, BlochHamiltonianSpec(dim=4, terms=terms, name="steep"))
    code, out, err = run_cli(capsys, "fkm", "--model-file", str(path),
                             "--grid", "16", "--json")
    assert code == 4 and out == ""
    [line] = err.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "StepFailure"
    assert payload["drift"] > 1e-4 and isinstance(payload["k"], float)


def test_pairing_failure_is_one_json_line(capsys, monkeypatch):
    """A fixed-point basis that will not form Kramers pairs is bad input:
    exit 4 with one JSON line carrying the measured residual and the bound;
    the certification run reports it as an errored criterion."""
    kramers_basis = linalg.kramers_basis
    monkeypatch.setattr(linalg, "kramers_basis", lambda tau, p: kramers_basis(
        lambda x: (1 + 1e-6) * tau(x), p))
    code, out, err = run_cli(capsys, "fkm", "--model", "kane_mele",
                             "--grid", "16", "--json")
    assert code == 4 and out == ""
    [line] = err.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "PairingFailure"
    assert payload["residual"] > payload["bound"] == 1e-10

    monkeypatch.setattr(certify, "ALL_CRITERIA", [])

    @certify._criterion(4, "unpaired Kramers basis", 1e-3)
    def unpaired(scale, tol):
        raise PairingFailure(1e-6, 1e-10)

    [res] = certify.run_all(verbose=False)
    assert not res.passed and res.details["error"].startswith("PairingFailure")
    assert (res.index, res.name, res.tolerance) == (4, "unpaired Kramers basis", 1e-3)
    assert np.isnan(res.worst)


def test_other_library_error_is_one_json_line(capsys, monkeypatch):
    """A library error with no exit code of its own exits 3 with one JSON
    line naming it, not a traceback."""
    def refuse(*args, **kwargs):
        raise BranchAmbiguity(-1e-12)

    monkeypatch.setattr(wz, "up_extension", refuse)
    code, out, err = run_cli(capsys, "chern", "--model", "haldane", "--grid", "16")
    assert code == 3 and out == ""
    [line] = err.splitlines()
    assert json.loads(line)["error"] == "BranchAmbiguity"


# one instance of every library error, with the exit code main gives it
ERROR_EXITS = [
    (GapClosure((0.5, -1.0), 1e-9, 1e-6), 2),
    (NotTRS(0.1, 1e-10), 2),
    (UnknownModel("unknown model 'x'"), 4),
    (UnknownParameter("haldane", "q", ["m", "t2"]), 4),
    (ParseError("m.json", 3, 7, "Expecting value"), 4),
    (SchemaError("terms[0].matrix", "matrix must be square"), 4),
    (StepFailure(0.25, 2e-3, 1e-4, 0.5), 4),
    (PairingFailure(1e-6, 1e-10), 4),
    (BranchAmbiguity(-1e-12), 3),
    (DimensionMismatch("fields live on different grids"), 3),
    (NotAnExtension("need axes (interval, periodic, periodic)"), 3),
    (NotInvariant(1e-3, 1e-10), 3),
    (NotTRSFrame("the amplitude of a frame needs a TRS frame with W"), 3),
    (OddRank("rank 3 is odd"), 3),
    (UnsnappedError(snap_integer("Chern", complex(0.4, 1e-9), meta={"grid": (16, 16)})), 3),
]


def test_error_exits_cover_every_library_error():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    assert {type(error) for error, _ in ERROR_EXITS} == set(subclasses(TopoinvError))


@pytest.mark.parametrize("error,exit_code", ERROR_EXITS,
                         ids=[type(error).__name__ for error, _ in ERROR_EXITS])
def test_library_error_is_one_json_line_with_its_fields(capsys, monkeypatch, error,
                                                        exit_code):
    """Every library error that stops a command exits with its own code,
    as one JSON line holding its type, its message and each of its fields."""
    def refuse(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "_family", refuse)
    code, out, err = run_cli(capsys, "chern", "--model", "haldane", "--grid", "16")
    assert code == exit_code and out == ""
    [line] = err.splitlines()
    payload = json.loads(line)
    assert payload.pop("error") == type(error).__name__
    assert payload.pop("message") == str(error)
    assert set(payload) == set(vars(error))
    plain = {k: v for k, v in vars(error).items() if k != "result"}
    assert {k: payload[k] for k in plain} == json.loads(json.dumps(plain))
    if isinstance(error, UnsnappedError):
        assert payload["result"] == {"kind": "Chern", "raw": [0.4, 1e-9], "snapped": None,
                                     "residual": pytest.approx(0.4), "snap_tol": 1e-3,
                                     "meta": {"grid": [16, 16]}}


def test_param_must_be_a_finite_number(capsys):
    for value in ("nan", "inf", "-inf", "abc"):
        code, _, err = run_cli(capsys, "fkm", "--model", "kane_mele",
                               "--param", f"lambda_v={value}")
        assert code == 4, value
        payload = json.loads(err.splitlines()[-1])
        assert payload["error"] == "BadConfig"
        assert "lambda_v" in payload["message"]
    # finite, but the model's spectral bound overflows
    code, _, err = run_cli(capsys, "chern", "--model", "haldane", "--param", "m=1e308")
    assert code == 4
    [line] = err.splitlines()
    assert json.loads(line)["error"] == "SchemaError"


def test_unknown_model_exit_code(capsys):
    code, _, err = run_cli(capsys, "chern", "--model", "nonsense", "--grid", "32")
    assert code == 4
    assert json.loads(err.splitlines()[-1])["error"] == "UnknownModel"


def test_bad_grid_exit_code(capsys):
    for argv in (["chern", "--model", "haldane", "--grid", "17"],
                 ["certify", "--grid", "17"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 4, argv
        assert json.loads(err.splitlines()[-1])["error"] == "BadConfig"


def test_usage_error_exit_code(capsys):
    """argparse usage errors are bad input: exit 4 with a BadConfig payload,
    returned from main rather than raised as argparse's SystemExit(2)."""
    for argv in (["chern", "--grid", "abc"], ["chern", "--model", "haldane", "--nope"],
                 ["bogus"], [], ["fkm", "--model", "kane_mele", "--grid-t", "32"],
                 ["chern", "--model", "haldane", "--grid-t", "32"],
                 ["fkm", "--model", "kane_mele", "--loop-grid", "64"],
                 ["sweep", "--model", "kane_mele", "--sweep", "lambda_v", "0.4", "0.4", "1",
                  "--loop-grid", "64"],
                 ["certify", "--model", "haldane"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 4, argv
        assert json.loads(err.splitlines()[-1])["error"] == "BadConfig"
    for argv in (["-h"], ["chern", "-h"]):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 0
        assert "usage: topoinv" in capsys.readouterr().out


def test_sweep_deterministic_and_records_failures(capsys, tmp_path):
    args = ["sweep", "--model", "kane_mele", "--param", "lambda_so=0.3",
            "--sweep", "lambda_v", "0.0", "2.4", "4",
            "--grid", "32", "--invariants", "delta",
            "--workers", "1"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(out1))[0] == 0
    assert run_cli(capsys, *args, "--out", str(out2), "--workers", "2")[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("model,lambda_so,lambda_v,")
    sidecar = json.loads((tmp_path / "a.csv.json").read_text())
    assert sidecar["grid"] == 32
    assert sidecar["invariants"] == ["delta"]
    # phase boundary sits inside the swept range: both values must appear
    deltas = [line.split(",")[4] for line in lines[1:]]
    assert "1" in deltas and "0" in deltas


def test_sweep_records_default_invariants(capsys, tmp_path):
    """Without --invariants a sweep computes chern, delta and kappa, and its
    sidecar says so."""
    out = tmp_path / "a.csv"
    assert run_cli(capsys, "sweep", "--model", "kane_mele", "--sweep", "lambda_v", "0.4", "0.4", "1",
                   "--grid", "32", "--workers", "1", "--out", str(out))[0] == 0
    header, row = out.read_text().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert (values["chern"], values["delta"], values["kappa"]) == ("0", "1", "-1")
    sidecar = json.loads((tmp_path / "a.csv.json").read_text())
    assert sidecar["invariants"] == ["chern", "delta", "kappa"]


def _sweep_rows(capsys, *argv):
    code, out, _ = run_cli(capsys, "sweep", *argv, "--workers", "1", "--json")
    assert code == 0
    return json.loads(out)["rows"]


KM_ROW = ("--model", "kane_mele", "--param", "lambda_r=0.2",
          "--sweep", "lambda_v", "0.4", "0.4", "1", "--grid", "32")
HALDANE_ROW = ("--model", "haldane", "--sweep", "m", "0.3", "0.3", "1", "--grid", "32",
               "--invariants", "chern")


def test_sweep_row_is_the_command_result(capsys):
    """A sweep row reports the snapped delta, kappa and Berry phases of fkm
    and the Chern number of chern at the same point, from the same
    evaluation, with no error when every cross-check agrees."""
    [row] = _sweep_rows(capsys, *KM_ROW)
    code, out, _ = run_cli(capsys, "fkm", "--model", "kane_mele", "--param", "lambda_v=0.4",
                           "--param", "lambda_r=0.2", "--grid", "32", "--json")
    assert code == 0
    fkm = json.loads(out)
    assert (row["delta"], row["kappa"]) == (fkm["delta"]["snapped"], fkm["kappa"]["snapped"])
    for label in ("T0", "Tpi"):
        assert row[f"berry_phase_{label}"] == fkm[f"berry_phase_{label}"]
    assert "error" not in row

    [row] = _sweep_rows(capsys, *HALDANE_ROW)
    code, out, _ = run_cli(capsys, "chern", "--model", "haldane", "--param", "m=0.3",
                           "--grid", "32", "--json")
    assert code == 0
    chern = json.loads(out)
    assert row["chern"] == chern["chern"]["snapped"] == -1
    assert row["residual_max"] == chern["chern"]["residual"]
    assert "error" not in row


@pytest.mark.parametrize("oracle,row_args,invariant,shift", [
    ("lattice_z2", KM_ROW + ("--invariants", "delta"), "delta", lambda x: 1 - x),
    ("plaquette_chern", HALDANE_ROW, "chern", lambda x: x + 1),
], ids=["lattice_z2", "plaquette_chern"])
def test_sweep_row_records_a_contradicted_value(capsys, monkeypatch, oracle, row_args,
                                                invariant, shift):
    """An oracle that snaps to a value contradicting the row's invariant
    leaves the row's values as they were and names the pair in its error;
    the sweep still exits 0."""
    [clean] = _sweep_rows(capsys, *row_args)
    assert "error" not in clean
    original = getattr(lattice, oracle)

    def contradicting(*args, **kwargs):
        res = original(*args, **kwargs)
        return dataclasses.replace(res, snapped=shift(res.snapped))

    monkeypatch.setattr(lattice, oracle, contradicting)
    [row] = _sweep_rows(capsys, *row_args)
    error = row.pop("error")
    assert row == clean
    name = {"lattice_z2": "lattice_oracle", "plaquette_chern": "plaquette_oracle"}[oracle]
    assert error.startswith(f"{name} ") and f"!= {invariant} {clean[invariant]}" in error


def test_malformed_json_is_a_parse_error(capsys, tmp_path):
    """A model file that is not JSON is bad input (exit 4) whose payload
    names the file and the line and column where decoding stopped."""
    path = tmp_path / "bad.json"
    path.write_text('{"name": "mini",\n "dim": 2,,\n "terms": []}')
    for command in ("chern", "fkm"):
        code, out, err = run_cli(capsys, command, "--model-file", str(path), "--grid", "32")
        assert code == 4 and out == ""
        [line] = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ParseError"
        assert (payload["path"], payload["line"], payload["col"]) == (str(path), 2, 11)
        assert payload["message"].startswith(f"{path}:2:11: ")


def test_one_row_sweep_starts_no_worker(capsys, monkeypatch, tmp_path):
    """A sweep starts no more worker processes than it has rows, and runs
    in this process when that is one."""
    def refuse(*args, **kwargs):
        raise AssertionError("a one-row sweep started a worker pool")

    monkeypatch.setattr(multiprocessing, "Pool", refuse)
    out = tmp_path / "a.csv"
    assert run_cli(capsys, "sweep", *HALDANE_ROW, "--workers", "2", "--out", str(out))[0] == 0
    assert len(out.read_text().splitlines()) == 2


def test_unknown_parameter_exit_code(capsys, tmp_path):
    """A misspelled parameter is bad input (exit 4) naming it and the valid
    names; a sweep refuses it before any row runs."""
    out = tmp_path / "a.csv"
    cases = (
        ("lamda_v", ["fkm", "--model", "kane_mele", "--param", "lamda_v=2.0"]),
        ("lambda_v", ["chern", "--model", "haldane", "--param", "lambda_v=0.1", "--grid", "32"]),
        ("lamda_v", ["sweep", "--model", "kane_mele", "--param", "lamda_v=2.0",
                     "--sweep", "lambda_so", "0.2", "0.3", "2", "--workers", "1",
                     "--out", str(out)]),
        ("lamda_v", ["sweep", "--model", "kane_mele", "--sweep", "lamda_v", "0.0", "2.4", "3",
                     "--workers", "1", "--out", str(out)]),
    )
    for bad, argv in cases:
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 4, argv
        payload = json.loads(err.splitlines()[-1])
        assert payload["error"] == "UnknownParameter"
        assert repr(bad) in payload["message"]
        assert "valid: [" in payload["message"]
        assert payload["name"] == bad and bad not in payload["valid"]
        assert f"valid: {payload['valid']}" in payload["message"]
        assert stdout == ""
    assert not out.exists()


def test_sweep_requires_range(capsys):
    code, _, err = run_cli(capsys, "sweep", "--model", "kane_mele")
    assert code == 4
    assert json.loads(err.splitlines()[-1])["error"] == "BadConfig"


@pytest.mark.parametrize("flag,value", [("--invariants", "chrn"), ("--invariants", "chern,Delta"),
                                        ("--workers", "0"), ("--workers", "-3")])
def test_sweep_rejects_unknown_invariant_and_worker_count(capsys, tmp_path, flag, value):
    """A misspelled invariant would compute nothing and a worker count below
    one would silently run serially; both are bad input that names the value."""
    out = tmp_path / "a.csv"
    code, stdout, err = run_cli(capsys, "sweep", "--model", "kane_mele",
                                "--sweep", "lambda_v", "0.4", "0.4", "1", "--grid", "32",
                                flag, value, "--out", str(out))
    assert code == 4
    payload = json.loads(err.splitlines()[-1])
    assert payload["error"] == "BadConfig"
    assert value.split(",")[-1] in payload["message"]
    if flag == "--invariants":
        assert "chern, delta, kappa" in payload["message"]
    assert stdout == "" and not out.exists()


def test_sweep_rejects_model_file(capsys, tmp_path):
    """A model file fixes its matrices, so a sweep over its parameters would
    repeat one model on every row; it is refused as bad input."""
    path = tmp_path / "km.json"
    save_model(path, builtin_model("kane_mele", {"lambda_so": 0.3}))
    code, _, err = run_cli(capsys, "sweep", "--model-file", str(path),
                           "--sweep", "lambda_v", "0.0", "2.4", "3",
                           "--grid", "32", "--workers", "1")
    assert code == 4
    assert json.loads(err.splitlines()[-1])["error"] == "BadConfig"


def test_certify_json_reports_errored_criterion_as_null(capsys, monkeypatch):
    """An errored criterion has NaN tolerance and worst value; --json prints
    them as null, so the report stays valid JSON."""
    errored = certify.CriterionResult(1, "criterion_1", passed=False,
                                      tolerance=float("nan"), worst=float("nan"),
                                      runtime=0.5, details={"error": "ValueError: x"})
    monkeypatch.setattr(certify, "run_all", lambda scale, verbose: [errored])
    code, out, _ = run_cli(capsys, "certify", "--grid", "16", "--json")

    def refuse(name):
        raise ValueError(f"bare {name} in JSON output")

    report = json.loads(out, parse_constant=refuse)
    assert code == 1
    assert report["criteria"][0]["worst"] is None
    assert report["criteria"][0]["tolerance"] is None


def test_certify_smoke_at_coarse_grids(capsys):
    """Coarse grids may fail criteria; the command must report, not crash."""
    code, out, _ = run_cli(capsys, "certify", "--grid", "16", "--json")
    report = json.loads(out)
    assert code in (0, 1)
    assert len(report["criteria"]) == 11
    assert all("worst" in c for c in report["criteria"])


def registered_criterion(index):
    [criterion] = [c for c in certify.ALL_CRITERIA if c.index == index]
    return criterion


@pytest.mark.parametrize("index,evaluation,grid,cases", [
    (1, "chern_evaluation", 64, lambda details: details),
    (4, "fkm_evaluation", 128, lambda details: details["points"]),
], ids=["criterion_1", "criterion_4"])
def test_certify_runs_the_served_evaluation(monkeypatch, index, evaluation, grid, cases):
    """Criteria 1 and 4 certify the evaluations that answer chern, fkm and
    every sweep row: each case calls the served evaluation once, at grid 64
    and 128 respectively, and the criterion passes on what it returns."""
    grids = []
    original = getattr(certify, evaluation)

    def spy(fam, n):
        grids.append(n)
        return original(fam, n)

    monkeypatch.setattr(certify, evaluation, spy)
    result = registered_criterion(index)(scale=1.0)
    assert result.passed, result.details
    assert grids == [grid] * len(cases(result.details))


def test_certify_fails_on_a_contradicted_chern(monkeypatch):
    """A plaquette oracle that snaps to a value contradicting the Chern
    number fails criterion 1, with the pair named in each case, although
    every WZ amplitude still equals (-1)^C."""
    original = lattice.plaquette_chern

    def contradicting(*args, **kwargs):
        res = original(*args, **kwargs)
        return dataclasses.replace(res, snapped=res.snapped + 1)

    monkeypatch.setattr(lattice, "plaquette_chern", contradicting)
    result = registered_criterion(1)(scale=1.0)
    assert not result.passed
    assert result.worst < result.tolerance
    for row in result.details.values():
        [found] = row["contradictions"]
        assert found == f"plaquette_oracle {row['chern'] + 1} != chern {row['chern']}"
