import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import topoinv
from topoinv import berry, certify, transport, wz
from topoinv.cli import main
from topoinv.models import BlochHamiltonianSpec, builtin_model, save_model


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


def test_python_dash_m_runs_the_command():
    """`python -m topoinv` is the `topoinv` command: its exit code and its
    JSON report on stdout, and an error object on stderr with exit code 4."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(Path(topoinv.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH")])))
    run = lambda *argv: subprocess.run([sys.executable, "-m", "topoinv", *argv],
                                       capture_output=True, text=True, env=env, timeout=300)
    done = run("chern", "--model", "haldane", "--grid", "16", "--grid-t", "16", "--json")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["command"] == "chern" and report["chern"]["snapped"] == -1
    failed = run("chern", "--model", "no_such_model", "--json")
    assert failed.returncode == 4
    assert json.loads(failed.stderr)["error"] == "UnknownModel"


def test_fkm_report(capsys):
    code, out, _ = run_cli(capsys, "fkm", "--model", "kane_mele",
                           "--param", "lambda_v=0.4", "--param", "lambda_r=0.2",
                           "--grid", "32", "--loop-grid", "64", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["delta"]["snapped"] == 1
    assert report["kappa"]["snapped"] == -1
    assert report["kappa_equals_minus_one_to_delta"]
    assert report["oracle_agrees"]
    assert "residual_max" in report


def test_fkm_builds_each_z2_ingredient_once(capsys, monkeypatch):
    """One fkm request builds one TRS frame per boundary loop and one
    half-zone curvature, shared by delta, kappa and the Berry phases."""
    calls = {"build_trs_frame": 0, "berry_curvature_ebz": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        original = getattr(transport if name == "build_trs_frame" else berry, name)
        for module in (transport, berry, wz):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    code, _, _ = run_cli(capsys, "fkm", "--model", "kane_mele",
                         "--param", "lambda_v=0.4", "--param", "lambda_r=0.2",
                         "--grid", "32", "--loop-grid", "64", "--json")
    assert code == 0
    assert calls == {"build_trs_frame": 2, "berry_curvature_ebz": 1}


def test_fkm_rejects_broken_symmetry(capsys):
    code, _, err = run_cli(capsys, "fkm", "--model", "haldane", "--grid", "32")
    assert code == 2
    assert json.loads(err.splitlines()[-1])["error"] == "NotTRS"


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
    and terms whose spectral bound 2 sum_v ||T_v|| overflows are refused
    when the file is loaded, with the term that holds them, before any
    eigensolver sees them; stderr holds exactly the one JSON payload."""
    onsite = lambda *diag: (np.diag(diag).astype(complex), np.array([0, 0]))
    cases = (((onsite(np.nan, -1.0, 1.0, -1.0),), "terms[0].matrix:"),
             ((onsite(np.inf, -1.0, 1.0, -1.0),), "terms[0].matrix:"),
             ((onsite(1e308, -1.0, 1.0, -1.0),) * 2, "terms[(0,0)]:"),
             ((onsite(1e308, -1e308, 1.0, -1.0),), "terms:"))
    for terms, location in cases:
        path = tmp_path / "bad.json"
        save_model(path, BlochHamiltonianSpec(dim=4, terms=terms, name="bad"))
        for command in ("chern", "fkm"):
            code, _, err = run_cli(capsys, command, "--model-file", str(path),
                                   "--grid", "32")
            assert code == 4, (location, command)
            [line] = err.splitlines()
            payload = json.loads(line)
            assert payload["error"] == "SchemaError"
            assert payload["message"].startswith(location)


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
            "--grid", "32", "--loop-grid", "64", "--invariants", "delta",
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
                   "--grid", "32", "--loop-grid", "64", "--workers", "1", "--out", str(out))[0] == 0
    header, row = out.read_text().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert (values["chern"], values["delta"], values["kappa"]) == ("0", "1", "-1")
    sidecar = json.loads((tmp_path / "a.csv.json").read_text())
    assert sidecar["invariants"] == ["chern", "delta", "kappa"]


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
                                "--loop-grid", "64", flag, value, "--out", str(out))
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
                           "--grid", "32", "--loop-grid", "64", "--workers", "1")
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
