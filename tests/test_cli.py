import json

import numpy as np

from topoinv import berry, transport, wz
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


def test_unknown_model_exit_code(capsys):
    code, _, err = run_cli(capsys, "chern", "--model", "nonsense", "--grid", "32")
    assert code == 4
    assert json.loads(err.splitlines()[-1])["error"] == "UnknownModel"


def test_bad_grid_exit_code(capsys):
    code, _, err = run_cli(capsys, "chern", "--model", "haldane", "--grid", "17")
    assert code == 4
    assert json.loads(err.splitlines()[-1])["error"] == "BadConfig"


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
    # phase boundary sits inside the swept range: both values must appear
    deltas = [line.split(",")[4] for line in lines[1:]]
    assert "1" in deltas and "0" in deltas


def test_sweep_requires_range(capsys):
    code, _, err = run_cli(capsys, "sweep", "--model", "kane_mele")
    assert code == 4
    assert json.loads(err.splitlines()[-1])["error"] == "BadConfig"


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


def test_certify_smoke_at_coarse_grids(capsys):
    """Coarse grids may fail criteria; the command must report, not crash."""
    code, out, _ = run_cli(capsys, "certify", "--grid", "16", "--json")
    report = json.loads(out)
    assert code in (0, 1)
    assert len(report["criteria"]) == 11
    assert all("worst" in c for c in report["criteria"])
