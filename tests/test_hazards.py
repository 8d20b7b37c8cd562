"""Hazard register: every known input that gives a wrong or mistyped
outcome, as a strict xfail that asserts the right outcome, not today's.

The reason of each case names the ROADMAP item that will mend it. When that
item lands, its case passes, which fails the run (`xfail_strict` in
pyproject.toml), so the mending change must also remove the mark. A newly
found wrong answer is added here as one more case.
"""

import json
import re

import numpy as np
import pytest

from topoinv.cli import main
from topoinv.models import SX, SY, SZ, BlochHamiltonianSpec, save_model


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def chern_20(tmp_path):
    """Qi-Wu-Zhang at m = 1 with its k2 terms moved to (0, +-20):
    sin k1 sx + sin 20k2 sy + (1 + cos k1 + cos 20k2) sz, Chern number 20,
    as a model file."""
    terms = ((SZ.astype(complex), np.array([0, 0])),
             (SX / 2j + SZ / 2, np.array([1, 0])), (-SX / 2j + SZ / 2, np.array([-1, 0])),
             (SY / 2j + SZ / 2, np.array([0, 20])), (-SY / 2j + SZ / 2, np.array([0, -20])))
    path = tmp_path / "qwz_chern_20.json"
    save_model(path, BlochHamiltonianSpec(dim=2, terms=terms, name="qwz_chern_20"))
    return str(path)


@pytest.mark.xfail(reason="ROADMAP items 3 and 8(a): chern exits 0 on Chern-20 at "
                          "--grid 128 although wz_check.pass is false (amplitude miss 0.478)")
def test_chern_20_exits_0_only_when_every_cross_check_passes(capsys, chern_20):
    code, out, _ = run_cli(capsys, "chern", "--model-file", chern_20, "--grid", "128", "--json")
    if code == 0:
        report = json.loads(out)
        assert report["wz_check"]["pass"]
        assert report["plaquette_oracle"]["snapped"] == report["chern"]["snapped"]


@pytest.mark.xfail(reason="ROADMAP item 8(b): at --grid 32 chern on Chern-20 exits 3 "
                          "(raw 20.16) while the plaquette oracle snaps -12")
def test_chern_20_on_a_grid_too_coarse_for_its_terms_is_bad_input(capsys, chern_20):
    code, _, err = run_cli(capsys, "chern", "--model-file", chern_20, "--grid", "32", "--json")
    assert code == 4
    assert re.search(r"0, -?20\b", err), err


@pytest.mark.xfail(reason="ROADMAP item 15: on a gap closure between grid points the "
                          "invariant refuses to snap (exit 3) instead of a GapClosure")
@pytest.mark.parametrize("argv", [
    ("chern", "--model", "haldane", "--param", "m=0.7794229"),
    ("fkm", "--model", "kane_mele", "--param", "lambda_so=0.3", "--param", "lambda_v=1.5587"),
], ids=["haldane_chern", "kane_mele_fkm"])
def test_a_gap_closure_is_a_precondition_failure(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(err.splitlines()[-1])["error"] == "GapClosure"
