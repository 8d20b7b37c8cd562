"""Acceptance gate: every certification criterion at its stated tolerance.

Each test prints the one-line pass/fail verdict with the measured worst
residual; run with `pytest -s tests/test_acceptance.py` to see all lines, or
`topoinv certify` for the standalone report.
"""

import pytest

from topoinv import certify

CRITERIA = {fn.__name__: fn for fn in certify.ALL_CRITERIA}


def run_and_report(fn):
    result = fn(scale=1.0)
    print(result.line())
    assert result.passed, (f"criterion {result.index} failed: worst "
                           f"{result.worst:.3e} vs tolerance {result.tolerance:.1e}; "
                           f"details: {result.details}")
    return result


def test_criterion_01_wz_amplitude_equals_chern_sign():
    result = run_and_report(CRITERIA["criterion_1_wz_chern"])
    for label, row in result.details.items():
        assert row["runtime_s"] < 60.0, f"{label} exceeded the runtime budget"


def test_criterion_02_wz_amplitude_equals_berry_phase():
    run_and_report(CRITERIA["criterion_2_amplitude_equals_berry"])


def test_criterion_03_square_root_channel():
    run_and_report(CRITERIA["criterion_3_sqrt_channel"])


def test_criterion_04_kappa_equals_sign_of_delta():
    result = run_and_report(CRITERIA["criterion_4_fkm"])
    points = result.details["points"]
    assert len(points) >= 20
    phases = {row["delta"] for row in points}
    assert phases == {0, 1}, "sweep must span both phases"


def test_criterion_05_triple_integral_reduction():
    run_and_report(CRITERIA["criterion_5_phi_reduction"])


def test_criterion_06_apw_normal_forms():
    run_and_report(CRITERIA["criterion_6_apw_normal_forms"])


def test_criterion_07_pw_anomaly():
    run_and_report(CRITERIA["criterion_7_pw_anomaly"])


def test_criterion_08_homotopy_invariance():
    run_and_report(CRITERIA["criterion_8_homotopy_invariance"])


def test_criterion_09_equivariant_winding_evenness():
    run_and_report(CRITERIA["criterion_9_equivariant_winding"])


def test_criterion_10_extension_independence():
    run_and_report(CRITERIA["criterion_10_extension_independence"])


def test_criterion_11_grid_convergence():
    result = run_and_report(CRITERIA["criterion_11_convergence"])
    for name, row in result.details.items():
        assert row["at_floor"] or row["ratio"] >= 10.0, (name, row)
    # a probe at the floor measures nothing about convergence
    assert not result.details["amplitude_vs_berry"]["at_floor"]
