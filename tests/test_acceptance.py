"""Acceptance gate: every registered certification criterion at its tolerance.

Each test gates one criterion of `certify.ALL_CRITERIA` and prints its
one-line pass/fail verdict with the measured worst residual; run with
`pytest -s tests/test_acceptance.py` to see all lines, or `topoinv certify`
for the standalone report. A registered criterion without a gate test here
fails `test_every_registered_criterion_is_gated`.
"""

from topoinv import certify


def gate(index):
    """Run criterion `index` at full scale, assert it passed, return its details."""
    [criterion] = [c for c in certify.ALL_CRITERIA if c.index == index]
    result = criterion(scale=1.0)
    print(result.line())
    assert result.passed, (f"criterion {result.index} failed: worst "
                           f"{result.worst:.3e} vs tolerance {result.tolerance:.1e}; "
                           f"details: {result.details}")
    return result.details


def test_criteria_are_registered_once_in_index_order():
    assert [c.index for c in certify.ALL_CRITERIA] == list(range(1, 12))


def test_every_registered_criterion_is_gated():
    gated = {int(name.split("_")[2]) for name in globals()
             if name.startswith("test_criterion_")}
    assert gated == {c.index for c in certify.ALL_CRITERIA}


def test_criterion_01_wz_amplitude_equals_chern_sign():
    for label, row in gate(1).items():
        assert row["runtime_s"] < 60.0, f"{label} exceeded the runtime budget"


def test_criterion_02_wz_amplitude_equals_berry_phase():
    gate(2)


def test_criterion_03_square_root_channel():
    gate(3)


def test_criterion_04_kappa_equals_sign_of_delta():
    points = gate(4)["points"]
    assert len(points) >= 20
    phases = {row["delta"] for row in points}
    assert phases == {0, 1}, "sweep must span both phases"


def test_criterion_05_triple_integral_reduction():
    gate(5)


def test_criterion_06_apw_normal_forms():
    gate(6)


def test_criterion_07_pw_anomaly():
    gate(7)


def test_criterion_08_homotopy_invariance():
    gate(8)


def test_criterion_09_equivariant_winding_evenness():
    gate(9)


def test_criterion_10_extension_independence():
    gate(10)


def test_criterion_11_grid_convergence():
    details = gate(11)
    for name, row in details.items():
        assert row["at_floor"] or row["ratio"] >= 10.0, (name, row)
    # a probe at the floor measures nothing about convergence
    assert not details["amplitude_vs_berry"]["at_floor"]
