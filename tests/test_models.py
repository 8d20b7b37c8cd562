import json

import numpy as np
import pytest

from topoinv import builtin_model, load_model, make_projector_family, save_model
from topoinv.core import TRSOperator, check_trs
from topoinv.errors import ParseError, SchemaError, UnknownModel, UnknownParameter
from topoinv.grids import loop_axis, torus_points
from topoinv.linalg import matrices_last
from topoinv.models import BlochHamiltonianSpec, fourier_planes, save_results

from oracles import bloch_hermiticity_residual


@pytest.mark.parametrize("name", ["haldane", "kane_mele", "bhz", "flat_two_band"])
def test_builtin_hermitian_at_random_k(name):
    spec = builtin_model(name)
    assert bloch_hermiticity_residual(spec) < 1e-14


def _random_paired_spec(seed, dim=3):
    """A Hermitian on-site term and random hoppings out to |v| = 3, each with
    its conjugate-transpose partner at -v."""
    rng = np.random.default_rng(seed)
    draw = lambda: rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    onsite = draw()
    terms = [(onsite + onsite.conj().T, np.array([0, 0]))]
    for vec in ((1, 0), (0, 1), (1, -2), (3, 1)):
        hop = draw()
        terms += [(hop, np.array(vec)), (hop.conj().T, -np.array(vec))]
    return BlochHamiltonianSpec(dim=dim, terms=tuple(terms), name="random")


@pytest.mark.parametrize("name", ["haldane", "kane_mele", "bhz", "flat_two_band", "random"])
def test_fourier_planes_match_per_term_sum(name, per_term_fourier_sum):
    """H from `bloch` and dH from the one contraction equal a term-by-term
    sum within 1e-14 relative: on torus points along both axes, on loop
    points along the line's direction vector, and at a single k. H and every
    dH of one call come out exactly as from calls of their own."""
    spec = _random_paired_spec(5) if name == "random" else builtin_model(name)
    direction = np.array([1.0, 2.0])
    line = np.array([0.2, -0.5]) + loop_axis(16).points[:, None] * direction
    for ks, directions in ((torus_points(loop_axis(12), loop_axis(10)), (0, 1)),
                           (line, (direction,)),
                           (np.array([0.3, -1.1]), (0, 1, direction))):
        ref = per_term_fourier_sum(spec.terms, ks)
        got = spec.bloch(ks)
        assert got.shape == ref.shape == ks.shape[:-1] + (spec.dim, spec.dim)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        together = fourier_planes(spec.terms, ks, (None,) + directions)
        for d, planes in zip((None,) + directions, together):
            ref = per_term_fourier_sum(spec.terms, ks, d)
            got = matrices_last(planes)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
            # one phase table for several directions changes no bit
            alone, = fourier_planes(spec.terms, ks, (d,))
            assert np.array_equal(planes, alone)


@pytest.mark.parametrize("name", ["haldane", "kane_mele", "bhz", "flat_two_band"])
def test_phase_table_equals_the_complex_exponential_bit_for_bit(name):
    """The phase table written as cos and sin into one complex array gives
    the planes of exp(1j k.v) exactly, for every builtin model's terms plus
    a (0, +-20) term, on a 128^2 torus grid and a 1025-point line."""
    spec = builtin_model(name)
    far = np.arange(spec.dim ** 2).reshape(spec.dim, spec.dim) * (0.1 + 0.2j)
    terms = spec.terms + ((far, np.array([0, 20])), (far.conj().T, np.array([0, -20])))
    mats = np.stack([m for m, _ in terms], axis=-1)
    vecs = np.array([v for _, v in terms], dtype=float)
    line = np.array([0.3, -0.2]) + np.linspace(-np.pi, np.pi, 1025)[:, None] * np.array([1.0, 2.0])
    for ks in (torus_points(loop_axis(128), loop_axis(128)), line):
        exp_form = np.tensordot(mats, np.exp(1j * np.tensordot(vecs, ks, axes=(1, -1))), axes=1)
        planes, = fourier_planes(terms, ks)
        assert np.array_equal(planes, exp_form)


def test_unknown_model_and_missing_parameter():
    with pytest.raises(UnknownModel):
        builtin_model("nonsense")


@pytest.mark.parametrize("name,bad", [("kane_mele", "lamda_v"), ("haldane", "lambda_v"),
                                      ("flat_two_band", "m")])
def test_unknown_parameter_is_refused(name, bad):
    """A name the model does not have is an error naming it and the valid
    ones, never a silently ignored setting."""
    with pytest.raises(UnknownParameter) as err:
        builtin_model(name, {bad: 2.0})
    assert err.value.name == bad
    assert err.value.valid == sorted(builtin_model(name).parameters)
    assert repr(bad) in str(err.value)


@pytest.mark.parametrize("name,params", [
    ("kane_mele", {"lambda_so": 0.3, "lambda_v": 0.7, "lambda_r": 0.25}),
    ("bhz", {"m": 1.0}),
])
def test_trs_at_projector_level(name, params):
    fam = make_projector_family(builtin_model(name, params))
    theta = TRSOperator.standard(4)
    ok, violation = check_trs(fam, theta)
    assert ok and violation < 1e-10


def test_flat_two_band_closed_form_berry_phase(flat_band):
    """Loop holonomy of the winding unit-vector family: frozen value -1
    from the closed-form connection integral A = 1/2, loop integral pi."""
    from topoinv import parallel_transport, build_frame, berry_connection, berry_phase
    loop = flat_band.loop(1, 0.0)
    frame = build_frame(parallel_transport(loop, n_grid=128))
    conn = berry_connection(frame)
    # loop integral of A equals pi mod 2 pi
    assert abs(abs(conn.loop_integral) - np.pi) < 1e-8
    assert abs(berry_phase(conn).raw - (-1.0)) < 1e-8


def test_save_load_round_trip(tmp_path):
    spec = builtin_model("kane_mele", {"lambda_so": 0.3, "lambda_v": 0.4,
                                       "lambda_r": 0.2})
    path = tmp_path / "km.json"
    save_model(path, spec)
    loaded = load_model(path)
    assert loaded.name == spec.name
    assert loaded.dim == spec.dim
    assert loaded.parameters == spec.parameters
    assert len(loaded.terms) == len(spec.terms)
    for (m1, v1), (m2, v2) in zip(loaded.terms, spec.terms):
        assert np.array_equal(v1, v2)
        assert np.max(np.abs(m1 - m2)) < 1e-15
    ks = np.random.default_rng(0).uniform(-np.pi, np.pi, (50, 2))
    assert np.max(np.abs(loaded.bloch(ks) - spec.bloch(ks))) < 1e-15


def test_minimal_valid_model(tmp_path):
    doc = {"name": "mini", "dim": 2,
           "terms": [{"vector": [1, 0], "matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]},
                     {"vector": [-1, 0], "matrix": [[[0, 0], [0, 0]], [[1, 0], [0, 0]]]}],
           "parameters": {}}
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(doc))
    spec = load_model(path)
    assert spec.dim == 2
    assert bloch_hermiticity_residual(spec) < 1e-15


def test_missing_conjugate_term_is_schema_error(tmp_path):
    doc = {"name": "bad", "dim": 2,
           "terms": [{"vector": [1, 0], "matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        load_model(path)
    assert "(1,0)" in str(err.value)


def test_term_vectors_up_to_2_53_load_exactly(tmp_path):
    """A term vector entry of 2^53 in size still loads, exactly, since the
    float phases hold it; one more is refused."""
    for big, ok in ((2 ** 53, True), (2 ** 53 + 1, False)):
        doc = {"name": "far", "dim": 2,
               "terms": [{"vector": [big, 0], "matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]},
                         {"vector": [-big, 0], "matrix": [[[0, 0], [0, 0]], [[1, 0], [0, 0]]]}]}
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc))
        if ok:
            assert sorted(int(v[0]) for _, v in load_model(path).terms) == [-big, big]
        else:
            with pytest.raises(SchemaError, match="terms\\[0\\].vector"):
                load_model(path)


@pytest.mark.parametrize("name,params,blocks", [
    ("haldane", {}, ((0, 1),)),
    ("kane_mele", {"lambda_v": 1.44}, ((0, 2), (1, 3))),
    ("kane_mele", {"lambda_v": 0.4, "lambda_r": 0.2}, ((0, 1, 2, 3),)),
    ("bhz", {}, ((0, 2), (1, 3))),
    ("flat_two_band", {}, ((0, 1),))])
def test_builtin_model_blocks(name, params, blocks):
    """H(k) decouples exactly along the zeros of every term: kane_mele
    without Rashba coupling and bhz into their two spin blocks, and the
    Rashba coupling joins them."""
    assert builtin_model(name, params).blocks == blocks


def test_parse_error_carries_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json }")
    with pytest.raises(ParseError) as err:
        load_model(path)
    assert err.value.line == 1


def test_save_results_csv(tmp_path):
    rows = [{"model": "kane_mele", "lambda_v": 0.5, "chern": 0, "delta": 1,
             "kappa": -1, "berry_phase_T0": complex(1.0, 0.0),
             "berry_phase_Tpi": complex(-0.5, 0.25), "residual_max": 1e-9},
            {"model": "kane_mele", "lambda_v": 2.5, "delta": 0,
             "error": "GapClosure: ..."}]
    out = tmp_path / "rows.csv"
    save_results(out, rows, config={"seed": 0})
    text = out.read_text().splitlines()
    assert text[0] == ("model,lambda_v,chern,delta,kappa,berry_phase_T0,"
                       "berry_phase_Tpi,residual_max,error")
    assert text[1].startswith("kane_mele,0.5,0,1,-1,")
    assert "GapClosure" in text[2]
    sidecar = json.loads((tmp_path / "rows.csv.json").read_text())
    assert sidecar["seed"] == 0
