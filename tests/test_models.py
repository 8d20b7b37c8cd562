import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topoinv import builtin_model, load_model, make_projector_family, save_model
from topoinv.core import TRSOperator, check_trs
from topoinv.errors import ParseError, SchemaError, UnknownModel, UnknownParameter
from topoinv.grids import Axis, ebz_axis, loop_axis, torus_points
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


def _point_sets():
    """(points, directions) for every kind of point array the program
    evaluates, and for arrays that are not product grids: tori from
    loop_axis (which starts at -pi), the half zone, a strided sub-grid, the
    loops at k1 = 0 and pi, the k2 = 0 line of random gauges, an off-axis
    line, a single point as (2,) and (1, 2), a torus with k1 varying along
    axis 1, tori with one point's k1 or k2 moved, and random points."""
    torus = torus_points(loop_axis(12), loop_axis(10))
    direction = np.array([1.0, 2.0])
    s = loop_axis(16).points
    moved = torus.copy(), torus.copy()
    moved[0][5, 3, 0] += 1e-3
    moved[1][5, 3, 1] += 1e-3
    return (
        (torus, (0, 1)),
        (torus_points(loop_axis(128), loop_axis(128)), (0, 1)),
        (torus_points(ebz_axis(8), loop_axis(10)), (0, 1)),
        (torus[::3, ::2], (0, 1)),
        (np.array([0.0, 0.0]) + s[:, None] * np.array([0.0, 1.0]), ((0.0, 1.0),)),
        (np.array([np.pi, 0.0]) + s[:, None] * np.array([0.0, 1.0]), ((0.0, 1.0),)),
        (np.stack([s, np.zeros_like(s)], axis=-1), (0,)),
        (np.array([0.2, -0.5]) + s[:, None] * direction, (direction,)),
        (np.array([0.3, -0.2]) + np.linspace(-np.pi, np.pi, 1025)[:, None] * direction,
         (direction,)),
        (np.array([0.3, -1.1]), (0, 1, direction)),
        (np.array([[0.3, -1.1]]), (0, 1, direction)),
        (torus.swapaxes(0, 1), (0, 1)),
        (moved[0], (0, 1)),
        (moved[1], (0, 1)),
        (np.random.default_rng(3).uniform(-np.pi, np.pi, (5, 7, 2)), (0, 1, direction)),
    )


@pytest.mark.parametrize("name", ["haldane", "kane_mele", "bhz", "flat_two_band", "random"])
def test_fourier_planes_match_per_term_sum(name, per_term_fourier_sum):
    """H from `bloch` and dH from one `fourier_planes` call equal a
    term-by-term sum within 1e-14 relative, for the model's terms and with
    a (0, +-20) term added, on every point set of `_point_sets`. H and every
    dH of one call come out exactly as from calls of their own."""
    spec = _random_paired_spec(5) if name == "random" else builtin_model(name)
    far = np.arange(spec.dim ** 2).reshape(spec.dim, spec.dim) * (0.1 + 0.2j)
    far_terms = spec.terms + ((far, np.array([0, 20])), (far.conj().T, np.array([0, -20])))
    for terms in (spec.terms, far_terms):
        for ks, directions in _point_sets():
            ref = per_term_fourier_sum(terms, ks)
            got = BlochHamiltonianSpec(dim=spec.dim, terms=terms).bloch(ks)
            assert got.shape == ref.shape == ks.shape[:-1] + (spec.dim, spec.dim)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
            together = fourier_planes(terms, ks, (None,) + directions)
            for d, planes in zip((None,) + directions, together):
                ref = per_term_fourier_sum(terms, ks, d)
                got = matrices_last(planes)
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
                # one set of phase tables for several directions changes no bit
                alone, = fourier_planes(terms, ks, (d,))
                assert np.array_equal(planes, alone)


def _axes(n_max=24):
    """A periodic axis of 1 to n_max points or an interval axis of 2 to
    n_max, from a random start over a random length."""
    start, length = st.floats(-4.0, 4.0), st.floats(0.1, 2 * np.pi)
    return st.one_of(st.builds(Axis, st.just("k"), start, length, st.integers(1, n_max)),
                     st.builds(Axis, st.just("k"), start, length, st.integers(1, n_max - 1),
                               st.just(False)))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(dim=st.integers(1, 4),
       vectors=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=4),
       shared=st.tuples(st.lists(st.integers(-3, 3), min_size=2, max_size=4, unique=True),
                        st.integers(-3, 3)),
       ax1=_axes(), ax2=_axes(), seed=st.integers(0, 2 ** 32 - 1))
def test_fourier_planes_on_random_product_grids(per_term_fourier_sum, dim, vectors, shared,
                                                ax1, ax2, seed):
    """A random Hermitian-paired spec (N <= 4, vectors in [-3, 3]^2, some
    terms sharing a v2) on a random product grid of periodic or interval
    axes: H and dH along both axes equal the term-by-term sum within 1e-14
    relative."""
    rng = np.random.default_rng(seed)
    merged = {}
    for v in vectors + [(v1, shared[1]) for v1 in shared[0]]:
        hop = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        back = tuple(-np.array(v))
        merged[v] = merged.get(v, 0) + hop
        merged[back] = merged.get(back, 0) + hop.conj().T
    terms = tuple((m, np.array(v)) for v, m in merged.items())
    ks = torus_points(ax1, ax2)
    for d, planes in zip((None, 0, 1), fourier_planes(terms, ks, (None, 0, 1))):
        ref = per_term_fourier_sum(terms, ks, d)
        assert np.max(np.abs(matrices_last(planes) - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", ["haldane", "kane_mele"])
def test_fourier_planes_hold_one_plane_set(name):
    """Consumed one plane set at a time on a 256^2 torus, H and dH along
    both axes allocate at most 1.1 times one set of planes at their peak,
    as tracemalloc counts it: no phase table of the terms times the grid is
    made."""
    spec = builtin_model(name)
    ks = torus_points(loop_axis(256), loop_axis(256))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for planes in fourier_planes(spec.terms, ks, (None, 0, 1)):
            del planes
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * spec.dim ** 2 * ks[..., 0].size * 16


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
