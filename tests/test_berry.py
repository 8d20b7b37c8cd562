from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from topoinv import linalg
from topoinv import (berry_connection, berry_curvature, berry_curvature_ebz,
                     berry_phase, berry_phase_sqrt, build_frame, build_trs_frame,
                     chern_number, delta_invariant, gauge_transform,
                     parallel_transport, plaquette_chern,
                     random_gauge, random_trs_gauge, winding, z2_ingredients)
from topoinv.errors import DimensionMismatch, NotTRSFrame, UnsnappedError
from topoinv.grids import loop_axis, spectral_derivative
from topoinv.wz import FieldGrid

from oracles import holonomy_flux_check, odd_symmetry_residual, validate_gauge


def w_frame(family, k1=0.0, n=256, axis=0):
    loop = family.loop(axis, k1)
    return build_frame(parallel_transport(loop, n_grid=n))


def test_constant_frame_zero_connection(constant_loop):
    trp = parallel_transport(constant_loop, n_grid=32)
    frame = build_frame(trp)
    conn = berry_connection(frame, method="spectral")
    assert np.max(np.abs(conn.a_values)) < 1e-12
    assert conn.imag_max < 1e-10
    assert abs(berry_phase(conn).raw - 1.0) < 1e-12


def test_unknown_connection_method_is_refused(constant_loop):
    """A misspelled route is refused, naming the valid ones, instead of
    returning the spectral connection."""
    frame = build_frame(parallel_transport(constant_loop, n_grid=32))
    with pytest.raises(ValueError, match="'analytic' or 'spectral', got 'analitic'"):
        berry_connection(frame, method="analitic")


def test_connection_is_real(km_topo):
    frame = w_frame(km_topo, np.pi)
    conn = berry_connection(frame, method="spectral")
    assert conn.imag_max < 1e-10


def test_flat_band_loop_integral(flat_band):
    frame = w_frame(flat_band, 0.0, axis=1)
    conn = berry_connection(frame)
    target = np.pi
    assert abs(abs(conn.loop_integral) % (2 * np.pi) - target) < 1e-8
    assert abs(berry_phase(conn).raw + 1.0) < 1e-8


def test_fd_and_analytic_connections_agree(km_topo):
    frame = w_frame(km_topo, 0.0)
    exact = berry_connection(frame, method="analytic")
    spectral = berry_connection(frame, method="spectral")
    assert abs(exact.loop_integral - spectral.loop_integral) < 1e-7
    assert np.max(np.abs(exact.a_values - spectral.a_values)) < 1e-7


def test_berry_phase_oracle_cross_check(km_topo):
    frame = w_frame(km_topo, 0.0)
    result = berry_phase(berry_connection(frame))
    assert result.meta["oracle_discrepancy"] < 1e-5


def test_gauge_invariance_of_berry_phase(km_topo):
    frame = w_frame(km_topo, 0.0, n=256)
    reference = berry_phase(berry_connection(frame)).raw
    worst = 0.0
    for seed in range(50):
        gauge = random_gauge(frame.n, frame.rank, seed=seed)
        transformed = gauge_transform(frame, gauge)
        val = berry_phase(berry_connection(transformed, method="spectral")).raw
        worst = max(worst, abs(val - reference))
    assert worst < 1e-7


def test_sqrt_gauge_invariance_under_trs_gauges(km_topo, theta4):
    frame = build_trs_frame(km_topo.loop(0, 0.0), theta4, n_grid=256)
    reference = berry_phase_sqrt(berry_connection(frame)).raw
    worst = 0.0
    for seed in range(50):
        gauge = random_trs_gauge(frame.n, frame.rank, seed=seed)
        assert validate_gauge(gauge)["ok"]
        transformed = gauge_transform(frame, gauge)
        assert transformed.trs_flag
        val = berry_phase_sqrt(berry_connection(transformed)).raw
        worst = max(worst, abs(val - reference))
    assert worst < 1e-6


@pytest.fixture(scope="module")
def km_loop_frames(km_topo, theta4):
    """The time-reversal symmetric frame and the transport frame of one
    kane_mele loop, 256 points."""
    return build_trs_frame(km_topo.loop(0, 0.0), theta4, n_grid=256), w_frame(km_topo, 0.0)


@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_random_gauges_keep_their_symmetry_and_the_berry_phase(km_loop_frames, seed):
    """A random symmetric gauge is unitary, time-reversal symmetric, has even
    det winding, keeps the square-root Berry phase and carries the exact
    log-derivative (the spectral u^-1 du within 1e-12 on 512 points, ranks 2
    and 4); a random gauge keeps the full Berry phase."""
    trs_frame, frame = km_loop_frames
    gauge = random_trs_gauge(trs_frame.n, trs_frame.rank, seed=seed)
    assert validate_gauge(gauge)["ok"]
    det_winding = winding(FieldGrid(axes=(loop_axis(trs_frame.n),), samples=gauge.u_samples))
    assert det_winding.snapped is not None and det_winding.snapped % 2 == 0
    sq = berry_phase_sqrt(berry_connection(trs_frame)).raw
    sq_g = berry_phase_sqrt(berry_connection(gauge_transform(trs_frame, gauge))).raw
    assert abs(sq_g - sq) < 1e-8
    full = berry_phase(berry_connection(frame)).raw
    full_g = berry_phase(berry_connection(
        gauge_transform(frame, random_gauge(frame.n, frame.rank, seed=seed)))).raw
    assert abs(full_g - full) < 1e-8
    for m in (2, 4):
        u = random_trs_gauge(512, m, seed=seed)
        du = spectral_derivative(u.u_samples, 0, loop_axis(512))
        assert np.max(np.abs(u.log_derivative - linalg.dagger(u.u_samples) @ du)) <= 1e-12


def test_sqrt_needs_trs_frame(km_topo):
    frame = w_frame(km_topo, 0.0)
    with pytest.raises(NotTRSFrame):
        berry_phase_sqrt(berry_connection(frame))


def test_winding_trs_gauge_shifts_integral_by_4pi(km_topo, theta4):
    frame = build_trs_frame(km_topo.loop(0, 0.0), theta4, n_grid=128)
    conn = berry_connection(frame)
    gauge = random_trs_gauge(frame.n, frame.rank, seed=3, scale=0.0, winding=1)
    shifted = berry_connection(gauge_transform(frame, gauge))
    assert abs((shifted.loop_integral - conn.loop_integral) - 4 * np.pi) < 1e-8
    before = berry_phase_sqrt(conn).raw
    after = berry_phase_sqrt(shifted).raw
    assert abs(before - after) < 1e-10


def test_constant_diagonal_gauge_preserves_integral(km_topo):
    frame = w_frame(km_topo, 0.0, n=128)
    conn = berry_connection(frame)
    m = frame.rank
    u = np.broadcast_to(np.diag(np.exp(1j * np.arange(1, m + 1))),
                        (frame.n, m, m)).copy()
    from topoinv.berry import GaugeField
    gauge = GaugeField(ks=frame.ks, u_samples=u, trs_flag=False,
                       log_derivative=np.zeros_like(u))
    shifted = berry_connection(gauge_transform(frame, gauge))
    assert abs(shifted.loop_integral - conn.loop_integral) < 1e-10


def test_gauge_dimension_mismatch(km_topo):
    frame = w_frame(km_topo, 0.0, n=128)
    gauge = random_gauge(128, frame.rank + 1, seed=0)
    with pytest.raises(DimensionMismatch):
        gauge_transform(frame, gauge)


@pytest.mark.parametrize("name", ("haldane_topo", "km_topo", "bhz_topo"))
def test_curvature_on_planes_matches_matmul_formula(name, request,
                                                     matmul_projector_derivative):
    """The interband-block curvature on the full and the half zone equals
    -i Tr{ P [d1 P, d2 P] } formed by (..., N, N) matmuls, within 1e-13,
    and that matmul reference is real within 1e-13."""
    fam = replace(request.getfixturevalue(name))
    for field in (berry_curvature(fam, n_grid=16), berry_curvature_ebz(fam, n1=8, n2=16)):
        ax1, ax2 = field.axes
        ks = np.stack(np.meshgrid(ax1.points, ax2.points, indexing="ij"), axis=-1)
        p, (d1, d2) = matmul_projector_derivative(fam, ks, (0, 1))
        omega = -1j * np.trace(p @ (d1 @ d2 - d2 @ d1), axis1=-2, axis2=-1)
        assert field.omega.shape == omega.shape
        assert np.max(np.abs(field.omega - omega.real)) <= 1e-13
        assert np.max(np.abs(omega.imag)) <= 1e-13


@pytest.mark.parametrize("m", [1, 2, 3])
def test_random_gauge_matches_expm_frechet(m):
    """The batched gauge equals exp(iH) and u^-1 du from scipy's expm_frechet
    at every grid point, within 1e-12."""
    for seed in (0, 7):
        gauge = random_gauge(64, m, seed)
        rng = np.random.default_rng(seed)
        c = [(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) * (0.25 / (1 + p))
             for p in range(4)]
        for j, k in enumerate(gauge.ks):
            h = c[0] + c[0].conj().T
            hp = np.zeros((m, m), dtype=complex)
            for p in range(1, 4):
                ph = np.exp(1j * p * k)
                h = h + ph * c[p] + np.conjugate(ph) * c[p].conj().T
                hp = hp + 1j * p * (ph * c[p] - np.conjugate(ph) * c[p].conj().T)
            u, du = scipy.linalg.expm_frechet(1j * h, 1j * hp)
            assert np.max(np.abs(gauge.u_samples[j] - u)) <= 1e-12
            assert np.max(np.abs(gauge.log_derivative[j] - np.linalg.solve(u, du))) <= 1e-12


def test_curvature_odd_under_trs(km_topo):
    curv = berry_curvature(km_topo, n_grid=64)
    assert odd_symmetry_residual(curv) < 1e-7


def test_chern_haldane_vs_plaquette_oracle(haldane_topo, haldane_trivial):
    for fam, expected_abs in ((haldane_topo, 1), (haldane_trivial, 0)):
        c = chern_number(berry_curvature(fam, n_grid=128))
        oracle = plaquette_chern(fam, n_grid=64)
        assert c.snapped == oracle.snapped
        assert abs(c.snapped) == expected_abs
        assert c.residual < 1e-6


def test_chern_vanishes_for_trs(km_topo):
    c = chern_number(berry_curvature(km_topo, n_grid=64))
    assert c.snapped == 0
    assert c.residual < 1e-8


def test_unsnapped_is_first_class():
    """A raw value off the integers, and a NaN or infinite one (an
    overflowed quadrature), stays unsnapped; the non-finite ones carry a NaN
    residual."""
    from topoinv.results import snap_integer
    res = snap_integer("Chern", 0.4)
    assert res.snapped is None
    with pytest.raises(UnsnappedError):
        res.require_snapped()
    for raw in (np.nan, np.inf, -np.inf, complex(1.0, np.nan), complex(np.inf, 0.0)):
        for modulus in (None, 2):
            res = snap_integer("Chern", raw, modulus=modulus)
            assert res.snapped is None and np.isnan(res.residual)
            with pytest.raises(UnsnappedError):
                res.require_snapped()


def test_stokes_on_subrectangles(haldane_topo):
    rng = np.random.default_rng(9)
    for _ in range(3):
        corner = rng.uniform(-np.pi, 0.5, size=2)
        widths = rng.uniform(0.4, 0.9, size=2)
        _, _, diff = holonomy_flux_check(haldane_topo, corner, widths)
        assert diff < 1e-5


def test_delta_atomic_limit_is_trivial(atomic_limit, theta4):
    d = delta_invariant(z2_ingredients(atomic_limit, theta4, n1=16, n2=32))
    assert d.snapped == 0
    assert d.residual < 1e-10


def test_delta_kane_mele_phases(km_topo, km_trivial, theta4):
    d_topo = delta_invariant(z2_ingredients(km_topo, theta4, n1=32, n2=64))
    d_triv = delta_invariant(z2_ingredients(km_trivial, theta4, n1=32, n2=64))
    assert d_topo.snapped == 1
    assert d_triv.snapped == 0
    # raw lands near an integer and the integer is grid-stable 64 -> 256
    assert d_topo.residual < 1e-3
    d_coarse = delta_invariant(z2_ingredients(km_topo, theta4, n1=16, n2=32))
    d_fine = delta_invariant(z2_ingredients(km_topo, theta4, n1=64, n2=128))
    assert d_coarse.snapped == d_fine.snapped == d_topo.snapped


def test_ebz_curvature_integral_consistency(km_topo):
    """Full-torus integral vanishes; the half-zone integral carries the
    boundary-term content and must match the torus half on symmetry grounds
    only mod the odd part, so check the full integral instead."""
    full = berry_curvature(km_topo, n_grid=64).integral()
    assert abs(full) < 1e-8
    ebz = berry_curvature_ebz(km_topo, n1=32, n2=64).integral()
    assert np.isfinite(ebz)
