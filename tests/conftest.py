import numpy as np
import pytest

from topoinv import builtin_model, make_projector_family
from topoinv.core import TRSOperator
from topoinv.models import BlochHamiltonianSpec


@pytest.fixture(scope="session")
def theta4():
    return TRSOperator.standard(4)


@pytest.fixture(scope="session")
def theta2():
    return TRSOperator.standard(2)


@pytest.fixture(scope="session")
def haldane_topo():
    return make_projector_family(builtin_model("haldane", {"m": 0.2}))


@pytest.fixture(scope="session")
def haldane_trivial():
    return make_projector_family(builtin_model("haldane", {"m": 1.5}))


@pytest.fixture(scope="session")
def km_topo():
    spec = builtin_model("kane_mele", {"lambda_so": 0.3, "lambda_v": 0.4,
                                       "lambda_r": 0.2})
    return make_projector_family(spec)


@pytest.fixture(scope="session")
def km_trivial():
    spec = builtin_model("kane_mele", {"lambda_so": 0.3, "lambda_v": 2.5})
    return make_projector_family(spec)


@pytest.fixture(scope="session")
def flat_band():
    return make_projector_family(builtin_model("flat_two_band"))


@pytest.fixture(scope="session")
def bhz_topo():
    return make_projector_family(builtin_model("bhz"))


@pytest.fixture(scope="session")
def atomic_limit():
    """Constant Theta-invariant rank-2 family on C^4 (the atomic limit)."""
    onsite = np.diag([-1.0, -1.0, 1.0, 1.0]).astype(complex)
    spec = BlochHamiltonianSpec(dim=4, terms=((onsite, np.zeros(2, dtype=int)),),
                                name="atomic_limit")
    return make_projector_family(spec)


@pytest.fixture(scope="session")
def constant_loop():
    """P(k) = diag(0, 1) on a loop, from the on-site H = diag(1, -1); dH = 0,
    so its derivative is exactly zero."""
    onsite = np.diag([1.0, -1.0]).astype(complex)
    spec = BlochHamiltonianSpec(dim=2, terms=((onsite, np.zeros(2, dtype=int)),),
                                name="constant")
    return make_projector_family(spec).loop(0, 0.0)


def _dagger(a):
    return np.conjugate(np.swapaxes(a, -1, -2))


def _per_term_fourier_sum(terms, k, direction=None):
    """Reference H(k) = sum_v T_v exp(i k.v), one (..., N, N) term at a time;
    a torus axis or a direction d gives dH along d, each term times i (v.d)."""
    k = np.asarray(k, dtype=float)
    d = direction
    if d is not None and np.ndim(d) == 0:
        d = np.eye(2)[d]
    out = np.zeros(k.shape[:-1] + terms[0][0].shape, dtype=complex)
    for mat, (v1, v2) in terms:
        phase = np.exp(1j * (k[..., 0] * v1 + k[..., 1] * v2))
        if d is not None:
            phase = 1j * (v1 * d[0] + v2 * d[1]) * phase
        out += phase[..., None, None] * mat
    return out


@pytest.fixture(scope="session")
def per_term_fourier_sum():
    return _per_term_fourier_sum


def _matmul_projector_derivative(family, ks, axis=0):
    """Reference (P, dP) by batched (..., N, N) matmuls on a fresh eigh of
    H, with H and dH summed term by term: P = V_occ V_occ^+ and
    dP = V (X + X^+) V^+ with X_ij = (V^+ dH V)_ij / (e_i - e_j) on
    occupied-empty pairs, the occupied bands masked by e < 0. A
    tuple of axes gives (P, (dP, ...))."""
    ks = np.asarray(ks, dtype=float)
    k = ks
    if family.line is not None:
        origin, direction = np.asarray(family.line)
        k = origin + ks[..., None] * direction
    w, v = np.linalg.eigh(_per_term_fourier_sum(family.spec.terms, k))
    occ = w < 0.0
    vocc = np.where(occ[..., None, :], v, 0.0)
    p = vocc @ _dagger(vocc)
    pairs = occ[..., :, None] & ~occ[..., None, :]
    gaps = np.where(pairs, w[..., :, None] - w[..., None, :], 1.0)

    def along(direction):
        dh = _per_term_fourier_sum(family.spec.terms, k, direction)
        x = np.where(pairs, _dagger(v) @ dh @ v / gaps, 0.0)
        return v @ (x + _dagger(x)) @ _dagger(v)

    if isinstance(axis, tuple):
        return p, tuple(along(a) for a in axis)
    return p, along(axis if family.line is None else family.line[1])


@pytest.fixture(scope="session")
def matmul_projector_derivative():
    return _matmul_projector_derivative
