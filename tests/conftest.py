import numpy as np
import pytest

from topoinv import builtin_model, make_projector_family
from topoinv.core import ProjectorFamily, TRSOperator
from topoinv.models import BlochHamiltonianSpec


@pytest.fixture(scope="session")
def theta4():
    return TRSOperator.standard(4)


@pytest.fixture(scope="session")
def theta2():
    return TRSOperator.standard(2)


@pytest.fixture(scope="session")
def haldane_topo():
    return make_projector_family(builtin_model("haldane", {"m": 0.2}), 0.0)


@pytest.fixture(scope="session")
def haldane_trivial():
    return make_projector_family(builtin_model("haldane", {"m": 1.5}), 0.0)


@pytest.fixture(scope="session")
def km_topo():
    spec = builtin_model("kane_mele", {"lambda_so": 0.3, "lambda_v": 0.4,
                                       "lambda_r": 0.2})
    return make_projector_family(spec, 0.0)


@pytest.fixture(scope="session")
def km_trivial():
    spec = builtin_model("kane_mele", {"lambda_so": 0.3, "lambda_v": 2.5})
    return make_projector_family(spec, 0.0)


@pytest.fixture(scope="session")
def flat_band():
    return make_projector_family(builtin_model("flat_two_band"), 0.0)


@pytest.fixture(scope="session")
def bhz_topo():
    return make_projector_family(builtin_model("bhz"), 0.0)


@pytest.fixture(scope="session")
def atomic_limit():
    """Constant Theta-invariant rank-2 family on C^4 (the atomic limit)."""
    onsite = np.diag([-1.0, -1.0, 1.0, 1.0]).astype(complex)
    spec = BlochHamiltonianSpec(dim=4, terms=((onsite, np.zeros(2, dtype=int)),),
                                name="atomic_limit")
    return make_projector_family(spec, 0.0)


@pytest.fixture(scope="session")
def constant_loop():
    """P(k) = diag(0, 1) on a loop; its finite-difference derivative is
    exactly zero."""
    p0 = np.diag([0.0, 1.0]).astype(complex)
    return ProjectorFamily(
        ambient_dim=2, rank=1, domain="loop",
        sampler=lambda k: p0,
        batch_sampler=lambda ks: np.broadcast_to(p0, np.shape(ks) + (2, 2)).copy(),
        name="constant")
