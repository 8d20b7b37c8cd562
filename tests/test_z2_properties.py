"""Property test: the Z2 votes agree on random time-reversal symmetric models.

Each example is kane_mele away from its phase transition plus a random
nearest-neighbour perturbation made time-reversal symmetric term by term.
Whenever delta, kappa and the lattice oracle all snap, kappa = (-1)^delta
and the oracle equals delta.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from topoinv import (builtin_model, delta_invariant, kappa_invariant, lattice,
                     make_projector_family, z2_ingredients)
from topoinv.core import TRSOperator, check_trs
from topoinv.models import BlochHamiltonianSpec

THETA = TRSOperator.standard(4)
NEAREST = ((1, 0), (0, 1))
# lambda_v / lambda_so stays clear of the transition near 3 sqrt(3) = 5.2
RATIO = st.one_of(st.floats(0.0, 3.5), st.floats(7.0, 9.0))
ENTRY = st.floats(-0.03, 0.03)


def _symmetric_terms(entries):
    """Nearest-neighbour terms T <- (T + J conj(T) J^T) / 2, each with its
    Hermitian partner (T^+, -v)."""
    terms = []
    for i, vec in enumerate(NEAREST):
        block = entries[i * 32:(i + 1) * 32]
        t = np.reshape(block[:16], (4, 4)) + 1j * np.reshape(block[16:], (4, 4))
        t = 0.5 * (t + THETA.adjoint(t))
        terms.append((t, np.array(vec)))
        terms.append((t.conj().T, -np.array(vec)))
    return terms


@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(ratio=RATIO, lambda_r=st.floats(0.0, 0.25),
       entries=st.lists(ENTRY, min_size=64, max_size=64))
def test_z2_votes_agree_on_perturbed_kane_mele(ratio, lambda_r, entries):
    base = builtin_model("kane_mele", {"lambda_so": 0.3, "lambda_v": 0.3 * ratio,
                                       "lambda_r": lambda_r})
    spec = BlochHamiltonianSpec(dim=4, terms=base.terms + tuple(_symmetric_terms(entries)),
                                name="kane_mele_perturbed")
    family = make_projector_family(spec)
    assert check_trs(family, THETA)[0]
    z2 = z2_ingredients(family, THETA, n1=16, n2=32)
    delta, kappa = delta_invariant(z2), kappa_invariant(z2)
    oracle = lattice.lattice_z2(family, THETA, n1=16, n2=32)
    if None in (delta.snapped, kappa.snapped, oracle.snapped):
        return
    assert kappa.snapped == (-1) ** delta.snapped
    assert oracle.snapped == delta.snapped
