"""Tight-binding model zoo and model/result file I/O.

Bloch Hamiltonians are trigonometric polynomials
H(k) = sum_v T_v exp(i k.v) over integer lattice vectors v, so smoothness
and 2*pi-periodicity are automatic; Hermiticity is enforced by requiring the
conjugate-transpose partner term at -v. `fourier_planes` evaluates all such
sums (H, dH, random Hermitian fields) as entries-first planes; on a product
grid of points it factors each phase as exp(i k1 v1) exp(i k2 v2), so it
takes cos and sin one momentum coordinate at a time.
"""

import csv
import json
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import DEFAULT_TOL
from .errors import ParseError, SchemaError, UnknownModel, UnknownParameter
from .linalg import matrices_last

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
S0 = np.eye(2, dtype=complex)


def _unit_phases(angle):
    """exp(i angle), written as cos and sin into one complex array."""
    phase = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=phase.real)
    np.sin(angle, out=phase.imag)
    return phase


def fourier_planes(terms, ks, directions=(None,)):
    """sum_v T_v exp(i k.v) over (matrix T_v, vector v) terms at k-points
    (..., 2), as entries-first planes (N, N, ...), yielded one array per
    entry of `directions`: None gives H itself, a torus axis or a direction
    d the exact derivative along d, each matrix weighted by i (v.d).

    The points are read as P product grids n1 x n2, from the last two axes
    of the point array (a line is 1 x n, a single point 1 x 1) when k1 is
    exactly constant along the last axis and k2 along the one before, and
    otherwise as P single points. On a product grid the phase factors as
    exp(i k1 v1) exp(i k2 v2), so the call takes cos and sin of T x n1
    values k1 v1 and of D x n2 values k2 v2 over the D distinct v2, never
    of a (T, n1, n2) table. Each entry contracts its weighted matrices with
    the k1 table, summing the terms of equal v2, into (N^2, P, n1, D), and
    forms its planes by one matmul with the (P, D, n2) k2 table. An entry
    is formed only when it is reached, so a consumer that drops each before
    asking for the next holds one set of planes at a time."""
    ks = np.asarray(ks, dtype=float)
    shape = ks.shape[:-1]
    n1, n2 = ((1, 1) + shape)[-2:]
    grid = ks.reshape(int(np.prod(shape[:-2])), n1, n2, 2)
    if not (np.all(grid[..., 0] == grid[:, :, :1, 0])
            and np.all(grid[..., 1] == grid[:, :1, :, 1])):
        grid = ks.reshape(-1, 1, 1, 2)
    k1, k2 = grid[:, :, :1, 0], grid[:, :1, :, 1]     # (P, n1, 1), (P, 1, n2)
    mats = np.stack([m for m, _ in terms])
    vecs = np.array([v for _, v in terms], dtype=float)
    v2, group = np.unique(vecs[:, 1], return_inverse=True)
    # (N^2, T, D): each matrix in the column of its v2
    by_v2 = mats.reshape(len(terms), -1).T[:, :, None] * (group[:, None] == np.arange(len(v2)))
    phase1 = _unit_phases(k1 * vecs[:, 0])        # (P, n1, T)
    phase2 = _unit_phases(v2[:, None] * k2)       # (P, D, n2)
    for d in directions:
        weighted = by_v2
        if d is not None:
            d = np.eye(2)[d] if np.ndim(d) == 0 else np.asarray(d, dtype=float)
            weighted = by_v2 * (1j * (vecs @ d))[:, None]
        yield ((phase1 @ weighted[:, None]) @ phase2).reshape(mats.shape[1:] + shape)


@dataclass(frozen=True)
class BlochHamiltonianSpec:
    """H(k) = sum over terms (matrix, vector) of matrix * exp(i k.vector)."""

    dim: int
    terms: tuple  # of (matrix (N,N) complex, vector (2,) int)
    name: str = ""
    parameters: dict = field(default_factory=dict)

    def bloch(self, ks):
        """Evaluate H on an array of k-points, (..., 2) -> (..., N, N)."""
        h, = fourier_planes(self.terms, ks)
        return matrices_last(h)

    @cached_property
    def blocks(self):
        """The decoupled blocks of H, computed once per spec: the connected
        components of the union of the nonzero patterns of the terms, each a
        sorted tuple of band indices, ordered by their first. Only exact
        zeros decouple, so H(k) is block-diagonal in them at every k."""
        reach = np.eye(self.dim, dtype=bool)
        for m, _ in self.terms:
            reach |= m != 0
        reach |= reach.T
        for _ in range(self.dim.bit_length()):  # transitive closure by squaring
            reach = reach @ reach
        return tuple(sorted({tuple(np.flatnonzero(row).tolist()) for row in reach}))


def _merge_terms(raw_terms):
    """Collect (matrix, vector) contributions, summing duplicates."""
    acc = {}
    with np.errstate(over="ignore"):   # an overflowing sum is refused as non-finite
        for mat, vec in raw_terms:
            key = (int(vec[0]), int(vec[1]))
            acc[key] = acc.get(key, 0) + np.asarray(mat, dtype=complex)
    return tuple((m, np.array(v, dtype=int)) for v, m in sorted(acc.items()))


def _with_conjugates(raw_terms):
    """Append the Hermitian partner -v term for every listed term."""
    out = list(raw_terms)
    for mat, vec in raw_terms:
        v = np.asarray(vec, dtype=int)
        if v[0] == 0 and v[1] == 0:
            continue
        out.append((np.conjugate(np.asarray(mat, dtype=complex)).T, -v))
    return out


def _validate_hermitian_pairing(terms):
    """Every merged term is finite, so is the bound 2 sum_v (1 + |v|) ||T_v||
    on the spread of the spectrum of H and of every unit-direction dH, and
    each term has its conjugate-transpose partner at the opposite vector."""
    index = {(int(v[0]), int(v[1])): m for m, v in terms}
    for (v0, v1), m in index.items():
        if not np.all(np.isfinite(m)):
            raise SchemaError(f"terms[({v0},{v1})]", "merged matrix entries must be finite")
    if not np.isfinite(2.0 * sum((1.0 + float(np.hypot(*v))) * float(np.linalg.norm(m, 2))
                                 for v, m in index.items())):
        raise SchemaError("terms", "the spectral bound 2 sum_v (1 + |v|) ||T_v|| overflows a float")
    for (v0, v1), m in index.items():
        if (v0, v1) == (0, 0):
            if np.max(np.abs(m - m.conj().T)) > DEFAULT_TOL.hermitian:
                raise SchemaError("terms[(0,0)]", "on-site matrix is not Hermitian")
            continue
        partner = index.get((-v0, -v1))
        if partner is None:
            raise SchemaError(f"terms[({v0},{v1})]",
                              "missing conjugate-transpose partner term at the opposite vector")
        if np.max(np.abs(partner - m.conj().T)) > DEFAULT_TOL.hermitian:
            raise SchemaError(f"terms[({v0},{v1})]",
                              "partner term is not the conjugate transpose")


def _haldane_terms(t1, t2, phi, m):
    """Honeycomb model with complex second-neighbor hopping.

    Reduced-coordinate second-neighbor vectors (1,0), (-1,1), (0,-1) close a
    triangle on the A sublattice; the B sublattice sees the opposite flux.
    """
    a_phase = t2 * np.exp(-1j * phi)
    b_phase = t2 * np.exp(+1j * phi)
    onsite = np.array([[m, t1], [t1, -m]], dtype=complex)
    nnn = np.array([[a_phase, 0], [0, b_phase]], dtype=complex)
    nn = np.array([[0, 0], [t1, 0]], dtype=complex)
    terms = [
        (onsite, (0, 0)),
        (nn, (1, 0)),
        (nn, (0, 1)),
        # second-neighbor loop (1,0), (-1,1), (0,-1) closes a triangle
        (nnn, (1, 0)),
        (nnn, (-1, 1)),
        (nnn, (0, -1)),
    ]
    return _merge_terms(_with_conjugates(terms))


def _kane_mele_terms(t, lambda_so, lambda_v, lambda_r):
    """Honeycomb with spin: intrinsic spin-orbit (opposite Haldane flux per
    spin), staggered sublattice potential, and Rashba coupling.

    Basis order (A up, A down, B up, B down) so Kramers partners sit in
    adjacent slots, matching the block symplectic J.
    """
    # bond geometry for Rashba: primitive vectors a1=(1,0), a2=(1/2, sqrt3/2),
    # B at (a1+a2)/3; unit bond vectors A->B
    dhat = {
        (0, 0): np.array([np.sqrt(3) / 2, 0.5]),
        (-1, 0): np.array([-np.sqrt(3) / 2, 0.5]),
        (0, -1): np.array([0.0, -1.0]),
    }

    def rashba(d):
        return 1j * lambda_r * (SX * d[1] - SY * d[0])

    def ab_block(spin_mat):
        out = np.zeros((4, 4), dtype=complex)
        out[0:2, 2:4] = spin_mat
        return out

    def diag_block(a_spin, b_spin):
        out = np.zeros((4, 4), dtype=complex)
        out[0:2, 0:2] = a_spin
        out[2:4, 2:4] = b_spin
        return out

    so = 1j * lambda_so  # +i lambda_so toward the positive-orientation A loop
    incell = ab_block(t * S0 + rashba((0, 0)))
    incell = incell + incell.conj().T  # in-cell bond and its reverse
    terms = [
        (diag_block(lambda_v * S0, -lambda_v * S0), (0, 0)),
        (incell, (0, 0)),
        (ab_block(t * S0 + rashba((-1, 0))), (-1, 0)),
        (ab_block(t * S0 + rashba((0, -1))), (0, -1)),
        # second-neighbor spin-orbit: +i lam_so s_z on A, -i on B, vectors
        # (1,0), (-1,1), (0,-1) (conjugates added automatically)
        (diag_block(so * SZ, -so * SZ), (1, 0)),
        (diag_block(so * SZ, -so * SZ), (-1, 1)),
        (diag_block(so * SZ, -so * SZ), (0, -1)),
    ]
    return _merge_terms(_with_conjugates(terms))


def _bhz_terms(a, b, d, m):
    """Square-lattice two-orbital model, two time-reversed spin blocks.

    Basis order (E up, E down, H up, H down); the spin-down block is the
    complex conjugate of the spin-up block at -k, which makes time reversal
    exact by construction.
    """
    def up_down(mat_up, vec):
        """Embed a 2x2 orbital matrix for spin up and its TRS image for spin down."""
        out = np.zeros((4, 4), dtype=complex)
        # orbital basis (E, H) at slots (0, 2) for up, (1, 3) for down;
        # down-block terms are conj(up) at the same vector, i.e. H_dn(k) = conj(H_up(-k))
        for i in range(2):
            for j in range(2):
                out[2 * i, 2 * j] = mat_up[i, j]
                out[2 * i + 1, 2 * j + 1] = np.conjugate(mat_up[i, j])
        return out, vec

    # spin-up block: eps(k) 1 + d.sigma with d = (a sin k1, a sin k2,
    # m - 2b(2 - cos k1 - cos k2)) and eps = -2d(2 - cos k1 - cos k2)
    onsite_up = np.array([[(m - 4 * b) - 4 * d, 0.0],
                          [0.0, -(m - 4 * b) - 4 * d]], dtype=complex)
    hop1_up = np.array([[b + d, -0.5j * a], [-0.5j * a, -b + d]], dtype=complex)
    hop2_up = np.array([[b + d, -0.5 * a], [0.5 * a, -b + d]], dtype=complex)
    terms = [up_down(onsite_up, (0, 0)),
             up_down(hop1_up, (1, 0)),
             up_down(hop2_up, (0, 1))]
    return _merge_terms(_with_conjugates(terms))


def _flat_two_band_terms():
    """Winding unit-vector field n(k) = (cos k1, sin k1, 0) dotted into the
    Pauli matrices; flat bands at +-1, lower-band loop holonomy -1."""
    hop = 0.5 * (SX - 1j * SY)  # e^{+i k1} coefficient of n.sigma
    return _merge_terms(_with_conjugates([(hop, (1, 0))]))


# name -> (dim, terms builder, default parameters); the builder takes the
# parameters by name
_MODELS = {
    "haldane": (2, _haldane_terms, {"t1": 1.0, "t2": 0.15, "phi": np.pi / 2, "m": 0.2}),
    "kane_mele": (4, _kane_mele_terms,
                  {"t": 1.0, "lambda_so": 0.3, "lambda_v": 0.0, "lambda_r": 0.0}),
    "bhz": (4, _bhz_terms, {"a": 1.0, "b": 1.0, "d": 0.0, "m": 1.0}),
    "flat_two_band": (2, _flat_two_band_terms, {}),
}


def builtin_model(name, params=None):
    """One of the standard models: haldane, kane_mele, bhz, flat_two_band.

    Missing parameters fall back to the model defaults; an unknown model
    raises UnknownModel and a parameter the model does not have raises
    UnknownParameter. The returned spec always satisfies the Hermitian pairing
    invariant; kane_mele and bhz are time-reversal symmetric.
    """
    if name not in _MODELS:
        raise UnknownModel(f"unknown model {name!r}; known: {sorted(_MODELS)}")
    dim, build, defaults = _MODELS[name]
    p = dict(defaults)
    for key in params or {}:
        if key not in p:
            raise UnknownParameter(name, key, sorted(p))
    p.update(params or {})
    terms = build(**{key: float(value) for key, value in p.items()})
    _validate_hermitian_pairing(terms)
    return BlochHamiltonianSpec(dim=dim, terms=terms, name=name, parameters=p)


# ---------------------------------------------------------------- file I/O

def _matrix_to_json(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def _matrix_from_json(obj, key):
    try:
        arr = np.array([[complex(re, im) for re, im in row] for row in obj])
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(key, f"matrix entries must be [re, im] pairs: {exc}") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise SchemaError(key, f"matrix must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(key, "matrix entries must be finite")
    return arr


def save_model(path, spec: BlochHamiltonianSpec):
    doc = {
        "name": spec.name,
        "dim": spec.dim,
        "terms": [{"vector": [int(v[0]), int(v[1])], "matrix": _matrix_to_json(m)}
                  for m, v in spec.terms],
        "parameters": {k: float(v) for k, v in spec.parameters.items()},
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")


def _is_int(x):
    """A JSON integer; JSON's true and false are not."""
    return isinstance(x, int) and not isinstance(x, bool)


def load_model(path):
    """Load a model JSON file; ParseError/SchemaError carry the location."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, exc.colno, exc.msg) from None
    if not isinstance(doc, dict):
        raise SchemaError("model", f"must be a JSON object, got {type(doc).__name__}")
    for key in ("name", "dim", "terms"):
        if key not in doc:
            raise SchemaError(key, "missing required key")
    if not _is_int(doc["dim"]) or doc["dim"] < 1:
        raise SchemaError("dim", f"must be a positive integer, got {doc['dim']!r}")
    if not isinstance(doc["terms"], list):
        raise SchemaError("terms", f"must be a list, got {type(doc['terms']).__name__}")
    params = doc.get("parameters", {})
    if not isinstance(params, dict):
        raise SchemaError("parameters", f"must be an object, got {type(params).__name__}")
    for name, value in params.items():
        # NaN, the infinities and integers beyond the float range fail the bound
        if not ((_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max):
            raise SchemaError(f"parameters.{name}", f"must be a finite number, got {value!r}")
    raw = []
    for i, term in enumerate(doc["terms"]):
        where = f"terms[{i}]"
        if not isinstance(term, dict) or "vector" not in term or "matrix" not in term:
            raise SchemaError(where, "term needs 'vector' and 'matrix'")
        vec = term["vector"]
        if not isinstance(vec, list) or len(vec) != 2 or not all(map(_is_int, vec)):
            raise SchemaError(f"{where}.vector", "must be a pair of integers")
        if max(map(abs, vec)) > 2 ** 53:   # float phases would round the entry
            raise SchemaError(f"{where}.vector", f"entries must be at most 2^53 in size, got {vec}")
        mat = _matrix_from_json(term["matrix"], f"{where}.matrix")
        if mat.shape[0] != doc["dim"]:
            raise SchemaError(f"{where}.matrix",
                              f"size {mat.shape[0]} != dim {doc['dim']}")
        raw.append((mat, np.array(vec, dtype=int)))
    terms = _merge_terms(raw)
    _validate_hermitian_pairing(terms)
    return BlochHamiltonianSpec(dim=doc["dim"], terms=terms, name=doc["name"],
                                parameters={k: float(v) for k, v in params.items()})


def sweep_points(ranges, base_params):
    """Parameter dicts, one per row of a sweep, in deterministic order: the
    cartesian product of the (name, start, stop, count) ranges over
    base_params."""
    tasks = [dict(base_params)]
    for name, start, stop, count in ranges:
        if count < 1:
            raise ValueError(f"sweep over {name} needs count >= 1")
        if not (np.isfinite(start) and np.isfinite(stop)):
            raise ValueError(f"sweep over {name} has a non-finite endpoint")
        axis = [(name, float(v)) for v in np.linspace(start, stop, count)]
        tasks = [dict(t, **{n: v}) for t in tasks for (n, v) in axis]
    return tasks


RESULT_COLUMNS = ["model", "chern", "delta", "kappa", "berry_phase_T0",
                  "berry_phase_Tpi", "residual_max"]


def save_results(path, rows, config):
    """Write sweep results as CSV plus a JSON sidecar with the configuration.

    Rows are dicts; parameter columns (anything not in RESULT_COLUMNS) are
    emitted between 'model' and the invariant columns, sorted by name for
    deterministic output. Complex values are serialized as complex literals.
    """
    path = Path(path)
    rows = list(rows)
    param_cols = sorted({k for r in rows for k in r} - set(RESULT_COLUMNS) - {"error"})
    header = ["model"] + param_cols + RESULT_COLUMNS[1:] + ["error"]

    def fmt(x):
        if x is None:
            return ""
        if isinstance(x, complex):
            return repr(x).strip("()")
        if isinstance(x, float):
            return repr(x)
        return str(x)

    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for r in rows:
            writer.writerow([fmt(r.get(col)) for col in header])
    sidecar = path.with_suffix(path.suffix + ".json")
    sidecar.write_text(json.dumps(config, indent=1, sort_keys=True), encoding="utf-8")
    return path
