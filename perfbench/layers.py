"""Layer tracing for the benchmark: wrappers around topoinv's public layer
functions, an in-memory span recorder, and the per-layer metric table.

The wrappers live here, not in the program: installing them rebinds each
wrapped function in every topoinv module namespace that holds it (a
`from .grids import integrate_grid` in berry.py makes a second binding that
must be replaced too), and `installed()` restores every binding on exit.

A span covers one call of one layer function. Its self time is its duration
minus the time its child spans cover; a layer's inclusive time counts only
its outermost spans, so a layer calling itself is not counted twice.
"""

import functools
import importlib
import itertools
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional


def _matrices(shape):
    """Number of matrices in a batch of shape (..., N, N)."""
    return math.prod(shape[:-2])


def _chi_triple_flop(points, n):
    """Real flops of the chi_triple density per call, from array shapes:
    five batched N x N complex products (8 N^3 each), the commutator
    difference (2 N^2) and the trace contraction (8 N^2). FFT derivatives and
    the quadrature are not counted."""
    return points * (40 * n ** 3 + 10 * n ** 2)


@dataclass(frozen=True)
class Layer:
    """One traced function: `owner` is a module or class path, `attr` the
    name bound there. `probe(args, kwargs, result)` returns (work, key,
    flop): a work count, a key identifying the input for the distinct
    ratio, and computed flops."""

    span: str
    owner: str
    attr: str
    probe: Optional[Callable] = None


LAYERS = (
    Layer("models.bloch", "topoinv.models:BlochHamiltonianSpec", "bloch",
          lambda a, k, r: (_matrices(r.shape), None, 0)),
    Layer("core.make_family", "topoinv.core", "make_projector_family"),
    Layer("core.sample", "topoinv.core:ProjectorFamily", "sample",
          lambda a, k, r: (_matrices(r.shape), None, 0)),
    Layer("core.derivative", "topoinv.core:ProjectorFamily", "derivative"),
    Layer("core.eigh", "numpy.linalg", "eigh",
          lambda a, k, r: (math.prod(r[0].shape[:-1]), None, 0)),
    Layer("core.check_trs", "topoinv.core", "check_trs"),
    Layer("berry.curvature", "topoinv.berry", "berry_curvature",
          lambda a, k, r: (r.omega.size, None, 0)),
    Layer("berry.ebz_curvature", "topoinv.berry", "berry_curvature_ebz",
          lambda a, k, r: (r.omega.size, (r.family.name, r.omega.shape), 0)),
    Layer("berry.delta", "topoinv.berry", "delta_invariant"),
    Layer("berry.connection", "topoinv.berry", "berry_connection"),
    Layer("transport.trs_frame", "topoinv.transport", "build_trs_frame",
          lambda a, k, r: (1, (r.family.name, len(r.ks)), 0)),
    Layer("linalg.polar_project", "topoinv.linalg", "polar_project"),
    Layer("linalg.kramers_basis", "topoinv.linalg", "kramers_basis"),
    Layer("wz.kappa", "topoinv.wz", "kappa_invariant"),
    Layer("wz.amplitude_phi", "topoinv.wz", "wz_amplitude_phi"),
    Layer("lattice.lattice_z2", "topoinv.lattice", "lattice_z2"),
    Layer("lattice.plaquette_chern", "topoinv.lattice", "plaquette_chern"),
    Layer("wz.up_extension", "topoinv.wz", "up_extension"),
    Layer("wz.chi_triple", "topoinv.wz", "chi_triple_integral",
          lambda a, k, r: (_matrices(a[0].samples.shape), None,
                           _chi_triple_flop(_matrices(a[0].samples.shape),
                                            a[0].dim))),
    Layer("grids.spectral_derivative", "topoinv.grids", "spectral_derivative"),
    Layer("grids.integrate_grid", "topoinv.grids", "integrate_grid"),
    Layer("wz.pw", "topoinv.wz", "pw_functional"),
    Layer("wz.apw", "topoinv.wz", "apw_functional"),
    Layer("wz.alpha_integral", "topoinv.wz", "alpha_integral"),
    Layer("wz.beta_integral", "topoinv.wz", "beta_integral"),
    Layer("wz.conjugated_field", "topoinv.wz", "conjugated_field"),
    Layer("wz.product_field", "topoinv.wz", "product_field"),
    Layer("wz.tube_extension", "topoinv.wz", "tube_extension"),
)

# The span the request runner opens around each request; its self time is
# the request time that no layer span covers.
REQUEST_SPAN = "request"

CLI = ("chern_haldane", "trs_kane_mele")
TRS = ("trs_kane_mele",)
ALL = ("chern_haldane", "trs_kane_mele", "wz_functionals")
WZF = ("wz_functionals",)


@dataclass(frozen=True)
class Metric:
    """A per-layer metric: `quantity` of span `span`, per request.

    `required` names the workloads on which the span must record at least
    one call; a traced run of such a workload that records none fails
    instead of reporting a zero. `moves` is the end-to-end metric and
    workloads the layer should move, `computed` marks numbers derived from
    array shapes rather than measured."""

    name: str
    span: str
    quantity: str   # s | self_s | calls | work | distinct_ratio | gflop | fd_share
    required: tuple
    moves: str
    computed: bool = False

    @property
    def unit(self):
        return {"s": "s/req", "self_s": "s/req", "calls": "count/req",
                "work": "count/req", "distinct_ratio": "frac",
                "gflop": "GFLOP/req", "fd_share": "frac"}[self.quantity]


_PROJ = "throughput_rps and latency_p50_s on chern_haldane and trs_kane_mele; none on wz_functionals"
_TRSM = "throughput_rps on trs_kane_mele only"
_WZD = ("throughput_rps on chern_haldane (N=2), wz_functionals (N=2) and "
        "trs_kane_mele (N=4); peak_rss_mb on chern_haldane")
_PWM = "throughput_rps on wz_functionals only"

METRICS = (
    Metric("models.bloch_s", "models.bloch", "s", CLI, _PROJ),
    Metric("models.bloch_kpoints", "models.bloch", "work", CLI, _PROJ),
    Metric("core.make_family_s", "core.make_family", "s", CLI, _PROJ),
    Metric("core.sample_s", "core.sample", "s", CLI, _PROJ),
    Metric("core.sample_kpoints", "core.sample", "work", CLI, _PROJ),
    Metric("core.derivative_s", "core.derivative", "s", CLI, _PROJ),
    Metric("core.eigh_s", "core.eigh", "s", CLI, _PROJ),
    Metric("core.eigh_matrices", "core.eigh", "work", CLI, _PROJ),
    Metric("core.fd_eigh_share", "core.eigh", "fd_share", CLI, _PROJ),
    Metric("berry.curvature_s", "berry.curvature", "s", CLI, _PROJ),
    Metric("berry.curvature_kpoints", "berry.curvature", "work", CLI, _PROJ),
    Metric("transport.trs_frame_s", "transport.trs_frame", "s", TRS, _TRSM),
    Metric("transport.trs_frames", "transport.trs_frame", "calls", TRS, _TRSM),
    Metric("transport.trs_frame_distinct_ratio", "transport.trs_frame",
           "distinct_ratio", TRS, _TRSM),
    Metric("linalg.polar_project_calls", "linalg.polar_project", "calls", TRS, _TRSM),
    Metric("linalg.polar_project_s", "linalg.polar_project", "s", TRS, _TRSM),
    Metric("linalg.kramers_basis_calls", "linalg.kramers_basis", "calls", TRS, _TRSM),
    Metric("berry.ebz_curvature_s", "berry.ebz_curvature", "s", TRS, _TRSM),
    Metric("berry.ebz_curvatures", "berry.ebz_curvature", "calls", TRS, _TRSM),
    Metric("berry.ebz_curvature_distinct_ratio", "berry.ebz_curvature",
           "distinct_ratio", TRS, _TRSM),
    Metric("berry.delta_self_s", "berry.delta", "self_s", TRS, _TRSM),
    Metric("berry.connection_s", "berry.connection", "s", TRS, _TRSM),
    Metric("wz.kappa_self_s", "wz.kappa", "self_s", TRS, _TRSM),
    Metric("wz.amplitude_phi_s", "wz.amplitude_phi", "s", TRS, _TRSM),
    Metric("core.check_trs_s", "core.check_trs", "s", TRS, _TRSM),
    Metric("lattice.lattice_z2_s", "lattice.lattice_z2", "s", TRS, _TRSM),
    Metric("wz.up_extension_s", "wz.up_extension", "s", CLI, _WZD),
    Metric("wz.chi_triple_s", "wz.chi_triple", "s", ALL, _WZD),
    Metric("wz.chi_triple_points", "wz.chi_triple", "work", ALL, _WZD),
    Metric("wz.chi_triple_gflop_computed", "wz.chi_triple", "gflop", ALL, _WZD,
           computed=True),
    Metric("grids.spectral_derivative_s", "grids.spectral_derivative", "s", ALL, _WZD),
    Metric("wz.pw_self_s", "wz.pw", "self_s", WZF, _PWM),
    Metric("wz.apw_self_s", "wz.apw", "self_s", WZF, _PWM),
    Metric("wz.alpha_integral_s", "wz.alpha_integral", "s", WZF, _PWM),
    Metric("wz.beta_integral_s", "wz.beta_integral", "s", WZF, _PWM),
    Metric("wz.conjugated_field_s", "wz.conjugated_field", "s", WZF, _PWM),
    Metric("wz.product_field_s", "wz.product_field", "s", WZF, _PWM),
    Metric("wz.tube_extension_s", "wz.tube_extension", "s", WZF, _PWM),
    Metric("grids.integrate_grid_s", "grids.integrate_grid", "s", ALL, _PWM),
    Metric("lattice.plaquette_chern_s", "lattice.plaquette_chern", "s", CLI,
           "throughput_rps on chern_haldane and trs_kane_mele"),
    Metric("cli.self_s", REQUEST_SPAN, "self_s", CLI,
           "latency_p50_s on chern_haldane and trs_kane_mele"),
)

class MissingSpan(Exception):
    """A traced run recorded no span for a layer its workload must reach."""


# Computed in run.py from the traced and untraced passes, not from spans.
OVERHEAD_METRIC = "trace.overhead_frac"
UNITS = {**{m.name: m.unit for m in METRICS}, OVERHEAD_METRIC: "frac"}


class Recorder:
    """Keeps every span in memory; nothing is written until the run ends.

    A span is the tuple (request, id, parent, name, start, end, self_s,
    outermost, under_derivative, work, key, flop). Only calls made inside a
    REQUEST_SPAN are recorded: work the benchmark itself does between
    requests while the wrappers are installed (such as the speed calibration
    in run.py, which calls numpy.linalg.eigh) is not the program's."""

    def __init__(self):
        self.spans = []
        self.request = -1
        self._ids = itertools.count()
        self._stack = []          # [id, child seconds]
        self._active = Counter()  # open spans per name

    def call(self, name, fn, args, kwargs, probe=None):
        if not self._stack and name != REQUEST_SPAN:
            return fn(*args, **kwargs)
        sid = next(self._ids)
        parent = self._stack[-1][0] if self._stack else None
        outermost = self._active[name] == 0
        under_derivative = self._active["core.derivative"] > 0
        frame = [sid, 0.0]
        self._stack.append(frame)
        self._active[name] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._active[name] -= 1
            if self._stack:
                self._stack[-1][1] += end - start
        work, key, flop = probe(args, kwargs, result) if probe else (1, None, 0)
        self.spans.append((self.request, sid, parent, name, start, end,
                           end - start - frame[1], outermost, under_derivative,
                           work, key, flop))
        return result


def _resolve(path):
    module_name, _, cls = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls) if cls else module


def _wrapper(recorder, layer, original):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        return recorder.call(layer.span, original, args, kwargs, layer.probe)
    return traced


def _topoinv_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "topoinv" or name.startswith("topoinv."))]


@contextmanager
def installed(recorder):
    """Wrap every layer function for the duration of the block.

    A module-level function is rebound wherever a topoinv module (or its
    owner module) holds the same object; a method is replaced on its class.
    Yields the list of (namespace, name) bindings that were replaced."""
    patches = []
    try:
        for layer in LAYERS:
            owner = _resolve(layer.owner)
            original = getattr(owner, layer.attr)
            traced = _wrapper(recorder, layer, original)
            targets = [owner] if isinstance(owner, type) else list(
                {id(m): m for m in [owner, *_topoinv_modules()]}.values())
            for ns in targets:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        patches.append((ns, name, original))
                        setattr(ns, name, traced)
        yield [(getattr(ns, "__name__", ns), name) for ns, name, _ in patches]
    finally:
        for ns, name, original in reversed(patches):
            setattr(ns, name, original)


def summarize(spans, n_requests, workload):
    """Per-request layer metrics from one traced pass.

    Raises MissingSpan when a metric required on `workload` has no span."""
    incl = defaultdict(float)
    self_s = defaultdict(float)
    calls = Counter()
    work = defaultdict(float)
    flop = defaultdict(float)
    keys = defaultdict(set)
    fd_work = defaultdict(float)
    for (req, _sid, _parent, name, start, end, own, outermost, under_fd,
         w, key, f) in spans:
        calls[name] += 1
        self_s[name] += own
        if outermost:
            incl[name] += end - start
        work[name] += w
        flop[name] += f
        if key is not None:
            keys[name].add((req, key))
        if under_fd:
            fd_work[name] += w
    missing = [m.name for m in METRICS if workload in m.required and calls[m.span] == 0]
    if missing:
        raise MissingSpan(f"traced run of {workload} recorded no span for {missing}")
    out = {}
    for m in METRICS:
        s, n = m.span, calls[m.span]
        value = {
            "s": incl[s] / n_requests,
            "self_s": self_s[s] / n_requests,
            "calls": n / n_requests,
            "work": work[s] / n_requests,
            "distinct_ratio": len(keys[s]) / n if n else 0.0,
            "gflop": flop[s] / 1e9 / n_requests,
            "fd_share": fd_work[s] / work[s] if work[s] else 0.0,
        }[m.quantity]
        out[m.name] = value
    return out
