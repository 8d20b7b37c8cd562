"""The benchmark's contract with the program: every layer function that
perfbench/ traces still resolves, and one request of each kind from each
workload's reference cycles runs correctly under the tracer and records every
span its workload requires, and criterion 8's homotopy trial is the trial the
wz_functionals workload runs.

perfbench/ is only read: its directory is put on sys.path to import its
`layers` and `workloads` modules.
"""

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import topoinv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    # the tracer rebinds only modules already imported; a module first
    # imported inside its block would keep a stale wrapper
    for info in pkgutil.iter_modules(topoinv.__path__):
        importlib.import_module(f"topoinv.{info.name}")
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("layers"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_layer_resolves(bench):
    layers, _ = bench
    for layer in layers.LAYERS:
        module_name, _, cls = layer.owner.partition(":")
        owner = importlib.import_module(module_name)
        if cls:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, layer.attr, None)), layer


@pytest.mark.parametrize("workload", ["chern_haldane", "trs_kane_mele", "wz_functionals"])
def test_reference_requests_pass_traced(bench, workload):
    layers, workloads = bench
    cycles = workloads.cycles(workload, 0)
    requests = {}
    for _ in range(workloads.REFERENCE_CYCLES[workload]):
        for req in next(cycles):
            requests.setdefault(req.kind, req)
    recorder = layers.Recorder()
    outputs = []
    with layers.installed(recorder):
        for req in requests.values():
            recorder.request += 1
            outputs.append(recorder.call(layers.REQUEST_SPAN, workloads.run, (req,), {}))
    for req, output in zip(requests.values(), outputs):
        ok, _, reason = workloads.check(req, output)
        assert ok, (req, reason)
    layers.summarize(recorder.spans, len(requests), workload)   # raises MissingSpan


def test_homotopy_trial_is_the_benchmark_trial(bench):
    """Criterion 8's trial and the wz_functionals trial give the same values,
    bit for bit, on the workload's reference trial."""
    from topoinv import certify
    _, workloads = bench
    [req] = [r for r in next(workloads.cycles("wz_functionals", 0)) if r.kind == "trial"]
    assert req.params == (-2, -2, 1, 0, 3000, 4000)
    assert certify.homotopy_trial(req.params[:4], *req.params[4:]) == workloads.run(req)
