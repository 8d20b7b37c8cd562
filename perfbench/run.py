"""topoinv benchmark: closed-loop workloads timed end to end, and a separate
traced run that times each layer.

    python3 perfbench/run.py --workload chern_haldane --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a source checkout; the program is imported from
the checkout's `src/`. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.
The line before it (prefixed `perfbench-meta`) and `perfbench/out/` hold the
run's stamp, sample counts and, for traced runs, every span.

One client issues one request at a time (a closed loop) in this process,
with the BLAS thread variables below set for this process and its probes
only. `setup_s` is measured in fresh interpreters started by this script.
"""

import os

THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)  # before numpy is imported anywhere

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
# Reference speed: the calibration kernel takes CALIBRATION_REF_S there.
CALIBRATION_REF_S = 0.1
E2E_UNITS = {"setup_s": "s", "throughput_rps": "1/s", "latency_p50_s": "s",
             "peak_rss_mb": "MB", "residual_max": "1", "success_frac": "frac"}
PROBE_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot produce a result; no result line is printed."""


def import_program():
    """Import topoinv from this checkout's src/, never from elsewhere."""
    if not (SRC / "topoinv" / "__init__.py").is_file():
        raise BenchError(f"no topoinv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import topoinv
    if Path(topoinv.__file__).resolve().parent != (SRC / "topoinv").resolve():
        raise BenchError(f"imported topoinv from {topoinv.__file__}, not {SRC}")
    return topoinv


def declared_metrics():
    """Metric names and units from BENCHMARK.json, by section."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    spec = json.loads(path.read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def stamp(seed):
    """Where and on what the run was made."""
    import scipy

    def blas(config):
        try:
            return config["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return None

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        try:
            res = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                                 text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha, "git_dirty": bool(status) if status is not None else None,
        "seed": seed, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(getattr(np.__config__, "CONFIG", None)),
        "openblas_scipy": blas(getattr(scipy.__config__, "CONFIG", None)),
        "thread_vars": THREAD_VARS,
    }


def first_cycles(workload, seed, n):
    gen = workloads.cycles(workload, seed)
    return [req for _ in range(n) for req in next(gen)]


def attempt(req, runner=None):
    """Run and check one request. Returns (output, seconds, ok, residual, reason);
    a request that raises is a failed request, not a crash of the run."""
    start = time.perf_counter()
    try:
        output = runner(req) if runner else workloads.run(req)
    except Exception as exc:  # the request boundary: record and go on
        return None, time.perf_counter() - start, False, None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    try:
        ok, residual, reason = workloads.check(req, output)
    except (KeyError, TypeError, ValueError) as exc:
        ok, residual, reason = False, None, f"unreadable output: {exc}"
    return output, seconds, ok, residual, reason


class Tally:
    """Attempted and failed requests of a run, with the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, req, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(f"{req.kind}{req.params}: {reason}")


class Calibration:
    """A fixed numpy kernel of the kind topoinv runs (batched Hermitian eigh,
    small matrix products, trace contractions, FFTs), timed before and after
    every measured interval.

    On a shared 2-core host the speed can halve within minutes as other
    tenants load it, and every kernel slows alike. An interval is reported at a fixed
    reference speed: scaled by CALIBRATION_REF_S over the mean of the kernel
    times on either side of it. The kernel does not use topoinv, so a change
    to the program moves scaled times as it moves raw ones."""

    def __init__(self):
        rng = np.random.default_rng(20161117)
        self._h2 = self._hermitian(rng, 16384, 2)
        self._h4 = self._hermitian(rng, 2048, 4)
        self._grid = rng.standard_normal((64, 64, 2, 2)) + 0j
        self.samples = []

    @staticmethod
    def _hermitian(rng, n, dim):
        a = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
        return a + a.conj().swapaxes(-1, -2)

    def measure(self):
        """Time the kernel once; returns and records the seconds."""
        start = time.perf_counter()
        for _ in range(2):
            for h in (self._h2, self._h4):
                _, v = np.linalg.eigh(h)
                p = v @ v.conj().swapaxes(-1, -2)
                np.einsum("...ab,...ba->...", p @ h, h @ p)
            np.fft.ifft(np.fft.fft(self._grid, axis=0) * 1j, axis=1)
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        return seconds

    @staticmethod
    def scale(seconds, before, after):
        """An interval's seconds at the reference speed."""
        return seconds * 2.0 * CALIBRATION_REF_S / (before + after)


# ------------------------------------------------------------ end to end

def probe(workload, seed):
    """Body of a setup probe: a fresh interpreter imports topoinv, generates
    the inputs and completes the first request."""
    import_program()
    req = first_cycles(workload, seed, 1)[0]
    _, _, ok, _, reason = attempt(req)
    print(json.dumps({"ok": ok, "reason": reason}), flush=True)


def run_probe(workload, seed):
    """Seconds from starting a fresh interpreter until it reports its first
    request complete, and that request's verdict."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", workload,
           "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line:
        raise BenchError(f"setup probe exited with {proc.returncode}")
    verdict = json.loads(line)
    return seconds, verdict["ok"], verdict["reason"]


def end_to_end(workload, seed, seconds):
    tally = Tally()
    calibration = Calibration()
    raw_probe_s, probe_s = [], []
    first = first_cycles(workload, seed, 1)[0]
    before = calibration.measure()
    for _ in range(SETUP_PROBES):
        s, ok, reason = run_probe(workload, seed)
        after = calibration.measure()
        tally.add(first, ok, reason)
        raw_probe_s.append(s)
        probe_s.append(calibration.scale(s, before, after))
        before = after

    # Warm-up: the reference cycles, checked but outside the timed loop.
    # They take the first-call costs (already in setup_s), give residual_max
    # over fixed inputs, and keep their slower fixed points (the Rashba fkm
    # requests) from shifting the timed mix with the number of cycles run.
    gen = workloads.cycles(workload, seed)
    reference_residuals, all_residuals = [], []
    for _ in range(workloads.REFERENCE_CYCLES[workload]):
        for req in next(gen):
            _, _, ok, residual, reason = attempt(req)
            tally.add(req, ok, reason)
            if residual is not None:
                reference_residuals.append(residual)

    raw_latencies, latencies = [], []
    n_cycles = 0
    before = calibration.measure()
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for req in next(gen):
            _, s, ok, residual, reason = attempt(req)
            after = calibration.measure()
            tally.add(req, ok, reason)
            raw_latencies.append(s)
            latencies.append(calibration.scale(s, before, after))
            before = after
            if residual is not None:
                all_residuals.append(residual)
        now = time.perf_counter()
        n_cycles += 1
        # Stop at the cycle boundary nearest the deadline, so every run has
        # the workload's mix.
        if now - start + 0.5 * (now - cycle_start) >= seconds:
            break
    elapsed = now - start
    metrics = {
        "setup_s": statistics.median(probe_s),
        "throughput_rps": len(latencies) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "residual_max": max(reference_residuals, default=workloads.RESIDUAL_FLOOR),
        "success_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    samples = {"setup_s": probe_s, "latency_s": latencies, "cycles": n_cycles,
               "unscaled_setup_s": raw_probe_s, "unscaled_latency_s": raw_latencies,
               "calibration_s": calibration.samples, "elapsed_s": elapsed,
               "unscaled_overall_rps": len(raw_latencies) / elapsed,
               "residual_max_all": max(reference_residuals + all_residuals,
                                       default=None)}
    return metrics, tally, samples


# ----------------------------------------------------------------- traced

def traced(workload, seed, seconds):
    """Replay the first cycles untraced, then traced; the outputs must agree
    exactly, and the layer metrics come from the traced pass."""
    n_cycles = max(workloads.REFERENCE_CYCLES[workload],
                   round(seconds / (2 * workloads.NOMINAL_CYCLE_S[workload])))
    requests = first_cycles(workload, seed, n_cycles)
    tally = Tally()
    _, _, ok, _, reason = attempt(requests[0])  # warm-up: first-call costs
    tally.add(requests[0], ok, reason)

    calibration = Calibration()

    def replay(runner):
        prints, total = [], 0.0
        before = calibration.measure()
        for req in requests:
            out, s, ok, _, reason = attempt(req, runner)
            after = calibration.measure()
            tally.add(req, ok, reason)
            prints.append(workloads.fingerprint(out))
            total += calibration.scale(s, before, after)
            before = after
        return prints, total

    plain_prints, plain_s = replay(None)
    recorder = layers.Recorder()

    def run_traced(req):
        recorder.request += 1
        return recorder.call(layers.REQUEST_SPAN, workloads.run, (req,), {})

    with layers.installed(recorder) as bindings:
        traced_prints, traced_s = replay(run_traced)
    mismatched = [i for i, (a, b) in enumerate(zip(plain_prints, traced_prints)) if a != b]
    if mismatched:
        tally.failed += len(mismatched)
        tally.reasons.append(f"traced outputs differ from untraced at requests {mismatched}")

    metrics = layers.summarize(recorder.spans, len(requests), workload)
    metrics[layers.OVERHEAD_METRIC] = 1.0 - plain_s / traced_s
    by_kind = {}
    for kind in sorted({r.kind for r in requests}):
        ids = {i for i, r in enumerate(requests) if r.kind == kind}
        by_kind[kind] = {"requests": len(ids), "metrics": layers.summarize(
            [sp for sp in recorder.spans if sp[0] in ids], len(ids), None)}
    samples = {"cycles": n_cycles, "requests": len(requests), "untraced_s": plain_s,
               "traced_s": traced_s, "spans": len(recorder.spans),
               "bindings": bindings, "per_kind": by_kind,
               "layer_map": {m.name: {"moves": m.moves, "required_on": m.required,
                                      "computed": m.computed} for m in layers.METRICS}}
    return metrics, tally, samples, recorder.spans


# ------------------------------------------------------------------- main

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.workload, args.seed)
        return 0

    e2e_units, layer_units = declared_metrics()
    units = layer_units if args.trace else e2e_units
    computed_units = layers.UNITS if args.trace else E2E_UNITS
    if computed_units != units:
        raise BenchError(f"metrics {sorted(set(computed_units.items()) ^ set(units.items()))} "
                         "differ from BENCHMARK.json")
    import_program()
    meta = stamp(args.seed)
    meta.update(workload=args.workload, seconds=args.seconds, trace=args.trace)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values, tally, samples, spans = traced(args.workload, args.seed, args.seconds)
        with open(OUT / f"{tag}.spans.jsonl", "w", encoding="utf-8") as fh:
            fh.write("# request id parent name start end self_s outermost "
                     "under_derivative work key flop\n")
            for sp in spans:
                fh.write(json.dumps(sp, default=repr) + "\n")
    else:
        values, tally, samples = end_to_end(args.workload, args.seed, args.seconds)
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    meta.update(samples=samples, failures=tally.reasons[:20])
    (OUT / f"{tag}.json").write_text(json.dumps({"meta": meta, "result": result},
                                                indent=1, default=repr) + "\n")
    print("perfbench-meta " + json.dumps(meta, default=repr))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, layers.MissingSpan) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
