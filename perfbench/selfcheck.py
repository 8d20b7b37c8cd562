"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py [--seconds 4]

1. BENCHMARK.json names exactly the workloads the code runs (run.py itself
   refuses to run when its metrics differ from BENCHMARK.json's).
2. Every binding of a traced function is wrapped while tracing and restored
   after it, including re-exports such as `berry.build_trs_frame`.
3. A short end-to-end run is correct and reports every end-to-end metric
   above zero.
4. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   nonzero without printing a result.
5. Two traced run.py runs per workload with the same seed are correct (each
   reproduces its untraced outputs exactly, or run.py marks it incorrect)
   and give identical counts.
6. The counts those runs print are the seed code's: 188,416 eigh matrices
   (70% inside ProjectorFamily.derivative) per haldane chern request; per
   fkm request, 6 TRS frames for 2 distinct loops, 2 half-zone curvature
   grids for 1 distinct grid, 3,072 polar projections and 206,762 eigh
   matrices; on wz_functionals, 2,048 eigh matrices per request, all in
   the trials' tube extensions (none from the benchmark's own calibration).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

COUNT_QUANTITIES = ("calls", "work", "distinct_ratio", "gflop", "fd_share")

failures = []


def check(cond, message):
    print(("ok   " if cond else "FAIL ") + message, flush=True)
    if not cond:
        failures.append(message)


def check_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
          "BENCHMARK.json names exactly the workloads of workloads.WORKLOADS")


def check_bindings():
    import topoinv.berry
    import topoinv.cli
    import topoinv.grids
    import topoinv.transport
    import topoinv.wz
    named = [(topoinv.transport, "build_trs_frame"), (topoinv.berry, "build_trs_frame"),
             (topoinv.wz, "build_trs_frame"), (topoinv.grids, "integrate_grid"),
             (topoinv.berry, "integrate_grid"), (topoinv.wz, "integrate_grid"),
             (topoinv.berry, "spectral_derivative"), (topoinv.cli, "make_projector_family"),
             (topoinv.cli, "check_trs"), (topoinv.transport, "check_trs")]
    before = [getattr(mod, name) for mod, name in named]
    with layers.installed(layers.Recorder()):
        wrapped = [getattr(mod, name) for mod, name in named]
    after = [getattr(mod, name) for mod, name in named]
    check(all(w is not b and w.__wrapped__ is b for w, b in zip(wrapped, before)),
          "every named binding is wrapped while tracing")
    check(all(a is b for a, b in zip(after, before)), "every binding is restored after")


def run_bench(workload, seed, seconds, trace):
    """One run.py run: (result, meta, stderr); result and meta are None if it
    exits nonzero."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        return None, None, proc.stderr
    *_, meta_line, result_line = proc.stdout.strip().splitlines()
    meta = json.loads(meta_line.removeprefix("perfbench-meta "))
    return json.loads(result_line), meta, proc.stderr


def check_counts(chern, fkm, wzf):
    """The seed-code counts, as printed by traced run.py runs."""
    check(chern["core.eigh_matrices"] == 188416,
          f"haldane chern: {chern['core.eigh_matrices']:.0f} eigh matrices (188416)")
    check(round(chern["core.fd_eigh_share"], 2) == 0.70,
          f"haldane chern: {chern['core.fd_eigh_share']:.3f} of them in derivative (0.70)")
    expect = {"transport.trs_frames": 6, "transport.trs_frame_distinct_ratio": 2 / 6,
              "berry.ebz_curvatures": 2, "berry.ebz_curvature_distinct_ratio": 1 / 2,
              "linalg.polar_project_calls": 3072, "core.eigh_matrices": 206762}
    for name, value in expect.items():
        check(fkm[name] == value, f"kane_mele fkm: {name} = {fkm[name]} ({value})")
    # Only the trial's ten tube extensions call eigh here, on 32^2 points
    # each; one request in five is a trial.
    check(wzf["core.eigh_matrices"] == 10 * 32 ** 2 / 5,
          f"wz_functionals: {wzf['core.eigh_matrices']:.0f} eigh matrices (2048)")


def check_traced(seconds):
    """Two traced runs per workload: both correct (so each reproduces its
    untraced outputs), identical counts, and the seed-code counts."""
    counts = [m.name for m in layers.METRICS if m.quantity in COUNT_QUANTITIES]
    firsts = {}
    for workload in sorted(workloads.WORKLOADS):
        first, meta, err1 = run_bench(workload, 7, seconds, 1)
        second, _, err2 = run_bench(workload, 7, seconds, 1)
        if first is None or second is None:
            check(False, f"{workload}: traced runs completed ({err1}{err2})")
            continue
        check(first["correct"] and second["correct"],
              f"{workload}: traced runs correct, outputs equal to untraced")
        diff = [n for n in counts
                if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
        check(not diff, f"{workload}: two traced runs give identical counts {diff}")
        firsts[workload] = {n: m["value"] for n, m in first["metrics"].items()}, meta
    if len(firsts) == len(workloads.WORKLOADS):
        check_counts(firsts["chern_haldane"][0],
                     firsts["trs_kane_mele"][1]["samples"]["per_kind"]["fkm"]["metrics"],
                     firsts["wz_functionals"][0])


def check_end_to_end():
    result, _, err = run_bench("chern_haldane", 3, 1, 0)
    check(result is not None and result["correct"]
          and set(result["metrics"]) == set(bench.E2E_UNITS)
          and all(m["value"] > 0 for m in result["metrics"].values()),
          f"short end-to-end run is correct with every metric above zero {err[-300:]}")


def check_bare_directory():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench" / f.name)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "chern_haldane", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"without the program, run.py exits {proc.returncode} and prints no result")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=int, default=4)
    args = parser.parse_args()
    bench.import_program()
    check_workloads()
    check_bindings()
    check_end_to_end()
    check_bare_directory()
    check_traced(args.seconds)
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
